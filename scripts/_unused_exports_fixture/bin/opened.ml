let () =
  let open Fx.Beta in
  print_int (twice 4)
