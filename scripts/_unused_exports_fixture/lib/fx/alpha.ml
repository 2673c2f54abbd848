let size = List.length
let sweep l = List.map (fun n -> n + 1) l

let run ?(verbose = false) ?(limit = 10) n =
  if verbose then print_int n;
  min n limit
