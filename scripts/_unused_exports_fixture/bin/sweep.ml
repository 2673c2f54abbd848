let sweep limit = List.init limit (Fx.Alpha.run ~limit)
let () = List.iter print_int (sweep 3)
