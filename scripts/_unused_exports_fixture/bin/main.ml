let () = print_int (Fx.Alpha.run ~limit:3 (Fx.Beta.total [ 1; 2 ]))
