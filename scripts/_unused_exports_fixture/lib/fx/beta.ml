let size l = List.fold_left ( + ) 0 l
let total l = 2 * size l
let twice n = 2 * n
