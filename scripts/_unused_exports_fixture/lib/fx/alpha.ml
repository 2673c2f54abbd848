let size = List.length

let run ?(verbose = false) ?(limit = 10) n =
  if verbose then print_int n;
  min n limit
