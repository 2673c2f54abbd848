val size : int list -> int
val sweep : int list -> int list
val run : ?verbose:bool -> ?limit:int -> int -> int
