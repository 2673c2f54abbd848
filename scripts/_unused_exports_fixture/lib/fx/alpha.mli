val size : int list -> int
val run : ?verbose:bool -> ?limit:int -> int -> int
