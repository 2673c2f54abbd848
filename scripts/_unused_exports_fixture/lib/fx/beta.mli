val size : int list -> int
val total : int list -> int
val twice : int -> int
