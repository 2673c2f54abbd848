val size : int list -> int
val total : int list -> int
