(* The number domain every generic cost formula takes: the Table 2 rows
   (Buffer_req.Gen), the op table (Layer_costs.Table) and the DPipe
   timeline replay (Dpipe.Replay).  At [Float] they are the concrete
   formulas; at Tf_analysis.Symexpr they build the expressions the range
   certifier bounds over a whole range of sequence lengths. *)
module type S = sig
  type t

  val of_int : int -> t
  val of_float : float -> t
  val add : t -> t -> t
  val mul : t -> t -> t
  val div : t -> float -> t  (* by a positive constant *)
  val max : t -> t -> t
end

module Float : S with type t = float = struct
  type t = float

  let of_int = float_of_int
  let of_float x = x
  let add = ( +. )
  let mul = ( *. )
  let div = ( /. )
  let max = Stdlib.Float.max
end
