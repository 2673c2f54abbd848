(** Numeric interpreter for Einsum cascades.

    Executes a {!Tf_einsum.Cascade.t} on concrete {!Nd.t} inputs under an
    extent environment, producing every intermediate and result tensor.
    This is the semantic ground truth of the IR: the transfusion cascade
    definitions (paper Cascades 1-4) are validated by interpreting them and
    comparing against the reference implementations in {!Ops},
    {!Attention} and {!Transformer}.

    Complexity is the full dense index-space walk — use small extents. *)

type env = (string * Nd.t) list
(** Tensor bindings by name.  The shape of each value must equal the
    extents of the indices of the reference under which it is used, in
    reference order. *)

val run : Tf_einsum.Extents.t -> Tf_einsum.Cascade.t -> inputs:env -> env
(** Interpret the cascade.  Returns {e all} produced tensors (intermediates
    and results), in production order.
    @raise Invalid_argument when an external input is missing, an input
    shape does not match its declared indices, or an index is unbound. *)

val run_results : Tf_einsum.Extents.t -> Tf_einsum.Cascade.t -> inputs:env -> env
(** Like {!run} but restricted to the cascade's results. *)

