(* The reader half of {!Tf_json} under its old accessor names.
   perfbench/ is the only user of this shim; the repository's own code
   names [Tf_json] directly. *)

include Tf_json

let to_list = get_list
let to_float = get_float
let to_string = get_string
