(** Independent validator for [transfusion.cert/1] certificates.

    This module deliberately shares {e no} code with the certifier
    ({!Range_cert}) or the pipeline it certifies: it reads the document
    with {!Tf_json.parse}, the repository's one JSON reader (so a
    certificate must be RFC 8259 JSON), carries its own expression
    evaluator and timeline replay, and re-checks every claim by plugging
    the recorded extremal witnesses back into the recorded witness
    expressions.  A certificate that
    passes both the certifier and this checker is vouched for by two
    disjoint implementations — the certifier would have to be wrong in a
    way the arithmetic of its own witnesses cannot expose for a bogus
    certificate to slip through. *)

val validate : string -> (string, string list) result
(** Validate a certificate document (JSON text).  [Ok summary] when every
    claim checks out; [Error problems] with one message per violated
    claim (or a parse diagnosis) otherwise. *)
