(** Exporting experiment series: CSV files for external plotting and
    ASCII bar charts for terminal inspection. *)

val csv : columns:string list -> rows:(string * float list) list -> string
(** RFC-4180-ish CSV with a leading label column.  Fields containing
    commas or quotes are quoted. *)

module Json = Tf_json
(** The benchmark driver under [perfbench/] is the only user of this
    alias; everything else names {!Tf_json} directly. *)

val bar_chart : ?width:int -> title:string -> (string * float) list -> string
(** Horizontal ASCII bars scaled to the maximum value ([width] bar
    columns, default 48), e.g.

    {v
    speedup over unfused
    unfused      |#########                                       | 1.00
    transfusion  |################################################| 4.93
    v} *)
