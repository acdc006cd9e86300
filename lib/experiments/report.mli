(** Plain-text table rendering for experiment output. *)

val table : header:string list -> string list list -> string
(** Monospace-aligned table with a separator under the header. *)

val geomean : float list -> float
(** Geometric mean; 0 on the empty list. *)

val fmt_opt : float option -> string
(** Formats a latency/ratio, "-" for [None]. *)

val csv : header:string list -> string list list -> string
