(** Minimal JSON values, emission and parsing — the journal's wire format.
    No external dependency; covers exactly what the observability schema
    needs (finite numbers, escaped strings, arrays, objects). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Floats use the shortest decimal form
    that round-trips; non-finite floats degrade to [null]. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing garbage is an error. Numbers
    without [.]/[e] parse as [Int], others as [Float]. *)

val member : string -> t -> t option
(** [member key json] is the field [key] of an object, [None] otherwise. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] values widen to float. *)

val to_string_opt : t -> string option
