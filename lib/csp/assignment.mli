(** Total or partial assignments of CSP variables (the concrete
    chromosomes of the search). *)

type t

val empty : t
val of_list : (string * int) list -> t

val of_values : string array -> int array -> t
(** [of_values names values] binds [names.(i)] to [values.(i)], inserting
    from the last index down to the first. This is the order in which the
    solver has always built its solutions, so the result is the very map
    it builds, not only an equal one. The arrays must have equal length. *)

val bindings : t -> (string * int) list
val get : t -> string -> int
(** @raise Not_found when the variable is unbound. *)

val find_opt : t -> string -> int option
val set : t -> string -> int -> t
val mem : t -> string -> bool
val cardinal : t -> int
val equal : t -> t -> bool

val fold : (string -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over bindings in increasing variable order (allocation-free, for
    structural hashing). *)

val key : t -> string
(** Canonical string rendering, usable as a hash/cache key. *)

val to_string : t -> string

val of_key : string -> (t, string) result
(** Parse a {!key} rendering back into an assignment. Only canonical
    renderings are accepted ([key (of_key s) = s]): bindings sorted by
    variable, no duplicates, integer values. Checkpoint import uses this
    to rebuild assignments without storing them twice. *)
