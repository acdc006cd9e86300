(** Finite integer domains.

    A domain is an immutable sorted set of candidate values for a CSP
    variable. All Heron domains are non-negative (loop extents, byte
    counts, candidate indices), which the propagators for PROD rely on. *)

type t

val of_list : int list -> t
(** Builds a domain from an arbitrary list (sorted and deduplicated). *)

val to_list : t -> int list

val to_array : t -> int array
(** The values in ascending order, as a fresh array: mutating it does not
    change the domain. *)

val of_sorted_array : int array -> t
(** [of_sorted_array a] is the domain of the strictly ascending array [a],
    which it takes over without copying: the caller must not mutate [a]
    afterwards. O(n), no sort.
    @raise Invalid_argument if [a] is not strictly ascending. *)

val singleton : int -> t

val range : int -> int -> t
(** [range lo hi] is the inclusive integer interval. *)

val empty : t

val is_empty : t -> bool

val size : t -> int

val min_value : t -> int
(** @raise Invalid_argument on an empty domain. *)

val max_value : t -> int
(** @raise Invalid_argument on an empty domain. *)

val mem : int -> t -> bool

val value : t -> int option
(** [value d] is [Some v] iff [d] is the singleton [v]. *)

val filter : (int -> bool) -> t -> t

val inter : t -> t -> t

val union : t -> t -> t

val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val random : Heron_util.Rng.t -> t -> int
(** Uniform element. @raise Invalid_argument on an empty domain. *)

val to_string : t -> string
