(** Deterministic pseudo-random number generation.

    All stochastic components of the reproduction (solvers, searchers,
    measurement jitter) draw from this splittable SplitMix64 generator so
    that every experiment is reproducible from a single seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent generators, advancing [t] [n]
    times. Generator [i] depends only on [t]'s state and [i], making it
    the unit of determinism for parallel fan-out: hand generator [i] to
    task [i] and results are reproducible whatever the execution order. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val state_hex : t -> string
(** The full generator state as 16 hex digits, for checkpoints. *)

val set_state_hex : t -> string -> (unit, string) result
(** [set_state_hex t s] restores a state captured by {!state_hex}; the
    stream then continues exactly where the captured generator stood. *)

val split_at : t -> int -> t
(** [split_at t i] is [(split_n (copy t) (i + 1)).(i)] without materializing
    the array and without advancing [t]: random access into the indexed
    split sequence. The generator-friendly fan-out helper — a property test
    or worker can derive stream [i] from the parent state alone. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [\[lo, hi\]] inclusive.
    Requires [lo <= hi]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choice_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1]. *)

val sample : t -> 'a list -> int -> 'a list
(** [sample t xs k] draws [min k (length xs)] distinct elements. *)
