(** Packed bitset domains over a frozen universe.

    During search, a variable's live domain is always a subset of its
    frozen initial domain (propagation and branching only remove
    values). The solver therefore represents live domains as bitmasks
    over indices into that universe: bit [i] set means the [i]-th
    smallest initial value is still live. Membership, intersection,
    filtering and cardinality become word operations with zero
    allocation, and iteration stays ascending so value ordering — and
    every seeded trace — is unchanged relative to the sorted-array
    representation.

    Words hold {!bits_per_word} = 62 bits so every word is a
    non-negative OCaml [int]. Invariant maintained by all operations
    here: bits at positions >= the universe size are zero in the last
    word (so popcounts and equality never need masking).

    Two layers:
    - Low-level slice primitives over a caller-owned flat [int array]
      ([store]) at a word offset — the solver packs every variable's
      live words into one array so a search-tree snapshot is a single
      blit and backtracking is a trail of (word index, old word) pairs.
    - A self-contained high-level {!t} (universe + live words), used by
      the unit tests that pit bitset operations against the
      sorted-array {!Domain} reference. *)

val bits_per_word : int

val nwords : int -> int
(** Words needed for a universe of [n] values. [nwords 0 = 0]. *)

val count_lt : int array -> int -> int
(** [count_lt values x] is the number of values below [x] in the sorted
    array [values]: the position of [x] if present, else where it would
    go. Binary search. *)

val count_le : int array -> int -> int
(** [count_le values x] is the number of values [<= x] in [values]. *)

(** {1 Universe index} *)

type index
(** A value-to-position map over one sorted universe, bucketed by value
    with at most one bucket per value: O(1) for evenly spread values, a
    scan of one crowded bucket for skewed ones. Built once per
    universe. *)

val index : int array -> index
(** [index values] indexes the strictly ascending array [values] (kept
    by reference, not copied). *)

val position : index -> int -> int
(** [position ix x] is the position of [x] in the indexed universe, or
    [-1] if absent. *)

(** {1 Slice primitives}

    All take the flat [store], a word offset [off], and either the
    word count [nw] or the universe size [n] (bit count). *)

val fill : int array -> off:int -> n:int -> unit
(** Set bits [0..n-1], clear any tail bits of the last word. *)

val popcount : int array -> off:int -> nw:int -> int

val is_empty_slice : int array -> off:int -> nw:int -> bool

val mem_bit : int array -> off:int -> int -> bool
(** [mem_bit store ~off i] tests bit [i] of the slice. *)

val min_bit : int array -> off:int -> nw:int -> int
(** Lowest set bit index, or [-1] if the slice is empty. *)

val max_bit : int array -> off:int -> nw:int -> int
(** Highest set bit index, or [-1] if the slice is empty. *)

val iter_bits : (int -> unit) -> int array -> off:int -> nw:int -> unit
(** Ascending over set bit indices. *)

val equal_slices : int array -> int -> int array -> int -> nw:int -> bool
(** [equal_slices a aoff b boff ~nw] compares two [nw]-word slices. *)

val mask_range : int array -> off:int -> nw:int -> int -> int -> int array -> unit
(** [mask_range store ~off ~nw ilo ihi dst] writes into [dst.(0 .. nw-1)]
    the slice's words with every bit outside positions [[ilo, ihi)]
    cleared: the live values of a sorted universe that lie in a value
    range, one AND per word. *)

(** {1 Self-contained domains (for tests)} *)

type t = { values : int array; words : int array }
(** [values] is the frozen universe (strictly ascending); [words] are
    the live bits, [nwords (Array.length values)] of them. *)

val of_domain : Domain.t -> t
(** Universe = the given domain, all values live. *)

val to_domain : t -> Domain.t

val to_list : t -> int list

val size : t -> int

val is_empty : t -> bool

val mem : int -> t -> bool

val min_value : t -> int
(** @raise Invalid_argument on an empty domain. *)

val max_value : t -> int
(** @raise Invalid_argument on an empty domain. *)

val value : t -> int option
(** [Some v] iff the live set is the singleton [v]. *)

val restrict : (int -> bool) -> t -> t
(** Keep live values satisfying the predicate (same universe). *)

val inter : t -> t -> t
(** Intersection of live sets; both arguments must share the same
    universe (word AND). @raise Invalid_argument otherwise. *)

val iter : (int -> unit) -> t -> unit
(** Ascending over live values. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
