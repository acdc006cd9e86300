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

    Only this module knows the word layout. Loops over bits are kernels
    here, which the solver calls once per slice (or, for {!supports},
    once per exact revise) rather than once per bit: a caller compiled
    against an opaque interface makes an indirect call for each call
    into this module, and divides by a word size it cannot see as a
    constant.

    The primitives work on slices of a caller-owned flat [int array]
    ([store]) at a word offset: the solver packs every variable's live
    words into one array, so a search-tree snapshot is a single blit and
    backtracking is a trail of (word index, old word) pairs. *)

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

(** {1 Word primitives}

    Branch-free and allocation-free, on one non-negative 62-bit word. *)

val popcount_word : int -> int
(** Number of set bits. *)

val lowest_bit_word : int -> int
(** Index of the lowest set bit (count of trailing zeros). The word must
    be non-zero. *)

val highest_bit_word : int -> int
(** Index of the highest set bit, or [-1] for the zero word. *)

(** {1 Slice primitives}

    All take the flat [store], a word offset [off], and either the
    word count [nw] or the universe size [n] (bit count). *)

val fill : int array -> off:int -> n:int -> unit
(** Set bits [0..n-1], clear any tail bits of the last word. *)

val popcount : int array -> off:int -> nw:int -> int

val mem_bit : int array -> off:int -> int -> bool
(** [mem_bit store ~off i] tests bit [i] of the slice. *)

val set_bit : int array -> int -> unit
(** [set_bit mask i] sets bit [i] of a mask held at word offset 0. *)

val min_bit : int array -> off:int -> nw:int -> int
(** Lowest set bit index, or [-1] if the slice is empty. *)

val max_bit : int array -> off:int -> nw:int -> int
(** Highest set bit index, or [-1] if the slice is empty. *)

val iter_bits : (int -> unit) -> int array -> off:int -> nw:int -> unit
(** Ascending over set bit indices. *)

val gather :
  int array -> off:int -> nw:int -> int array -> int array -> int array -> int -> unit
(** [gather store ~off ~nw values vals idx at] copies the slice's live
    values ([values.(i)] for each set bit [i], ascending) into [vals]
    and their bit indices into [idx], from position [at] on. Both
    buffers need room for {!popcount} more entries. *)

val filter : (int -> bool) -> int array -> off:int -> nw:int -> int array -> int array -> unit
(** [filter p store ~off ~nw values dst] writes into [dst.(0 .. nw-1)]
    the slice's words keeping only the set bits [i] with [p values.(i)].
    [p] is called once per set bit, ascending. *)

val singleton : int array -> nw:int -> int -> unit
(** [singleton dst ~nw i] writes into [dst.(0 .. nw-1)] the mask whose
    only set bit is [i]. *)

val supports :
  prod:bool ->
  index ->
  int array ->
  stride:int ->
  int array ->
  off:int ->
  nw:int ->
  int array ->
  int array ->
  nb:int ->
  na:int ->
  boff:int ->
  bnw:int ->
  int array ->
  int array ->
  int array ->
  int
(** The pair loop of one exact revise of [v = a * b] ([prod]) or
    [v = a + b] over three distinct variables:
    [supports ~prod vix tab ~stride store ~off ~nw vals idx ~nb ~na ~boff ~bnw sup_v sup_a sup_b].
    [v]'s live slice is [(off, nw)] of [store], non-empty, with universe
    index [vix]; [b]'s is at [(boff, bnw)]. [vals.(0 .. nb-1)] and
    [vals.(nb .. nb+na-1)] hold the live values of [b] and of [a],
    ascending and non-negative, with their bit indices at the same
    places of [idx] (see {!gather}); they are read without bounds
    checks.

    For each [x] of [a] it walks the [y] of [b] from the least one whose
    result can reach [v]'s least live value [vmin] ([ceil (vmin / x)],
    or [vmin - x]); that start only moves down as [x] ascends, so one
    cursor finds it. Each [y] is a probe: [x op y] past [v]'s largest
    live value ends the walk (results ascend with [y]); otherwise a
    result that is live in [v] is a hit, which marks the result's bit in
    [sup_v] and [y]'s in [sup_b], and the first hit marks [x]'s in
    [sup_a]. A product with [x = 0] is one probe and no walk: it is
    supported, and supports every live [y] (a copy of [b]'s slice into
    [sup_b]), iff 0 is [v]'s least live value. The three masks are ORed
    into, so the caller clears them. Returns the number of probes.

    [tab] is [[||]], or the constraint's pair table ({!pair_table} of
    [a]'s and [b]'s universes, [stride] the size of [b]'s): each result
    is then read from [tab.(xi * stride + yi)] instead of being looked
    up in [vix]. The same pairs are probed either way, so the count does
    not depend on the table. *)

val pair_table : prod:bool -> index -> int array -> int array -> int array
(** [pair_table ~prod vix a b] is the table {!supports} reads for
    universes [a] and [b]: entry [ia * Array.length b + ib] is the
    position of [a.(ia) op b.(ib)] in the universe [vix] indexes, or [-1]
    if it is not there. *)

val unwind :
  int array ->
  owner:int array ->
  sizes:int array ->
  int array ->
  int array ->
  from:int ->
  mark:int ->
  unit
(** [unwind store ~owner ~sizes tr_idx tr_old ~from ~mark] undoes trail
    entries [from - 1] down to [mark]: entry [i] restores word
    [tr_idx.(i)] of [store] to [tr_old.(i)], and moves the live count of
    the variable that owns the word ([sizes.(owner.(w))]) by the change
    in the word's popcount. *)

val mark_values : index -> int array -> int array -> unit
(** [mark_values ix values dst] sets in the mask [dst] the position of
    each of [values] that the indexed universe holds. *)

val filter_members :
  index -> int array -> src:int -> int array -> off:int -> nw:int -> int array -> unit
(** [filter_members ix store ~src values ~off ~nw dst] writes into
    [dst.(0 .. nw-1)] the words of the slice at [off], with universe
    [values], keeping only the set bits whose value is live in a second
    slice of [store]: the one at word offset [src], whose universe [ix]
    indexes. The two universes may differ, and the slices may be the
    same. *)

val meets : index -> int array -> src:int -> int array -> off:int -> nw:int -> bool
(** [meets ix store ~src values ~off ~nw] is whether {!filter_members}
    would keep any bit: some live value of the slice at [off] is live in
    the slice at [src]. It stops at the first such value. *)

val mask_range : int array -> off:int -> nw:int -> int -> int -> int array -> unit
(** [mask_range store ~off ~nw ilo ihi dst] writes into [dst.(0 .. nw-1)]
    the slice's words with every bit outside positions [[ilo, ihi)]
    cleared: the live values of a sorted universe that lie in a value
    range, one AND per word. *)

(** {1 Pairwise domains} *)

val combine : ?cap:int -> prod:bool -> Domain.t -> Domain.t -> Domain.t
(** [combine ?cap ~prod a b] is exactly
    [Domain.of_list [x op y | x in a, y in b, x op y <= cap]], with [op]
    the product ([prod]) or the sum and no cap when [cap] is absent: the
    exact domain of a C5 auxiliary (paper Table 8) over its two operands.
    Neither a hash table nor a list sort: for each [x] of the smaller
    operand it takes the ascending [y] up to the bound, then reads the
    results back from a bitset over their range or, when that bitset
    would have more words than there are pairs, merges the ascending
    rows. Empty operands, and a cap below [min a op min b], give the
    empty domain.

    Results do not overflow: every operand is a loop extent or a C5
    value, and C5 caps its values at 4 x a scratchpad capacity, so a
    product stays far below [2^62].
    @raise Invalid_argument if an operand holds a negative value (the
    prefix walk relies on results ascending). *)
