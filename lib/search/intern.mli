(** Candidate interning — the identity layer of the flat search engine.

    Maps each distinct candidate to a dense int id (allocated
    contiguously from 0). A candidate is its values indexed by variable
    id (positions in {!Heron_csp.Problem.vars}): interning hashes and
    compares int arrays, and the candidate's {!Heron_csp.Assignment.t}
    and canonical {!Heron_csp.Assignment.key} string are built only on
    first use and memoized per id. The search loop's dedupe/seen/cache/
    quarantine bookkeeping is int-keyed array access with no per-touch
    map or string building. Dense ids double as indices into per-id side
    tables (cache flags, cached feature rows, dedupe stamps).

    Counters: [search.interned] counts distinct candidates admitted,
    [search.intern_hits] counts re-interns resolved to an existing id.
    Interning only happens on the sequential control path, so both are
    independent of pool size. *)

module Assignment = Heron_csp.Assignment

type t

val create : string array -> t
(** [create (Problem.vars p)]: a table for candidates of [p], whose
    variable [i] is [names.(i)]. *)

val size : t -> int
(** Number of ids allocated; valid ids are [0 .. size - 1]. *)

val intern_values : t -> int array -> int
(** The id of the candidate with these values (indexed by variable id),
    allocating the next dense id on first sight. The table keeps the
    array: the caller must not mutate it afterwards.
    @raise Invalid_argument when its length is not the variable count. *)

val intern : t -> Assignment.t -> int
(** [intern_values] on the assignment's values. A new id keeps this map
    as its {!assignment}.
    @raise Invalid_argument when the assignment does not bind exactly
    the problem's variables; the message names the first variable missed
    or the first binding that is not a variable. *)

val intern_keyed : t -> Assignment.t -> string -> int
(** [intern_keyed t a key] is [intern t a], additionally memoizing [key]
    as the id's key string. The caller guarantees
    [key = Assignment.key a] — checkpoint import uses this to recycle
    the strings it just parsed. *)

val values : t -> int -> int array
(** The candidate's values, indexed by variable id. Not to be mutated. *)

val assignment : t -> int -> Assignment.t
(** The candidate as an assignment, built on first use (inserting its
    bindings in the order {!Heron_csp.Solver} builds a solution's) and
    memoized. *)

val key : t -> int -> string
(** Canonical key string of an id ([Assignment.key] of its assignment),
    built on first use and memoized. *)
