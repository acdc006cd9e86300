(** The in-memory lookup index of the serve daemon: an immutable snapshot
    of a published library compiled into flat arrays sorted by (FNV-1a
    hash, full key). A {!probe} carries the hashes of its full key and of
    its shape bucket, computed once, so a hit is one binary search over
    the hashes and one string compare. The query hashes nothing and
    allocates nothing: it returns a [Hit]/[Near] value that {!build}
    made once per snapshot. Allocation matters beyond its own cost: in
    OCaml 5 a minor collection stops every domain, so reader domains
    that allocated would keep stalling each other. A snapshot is never
    mutated after {!build}, so any number of reader domains may query it
    concurrently.

    The index cell itself is a single [Atomic.t] holding the current
    snapshot: readers [Atomic.get] (lock-free, wait-free), the single
    writer swaps in a freshly built snapshot whose version must be
    strictly greater — a reader therefore observes a monotone version
    sequence and never a torn state. *)

module Op = Heron_tensor.Op
module Library = Heron.Library

type snapshot

val build : version:int -> Library.t -> snapshot
(** Compile a library into an immutable snapshot. *)

val version : snapshot -> int
val size : snapshot -> int

(** A pre-resolved lookup key: the exact full key plus the shape bucket
    used for near-miss fallback, each with its hash. Computing it costs a
    few [sprintf]s and two hashes, so traffic generators resolve each
    distinct operator once up front and the hot path pays only the
    search. *)
type probe = private {
  p_key : string;  (** [op_key ^ "@" ^ dla], the same key a tuning task carries *)
  p_hash : int;  (** hash of [p_key] *)
  p_bucket : string option;
  p_bucket_hash : int;  (** hash of the bucket key; 0 without a bucket *)
}

val probe : dla:string -> Op.t -> probe

val bucket_key : dla:string -> Op.t -> string option
(** The shape bucket of an operator: every iterator extent rounded up to
    the next power of two. Operators in one bucket are "near" shapes. *)

type outcome =
  | Hit of Library.entry  (** exact (descriptor, op, shape) entry *)
  | Near of Library.entry
      (** no exact entry; serving the best entry of the same shape bucket *)
  | Miss

val query : snapshot -> probe -> outcome
(** Exact entry, else the bucket's best entry, else [Miss]. Allocates
    nothing and calls no hash function. *)

val query_op : snapshot -> dla:string -> Op.t -> outcome
(** [query_op] is [query snap (probe ~dla op)]. *)

val find : snapshot -> string -> Library.entry option
(** Exact lookup by full key ([op_key ^ "@" ^ dla]). *)

(** The published-snapshot cell. *)
type t

val create : snapshot -> t
val current : t -> snapshot

val publish : t -> snapshot -> unit
(** Swap in a newer snapshot.
    @raise Invalid_argument if its version is not strictly greater. *)
