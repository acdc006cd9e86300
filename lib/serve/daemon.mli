(** The tuning-as-a-service daemon: a published {!Index} snapshot serving
    microsecond lookups, a {!Store} persisting versioned library snapshots,
    and a {!Tuning_queue} turning cache misses into background tuning work.

    Determinism contract: each task tunes with a seed derived from the
    daemon seed and the task's full key (order- and jobs-independent), the
    queue order is durable, and publishes are atomic — so a daemon killed
    at any instant and restarted from the same directory drains to a final
    library byte-identical to an uninterrupted run, at any [--jobs].

    Degraded mode: when the store refuses writes even after bounded
    retries (persistent ENOSPC/EIO), the daemon flips read-only — the
    [serve.read_only] gauge goes to 1, lookups keep being answered from
    the in-memory index (including freshly tuned results), tuned tasks
    stay in the durable queue, and every subsequent {!pump} first retries
    the pending publish; the first success persists everything at once
    and flips the gauge back to 0. Queue-checkpoint write failures are
    likewise non-fatal (counted on [serve.queue_sync_failures]).

    Counters: [serve.lookups], [serve.hits], [serve.misses],
    [serve.degraded], [serve.enqueued], [serve.deduped], [serve.publishes]
    (in {!Store}), [serve.tasks], [serve.unresolved],
    [serve.publish_failures], [serve.queue_sync_failures]. Gauge:
    [serve.read_only]. Spans: [serve.pump], [serve.tune], [serve.publish].
    None of them touch RNG state. *)

module Op = Heron_tensor.Op
module Descriptor = Heron_dla.Descriptor
module Library = Heron.Library

type config = {
  dir : string;  (** store directory (created if missing) *)
  desc : Descriptor.t;  (** the DLA this daemon serves *)
  resolve : string -> Op.t option;
      (** op_key -> operator, over the daemon's serving universe; tasks
          whose key no longer resolves are dropped (and counted) *)
  budget : int;  (** measurement budget per tuning task *)
  seed : int;  (** daemon seed; per-task seeds derive from it *)
  family_max : int;  (** max similar-shape tasks tuned per batch *)
}

val default_config : ?dir:string -> ?resolve:(string -> Op.t option) -> Descriptor.t -> config
(** budget 64, seed 42, family_max 4, dir ".heron-serve",
    resolve = no-op. *)

val universe_resolve : Op.t list -> string -> Op.t option
(** Resolver over a fixed operator universe, keyed by {!Library.op_key}. *)

type t

val start : config -> t
(** Open (or create) the store, load the latest valid library — lenient:
    corrupt lines are skipped, a missing or lying manifest falls back to
    snapshot-scan recovery — build the index, and restore any queue
    checkpoint. Never raises on corrupt state. *)

val config : t -> config
val library : t -> Library.t
val version : t -> int
val index : t -> Index.t
val queue_length : t -> int
val load_warnings : t -> Library.load_warning list
(** Lines skipped while loading the on-disk library at {!start}. *)

val recovered : t -> bool
(** The manifest was unusable and startup recovered from a snapshot scan. *)

val read_only : t -> bool
(** The store is currently refusing writes and the daemon serves from the
    in-memory index only; publishes are queued. Cleared by the first
    successful publish retry. *)

type served = {
  s_outcome : Index.outcome;
  s_version : int;  (** index snapshot version that answered *)
  s_enqueued : bool;  (** this lookup created a new tuning task *)
}

val lookup : t -> Index.probe -> served
(** The hot path: one atomic snapshot read plus an exact (and possibly
    bucket) table probe. A miss — and a near-hit, whose exact shape is
    still worth tuning — enqueues a task unless its key is already
    pending (deduplicated). New tasks are checkpointed immediately.
    A hit, and a miss or near-hit whose key is already pending,
    allocate only the returned record. *)

val lookup_op : t -> Op.t -> served
(** [lookup] after building the probe; for one-off callers. *)

val sync : t -> unit
(** Checkpoint the queue now (also done on every accepted task). A failed
    write is counted ([serve.queue_sync_failures]) and never raised — the
    in-memory queue stays authoritative. *)

val pump : ?on_publish:(int -> unit) -> t -> max_tasks:int -> int
(** Drain up to [max_tasks] tuning tasks: repeatedly take the head task's
    family batch (up to [family_max] similar shapes), tune each member —
    later members warm-start from the previous member's cost-model window
    when feature layouts agree — then atomically publish one new library
    version, swap the index, drop the batch from the queue and checkpoint
    it. [on_publish] runs right after a {e durable} store publish,
    {e before} the queue checkpoint — the hardest crash window, so
    kill-simulation hooks exercise the redo path.
    A publish that fails even after retries flips the daemon read-only:
    the batch's results go live in memory, the tasks stay queued, and the
    pump stops tuning until a later call's pending-publish retry succeeds.
    Returns the number of tasks tuned. Tuning solves on the process
    default pool ({!Heron_util.Pool.with_jobs}); results are identical
    for any pool size. *)

val drain : ?on_publish:(int -> unit) -> t -> int
(** {!pump} until the queue is empty. *)
