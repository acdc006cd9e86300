(** A fixed-size pool of worker domains for data-parallel kernels.

    The pool is built directly on [Domain], [Mutex] and [Condition] (no
    external dependency). A pool of [~domains:n] provides total parallelism
    [n]: the calling domain always participates in its own batches, so
    [n - 1] worker domains are spawned.

    Determinism contract: every combinator assembles its output by task
    index, never by completion order, so for a pure (or per-task-seeded)
    function the result is byte-identical whatever the pool size —
    including the no-pool sequential fallback of the [?pool] variants.
    Parallelism changes wall-clock only, never results. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [max 0 (domains - 1)] worker domains.
    [domains <= 1] yields a pool that runs everything inline on the
    caller. *)

val jobs : t -> int
(** Total parallelism of the pool ([domains] as given to {!create},
    clamped to at least 1). *)

val shutdown : t -> unit
(** Graceful shutdown: workers finish queued tasks, then exit and are
    joined. Idempotent. A pool keeps working after [shutdown] — batches
    simply run inline on the caller. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and always shuts it
    down, even when [f] raises. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f xs] is [Array.map f xs] computed on the pool with
    chunked scheduling. Results are placed by index. If one or more
    applications raise, every chunk still completes (or aborts at its own
    failing element) and the exception of the lowest-indexed failing
    element is re-raised with its backtrace. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is [Array.init n f] with the same scheduling,
    ordering and exception guarantees as {!parallel_map}. *)

val map : ?pool:t -> ('a -> 'b) -> 'a array -> 'b array
(** {!parallel_map} when [?pool] is given, [Array.map] otherwise. *)

val init : ?pool:t -> int -> (int -> 'a) -> 'a array
(** {!parallel_init} when [?pool] is given, [Array.init] (evaluated in
    index order) otherwise. *)

val set_default : t option -> unit
(** Install (or clear) the process-wide default pool picked up by
    {!resolve}. Entry points ([--jobs]) set this once at startup so the
    whole pipeline benefits without threading a pool everywhere. *)

val default : unit -> t option

val resolve : t option -> t option
(** [resolve pool] is [pool] when [Some _], otherwise the process default.
    The standard idiom for [?pool] parameters deep in the library. *)

val default_jobs : unit -> int
(** The default [--jobs] of the command-line tools: the recommended
    domain count minus one, at least 1. *)

val with_jobs : int -> (t option -> 'a) -> 'a
(** [with_jobs jobs f] is [f None] when [jobs <= 1]. Otherwise it runs
    [f (Some pool)] with a fresh pool of [jobs] domains installed as the
    process default ({!set_default}), then clears the default and shuts
    the pool down, even when [f] raises. *)
