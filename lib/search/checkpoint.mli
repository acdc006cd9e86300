(** Crash-safe checkpoints of a CGA exploration, as an append-only log.

    A checkpoint file is a sequence of records, one per line. Each record
    is framed as [LEN SUM PAYLOAD]: the payload's length in bytes, its
    {!Heron_util.Hashing.fnv1a} checksum as 16 hex digits (the store's
    sidecars print theirs the same way) and the payload, one JSON object.
    The first record is the snapshot document {!snapshot_to_json} renders.
    Each later record is a delta: the loop scalars and RNG state, the trace
    points and cache entries added since the record before it, how many
    cache entries were evicted at the head, the cost-model rows added and
    dropped, the survivors and best assignment as positions in the cache,
    and the quarantine and degraded lists when they changed.

    A {!write} whose snapshot extends the state the file holds appends one
    delta record; any other write replaces the file atomically (tmp +
    rename) with a one-record log. Both go through
    {!Heron_util.Atomic_io}'s checked writes, so a torn write loses that
    write only (see {!write}). A kill during an append leaves a torn last
    record, which {!load} drops: it replays whole records and stops at
    the first truncated or checksum-failing frame.

    The [label] ties a checkpoint to the run that produced it (operator,
    budget, seed, fault spec ...): {!load} returns it so callers can
    refuse to resume a checkpoint from a different campaign. *)

val version : int
(** The version of the snapshot document and of delta records. *)

type writer
(** The checkpoint log of one run. It holds the last snapshot it wrote or
    read, and its next {!write} appends a delta record when the new
    snapshot extends that one: the held trace and cache entries (less
    entries evicted at the cache's head) are the first entries of the new
    lists, physically, and the new survivors and best assignment are in
    the new cache. Successive snapshots of one run, and those of a run
    resumed from the held snapshot itself, extend each other. The
    cost-model window is matched by row content. *)

val writer : path:string -> label:string -> writer
(** A writer whose first {!write} replaces [path]. *)

val write : writer -> Cga.snapshot -> unit
(** Append a delta record, or replace the file with a one-record log of
    the snapshot. A transient [Sys_error] or a torn write
    ({!Heron_util.Atomic_io.Torn_write}) is retried (retries are labelled
    [search.checkpoint]). A write that returns has landed whole; one that
    raises, after its retries, leaves the file as it was. *)

val save : path:string -> label:string -> Cga.snapshot -> unit
(** Replace [path] with a one-record log of the snapshot. *)

type log = {
  label : string;
  snapshot : Cga.snapshot;  (** the state after the last whole record *)
  records : int;  (** whole records replayed *)
  bytes : int;  (** their length: where the next record goes *)
  dropped : int;  (** bytes after them: a torn or damaged tail *)
}

val read : path:string -> (log, string) result
(** Replay the log at [path]. A whole-file checkpoint of the format before
    logs is refused with a diagnostic that says so, as is a file without
    one whole record. *)

val reopen : path:string -> log -> writer
(** A writer that continues the log [read] from [path]: the dropped tail is
    cut off now, and the writer holds [log.snapshot]. Resuming a run from
    that very value and writing its snapshots here appends the records an
    uninterrupted run would have appended. *)

val load : path:string -> (string * Cga.snapshot, string) result
(** {!read}'s [(label, snapshot)]. All diagnostics name the offending
    field, e.g. ["checkpoint: recorder.cache[3]: expected [key, latency]"]
    or ["checkpoint: record 4.cache[0]: expected [key, latency]"]. *)

val describe : log -> string
(** One-line human summary (label, records replayed, bytes dropped,
    iterations, steps, quarantined count ...) for [trace_lint --checkpoint]. *)

val snapshot_to_json : label:string -> Cga.snapshot -> Heron_obs.Json.t
(** The snapshot document, the payload of a log's snapshot record —
    exposed so composite checkpoints (the multi-task network tuner) can
    embed per-task snapshots in one atomically written file. *)

val snapshot_of_json : Heron_obs.Json.t -> (string * Cga.snapshot, string) result
(** Inverse of {!snapshot_to_json}; diagnostics name the offending
    field exactly as {!load}'s do. *)
