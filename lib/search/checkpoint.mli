(** Crash-safe checkpoints of a CGA exploration: a versioned JSON
    rendering of {!Cga.snapshot}, written atomically (tmp + rename) so a
    kill at any instant leaves either the previous checkpoint or the new
    one, never a torn file.

    The [label] ties a checkpoint to the run that produced it (operator,
    budget, seed, fault spec ...): {!load} returns it so callers can
    refuse to resume a checkpoint from a different campaign. *)

val version : int

type writer
(** The checkpoint file of one run: every {!write} replaces it with the
    given snapshot, byte-for-byte what {!save} would write, reusing one
    buffer and remembering the text of every float already printed. *)

val writer : path:string -> label:string -> writer

val write : writer -> Cga.snapshot -> unit
(** Atomic write: the JSON lands in [path ^ ".tmp"] and is renamed over
    [path] only once complete. A transient [Sys_error] is retried
    ({!Heron_util.Atomic_io.with_retry}). *)

val save : path:string -> label:string -> Cga.snapshot -> unit
(** [write] through a fresh writer. *)

val load : path:string -> (string * Cga.snapshot, string) result
(** Read back [(label, snapshot)]. All diagnostics name the offending
    field, e.g. ["checkpoint: recorder.cache[3]: expected [key, latency]"]. *)

val describe : string * Cga.snapshot -> string
(** One-line human summary (label, iterations, steps, quarantined count)
    for [trace_lint --checkpoint]. *)

val snapshot_to_json : label:string -> Cga.snapshot -> Heron_obs.Json.t
(** The JSON value {!save} writes — exposed so composite checkpoints
    (the multi-task network tuner) can embed per-task snapshots in one
    atomically written file. *)

val snapshot_of_json : Heron_obs.Json.t -> (string * Cga.snapshot, string) result
(** Inverse of {!snapshot_to_json}; diagnostics name the offending
    field exactly as {!load}'s do. *)
