(** Crash-safe checkpoints of a CGA exploration: a versioned JSON
    rendering of {!Cga.snapshot}, written atomically (tmp + rename) so a
    kill at any instant leaves either the previous checkpoint or the new
    one, never a torn file.

    The [label] ties a checkpoint to the run that produced it (operator,
    budget, seed, fault spec ...): {!load} returns it so callers can
    refuse to resume a checkpoint from a different campaign. *)

val version : int

type file
(** A JSON file rewritten in place, one whole value per {!write_json}:
    the value is printed into one reused buffer by one printer that
    remembers the text of every float it has already printed, so
    rewriting a mostly unchanged value costs little re-formatting. The
    bytes are exactly [Heron_obs.Json.to_string v ^ "\n"]. *)

val file : path:string -> what:string -> file
(** [what] labels the write's retries ({!Heron_util.Atomic_io.with_retry}). *)

val write_json : file -> Heron_obs.Json.t -> unit
(** Atomic write: the JSON lands in [path ^ ".tmp"] and is renamed over
    [path] only once complete. A transient [Sys_error] is retried. *)

type writer
(** The checkpoint {!file} of one run: every {!write} replaces it with
    the given snapshot, byte-for-byte what {!save} would write. The
    writer keeps the text of the recorder's [trace] and [cache] entries
    it has written, about one checkpoint's worth, and renders only the
    entries a snapshot adds after them. Entries are matched by physical
    equality, which holds for successive snapshots of one run; any other
    snapshot (another run's, one after a cache eviction, one read back
    by {!load}) is rendered in full. *)

val writer : path:string -> label:string -> writer

val write : writer -> Cga.snapshot -> unit
(** {!write_json} of the snapshot; retries are labelled
    [search.checkpoint]. *)

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
