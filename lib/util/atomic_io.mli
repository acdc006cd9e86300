(** Crash-safe file writes: content lands in [path ^ ".tmp"] and is
    renamed over [path] only once complete, so a reader never observes a
    truncated file and a killed writer leaves the previous version (or
    nothing) behind — never garbage. Used for benchmark JSON reports,
    search checkpoints (a log's first record; later records go through
    {!append}), the observability journal, library saves and the serve
    store.

    {2 Durability contract}

    By default the protocol is {e atomic but not durable}: after a
    successful return the new content is visible to every subsequent
    reader, but an OS crash (power loss) before the kernel flushes its
    caches may tear or lose it. With [~fsync:true] the temp file is
    fsynced before the rename and the parent directory after it
    (best-effort on the directory), so a returned write additionally
    survives power loss untorn. The serve store's manifests/snapshots and
    the tuning-queue checkpoints write with [~fsync:true]; hot-loop
    artifacts (search checkpoints, traces, bench reports) stay
    non-durable, where the deterministic torn-write injection of
    {!Io_faults} can exercise the readers' checksum/recovery paths.

    When a process-default {!Io_faults} injector is installed, every write
    consults it at each syscall boundary (write, fsync, rename); with no
    injector (the default) nothing is constructed or consulted and the
    protocol is byte-identical to the uninstrumented one. *)

val write_string : ?fsync:bool -> path:string -> string -> unit
(** [write_string ~path s] atomically replaces the contents of [path]
    with [s] (write to [path ^ ".tmp"], flush, rename). [~fsync:true]
    additionally makes the replacement durable before returning. *)

val with_file_out : ?fsync:bool -> path:string -> (out_channel -> unit) -> unit
(** [with_file_out ~path f] hands [f] a channel on [path ^ ".tmp"] and
    renames over [path] when [f] returns. On exception — from [f], from a
    real I/O error, or from an injected fault — the temp file is removed
    and [path] is untouched, except for {!Io_faults.Crashed}, which leaves
    disk exactly as the simulated death would. A real error after [f]
    returns (flush, fsync, close, rename) is raised as
    [Sys_error (path ^ ": " ^ reason)], so {!with_retry} retries it. *)

exception Torn_write of string
(** A checked write ({!replace}, {!append}) returned with fewer bytes in
    place than it wrote — an injected torn write — and was undone like a
    failed one: the file is as it was. {!with_retry} retries it. *)

val replace : path:string -> string -> unit
(** [replace ~path s] is [write_string ~path s] for files a writer builds
    on (checkpoints): it returns only once [s] landed whole. Under an
    installed {!Io_faults} injector it compares the temp file's length
    with [String.length s] before the rename; a torn write removes the
    temp file, leaves [path] untouched and raises {!Torn_write}. *)

val append : path:string -> string -> unit
(** [append ~path s] adds [s] at the end of the existing file [path], for
    append-only logs. It is not durable, and no temp file or rename is
    involved. A failed write cuts [path] back to its length before the
    call and raises [Sys_error], so {!with_retry} retries it from the same
    end and a log never keeps a failed record's bytes before a later one. An
    installed {!Io_faults} injector is consulted once, at a [Write] site. A
    torn write keeps a prefix of [s]; the file's length then falls short
    of the bytes written, so the append is cut back as well and raises
    {!Torn_write}. A crash keeps a prefix of [s] and raises
    {!Io_faults.Crashed}. An injected failure is reported after [s] landed
    and is undone like a real one. *)

val truncate : path:string -> int -> unit
(** [truncate ~path len] cuts [path] to its first [len] bytes, as a log
    reader does to drop a torn tail before appending again. A failure
    raises [Sys_error]. *)

val with_retry : ?attempts:int -> what:string -> (unit -> 'a) -> 'a
(** [with_retry ~what f] runs [f], retrying a [Sys_error] (transient
    ENOSPC/EIO, injected or real) or a {!Torn_write} up to [attempts]
    times total (default 3)
    with exponential microsecond backoff, counting [io.retries] and
    emitting an [io_retry] journal event per retry. The last error is
    re-raised when attempts are exhausted. {!Io_faults.Crashed} is never
    caught: a simulated process death terminates the protocol like a real
    one would. *)
