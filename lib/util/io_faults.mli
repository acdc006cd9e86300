(** Deterministic fault injection for the storage (write) path.

    Real deployments lose libraries to the file system, not just to flaky
    boards: disks fill (ENOSPC), writes and fsyncs error (EIO), un-synced
    data tears on power loss, renames fail, and processes die between any
    two syscalls. This module injects exactly those failures under
    {!Atomic_io} (and, for event drops, under the Obs journal writer),
    keyed purely on [(fault seed, path, site op, attempt)] via stable
    hashing — {e zero} RNG state is consumed, so a storage-fault campaign
    is a pure function of its spec plus the write history, identical for
    any [--jobs] value, and a spec of all-zero rates is byte-for-byte
    inert.

    Beyond probabilistic rates, two deterministic modes drive the
    crash-point explorer in [lib/check/crash_props.ml]:
    - [record]: inject nothing, count every I/O site encountered;
    - [crash_at=N]: simulate process death at exactly the N-th site. *)

type spec = {
  seed : int;  (** fault-universe seed; independent of the search seed *)
  enospc : float;  (** transient per-write ENOSPC probability *)
  eio : float;
      (** transient per-write/per-fsync EIO probability; also the journal
          event-drop probability *)
  torn : float;
      (** probability that a {e non-durable} write silently keeps only a
          prefix of its content (page-cache loss without fsync). Writes
          issued with [~fsync:true] are immune — that is the durability
          contract. *)
  rename_fail : float;  (** transient rename failure probability *)
  crash : float;  (** per-site simulated-process-death probability *)
  persistent : float;
      (** fraction of paths for which {e every} write fails with ENOSPC
          (a full disk), keyed on the path alone — drives the serve
          daemon's degraded read-only mode *)
  crash_at : int option;
      (** deterministic mode: simulate process death at exactly this
          global site index (0-based, in encounter order); all rates are
          ignored *)
  record : bool;  (** site-recording mode: inject nothing, count sites *)
}

val zero : spec
(** All rates zero, no crash point, not recording: injects nothing. *)

(** The write-protocol position being executed. Each execution of one of
    these positions is one {e site} — one potential crash point. *)
type op = Write  (** content lands in the temp file *)
        | Fsync  (** the temp file is made durable *)
        | Rename  (** the temp file replaces the target *)

exception Crashed of { path : string; op : op; site : int }
(** Simulated process death at a syscall boundary: everything before the
    boundary persisted, nothing after. Must never be caught by retry
    logic — only a crash-point harness (or a binary's top level, see
    {!top_level}) may observe it. *)

val top_level : (unit -> int) -> int
(** [top_level f] is a binary's exit status: [f ()], or 3 when [f] dies
    of a simulated crash ({!Crashed}), or 4 when an I/O error ([Sys_error])
    escapes it, e.g. a checkpoint in a missing directory or a disk that
    stays full past every retry. Either failure is reported on one stderr
    line, the I/O error with the file it names. *)

val exits : (int * string) list
(** The statuses {!top_level} adds, with their documentation, for a
    binary's [--help]. *)

(** What the injector decides for one site. *)
type action =
  | Proceed  (** execute the syscall normally *)
  | Torn of int  (** report success but persist only the first [k] bytes *)
  | Fail of string  (** raise [Sys_error] with this message *)
  | Crash of int
      (** simulated process death; for a [Write] site the first [k] bytes
          of the content persist in the temp file *)

type t
(** An injector instance: a spec plus the site counter and per-(path, op)
    attempt counts. *)

val create : spec -> t

val spec : t -> spec
val sites_seen : t -> int
(** Total I/O sites encountered so far, in every mode — after a
    [record]-mode run this is the crash-point count [N]; replaying with
    [crash_at = i] for each [i < N] visits every boundary exhaustively. *)

val at_site : t -> path:string -> ?len:int -> ?durable:bool -> op -> action
(** Consult the injector at one site. [len] is the content length (bounds
    torn/crash prefixes); [durable] marks an fsynced write, which torn
    faults never hit. Allocates the site index as a side effect, so call
    exactly once per executed protocol position. *)

val parse : string -> (spec option, string) result
(** Parse an [--io-faults] spec: [off]/[none]/[""] for [Ok None],
    [record], or comma-separated [key=value] pairs over [seed], [enospc],
    [eio], [torn], [rename], [crash], [persistent], [crash_at], e.g.
    [seed=3,enospc=0.1,torn=0.2] or [crash_at=7]. Rates must lie in
    [0, 1]. *)

val to_string : spec -> string
(** Canonical rendering; [parse (to_string s) = Ok (Some s)]. *)

val set_default : t option -> unit
(** Install a process-default injector ([--io-faults] on the binaries):
    {!Atomic_io} consults it on every write, and the Obs journal
    write-fault hook is installed/cleared to match. With [None] (the
    default) no injector exists and the write path is byte-identical to a
    build without this module. *)

val default : unit -> t option
