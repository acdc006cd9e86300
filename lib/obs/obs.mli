(** Structured run observability: named atomic counters/gauges, spans on a
    monotonic clock, and a process-global JSONL event journal with a
    versioned schema plus a run manifest.

    Instrumentation never touches RNG state or control flow, so traced and
    untraced runs of the same seed produce byte-identical results. With no
    journal installed, {!emit} is one atomic load and a span costs two
    clock reads and one update of its name's total; counters and span
    totals stay live, so [--metrics] and phase times work without a trace.
    See OBSERVABILITY.md for the event schema. *)

val schema_version : int
(** Version stamped on every journal line ([1]). Bump on any breaking
    change to event shapes. *)

module Clock : sig
  val now_ns : unit -> int
  (** The system's monotonic clock in nanoseconds, from an arbitrary
      origin: never decreases, the same clock on every domain. Only
      differences between readings are meaningful. *)
end

(** Named monotone counters. [make] is idempotent by name — modules create
    their counters at load time and increments are wait-free atomics, safe
    under {!Heron_util.Pool} parallelism. *)
module Counter : sig
  type t

  val make : string -> t
  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int

  val snapshot : unit -> (string * int) list
  (** All counters, sorted by name. *)
end

(** Named last-write-wins float gauges. *)
module Gauge : sig
  type t

  val make : string -> t
  val name : t -> string
  val set : t -> float -> unit
  val value : t -> float
  val snapshot : unit -> (string * float) list
end

type manifest = {
  tool : string;
  seed : int option;
  descriptor : string option;
  op : string option;
  budget : int option;
  jobs : int option;
  git_rev : string;
  argv : string list;
}

val manifest :
  tool:string ->
  ?seed:int ->
  ?descriptor:string ->
  ?op:string ->
  ?budget:int ->
  ?jobs:int ->
  unit ->
  manifest
(** Build a manifest, detecting [git_rev] (HERON_GIT_REV, else .git/HEAD
    walking up from the cwd, else ["unknown"]) and capturing [Sys.argv]. *)

val start : path:string -> manifest -> unit
(** Open the journal and write the manifest line. Events accumulate in
    [path ^ ".tmp"]; {!stop} renames the finished journal to [path], so a
    killed run never leaves a truncated journal at [path]. Records a
    baseline of all counters so the journal's counter events report deltas
    for this run only. Raises [Invalid_argument] if a trace is active. *)

val stop : unit -> unit
(** Flush counter/gauge snapshots and the [trace_end] line, close the
    journal. No-op when no trace is active. *)

val with_trace : string option -> manifest -> (unit -> 'a) -> 'a
(** [with_trace (Some path) m f] runs [f] inside [start]/[stop] (stop also
    on exception); [with_trace None m f] is just [f ()]. *)

val enabled : unit -> bool
(** Whether a journal sink is currently installed. *)

val set_journal_write_fault : (path:string -> seq:int -> bool) option -> unit
(** Install (or clear, with [None]) a write-fault hook consulted before
    every journal line: returning [true] makes that write fail as a
    [Sys_error] would. A failed journal write — injected or real — drops
    that one event and increments [obs.journal_write_failures] instead of
    aborting the run; [seq] counts write {e attempts}, so consecutive
    events key independently. Installed by
    {!Heron_util.Io_faults.set_default}; not meant for direct use. *)

val emit : string -> (string * Json.t) list -> unit
(** [emit ev fields] appends one event line (adding [v]/[t_ns]/[ev]).
    Serialized under the sink mutex; timestamps are taken under the lock so
    [t_ns] is non-decreasing in file order. No-op when disabled. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and adds its wall time to [name]'s total
    ({!span_totals}), also when [f] raises. With a journal installed it
    also wraps [f] in [span_begin]/[span_end] events carrying a unique id,
    the per-domain parent span, the domain id and the duration; the
    [dur_ns] of [span_end] is the amount added to the total. *)

type span_total = {
  count : int;  (** spans closed *)
  ns : int;  (** their inclusive wall time, in nanoseconds *)
}

val span_totals : unit -> (string * span_total) list
(** Every span name closed so far in this process, sorted by name, with
    its total, whether or not a journal was installed. Totals only grow:
    the change across a call is what that call's spans took. *)

val metrics_report : unit -> string
(** Human-readable table of all non-zero counters and gauges. *)
