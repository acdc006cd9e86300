(** Per-span profile of a [heron_obs] journal: how many times each span
    name ran, its inclusive time, and its self time — inclusive time minus
    the time covered by its child spans. A span's children are the spans
    whose [parent] is its id; the journal records parents per domain, so a
    span running on another pool domain is never counted as a child. *)

type span = {
  name : string;
  count : int;
  incl_ns : int;  (** summed [dur_ns] *)
  self_ns : int;  (** [incl_ns] minus the summed [dur_ns] of direct children *)
  durs_ns : int list;  (** one [dur_ns] per instance, in journal order *)
}

type t

val of_events : Heron_obs.Trace.event list -> (t, string) result
(** Fails on a journal whose spans do not nest per domain. *)

val read : string -> (t, string) result
(** {!Heron_obs.Trace.read_file} then {!of_events}. *)

val spans : t -> span list
(** Every span name seen, sorted by name. *)

val span : t -> string -> span
(** One span name's totals; all zero when the name never ran. *)

val counter : t -> string -> int
(** A counter's delta over the traced run; [0] when absent. *)
