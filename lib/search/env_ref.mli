(** Frozen pre-overhaul recorder — the differential oracle for the
    interned flat-array engine in {!Env.Recorder}. String-keyed hash
    tables, [Assignment.key] on every touch: the cost profile the
    overhaul removes, kept so the [search_engine] property group can
    demand byte-identical results.

    Shares {!Env}'s [t], [point], [result] and [Recorder.export] types;
    only the runtime representation is frozen. *)

module Assignment = Heron_csp.Assignment

module Recorder : sig
  type r
  type resilience

  val make_resilience :
    ?policy:Resilience.policy ->
    (Assignment.t -> attempt:int -> Resilience.attempt) ->
    resilience

  val set_fallback : resilience -> (Assignment.t -> float option) option -> unit

  val create :
    ?cache_cap:int ->
    ?resilience:resilience ->
    Env.t ->
    budget:int ->
    r

  val exhausted : r -> bool
  val steps_left : r -> int
  val cache_size : r -> int
  val eval : r -> Assignment.t -> float option

  val eval_batch :
    ?pool:Heron_util.Pool.t -> r -> Assignment.t list -> float option list

  val seen : r -> Assignment.t -> bool
  val degraded : r -> Assignment.t -> bool
  val finish : r -> Env.result
  val export : r -> Env.Recorder.export

  val import :
    ?cache_cap:int ->
    ?resilience:resilience ->
    Env.t ->
    budget:int ->
    Env.Recorder.export ->
    r
end
