(** Frozen pre-overhaul CGA loop — the differential oracle for the
    interned flat-pool engine in {!Cga}. List-rebuilt populations,
    string-keyed dedupe/seen through {!Env_ref.Recorder}, polymorphic
    full sorts for ranking. Shares {!Cga}'s [params], [outcome] and
    [snapshot] types so runs and checkpoints compare byte for byte. *)

module Env = Heron_search.Env
module Cga = Heron_search.Cga

val run :
  ?params:Cga.params ->
  ?resilience:Env_ref.Recorder.resilience ->
  ?resume:Cga.snapshot ->
  ?on_snapshot:(Cga.snapshot -> unit) ->
  Env.t ->
  budget:int ->
  Cga.outcome
(** Byte-identical in results, traces, snapshots and RNG consumption to
    the pre-overhaul {!Cga.run}. The only intentional differences from the
    historical code are bookkeeping, shared by both engines: step-3
    ranking runs in its own [cga.rank] span, and the phases are timed by
    their [Obs] spans on the monotonic wall clock rather than by
    [Sys.time] CPU seconds (read them with {!Cga.phases}). Like
    {!Cga.run}, it runs on the process default pool. *)
