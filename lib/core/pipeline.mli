(** The end-to-end Heron pipeline: Space Generator -> Space Explorer (CGA)
    -> DLA Measurer -> Cost Model. *)

module Op = Heron_tensor.Op
module Assignment = Heron_csp.Assignment
module Concrete = Heron_sched.Concrete
module Descriptor = Heron_dla.Descriptor
module Env = Heron_search.Env
module Cga = Heron_search.Cga

type tuned = {
  gen : Generator.t;
  outcome : Cga.outcome;
  desc : Descriptor.t;
  op : Op.t;
  measurements : int;  (** DLA measurer invocations *)
}

val make_measure :
  ?reps:int -> Descriptor.t -> Generator.t -> (Assignment.t -> float option) * (unit -> int)
(** The measurement closure used by every searcher: instantiate the
    template with the assignment, validate on the DLA, simulate. The second
    component reports how many measurements ran. *)

val make_env : ?reps:int -> ?seed:int -> Descriptor.t -> Generator.t -> Env.t

val make_attempt_measure :
  (Assignment.t -> float option) ->
  Heron_dla.Faults.spec ->
  Assignment.t ->
  attempt:int ->
  Heron_search.Resilience.attempt
(** Compose a base measurer with a fault injector into one resilient
    measurement attempt: the injector decides (purely, from the config
    key and attempt number) whether this attempt times out, crashes,
    hangs, or proceeds with a noise factor applied to the measured
    latency. Persistent faults crash every attempt, so those configs end
    up quarantined. *)

val run_label :
  Descriptor.t -> Op.t -> budget:int -> seed:int -> faults:Heron_dla.Faults.spec option -> string
(** The identity of a tuning run for checkpoint label checks: DLA name,
    operator, budget, seed and canonical fault spec. *)

val tune :
  ?budget:int ->
  ?seed:int ->
  ?reps:int ->
  ?params:Cga.params ->
  ?pool:Heron_util.Pool.t ->
  ?faults:Heron_dla.Faults.spec ->
  ?policy:Heron_search.Resilience.policy ->
  ?checkpoint:string ->
  ?resume:string ->
  ?kill_after:int ->
  Descriptor.t ->
  Op.t ->
  tuned
(** Generate the constrained space for [op] on the DLA and explore it with
    CGA under the given measurement budget (default 200). [?pool] (or the
    process default pool) parallelizes CSP solving only, without
    changing the result for a fixed seed.

    [?faults] (or the process default, {!Heron_dla.Faults.set_default})
    injects deterministic measurement faults; the search then runs behind
    the {!Heron_search.Resilience} retry/quarantine/degradation layer
    under [?policy]. Without a fault spec the pipeline is byte-identical
    to previous behavior.

    [?checkpoint] logs the search state to the given path at every
    exploration iteration, one record per iteration (see
    {!Heron_search.Checkpoint}); [?resume] restores the last whole record
    of one (refusing a checkpoint whose label does not match this run) and
    continues byte-identically to an uninterrupted run. With the same path
    for both, the log is continued in place: a torn last record is cut
    off, and the file ends on the uninterrupted run's bytes. [?kill_after n]
    is a crash simulation hook for tests: the process exits with status 3
    after the [n]th checkpoint write.

    @raise Invalid_argument when [?resume] names an unreadable, invalid,
    or mismatched checkpoint. *)

val best_latency_us : tuned -> float option
val best_program : tuned -> Concrete.t option
