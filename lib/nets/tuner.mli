(** Whole-network multi-task tuning: extract the distinct tasks of a
    network, slice the measurement budget into rounds under a
    {!Scheduler} policy, tune each round's task by resuming its CGA
    search from the previous round's snapshot, and assemble the winners
    into one {!Heron.Library}.

    Two cross-task mechanisms ride on the per-task searches:

    - {b Budget allocation}: every round goes to the task with the
      highest estimated marginal weighted end-to-end gain (or cyclically,
      under [Round_robin]).
    - {b Cost-model transfer}: a task's very first round may warm-start
      its cost model from the training window of an already-tuned task,
      re-binned through the shape-invariant feature view
      ({!Heron_cost.Transfer}). [~transfer:false] disables this, leaving
      each per-task search byte-identical to a hand-rolled sequence of
      resumed {!Heron_search.Cga.run} calls with the same allocation.

    Determinism: per-task seeds are derived from the run seed and the
    task key alone, the scheduler uses no RNG, and transfer donors are
    chosen by (window size, task id) — so the allocation trace and the
    final library are byte-identical at any [--jobs] and across
    kill/resume cycles. *)

module Op = Heron_tensor.Op
module Assignment = Heron_csp.Assignment
module Descriptor = Heron_dla.Descriptor
module Env = Heron_search.Env
module Cga = Heron_search.Cga

type task_report = {
  tr_task : Tasks.task;
  tr_rounds : int;  (** scheduler rounds this task received *)
  tr_alloc : int;  (** trials allocated to it *)
  tr_steps : int;  (** measurement steps it actually consumed *)
  tr_best : float option;
  tr_best_assignment : Assignment.t option;
  tr_trace : Env.point list;  (** cumulative, in step order *)
  tr_transferred : bool;  (** warm-started from another task's window *)
}

type result = {
  r_network : Models.network;
  r_desc : Descriptor.t;
  r_reports : task_report list;  (** in [t_id] order *)
  r_allocations : (int * int) list;  (** (task id, trials) per round *)
  r_library : Heron.Library.t;
  r_latency_us : float option;
      (** weighted end-to-end latency, [None] while any task lacks a
          valid schedule *)
  r_measurements : int;  (** DLA measurer invocations, all tasks *)
}

val run_label :
  Descriptor.t ->
  Models.network ->
  budget:int ->
  seed:int ->
  slice:int ->
  policy:Scheduler.policy ->
  transfer:bool ->
  string
(** Identity of a network-tuning run for checkpoint label checks. *)

val task_seed : seed:int -> string -> int
(** The per-task search seed: run seed mixed with the task key's hash. A
    pure function of durable state, so neither round order, nor [--jobs],
    nor a kill/resume cycle can shift a task's tuning stream. *)

val tune :
  ?budget:int ->
  ?seed:int ->
  ?slice:int ->
  ?policy:Scheduler.policy ->
  ?transfer:bool ->
  ?params:Cga.params ->
  ?pool:Heron_util.Pool.t ->
  ?checkpoint:string ->
  ?resume:string ->
  ?kill_after:int ->
  Descriptor.t ->
  Models.network ->
  result
(** Tune the whole network under a total measurement budget (default
    256), [slice] trials per round (default 16).

    [?checkpoint] writes one atomic JSON file after every round (one
    [nets.checkpoint] span each), with the scheduler state and every
    task's embedded CGA snapshot;
    [?resume] restores it (refusing a label mismatch or a task-set
    mismatch) and continues byte-identically to an uninterrupted run.
    [?kill_after n] exits the process with status 3 after the [n]th
    checkpoint write — the crash-simulation hook used by tests.

    @raise Invalid_argument when the network has no tasks or [?resume]
    names an unreadable, invalid or mismatched checkpoint. *)
