(** The constraint-based genetic algorithm (paper Algorithms 2 and 3).

    CGA evolves constraint satisfaction problems rather than concrete
    chromosomes: crossover adds IN-constraints binding each key variable to
    one of its parents' values, mutation drops one such constraint, and a
    CSP solver materializes offspring — so every offspring satisfies
    [CSP_initial] by construction. *)

module Assignment = Heron_csp.Assignment
module Model = Heron_cost.Model

type key_selection = By_model | Random_keys
(** How key variables are chosen: by cost-model feature importance (CGA) or
    uniformly at random (the paper's CGA-1 ablation). *)

type params = {
  pop_size : int;
  generations : int;  (** evolution generations per exploration iteration *)
  batch : int;  (** hardware measurements per iteration *)
  epsilon : float;  (** fraction of the batch chosen at random *)
  top_k : int;  (** number of key variables for crossover *)
  survivors : int;  (** best measured assignments seeding the next iteration *)
  key_selection : key_selection;
  mutation : bool;  (** whether to drop one crossover constraint *)
}

val default_params : params

type outcome = {
  result : Env.result;
  model : Model.t;
  jobs : int;  (** domain-pool parallelism the run executed with *)
}

(** Wall time of a tuning call by phase, the paper's compile-time
    breakdown (Table 10, Fig. 14). *)
type phases = {
  search_s : float;
      (** CGA evolution: the [cga.seed_population], [cga.evolve] and
          [cga.rank] spans, CSP solving and cost-model prediction
          included *)
  model_s : float;  (** cost-model training: the [cga.model] spans *)
  measure_s : float;  (** DLA measurement: the [cga.measure] spans *)
}

val phases :
  before:(string * Heron_obs.Obs.span_total) list ->
  after:(string * Heron_obs.Obs.span_total) list ->
  phases
(** [phases ~before ~after] reads the phases of what ran between two
    {!Heron_obs.Obs.span_totals} readings, e.g. around one
    [Pipeline.tune]. The figures are the journal's: the same spans, with
    or without a trace. *)

(** Everything the exploration loop carries across an iteration boundary,
    for crash-safe checkpoint/resume (see {!Checkpoint} for the on-disk
    format). Restoring a snapshot and continuing is byte-identical to a
    run that never stopped. *)
type snapshot = {
  s_iter : int;  (** iterations completed *)
  s_dry : int;  (** consecutive iterations without fresh candidates *)
  s_stopped : bool;  (** the loop terminated (enumerated space) *)
  s_rng_hex : string;  (** search RNG state, {!Heron_util.Rng.state_hex} *)
  s_recorder : Env.Recorder.export;
  s_survivors : (Assignment.t * float) list;
  s_model : (int array * float) list;  (** cost-model training window *)
}

val warm_snapshot : Env.t -> (int array * float) list -> snapshot
(** [warm_snapshot env rows] is a zeroed loop carrying only the training
    window [rows] and [env]'s current RNG state, so resuming from it is
    exactly a cold run whose cost model starts trained on [rows]. The rows
    must fit [env]'s feature layout ({!Heron_cost.Model.layout_ok}). *)

val run :
  ?params:params ->
  ?resilience:Env.Recorder.resilience ->
  ?resume:snapshot ->
  ?on_snapshot:(snapshot -> unit) ->
  Env.t ->
  budget:int ->
  outcome
(** Explore under the measurement budget. The run reads the process
    default pool once ({!Heron_util.Pool.default}, installed by
    {!Heron_util.Pool.with_jobs}); with one, CSP solving — the seed
    population's random draws and the crossover offspring — fans out
    across the pool's domains. Measurement and the cost model run on the
    calling domain: a measurement batch is too small, and a refit too
    cheap, to pay for a pool barrier.

    With [?resilience], every fresh measurement runs as a retry session
    (see {!Env.Recorder}); the degraded-candidate fallback is wired to
    this run's cost model, and degraded values are excluded from model
    training and survivor selection.

    [?on_snapshot] is invoked at the end of every exploration iteration
    with the full loop state; [?resume] restarts from such a snapshot and
    continues byte-identically to an uninterrupted run (the model
    ensemble is rebuilt by one deterministic refit of the checkpointed
    samples). A snapshot that does not fit the current task —
    wrong-width or out-of-range model rows, carried assignments that
    bind other variables or out-of-domain values, or measurement-cache
    keys over other variables — raises [Invalid_argument] before anything
    is restored, so a checkpoint (or
    a transferred warm-start window) from a different operator, shape or
    descriptor can never silently corrupt a run.

    Determinism: per-task generators are split from [env.rng] in index
    order and results always merge by task index, so a fixed seed yields a
    byte-identical [result.trace] whatever the pool size (including no
    pool at all). Each phase of an iteration runs in its own span (see
    {!phases}), and [jobs] records the pool size it ran with. *)

val crossover_csps :
  ?mutation:bool ->
  Heron_util.Rng.t ->
  Heron_csp.Problem.t ->
  keys:string list ->
  parents:Assignment.t array ->
  n:int ->
  Heron_csp.Problem.t list
(** The constraint-based crossover + mutation operator alone (Algorithm 3),
    exposed for tests and the playground example. The search loop makes
    the same draws on variable ids and value arrays and hands them to
    {!Heron_csp.Solver.solve_children} as restrictions; this renders them
    as [Problem.with_extra] CSPs of [In] constraints instead. *)
