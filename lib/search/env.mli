(** The search environment: everything an exploration algorithm needs,
    independent of how programs are built or measured. *)

module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment

type t = {
  problem : Problem.t;  (** the constrained space, [CSP_initial] *)
  measure : Assignment.t -> float option;
      (** hardware measurement: average latency in microseconds, or [None]
          when the program is invalid (fails to compile or run) *)
  rng : Heron_util.Rng.t;
}

type point = {
  step : int;  (** 1-based exploration step *)
  latency : float option;  (** this step's measurement *)
  best : float option;  (** best latency after this step *)
}

type result = {
  best_latency : float option;
  best_assignment : Assignment.t option;
  trace : point list;  (** in step order *)
  invalid : int;  (** number of invalid candidates explored *)
}

val score : float option -> float
(** Fitness of a measurement outcome; invalid programs score 0. *)

(** Mutable bookkeeping shared by all searchers: counts steps, maintains
    the trace and the incumbent, and caches measurements by assignment so
    revisiting a configuration costs no extra hardware trial.

    Internally the recorder runs on interned assignments ({!Intern}):
    every configuration is a dense int id, and cache/quarantine/degraded
    state is flat per-id array reads — no string key is built anywhere on
    the hot path (checkpoint export is the only place keys materialize).
    The assignment-keyed API below is unchanged; searchers that already
    hold ids (the {!Cga} flat-pool loop) use the [_id] entry points and
    skip the intern lookup too. A candidate interned by its values
    ({!intern_values}) gets its assignment built only when it is
    measured, becomes the incumbent or is exported. *)
module Recorder : sig
  type r

  (** The optional resilience layer: when installed, every fresh
      measurement runs as a {!Resilience} retry session instead of a
      single [measure] call. Configurations that exhaust their retries are
      quarantined (never re-measured, score 0); sessions cut off by the
      per-candidate deadline degrade to the [predict] fallback (the cost
      model), flagged in the trace. With no faults injected the layer is
      byte-for-byte inert. *)
  type resilience

  val make_resilience : (Assignment.t -> attempt:int -> Resilience.attempt) -> resilience
  (** Every session runs under {!Resilience.default_policy}. *)

  val set_fallback : resilience -> (Assignment.t -> float option) option -> unit
  (** Install (or clear) the predicted-latency fallback used for degraded
      candidates. Searchers that train a cost model update this as the
      model refits. *)

  val create : ?cache_cap:int -> ?resilience:resilience -> t -> budget:int -> r
  (** [cache_cap] bounds the measurement cache (default 65536): beyond it,
      the oldest entries are evicted FIFO and counted on the
      [env.cache_evictions] metric. An evicted configuration costs a fresh
      measurement step if revisited, so the default is far above any
      realistic campaign's distinct-configuration count. *)

  val exhausted : r -> bool
  val steps_left : r -> int

  val cache_size : r -> int
  (** Number of cached measurements (always [<= cache_cap]). *)

  val eval : r -> Assignment.t -> float option
  (** Measures (or replays from cache) and records one exploration step.
      Returns the latency. Cached replays do not consume budget, but a
      secondary cap (50x budget total evaluations) guarantees termination
      for searchers that converge onto already-measured points. *)

  val seen : r -> Assignment.t -> bool

  val degraded : r -> Assignment.t -> bool
  (** Whether this configuration's cached value is a cost-model fallback
      rather than a measurement (always [false] without resilience).
      Degraded values never become the incumbent best, and searchers must
      not feed them back into model training. *)

  (** {2 Interned entry points}

      The id-keyed face of the same recorder: [intern] maps an assignment
      to its dense id (hashing it once), and the [_id] functions are the
      O(1) array-read equivalents of their assignment-keyed namesakes —
      same values, counters, trace and budget accounting. *)

  val interner : r -> Intern.t
  (** The recorder's intern table. Searchers share it so population ids
      and recorder ids coincide (one id namespace per run). *)

  val intern : r -> Assignment.t -> int
  (** @raise Invalid_argument when the assignment does not bind exactly
      the problem's variables (see {!Intern.intern}). *)

  val intern_values : r -> int array -> int
  (** The id of a candidate given as values indexed by variable id (see
      {!Intern.intern_values}): the solver's children and draws enter the
      recorder this way, without an assignment being built. *)

  val seen_id : r -> int -> bool
  val degraded_id : r -> int -> bool
  val eval_id : r -> int -> float option

  val finish : r -> result

  (** Serializable snapshot of a recorder for checkpoint/resume. *)
  type export = {
    x_steps : int;
    x_evals : int;
    x_invalid : int;
    x_best : float option;
    x_best_a : Assignment.t option;
    x_trace : point list;  (** in step order *)
    x_cache : (string * float option) list;  (** in FIFO insertion order *)
    x_quarantined : string list;  (** sorted *)
    x_degraded : string list;  (** sorted *)
  }

  val export : r -> export

  val import : ?resilience:resilience -> t -> budget:int -> export -> r
  (** Rebuild a recorder in exactly the exported state (cache in the same
      FIFO order, quarantine and degraded sets restored when [resilience]
      is given), so a resumed search continues byte-identically to one
      that was never interrupted. Exported keys are parsed back into
      assignments with {!Assignment.of_key}; a key that is not a
      canonical rendering (hand-edited or corrupt checkpoint), or that
      does not bind exactly the problem's variables (a checkpoint of
      another task), raises [Invalid_argument] naming the key before any
      state is restored into the run. *)
end
