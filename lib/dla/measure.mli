(** The DLA Measurer: validates a program, then "runs" it several times on
    the simulator and reports the average latency, exactly as the paper's
    measurement module reports averaged hardware timings. *)

type t = {
  desc : Descriptor.t;
  reps : int;
  count : int Atomic.t;
      (** total measurement invocations so far. The library measures on
          the calling domain only; the count stays atomic so that a
          caller sharing one measurer across domains still counts
          exactly. *)
  ctx : Perf_model.ctx option;
      (** per-operator evaluation context, built eagerly by [create ~op];
          used when it matches the measured program's operator *)
}

val create : ?reps:int -> ?op:Heron_tensor.Op.t -> Descriptor.t -> t
(** With [~op], precomputes the {!Perf_model.ctx} for that operator once,
    so every measurement of its programs skips the per-call hoisting.
    Results are identical with or without it. *)

val count : t -> int
(** Measurement invocations so far. *)

val run : t -> Heron_sched.Concrete.t -> (float, Violation.t) result
(** Average latency in microseconds, or the violation that makes the
    program fail to compile/run. *)
