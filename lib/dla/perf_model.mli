(** Analytic performance models for the simulated DLAs.

    The model composes three time components — intrinsic/scalar compute,
    off-chip traffic, and on-chip (scratchpad) traffic — from the concrete
    program's loop structure: grid/thread decomposition, tile footprints
    and reuse (attach) depths, vector widths, unroll pragmas and
    storage-align padding. A small deterministic, configuration-dependent
    jitter makes the landscape rugged, as on real hardware (paper Fig. 11).

    The model assumes the program already passed {!Validate.check}. *)

type breakdown = {
  compute_us : float;
  mem_us : float;  (** off-chip traffic time *)
  spm_us : float;  (** on-chip traffic time, bank conflicts included *)
  latency_us : float;  (** composed latency, jitter applied *)
  blocks : int;
  warps : int;
  waves : int;
  blocks_per_unit : int;
  utilization : float;  (** compute efficiency factor in \[0, 1\] *)
}

val analyze : Descriptor.t -> Heron_sched.Concrete.t -> breakdown

val latency_us : Descriptor.t -> Heron_sched.Concrete.t -> float

(** {1 Batched evaluation}

    Everything the model derives from the (descriptor, operator) pair alone
    — scope lists, dtype sizes, bandwidth denominators, peak rates — can be
    hoisted into a reusable context. Context-based evaluation is
    value-identical to the scalar entry points: the cached floats are
    produced by the exact expressions the scalar path uses. *)

type ctx

val make_ctx : Descriptor.t -> Heron_tensor.Op.t -> ctx
(** Counts one [perf_model.ctx_builds]. *)

val op_of : ctx -> Heron_tensor.Op.t
(** The operator the context was built for; compare with [==] to decide
    whether a cached context applies to a program. *)

val analyze_ctx : ctx -> Heron_sched.Concrete.t -> breakdown
(** [analyze] with the per-operator work pre-hoisted; counts one
    [perf_model.evals] (as does every scalar [analyze]). *)

val latency_us_ctx : ctx -> Heron_sched.Concrete.t -> float

val achieved_tflops : Heron_tensor.Op.t -> float -> float
(** [achieved_tflops op latency_us] from the operator's nominal flops. *)
