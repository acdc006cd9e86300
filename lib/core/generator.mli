(** The Space Generator (paper Algorithm 1): from a compute description and
    a DLA descriptor to a schedule template plus the constrained search
    space [CSP_initial]. *)

module Op = Heron_tensor.Op
module Problem = Heron_csp.Problem
module Template = Heron_sched.Template
module Descriptor = Heron_dla.Descriptor

type t = {
  template : Template.t;
  problem : Problem.t;  (** the constrained search space *)
  tensorized : bool;  (** Rule S1 applied *)
  original_op : Op.t;
      (** the user's operator; [template.op] is its im2col-derived GEMM when
          the contraction path was taken *)
}

val generate : ?seed:int -> Descriptor.t -> Op.t -> t
(** Applies the schedule generation rules (picking the tensorized path when
    the intrinsic fits, falling back to the scalar/SIMT path otherwise),
    then the constraint generation rules. [seed] only affects the internal
    satisfiability probe. Traced as one [generator.generate] span, which
    covers the rules and that probe. *)

val build :
  ?orig:Op.t * Heron_tensor.Gemm_view.t -> Descriptor.t -> Op.t -> tensorize:bool -> t
(** Low-level entry: force a specific path (used by baselines and tests).
    The operator must already be the scheduled form (derived GEMM for
    contractions). [orig] supplies the original operator and its
    implicit-GEMM view so the im2col mapping is recorded as bookkeeping
    variables and constraints in the space. *)

val satisfiable : ?seed:int -> Problem.t -> bool
