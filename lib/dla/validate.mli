(** Program validation against a DLA descriptor.

    This is the simulator's ground truth for what real hardware rejects:
    the Heron Space Generator emits constraints that mirror exactly these
    checks, so every assignment drawn from its constrained space passes,
    while unconstrained baselines routinely fail here. *)

val check : Descriptor.t -> Heron_sched.Concrete.t -> (unit, Violation.t) result
(** First violation found, scanning in a fixed order: iteration-space
    coverage, staging-tile data coverage (a cache stage must load at least
    what its consumer reads), intrinsic shape, scratchpad capacities,
    vector widths, thread limits (a TensorCore warp counts as at least 32
    threads), and family-specific loop-order rules. *)

val is_valid : Descriptor.t -> Heron_sched.Concrete.t -> bool

val check_assignment :
  Heron_csp.Problem.t -> Heron_csp.Assignment.t -> (unit, Violation.t) result
(** The CSP-side check, reported in the same violation vocabulary: the
    first constraint (or declared domain) the assignment violates, as
    {!Violation.Unsatisfied_constraint} carrying the constraint's rendered
    form. This is the only producer of that constructor — hardware checks
    above never see the CSP. *)
