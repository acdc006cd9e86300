(** Constraint generation rules (paper Table 8, Algorithm 1 Step 2).

    Each rule scans the facts the schedule generation rules recorded in the
    {!Gen_ctx} and emits variables and constraints:

    - C1/C2 [AddLoopSplit]/[AddLoopFuse]: every split binds the parent loop
      length to the product of the child lengths (PROD).
    - C3 [AddCandidates]: variables with architectural candidate sets get
      IN constraints.
    - C4 [AddStageFuse]: lengths of loops in a fused (compute_at) stage
      depend on the location tunable (SELECT).
    - C5 [AddMemLimit]: per-scope memory consumption — per-tensor tile
      PRODs, a SUM across tensors, and an LE against the capacity.
    - C6 [AddDLASpecific]: descriptor-specific constraints (intrinsic
      product, thread limits, VTA loop ordering, ...), recorded as raw
      LE/PROD facts by the schedule rules. *)

val apply_all : Gen_ctx.t -> unit
(** Runs C1–C6 over the context, mutating its problem builder. *)
