(** Cross-task cost-model transfer (Chen et al., {i Learning to Optimize
    Tensor Programs}): a shape-invariant view of a trained window so a
    model fitted on one task can warm-start a fresh one.

    The binned rows {!Model} trains on are task-specific — bin boundaries
    derive from each task's variable domains. {!export} lifts a window out
    of that layout into named, extent-normalized features (each value
    divided by its feature's largest representable value, so a tile size
    of 64 on a 4096-extent loop and 4 on a 256-extent loop land near the
    same coordinate); {!import} rebinds the rows into a target task's
    layout by feature {e name}, re-scaling by the target's extents and
    re-binning with the target's boundaries. Imported rows are
    feature-layout-compatible with the target by construction: exactly
    [n_features] bins, each within its feature's bin range. *)

type portable = {
  p_names : string array;  (** donor feature (variable) names *)
  p_rows : (float array * float) list;
      (** normalized feature rows (values in [\[0, 1\]]) paired with
          fitness scores, most recent first *)
}

val export : Features.t -> (int array * float) list -> portable
(** [export features window] lifts a {!Model.samples}-style window (binned
    rows, most recent first) out of [features]'s layout. *)

val import : Features.t -> portable -> (int array * float) list option
(** [import target p] rebins every donor row into [target]'s feature
    layout (features absent from the donor read 0, the same convention as
    unbound variables in {!Features.vector}). [None] when the name overlap
    (the fraction of the target's feature names the donor also has) is
    below 0.5 or the donor window is empty — the caller then falls back
    to a cold start. *)
