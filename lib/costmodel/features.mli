(** Feature extraction for the cost model.

    Following the paper, the features of a program are the values of the
    variables declared during constraint generation (loop lengths, memory
    usage, vector widths, ...), which are available without compiling
    anything. Each feature is discretized into bins derived from the
    variable's domain, enabling fast histogram-based tree training. A
    feature has at most 32 bins, so a bin index always fits the one-byte
    cells of the flat {!Fmat} matrices the engine trains on. *)

module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment

type t

val of_problem : Problem.t -> t
(** A domain of up to 32 values bins each value on its own; a larger one
    is binned at 32 evenly spaced boundaries of its sorted values. *)

val n_features : t -> int
val names : t -> string array
val n_bins : t -> int array
(** Bin count per feature. *)

val vector : t -> Assignment.t -> float array
(** Raw feature values (unbound variables map to 0). *)

val binned : t -> Assignment.t -> int array
(** Bin index per feature: the highest bin whose boundary value does not
    exceed the variable's value. *)

val bin_values : t -> int array -> Fmat.t -> int -> unit
(** [bin_values t values m r] bins a candidate given as values indexed
    by variable id into row [r] of the flat matrix [m]: feature [i] is
    the problem's variable [i] (its position in {!Problem.vars}). *)

val bin_row : t -> Assignment.t -> Fmat.t -> int -> unit
(** [bin_row t a m r] bins assignment [a] into row [r] by looking up each
    feature's variable (unbound variables read 0), with {!bin_values}'s
    per-cell binning — equivalent to writing {!binned} into the row. *)

(** {2 Shape-invariant helpers}

    Cross-task cost-model transfer ({!Transfer}) needs to move a training
    window between tasks with different extents. These expose the bin
    geometry: a bin's representative raw value and the feature's largest
    domain value (the task extent the transfer layer normalizes by). *)

val bin_value : t -> int -> int -> int
(** [bin_value t i b] is the raw variable value at the lower boundary of
    bin [b] of feature [i] (0 when the feature has no boundaries). Out-of-
    range [b] is clamped into the feature's bin range. *)

val max_value : t -> int -> int
(** Largest bin-boundary value of feature [i] — the extent normalizer
    (the largest value the binning can represent). At least 1, so it is
    always safe to divide by. *)

val bin_of_value : t -> int -> int -> int
(** [bin_of_value t i v] is the bin index a raw value [v] of feature [i]
    falls into: the highest bin whose boundary does not exceed [v]. *)
