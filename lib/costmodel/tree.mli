(** Histogram-based regression trees (the weak learners of the boosted
    ensemble), trained on a flat byte matrix ({!Fmat}) of pre-binned
    features and stored as a pre-order struct-of-arrays. Splits maximize
    variance reduction. Every fit [fit] accepts is byte-identical to the
    frozen {!Gbt_ref.Tree} oracle — same splits, gains and leaf means —
    the flat engine only changes the constants (single streaming
    histogram pass per node over the non-constant features, count+fill
    partitioning, monomorphic comparisons). *)

type params = {
  max_depth : int;
  min_samples : int;  (** do not split nodes smaller than this; at least 1 *)
  min_gain : float;  (** minimum variance reduction to accept a split *)
}

val default_params : params

(** Pre-order node storage: [feat.(i) >= 0] is a split on that feature at
    threshold [bin.(i)] (samples with [x <= bin] go to [left.(i)]);
    [feat.(i) = -1] is a leaf predicting [value.(i)]. Read-only. *)
type t = {
  feat : int array;
  bin : int array;
  left : int array;
  right : int array;
  value : float array;
  gain : float array;
  n_features : int;
}

type scratch
(** Reusable fit workspace (histograms, partition permutation, offsets).
    One scratch serves any problem size — buffers grow on demand and are
    retained — but must not be shared across concurrent fits. *)

val scratch : unit -> scratch

val active_columns : Fmat.t -> int array
(** The features, in ascending order, that a split of [m]'s rows could
    use: those whose cells are not all equal. A constant column cannot
    split any node, because each of its candidate splits leaves one side
    empty. *)

val fit :
  ?params:params ->
  ?scratch:scratch ->
  ?active:int array ->
  n_bins:int array ->
  Fmat.t ->
  float array ->
  t
(** [fit ~n_bins m ys] trains on the first [Fmat.n_rows m] rows of [m]
    against targets [ys] (which may be longer; extra entries are ignored).
    [?scratch] amortizes workspace allocation across repeated fits (e.g.
    boosting rounds) and never changes the result. [?active] must be
    [active_columns m], which boosting rounds over one matrix share; it
    defaults to computing that.
    @raise Invalid_argument on empty or mismatched data, or when
    [params.min_samples < 1]. *)

val predict : t -> int array -> float
val predict_row : t -> Fmat.t -> int -> float

val gains : t -> float array
(** Total variance reduction contributed by each feature (indexed like the
    feature vectors) — the raw material of feature importance. *)

val depth : t -> int
val n_nodes : t -> int
