(** Gradient-boosted regression trees with squared loss — the from-scratch
    stand-in for the XGBoost model the paper employs. The fitted ensemble
    is compiled into one flat struct-of-arrays (all trees' pre-order nodes
    concatenated into shared [feat]/[bin]/[left]/[right]/[value] arrays),
    so prediction walks a few contiguous kilobytes instead of
    pointer-linked nodes. Every fit [fit] accepts, and its predictions,
    are byte-identical to the frozen [Heron_check.Gbt_ref] oracle
    (test-only). *)

type params = {
  n_trees : int;
  learning_rate : float;
  tree : Tree.params;
}

val default_params : params

type t

val fit : ?params:params -> n_bins:int array -> Fmat.t -> float array -> t
(** [fit ~n_bins m ys] boosts on the first [Fmat.n_rows m] rows against
    [ys] (extra entries ignored).
    @raise Invalid_argument on empty data, or (from {!Tree.fit}) when
    [params.tree.min_samples < 1]. *)

val predict : t -> int array -> float

val predict_batch_into : t -> Fmat.t -> float array -> unit
(** [predict_batch_into t m out] writes the prediction for row [r] into
    [out.(r)] for every row of [m] — the caller owns (and reuses) the
    output buffer across batches.
    @raise Invalid_argument when [out] is shorter than [Fmat.n_rows m]. *)

val feature_gains : t -> float array
(** Per-feature total gain across the ensemble (XGBoost-style
    importance). *)

val dump : t -> string
(** Canonical serialization (floats as ["%h"]), format shared with
    [Heron_check.Gbt_ref.dump]: byte-equal dumps mean byte-identical
    fitted models. *)
