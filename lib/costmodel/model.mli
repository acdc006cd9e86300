(** The cost model of the exploration loop: maps assignments to predicted
    fitness scores and ranks the key variables by feature importance
    (Algorithm 3, Step 1).

    The training window is a fixed ring of flat byte rows ({!Fmat}):
    {!record} is O(n_features) regardless of window fill, and batch
    prediction bins into a reused flat matrix and walks the compiled
    ensemble — no per-generation allocation beyond the result list. *)

module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment

type t

val create : ?window:int -> Problem.t -> t
(** [window] caps the number of most recent samples kept for training.
    Every refit boosts with {!Gbt.default_params}. *)

val record : t -> Assignment.t -> float -> unit
(** Stores one (assignment, fitness score) observation into the ring,
    evicting the oldest once the window is full. O(n_features). *)

val record_row : t -> Fmat.t -> int -> float -> unit
(** [record_row t src r score] records a pre-binned observation: row [r]
    of [src] (built with {!featurize_values}, so the layout matches) is
    blitted into the ring. Ring bytes and counters are identical to
    {!record} on the assignment the row was binned from — the record
    path of the interned search engine, which bins each candidate once
    at intern time. *)

val featurize_values : t -> int array -> Fmat.t -> int -> unit
(** [featurize_values t values m r] bins a candidate, given as values
    indexed by variable id (feature [i] is the problem's variable [i]),
    into row [r] of the caller's matrix with this model's feature layout
    ([m] must have {!n_features} columns). The row equals what {!record}
    stores for the assignment binding those values. Callers cache such
    rows per candidate and feed them back through {!record_row} /
    {!predict_gather}. *)

val refit : t -> unit
(** Retrains the ensemble on the stored observations (cheap; histogram
    trees on at most [window] samples). No-op with fewer than 8 samples. *)

val trained : t -> bool

val predict : t -> Assignment.t -> float
(** Predicted fitness; 0 when the model is not yet trained. *)

val predict_batch : t -> Assignment.t list -> float list
(** Batch [predict]; output order matches input order. *)

val predict_gather : t -> Fmat.t -> int array -> int -> float array -> unit
(** [predict_gather t src rows n out] scores the pre-binned feature rows
    [src.(rows.(0)) .. src.(rows.(n-1))] into [out.(0 .. n-1)] (which
    must hold at least [n] cells) — the zero-copy ranking path: row
    blits into the reused prediction matrix, no per-candidate binning or
    intermediate lists. Predictions, counters and untrained behavior
    (all zeros) match {!predict_batch} on the corresponding
    assignments. *)

val importance : t -> (string * float) list
(** Features sorted by decreasing total gain; empty when untrained. *)

val key_variables : t -> int -> string list
(** Top-k feature names by importance, restricted to features with positive
    gain; falls back to the first [k] variables in declaration order when
    no feature has positive gain (an untrained model). *)

val key_ids : t -> int -> int list
(** {!key_variables} as feature ids, which are variable ids: the same
    variables in the same order. *)

val n_samples : t -> int

val n_features : t -> int
(** Number of features (problem variables) this model bins on. *)

val layout_ok : t -> int array -> bool
(** Whether a binned row fits this model's feature layout: exactly
    {!n_features} cells, each within its feature's bin range. The guard
    {!Heron_search.Cga.run} applies to every resumed or transferred
    window sample. *)

val samples : t -> (int array * float) list
(** The stored training window, most recent first: binned feature vectors
    paired with fitness scores. For checkpointing. *)

val restore : t -> (int array * float) list -> unit
(** Replace the training window with a checkpointed one (most recent
    first) and drop the ensemble; the next {!refit} retrains it. Fitting
    is deterministic in the samples, so restore + refit reproduces the
    exact ensemble a checkpointed run had. *)
