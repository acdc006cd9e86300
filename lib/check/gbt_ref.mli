(** Frozen pre-overhaul GBT engine — the differential oracle the flat-array
    rebuild is tested against (the PR-4 playbook). Boxed [int array array]
    features, pointer-linked tree nodes, per-feature sorted-gain scans.
    Results define the correctness bar: the production {!Heron_cost.Gbt} must fit
    byte-identical ensembles and predict byte-identical scores. Sequential
    on purpose; never optimize or parallelize this module. *)

module Tree : sig
  type params = { max_depth : int; min_samples : int; min_gain : float }

  val default_params : params

  type node =
    | Leaf of float
    | Split of { feat : int; bin : int; gain : float; left : node; right : node }

  type t = { root : node; n_features : int }

  val fit : ?params:params -> n_bins:int array -> int array array -> float array -> t
  val predict : t -> int array -> float
  val gains : t -> float array
end

type params = { n_trees : int; learning_rate : float; tree : Tree.params }

val default_params : params

type t

val fit : ?params:params -> n_bins:int array -> int array array -> float array -> t
val predict : t -> int array -> float
val feature_gains : t -> float array
val n_trees : t -> int

val dump : t -> string
(** Canonical serialization (floats as ["%h"]), shared format with
    {!Heron_cost.Gbt.dump}: byte-equal dumps mean byte-identical fitted models. *)
