(** Differential properties for the flat-array cost-model engine and the
    hoisted perf-model evaluation context:

    - the struct-of-arrays {!Heron_cost.Gbt} must fit and predict
      byte-identically to the frozen pre-overhaul {!Heron_cost.Gbt_ref}
      (canonical dumps, predictions and feature importances all exactly
      equal), also on datasets built to have constant feature columns,
      which the flat engine leaves out of its histograms;
    - the {!Heron_cost.Model} ring-buffer training window must reproduce
      the old list-window semantics for any record stream;
    - [Model.predict_batch] must agree pointwise with scalar [predict],
      trained or not;
    - {!Heron_dla.Perf_model} context evaluation must equal scalar
      [analyze] on full breakdowns and [latency_us] on each latency. *)

val tests : ?count:int -> unit -> QCheck.Test.t list
