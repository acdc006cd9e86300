(** Whole-network tuning scenario: gradient budget allocation vs per-op
    round-robin at equal budget, plus the cross-task transfer ablation.

    Three runs of the same network/budget/seed — gradient+transfer,
    round-robin+transfer, gradient+cold — feed two gates:

    - the gradient scheduler's weighted end-to-end latency beats
      round-robin's;
    - on at least one freshly-warmed task, transfer reaches the
      convergence threshold (the easier of the two runs' final bests) in
      no more measurement steps than the cold run.

    A fourth run repeats the gradient configuration without the domain
    pool and must match byte-for-byte (allocation trace and traces),
    re-checking jobs-independence at the whole-network level. *)

val run :
  ?budget:int ->
  ?seed:int ->
  ?slice:int ->
  ?net:string ->
  ?strict:bool ->
  unit ->
  string * bool
(** [run ()] tunes the named network (default ["mini"]) on V100 (default
    budget 80, slice 8). Returns the report and whether every gate
    passed; [~strict:false] relaxes the scheduling gate to
    gradient-no-worse-than-round-robin (the quick-gate setting for tiny
    workloads where both policies may saturate).
    @raise Invalid_argument on an unknown network name. *)
