(** Uniform interface over all program generation methods compared in the
    paper: Heron, the exploration-based baselines (AutoTVM, Ansor, AMOS),
    the polyhedral baseline (AKG), and vendor libraries. *)

module Op = Heron_tensor.Op
module Descriptor = Heron_dla.Descriptor
module Env = Heron_search.Env

type run = {
  method_name : string;
  latency_us : float option;  (** best found; [None] if nothing valid *)
  trace : Env.point list;
  invalid : int;  (** invalid candidates explored *)
  steps : int;  (** exploration steps actually used *)
}

type t = {
  name : string;
  supports : Descriptor.t -> Op.t -> bool;
  run : Descriptor.t -> Op.t -> budget:int -> seed:int -> run;
}

val heron : t
(** The full pipeline: constrained space + CGA. *)

val autotvm : t
(** Manual-template paradigm: Heron's structure with memory limits unknown,
    alignment and locations fixed, explored by simulated annealing. *)

val ansor : t
(** Auto-template paradigm without DLA intrinsics: the scalar/SIMT path
    with full structural constraints, explored by a genetic algorithm. *)

val amos : t
(** Mapping-exploration paradigm: tensorized and capacity-aware, but with
    fixed compute locations and no storage alignment, explored by a
    genetic algorithm. *)

val akg : t
(** Polyhedral paradigm: one deterministic heuristic schedule, no search;
    GEMM and 2D convolution only. *)

val vendor : Heron.Hand_tuned.library -> t
(** cuDNN / cuBLAS / PyTorch / oneDNN proxies (no search; [budget]
    ignored). *)

val by_name : string -> t option
