(** Generation context shared by the schedule generation rules (S1–S3,
    multi-level tiling) and the constraint generation rules (C1–C6).

    The schedule rules populate the context with stages, primitives and
    typed facts (splits, candidate sets, fused stages, SPM usage,
    DLA-specific limits); the constraint rules then scan those facts to
    emit the CSP — mirroring the two steps of the paper's Algorithm 1. *)

module Problem = Heron_csp.Problem
module Domain = Heron_csp.Domain
module Op = Heron_tensor.Op
module Template = Heron_sched.Template
module Prim = Heron_sched.Prim
module Descriptor = Heron_dla.Descriptor

type split_fact = { parent_var : string; outer_var : string; inner_var : string }

type select_fact = {
  sel_var : string;  (** the dependent loop-length variable *)
  loc_var : string;  (** the compute-location tunable *)
  entries : string list;  (** one source variable per attach index *)
}

type cache_fact = {
  cf_stage : string;
  cf_scope : string;
  cf_loop_vars : string list;  (** extent variables, outer to inner *)
  cf_pad : string option;
  cf_dtype_bytes : int;
}

type t = {
  b : Problem.builder;
  desc : Descriptor.t;
  op : Op.t;  (** the operator being scheduled (possibly im2col-derived) *)
  mutable prims : Prim.t list;  (** reversed *)
  mutable stages : Template.stage list;  (** reversed *)
  mutable splits : split_fact list;
  mutable candidates : (string * int list) list;
  mutable selects : select_fact list;
  mutable caches : cache_fact list;
  mutable les : (string * string) list;  (** extra LE facts (C6) *)
  mutable prods : (string * string list) list;  (** extra PROD facts (C6) *)
}

val create : Descriptor.t -> Op.t -> t

(** {2 Variable declaration helpers} *)

val add_var : t -> ?category:Problem.category -> string -> Domain.t -> string
(** Declares a variable and returns its name (for fluent use). *)

val const_var : t -> ?category:Problem.category -> string -> int -> string
(** Declares a singleton-domain variable. *)

(** {2 Fact recording (each also records the display primitive)} *)

val split : t -> stage:string -> loop:string -> split_fact -> unit
val candidate : t -> string -> int list -> unit
val select : t -> select_fact -> unit
val cache : t -> cache_fact -> unit
val le : t -> string -> string -> unit
val prod : t -> string -> string list -> unit
val prim : t -> Prim.t -> unit
val stage : t -> Template.stage -> unit

val finish : t -> intrin:string option -> Template.t
(** Assembles the template (stages in declaration order). The CSP is frozen
    separately by {!Rules_cons.apply_all} followed by [Problem.freeze]. *)
