module Problem = Heron_csp.Problem
module Domain = Heron_csp.Domain
module Op = Heron_tensor.Op
module Template = Heron_sched.Template
module Prim = Heron_sched.Prim
module Descriptor = Heron_dla.Descriptor

type split_fact = { parent_var : string; outer_var : string; inner_var : string }

type select_fact = { sel_var : string; loc_var : string; entries : string list }

type cache_fact = {
  cf_stage : string;
  cf_scope : string;
  cf_loop_vars : string list;
  cf_pad : string option;
  cf_dtype_bytes : int;
}

type t = {
  b : Problem.builder;
  desc : Descriptor.t;
  op : Op.t;
  mutable prims : Prim.t list;
  mutable stages : Template.stage list;
  mutable splits : split_fact list;
  mutable candidates : (string * int list) list;
  mutable selects : select_fact list;
  mutable caches : cache_fact list;
  mutable les : (string * string) list;
  mutable prods : (string * string list) list;
}

let create desc op =
  {
    b = Problem.builder ();
    desc;
    op;
    prims = [];
    stages = [];
    splits = [];
    candidates = [];
    selects = [];
    caches = [];
    les = [];
    prods = [];
  }

let add_var t ?category name dom =
  Problem.add_var t.b ?category name dom;
  name

let const_var t ?category name v = add_var t ?category name (Domain.singleton v)

let prim t p = t.prims <- p :: t.prims

let split t ~stage ~loop fact =
  t.splits <- fact :: t.splits;
  prim t
    (Prim.Split
       { stage; loop; outer = fact.outer_var; inner = fact.inner_var; factor = fact.inner_var })

let candidate t v cs = t.candidates <- (v, cs) :: t.candidates

let select t fact = t.selects <- fact :: t.selects

let cache t fact = t.caches <- fact :: t.caches

let le t a b = t.les <- (a, b) :: t.les

let prod t v vs = t.prods <- (v, vs) :: t.prods

let stage t s = t.stages <- s :: t.stages

let finish t ~intrin =
  {
    Template.op = t.op;
    stages = List.rev t.stages;
    prims = List.rev t.prims;
    intrin;
  }
