module Op = Heron_tensor.Op
module Gemm_view = Heron_tensor.Gemm_view
module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Solver = Heron_csp.Solver
module Concrete = Heron_sched.Concrete
module Descriptor = Heron_dla.Descriptor
module Measure = Heron_dla.Measure
module Env = Heron_search.Env
module Cga = Heron_search.Cga
module Baselines = Heron_search.Baselines
module Rng = Heron_util.Rng
module Generator = Heron.Generator
module Pipeline = Heron.Pipeline

type run = {
  method_name : string;
  latency_us : float option;
  trace : Env.point list;
  invalid : int;
  steps : int;
}

type t = {
  name : string;
  supports : Descriptor.t -> Op.t -> bool;
  run : Descriptor.t -> Op.t -> budget:int -> seed:int -> run;
}

let of_result name (r : Env.result) =
  {
    method_name = name;
    latency_us = r.Env.best_latency;
    trace = r.Env.trace;
    invalid = r.Env.invalid;
    steps = List.length r.Env.trace;
  }

let always _ _ = true

let heron =
  {
    name = "Heron";
    supports = always;
    run =
      (fun desc op ~budget ~seed ->
        let tuned = Pipeline.tune ~budget ~seed desc op in
        of_result "Heron" tuned.Pipeline.outcome.Cga.result);
  }

(* Build a baseline environment from a (possibly relaxed) problem, with the
   measurement closure of the *unrelaxed* template: hardware does not care
   which constraints the searcher knew about. *)
let env_of ~seed desc (gen : Generator.t) problem =
  let measure, _ = Pipeline.make_measure desc gen in
  { Env.problem; measure; rng = Rng.create seed }

(* Baseline paradigms use plain weight layouts; the cache-friendly packed
   layouts (oneDNN-style, ~30%) are a Heron-side choice in the paper. *)
let autotvm_pins =
  [ ("pad_a", 0); ("pad_b", 0); ("pad_c", 0); ("loc_a", 0); ("loc_b", 0);
    ("intrin_m", 16); ("intrin_n", 16); ("intrin_k", 16); ("packed_layout", 0) ]

let autotvm =
  {
    name = "AutoTVM";
    supports = always;
    run =
      (fun desc op ~budget ~seed ->
        let gen = Generator.generate ~seed desc op in
        let problem =
          gen.Generator.problem |> Relax.drop_memory_limits |> Relax.fix_vars autotvm_pins
        in
        let env = env_of ~seed desc gen problem in
        (* ~90% of this space is invalid on the DLA (the paper's Fig. 1
           effect); restart quickly when the neighborhood is dead. *)
        let params = { Baselines.default_sa_params with Baselines.restart_after = 5 } in
        of_result "AutoTVM" (Baselines.simulated_annealing ~params env ~budget));
  }

let ansor =
  {
    name = "Ansor";
    supports =
      (fun desc op ->
        (* Ansor has no VTA backend, and needs a scalar/SIMT fallback. *)
        desc.Descriptor.family <> Descriptor.Vta
        &&
        match op.Op.body with Op.Contract _ | Op.Scan _ | Op.Copy _ -> true);
    run =
      (fun desc op ~budget ~seed ->
        let scheduled =
          match Gemm_view.infer op with
          | Some view -> Gemm_view.derived_op op view
          | None -> op
        in
        let gen = Generator.build desc scheduled ~tensorize:false in
        let problem = Relax.fix_vars [ ("packed_layout", 0) ] gen.Generator.problem in
        let env = env_of ~seed desc gen problem in
        of_result "Ansor" (Baselines.genetic env ~budget));
  }

(* AMOS cannot tune compute locations (paper Sec. 7.1): on DL Boost its
   cached stages must sit at the alignment-safe innermost location, whose
   inner loop lengths equal the intrinsic lengths; on TensorCore the outer
   location is the safe default. It cannot use storage_align or the packed
   layouts either. *)
let amos_pins (desc : Descriptor.t) =
  let loc = match desc.Descriptor.family with Descriptor.Dlboost -> 3 | _ -> 0 in
  [ ("pad_a", 0); ("pad_b", 0); ("pad_c", 0); ("loc_a", loc); ("loc_b", loc);
    ("packed_layout", 0) ]

let amos =
  {
    name = "AMOS";
    supports = (fun desc _ -> desc.Descriptor.family <> Descriptor.Vta);
    run =
      (fun desc op ~budget ~seed ->
        let gen = Generator.generate ~seed desc op in
        let problem = Relax.fix_vars (amos_pins desc) gen.Generator.problem in
        let env = env_of ~seed desc gen problem in
        of_result "AMOS" (Baselines.genetic env ~budget));
  }

(* AKG: a deterministic polyhedral-style schedule — balanced tiling chosen
   by rule, decoded to the nearest valid point, measured once. *)
let akg_bias (op : Op.t) =
  ignore op;
  Assignment.of_list
    [ ("intrin_m", 16); ("intrin_n", 16); ("intrin_k", 16); ("tile_i_warp", 2);
      ("tile_j_warp", 2); ("tile_i_tile", 2); ("tile_j_tile", 2); ("tile_r_in", 2);
      ("vec_a", 4); ("vec_b", 4); ("vec_c", 4); ("pad_a", 0); ("pad_b", 0); ("pad_c", 0);
      ("unroll_c", 16); ("loc_a", 0); ("loc_b", 0) ]

let akg =
  {
    name = "AKG";
    supports =
      (fun desc op ->
        desc.Descriptor.family = Descriptor.Tensorcore
        && (op.Op.cname = "gemm" || op.Op.cname = "c2d"));
    run =
      (fun desc op ~budget:_ ~seed ->
        let gen = Generator.generate ~seed desc op in
        let measurer = Measure.create desc in
        let rng = Rng.create seed in
        let latency =
          match Solver.solve_biased rng gen.Generator.problem (akg_bias op) with
          | None -> None
          | Some a -> (
              match Concrete.instantiate gen.Generator.template a with
              | exception Invalid_argument _ -> None
              | prog -> (
                  match Measure.run measurer prog with Ok l -> Some l | Error _ -> None))
        in
        { method_name = "AKG"; latency_us = latency; trace = []; invalid = 0; steps = 1 });
  }

let vendor library =
  let name = Heron.Hand_tuned.library_name library in
  {
    name;
    supports =
      (fun desc _ ->
        match (library, desc.Descriptor.family) with
        | (Heron.Hand_tuned.Cudnn | Heron.Hand_tuned.Cublas | Heron.Hand_tuned.Pytorch),
          Descriptor.Tensorcore -> true
        | Heron.Hand_tuned.Onednn, Descriptor.Dlboost -> true
        | _ -> false);
    run =
      (fun desc op ~budget:_ ~seed ->
        let latency = Heron.Hand_tuned.latency_us ~seed ~library desc op in
        { method_name = name; latency_us = latency; trace = []; invalid = 0; steps = 1 });
  }

let by_name n =
  let all =
    [ heron; autotvm; ansor; amos; akg;
      vendor Heron.Hand_tuned.Cudnn; vendor Heron.Hand_tuned.Cublas;
      vendor Heron.Hand_tuned.Pytorch; vendor Heron.Hand_tuned.Onednn ]
  in
  List.find_opt (fun m -> String.lowercase_ascii m.name = String.lowercase_ascii n) all
