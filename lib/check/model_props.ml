module Op = Heron_tensor.Op
module Problem = Heron_csp.Problem
module Domain = Heron_csp.Domain
module Solver = Heron_csp.Solver
module Assignment = Heron_csp.Assignment
module Concrete = Heron_sched.Concrete
module Descriptor = Heron_dla.Descriptor
module Perf_model = Heron_dla.Perf_model
module Fmat = Heron_cost.Fmat
module Features = Heron_cost.Features
module Gbt = Heron_cost.Gbt
module Gbt_ref = Heron_cost.Gbt_ref
module Tree = Heron_cost.Tree
module Model = Heron_cost.Model
module Generator = Heron.Generator
module Pipeline = Heron.Pipeline
module Rng = Heron_util.Rng

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

(* Random pre-binned regression dataset: the raw material both boosting
   engines train on. *)
let random_dataset rng =
  let nf = 1 + Rng.int rng 5 in
  let bins = Array.init nf (fun _ -> 2 + Rng.int rng 14) in
  let n = 8 + Rng.int rng 112 in
  let xs = Array.init n (fun _ -> Array.init nf (fun j -> Rng.int rng bins.(j))) in
  let w = Array.init nf (fun _ -> Rng.float rng -. 0.5) in
  let ys =
    Array.map
      (fun x ->
        let acc = ref (Rng.float rng *. 0.1) in
        Array.iteri (fun j v -> acc := !acc +. (w.(j) *. float_of_int v)) x;
        !acc)
      xs
  in
  (bins, xs, ys)

(* The flat SoA engine against the frozen pre-overhaul ensemble: canonical
   dumps (every split, threshold, leaf and gain, floats rendered with %h),
   predictions on the training rows and per-feature importances must all
   be exactly equal. *)
let gbt_matches_reference ~count =
  QCheck.Test.make ~name:"model: flat Gbt fit/predict byte-identical to Gbt_ref" ~count
    seed_arb (fun seed ->
      let rng = Rng.create ((seed * 17) + 1) in
      let bins, xs, ys = random_dataset rng in
      let gbt = Gbt.fit ~n_bins:bins (Fmat.of_rows xs) ys in
      let ref_gbt = Gbt_ref.fit ~n_bins:bins xs ys in
      Gbt.dump gbt = Gbt_ref.dump ref_gbt
      && Array.for_all (fun x -> Gbt.predict gbt x = Gbt_ref.predict ref_gbt x) xs
      && Gbt.feature_gains gbt = Gbt_ref.feature_gains ref_gbt)

(* Random pre-binned dataset whose columns are mostly constant: at bin 0,
   at a middle bin or at the top bin (a one-bin feature is all three),
   or constant on every row but one after the first two. A third of the
   datasets make every column constant, a third leave one column
   varying. *)
let constant_columns_dataset rng =
  let nf = 1 + Rng.int rng 6 in
  let bins = Array.init nf (fun _ -> 1 + Rng.int rng 12) in
  let n = 1 + Rng.int rng 120 in
  let layout = Rng.int rng 3 and varying = Rng.int rng nf in
  let xs = Array.make_matrix n nf 0 in
  for j = 0 to nf - 1 do
    let top = bins.(j) - 1 in
    (* 0: varying; 1, 2, 3: constant at bin 0, middle, top; 4: one late row differs *)
    let kind =
      match layout with
      | 0 -> 1 + Rng.int rng 3
      | 1 -> if j = varying then 0 else 1 + Rng.int rng 3
      | _ -> Rng.int rng 5
    in
    let c = match kind with 1 -> 0 | 2 -> top / 2 | _ -> top in
    let odd = 2 + Rng.int rng (max 1 (n - 2)) in
    for i = 0 to n - 1 do
      xs.(i).(j) <-
        (if kind = 0 then Rng.int rng bins.(j) else if kind = 4 && i = odd then 0 else c)
    done
  done;
  let w = Array.init nf (fun _ -> Rng.float rng -. 0.5) in
  let ys =
    Array.map
      (fun x ->
        let acc = ref (Rng.float rng *. 0.1) in
        Array.iteri (fun j v -> acc := !acc +. (w.(j) *. float_of_int v)) x;
        !acc)
      xs
  in
  (bins, xs, ys)

(* Leaving constant columns out of the fit is exact: on datasets built to
   have them, the flat engine still matches the reference, which scans
   every column, at several [min_samples] and depths; and the columns it
   keeps are exactly those with two distinct values. *)
let gbt_constant_columns_match_reference ~count =
  QCheck.Test.make ~name:"model: Gbt with constant columns byte-identical to Gbt_ref" ~count
    seed_arb (fun seed ->
      let rng = Rng.create ((seed * 17) + 4) in
      List.for_all
        (fun _ ->
          let bins, xs, ys = constant_columns_dataset rng in
          let min_samples = 1 + Rng.int rng 4 and max_depth = 1 + Rng.int rng 5 in
          let tree = { Tree.default_params with min_samples; max_depth } in
          let params = { Gbt.default_params with n_trees = 8; tree } in
          let ref_params =
            {
              Gbt_ref.default_params with
              n_trees = 8;
              tree = { Gbt_ref.Tree.default_params with min_samples; max_depth };
            }
          in
          let m = Fmat.of_rows xs in
          let gbt = Gbt.fit ~params ~n_bins:bins m ys in
          let ref_gbt = Gbt_ref.fit ~params:ref_params ~n_bins:bins xs ys in
          let varies j = Array.exists (fun x -> x.(j) <> xs.(0).(j)) xs in
          Tree.active_columns m
          = Array.of_list (List.filter varies (List.init (Array.length bins) Fun.id))
          && Gbt.dump gbt = Gbt_ref.dump ref_gbt
          && Array.for_all (fun x -> Gbt.predict gbt x = Gbt_ref.predict ref_gbt x) xs
          && Gbt.feature_gains gbt = Gbt_ref.feature_gains ref_gbt)
        (List.init 8 Fun.id))

(* A small random CSP to drive the Model API end to end. *)
let random_problem rng =
  let b = Problem.builder () in
  let nv = 2 + Rng.int rng 3 in
  for i = 0 to nv - 1 do
    let dom = List.init (2 + Rng.int rng 6) (fun j -> j + Rng.int rng 3) in
    Problem.add_var b (Printf.sprintf "v%d" i) (Domain.of_list dom)
  done;
  Problem.freeze b

let random_assignment rng problem =
  Assignment.of_list
    (Array.to_list (Problem.vars problem)
    |> List.map (fun v -> (v, Rng.choice_list rng (Domain.to_list (Problem.domain problem v)))))

(* The ring window must reproduce list-window semantics exactly: after any
   record stream, [samples] is the most recent [window] observations, most
   recent first, with the bins [Features.binned] would produce. *)
let ring_window_semantics ~count =
  QCheck.Test.make ~name:"model: ring training window equals list-window semantics" ~count
    seed_arb (fun seed ->
      let rng = Rng.create ((seed * 17) + 2) in
      let problem = random_problem rng in
      let window = 1 + Rng.int rng 12 in
      let m = Model.create ~window problem in
      let f = Features.of_problem problem in
      let expected = ref [] in
      let n_records = Rng.int rng 40 in
      for i = 0 to n_records - 1 do
        let a = random_assignment rng problem in
        let y = float_of_int i in
        Model.record m a y;
        expected := List.filteri (fun k _ -> k < window - 1) !expected;
        expected := (Features.binned f a, y) :: !expected
      done;
      Model.samples m = !expected)

(* Batch prediction against the scalar path, trained and untrained. *)
let predict_batch_matches_scalar ~count =
  QCheck.Test.make ~name:"model: predict_batch equals scalar predict" ~count seed_arb
    (fun seed ->
      let rng = Rng.create ((seed * 17) + 3) in
      let problem = random_problem rng in
      let m = Model.create problem in
      let batch = List.init (1 + Rng.int rng 24) (fun _ -> random_assignment rng problem) in
      let untrained_ok =
        List.for_all (fun p -> p = 0.0) (Model.predict_batch m batch)
      in
      for i = 0 to 19 do
        Model.record m (random_assignment rng problem) (float_of_int (i mod 7))
      done;
      Model.refit m;
      untrained_ok
      && Model.trained m
      && Model.predict_batch m batch = List.map (Model.predict m) batch)

(* Shared DLA spaces (same construction as {!Dla_props}). *)
let spaces =
  lazy
    (List.map
       (fun (desc, op) -> (desc, Generator.generate ~seed:7 desc op))
       [
         (Descriptor.v100, Op.gemm ~dt:F16 ~m:256 ~n:256 ~k:256 ());
         (Descriptor.dlboost, Op.gemm ~dt:I8 ~m:128 ~n:128 ~k:128 ());
         (Descriptor.vta, Op.gemm ~dt:I8 ~m:64 ~n:256 ~k:256 ());
       ])

let draw_programs (gen : Generator.t) rng n =
  Solver.rand_sat rng gen.problem n
  |> List.map (fun a -> (a, Concrete.instantiate gen.template a))

(* The hoisted evaluation context against the scalar model: full breakdowns
   (a float-record comparison, so every component is exact) and latencies
   must agree with per-program analysis. *)
let perf_ctx_matches_scalar ~count =
  QCheck.Test.make ~name:"model: Perf_model ctx/batch evaluation equals scalar analyze"
    ~count seed_arb (fun seed ->
      List.for_all
        (fun (i, (desc, (gen : Generator.t))) ->
          let rng = Rng.create ((seed * 31) + i) in
          let progs = draw_programs gen rng 4 in
          let ctx = Perf_model.make_ctx desc gen.template.Heron_sched.Template.op in
          List.for_all
            (fun (_, prog) ->
              Perf_model.analyze_ctx ctx prog = Perf_model.analyze desc prog
              && Perf_model.latency_us_ctx ctx prog = Perf_model.latency_us desc prog)
            progs)
        (List.mapi (fun i s -> (i, s)) (Lazy.force spaces)))

let tests ?(count = 40) () =
  [
    gbt_matches_reference ~count;
    gbt_constant_columns_match_reference ~count;
    ring_window_semantics ~count;
    predict_batch_matches_scalar ~count;
    perf_ctx_matches_scalar ~count;
  ]
