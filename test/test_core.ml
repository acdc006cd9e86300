(* Tests for the Heron core: the space generator's central guarantee (every
   solution of the constrained space is a valid program on the DLA), the
   constraint-generation rules, statistics, hand-tuned proxies and the
   end-to-end pipeline. *)

module Op = Heron_tensor.Op
module Domain = Heron_csp.Domain
module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Solver = Heron_csp.Solver
module Concrete = Heron_sched.Concrete
module Template = Heron_sched.Template
module D = Heron_dla.Descriptor
module Validate = Heron_dla.Validate
module Rng = Heron_util.Rng
module Generator = Heron.Generator
module Stats = Heron.Stats
module Pipeline = Heron.Pipeline
module Hand_tuned = Heron.Hand_tuned

(* The paper's key claim: the automatically constrained space contains only
   programs the DLA accepts. *)
let check_all_samples_valid desc op ~samples =
  let gen = Generator.generate desc op in
  let sols = Solver.rand_sat (Rng.create 31) gen.Generator.problem samples in
  Alcotest.(check bool) "space satisfiable" true (sols <> []);
  List.iter
    (fun a ->
      let prog = Concrete.instantiate gen.Generator.template a in
      match Validate.check desc prog with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "sampled program invalid on %s: %s" desc.D.dname
            (Heron_dla.Violation.to_string v))
    sols

let test_space_valid_v100_gemm () =
  check_all_samples_valid D.v100 (Op.gemm ~m:1024 ~n:1024 ~k:1024 ()) ~samples:25

let test_space_valid_v100_skinny () =
  check_all_samples_valid D.v100 (Op.gemm ~m:32 ~n:1000 ~k:4096 ()) ~samples:25

let test_space_valid_v100_conv () =
  check_all_samples_valid D.v100
    (Op.conv2d ~n:16 ~ci:64 ~h:28 ~w:28 ~co:64 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ())
    ~samples:15

let test_space_valid_v100_bmm () =
  check_all_samples_valid D.v100 (Op.bmm ~b:16 ~m:128 ~n:128 ~k:64 ()) ~samples:15

let test_space_valid_dlboost () =
  check_all_samples_valid D.dlboost (Op.gemm ~dt:Op.I8 ~m:512 ~n:512 ~k:512 ()) ~samples:20

let test_space_valid_vta () =
  check_all_samples_valid D.vta (Op.gemm ~dt:Op.I8 ~m:256 ~n:256 ~k:256 ()) ~samples:20

let test_space_valid_scan () =
  check_all_samples_valid D.v100 (Op.scan ~b:64 ~l:4096 ()) ~samples:10

let test_gemv_falls_back () =
  let gen = Generator.generate D.v100 (Op.gemv ~m:1024 ~k:1024 ()) in
  Alcotest.(check bool) "gemv not tensorized (n=1)" false gen.Generator.tensorized

let test_tensorize_when_divisible () =
  let gen = Generator.generate D.v100 (Op.gemm ~m:256 ~n:256 ~k:256 ()) in
  Alcotest.(check bool) "tensorized" true gen.Generator.tensorized;
  Alcotest.(check bool) "intrin recorded" true
    (gen.Generator.template.Template.intrin <> None)

let test_fallback_when_indivisible () =
  (* K = 7 admits no wmma k in {8,16,32}. *)
  let gen = Generator.generate D.v100 (Op.gemm ~m:256 ~n:256 ~k:7 ()) in
  Alcotest.(check bool) "fell back to CUDA cores" false gen.Generator.tensorized

let test_relaxed_space_contains_invalid () =
  (* Dropping the memory-limit constraints (AutoTVM-style) readmits
     programs the DLA rejects — the paper's low-quality-space effect. *)
  let op = Op.gemm ~m:4096 ~n:4096 ~k:4096 () in
  let gen = Generator.generate D.v100 op in
  let relaxed = Heron_baselines.Relax.drop_memory_limits gen.Generator.problem in
  let sols = Solver.rand_sat (Rng.create 13) relaxed 40 in
  let invalid =
    List.filter
      (fun a ->
        not (Validate.is_valid D.v100 (Concrete.instantiate gen.Generator.template a)))
      sols
  in
  Alcotest.(check bool) "some invalid programs" true (List.length invalid > 0)

let test_relax_fix_vars () =
  let gen = Generator.generate D.v100 (Op.gemm ~m:256 ~n:256 ~k:256 ()) in
  let fixed = Heron_baselines.Relax.fix_vars [ ("pad_a", 0) ] gen.Generator.problem in
  Alcotest.(check (list int)) "pinned" [ 0 ] (Domain.to_list (Problem.domain fixed "pad_a"));
  (* Pinning to an out-of-domain value falls back to the domain minimum. *)
  let fixed2 = Heron_baselines.Relax.fix_vars [ ("pad_a", 3) ] gen.Generator.problem in
  Alcotest.(check (list int)) "fallback" [ 0 ] (Domain.to_list (Problem.domain fixed2 "pad_a"))

let test_stats_table5_trend () =
  let count op =
    (Stats.of_problem (Generator.generate D.v100 op).Generator.problem).Stats.total_vars
  in
  let gemm = count (Op.gemm ~m:1024 ~n:1024 ~k:1024 ()) in
  let c1d = count (Op.conv1d ~n:16 ~ci:64 ~l:256 ~co:128 ~kl:3 ~stride:1 ~pad:1 ()) in
  let c2d = count (Op.conv2d ~n:16 ~ci:64 ~h:56 ~w:56 ~co:64 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ()) in
  let c3d =
    count (Op.conv3d ~n:8 ~ci:16 ~d:8 ~h:28 ~w:28 ~co:32 ~kd:3 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ())
  in
  Alcotest.(check bool) "gemm < c1d" true (gemm < c1d);
  Alcotest.(check bool) "c1d < c2d" true (c1d < c2d);
  Alcotest.(check bool) "c2d < c3d" true (c2d < c3d)

let test_stats_categories_sum () =
  let gen = Generator.generate D.v100 (Op.gemm ~m:1024 ~n:1024 ~k:1024 ()) in
  let c = Stats.of_problem gen.Generator.problem in
  Alcotest.(check int) "categories partition"
    c.Stats.total_vars
    (c.Stats.architectural + c.Stats.loop_length + c.Stats.tunable + c.Stats.auxiliary)

let test_select_semantics () =
  (* The C.shared tile length follows the compute location (Rule C4). *)
  let gen = Generator.generate D.v100 (Op.gemm ~m:512 ~n:512 ~k:512 ()) in
  let sols = Solver.rand_sat (Rng.create 17) gen.Generator.problem 20 in
  List.iter
    (fun a ->
      let loc = Assignment.get a "loc_c" in
      let row = Assignment.get a "len_Cs_row" in
      let expected =
        if loc = 3 then Assignment.get a "aux_i_2" else Assignment.get a "aux_i_1"
      in
      Alcotest.(check int) "row matches location" expected row)
    sols

let test_hand_tuned_runs () =
  let op = Op.gemm ~m:1024 ~n:1024 ~k:1024 () in
  (match Hand_tuned.latency_us ~library:Hand_tuned.Cublas D.v100 op with
  | None -> Alcotest.fail "cublas preset must be feasible"
  | Some l -> Alcotest.(check bool) "positive" true (l > 0.0));
  match
    ( Hand_tuned.latency_us ~library:Hand_tuned.Cublas D.v100 op,
      Hand_tuned.latency_us ~library:Hand_tuned.Pytorch D.v100 op )
  with
  | Some c, Some p ->
      Alcotest.(check bool) "pytorch carries overhead" true (p > c)
  | _ -> Alcotest.fail "both feasible"

let test_hand_tuned_onednn () =
  match
    Hand_tuned.latency_us ~library:Hand_tuned.Onednn D.dlboost
      (Op.gemm ~dt:Op.I8 ~m:512 ~n:512 ~k:512 ())
  with
  | None -> Alcotest.fail "onednn preset must be feasible"
  | Some l -> Alcotest.(check bool) "positive" true (l > 0.0)

let test_pipeline_improves_over_random () =
  let op = Op.gemm ~m:1024 ~n:1024 ~k:1024 () in
  let tuned = Pipeline.tune ~budget:64 ~seed:5 D.v100 op in
  match Pipeline.best_latency_us tuned with
  | None -> Alcotest.fail "tuning must find a program"
  | Some best ->
      (* Compare against the mean of fresh random samples. *)
      let gen = tuned.Pipeline.gen in
      let measure, _ = Pipeline.make_measure D.v100 gen in
      let sols = Solver.rand_sat (Rng.create 99) gen.Generator.problem 10 in
      let latencies = List.filter_map measure sols in
      let mean = List.fold_left ( +. ) 0.0 latencies /. float_of_int (List.length latencies) in
      Alcotest.(check bool) "tuned beats average random" true (best < mean)

let test_pipeline_budget_respected () =
  let op = Op.gemm ~m:256 ~n:256 ~k:256 () in
  let tuned = Pipeline.tune ~budget:32 ~seed:6 D.v100 op in
  Alcotest.(check bool) "at most 32 trials" true
    (List.length tuned.Pipeline.outcome.Heron_search.Cga.result.Heron_search.Env.trace <= 32)

let test_pipeline_best_program_valid () =
  let op = Op.gemm ~m:256 ~n:256 ~k:256 () in
  let tuned = Pipeline.tune ~budget:32 ~seed:7 D.v100 op in
  match Pipeline.best_program tuned with
  | None -> Alcotest.fail "has best program"
  | Some prog -> Alcotest.(check bool) "valid" true (Validate.is_valid D.v100 prog)

(* The pipeline under injected faults, given as the process default:
   tuning must still deliver a validator-clean best program, and be
   byte-identical to the fault-free run when the spec has all-zero
   rates. *)
let hostile_faults =
  {
    Heron_dla.Faults.seed = 4;
    timeout_rate = 0.15;
    crash_rate = 0.1;
    hang_rate = 0.05;
    noise = 0.2;
    persistent = 0.1;
  }

let tune_with_faults spec ~budget ~seed op =
  Heron_dla.Faults.set_default (Some spec);
  Fun.protect
    ~finally:(fun () -> Heron_dla.Faults.set_default None)
    (fun () -> Pipeline.tune ~budget ~seed D.v100 op)

let test_pipeline_tunes_under_faults () =
  let op = Op.gemm ~m:256 ~n:256 ~k:256 () in
  let tuned = tune_with_faults hostile_faults ~budget:32 ~seed:6 op in
  match Pipeline.best_program tuned with
  | None -> Alcotest.fail "faulted run must still find a program"
  | Some prog -> Alcotest.(check bool) "valid" true (Validate.is_valid D.v100 prog)

let test_pipeline_zero_faults_inert () =
  let op = Op.gemm ~m:256 ~n:256 ~k:256 () in
  let plain = Pipeline.tune ~budget:24 ~seed:9 D.v100 op in
  let zeroed = tune_with_faults { Heron_dla.Faults.zero with seed = 77 } ~budget:24 ~seed:9 op in
  let result t = t.Pipeline.outcome.Heron_search.Cga.result in
  Alcotest.(check bool) "trace identical" true
    ((result plain).Heron_search.Env.trace = (result zeroed).Heron_search.Env.trace);
  Alcotest.(check bool) "best identical" true
    ((result plain).Heron_search.Env.best_latency
    = (result zeroed).Heron_search.Env.best_latency)

let test_pipeline_checkpoint_label_mismatch () =
  let op = Op.gemm ~m:256 ~n:256 ~k:256 () in
  let path = Filename.temp_file "heron_ck_core" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let _ = Pipeline.tune ~budget:16 ~seed:3 ~checkpoint:path D.v100 op in
      (* Same checkpoint, different seed: the label check must refuse. *)
      match Pipeline.tune ~budget:16 ~seed:4 ~resume:path D.v100 op with
      | _ -> Alcotest.fail "mismatched checkpoint must be refused"
      | exception Invalid_argument e ->
          Alcotest.(check bool) "diagnostic names the mismatch" true
            (String.length e > 0
            &&
            let needle = "different run" in
            let nl = String.length needle and el = String.length e in
            let rec at i = i + nl <= el && (String.sub e i nl = needle || at (i + 1)) in
            at 0))

let test_generator_deterministic () =
  let op = Op.gemm ~m:512 ~n:512 ~k:512 () in
  let g1 = Generator.generate D.v100 op and g2 = Generator.generate D.v100 op in
  Alcotest.(check int) "same vars" (Problem.n_vars g1.Generator.problem)
    (Problem.n_vars g2.Generator.problem);
  Alcotest.(check int) "same cons" (Problem.n_cons g1.Generator.problem)
    (Problem.n_cons g2.Generator.problem)

let suite =
  [
    Alcotest.test_case "all samples valid: V100 gemm" `Quick test_space_valid_v100_gemm;
    Alcotest.test_case "all samples valid: V100 skinny" `Quick test_space_valid_v100_skinny;
    Alcotest.test_case "all samples valid: V100 conv" `Quick test_space_valid_v100_conv;
    Alcotest.test_case "all samples valid: V100 bmm" `Quick test_space_valid_v100_bmm;
    Alcotest.test_case "all samples valid: DL Boost" `Quick test_space_valid_dlboost;
    Alcotest.test_case "all samples valid: VTA" `Quick test_space_valid_vta;
    Alcotest.test_case "all samples valid: scan" `Quick test_space_valid_scan;
    Alcotest.test_case "gemv falls back" `Quick test_gemv_falls_back;
    Alcotest.test_case "tensorize when divisible" `Quick test_tensorize_when_divisible;
    Alcotest.test_case "fallback when indivisible" `Quick test_fallback_when_indivisible;
    Alcotest.test_case "relaxed space admits invalid" `Quick test_relaxed_space_contains_invalid;
    Alcotest.test_case "relax fix_vars" `Quick test_relax_fix_vars;
    Alcotest.test_case "table5 trend" `Quick test_stats_table5_trend;
    Alcotest.test_case "stats categories sum" `Quick test_stats_categories_sum;
    Alcotest.test_case "SELECT semantics (Rule C4)" `Quick test_select_semantics;
    Alcotest.test_case "hand-tuned proxies run" `Quick test_hand_tuned_runs;
    Alcotest.test_case "oneDNN proxy" `Quick test_hand_tuned_onednn;
    Alcotest.test_case "pipeline beats random" `Quick test_pipeline_improves_over_random;
    Alcotest.test_case "pipeline budget" `Quick test_pipeline_budget_respected;
    Alcotest.test_case "pipeline best program valid" `Quick test_pipeline_best_program_valid;
    Alcotest.test_case "pipeline tunes under faults" `Quick test_pipeline_tunes_under_faults;
    Alcotest.test_case "pipeline zero-rate faults inert" `Quick test_pipeline_zero_faults_inert;
    Alcotest.test_case "pipeline refuses mismatched checkpoint" `Quick
      test_pipeline_checkpoint_label_mismatch;
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
  ]
