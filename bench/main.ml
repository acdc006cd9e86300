(* Benchmark harness.

   Part 1 (Bechamel): one micro-benchmark per paper table/figure, timing
   the computational kernel that experiment exercises (space generation,
   CSP solving, CGA evolution, simulation, cost-model training, ...), plus
   micro-benchmarks of the core substrates.

   Part 2: regenerates every table and figure at a reduced trial budget so
   that one `dune exec bench/main.exe` run reproduces the whole evaluation
   (use bin/experiments.exe for full-budget runs). *)

open Bechamel
module Op = Heron_tensor.Op
module D = Heron_dla.Descriptor
module Solver = Heron_csp.Solver
module Concrete = Heron_sched.Concrete
module Rng = Heron_util.Rng
module E = Heron_experiments

let gemm_g1 = Op.gemm ~m:1024 ~n:1024 ~k:1024 ()
let gemm_g3 = Op.gemm ~m:32 ~n:1000 ~k:2048 ()
let c2d = Op.conv2d ~n:16 ~ci:64 ~h:56 ~w:56 ~co:64 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ()
let c3d = Op.conv3d ~n:8 ~ci:16 ~d:8 ~h:28 ~w:28 ~co:32 ~kd:3 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ()

let gen_v100 = Heron.Generator.generate D.v100 gemm_g1
let gen_g3 = Heron.Generator.generate D.v100 gemm_g3
let gen_c2d = Heron.Generator.generate D.v100 c2d
let gen_dlb = Heron.Generator.generate D.dlboost (Op.gemm ~dt:Op.I8 ~m:512 ~n:512 ~k:512 ())
let gen_vta = Heron.Generator.generate D.vta (Op.gemm ~dt:Op.I8 ~m:256 ~n:256 ~k:256 ())

let sample_prog desc (gen : Heron.Generator.t) seed =
  match Solver.solve (Rng.create seed) gen.Heron.Generator.problem with
  | Some a -> Concrete.instantiate gen.Heron.Generator.template a
  | None -> failwith ("unsatisfiable space on " ^ desc.D.dname)

let prog_v100 = sample_prog D.v100 gen_v100 3
let prog_c2d = sample_prog D.v100 gen_c2d 3

let counter = ref 0

let fresh () = incr counter; !counter

let tests =
  [
    (* Per-table / per-figure kernels. *)
    Test.make ~name:"table4_generate_gemm_space" (Staged.stage (fun () ->
        ignore (Heron.Generator.generate D.v100 gemm_g1)));
    Test.make ~name:"table5_generate_c3d_space" (Staged.stage (fun () ->
        ignore (Heron.Generator.generate D.v100 c3d)));
    Test.make ~name:"fig2_random_search_16" (Staged.stage (fun () ->
        let env = Heron.Pipeline.make_env ~seed:(fresh ()) D.v100 gen_g3 in
        ignore (Heron_search.Baselines.random_search env ~budget:16)));
    Test.make ~name:"fig6_cga_gemm_v100_16" (Staged.stage (fun () ->
        let env = Heron.Pipeline.make_env ~seed:(fresh ()) D.v100 gen_v100 in
        ignore (Heron_search.Cga.run env ~budget:16)));
    Test.make ~name:"fig7_simulate_t4_a100" (Staged.stage (fun () ->
        ignore (Heron_dla.Perf_model.latency_us D.t4 prog_v100);
        ignore (Heron_dla.Perf_model.latency_us D.a100 prog_v100)));
    Test.make ~name:"fig8_cga_dlboost_16" (Staged.stage (fun () ->
        let env = Heron.Pipeline.make_env ~seed:(fresh ()) D.dlboost gen_dlb in
        ignore (Heron_search.Cga.run env ~budget:16)));
    Test.make ~name:"fig9_cga_vta_16" (Staged.stage (fun () ->
        let env = Heron.Pipeline.make_env ~seed:(fresh ()) D.vta gen_vta in
        ignore (Heron_search.Cga.run env ~budget:16)));
    Test.make ~name:"fig10_measure_resnet_layer" (Staged.stage (fun () ->
        ignore (Heron_dla.Perf_model.latency_us D.v100 prog_c2d)));
    Test.make ~name:"fig11_randsat_8" (Staged.stage (fun () ->
        ignore (Solver.rand_sat (Rng.create (fresh ())) gen_v100.Heron.Generator.problem 8)));
    Test.make ~name:"fig12_cga_c2d_16" (Staged.stage (fun () ->
        let env = Heron.Pipeline.make_env ~seed:(fresh ()) D.v100 gen_c2d in
        ignore (Heron_search.Cga.run env ~budget:16)));
    Test.make ~name:"fig13_crossover_offspring_32" (Staged.stage (fun () ->
        let rng = Rng.create (fresh ()) in
        let parents =
          Array.of_list (Solver.rand_sat rng gen_v100.Heron.Generator.problem 4)
        in
        if Array.length parents >= 2 then begin
          let keys = [ "tile_i_warp"; "tile_j_warp"; "tile_r_in"; "vec_a" ] in
          let csps =
            Heron_search.Cga.crossover_csps rng gen_v100.Heron.Generator.problem ~keys
              ~parents ~n:32
          in
          List.iter (fun csp -> ignore (Solver.solve ~max_fails:200 ~max_restarts:0 rng csp)) csps
        end));
    Test.make ~name:"fig14_costmodel_refit" (Staged.stage (fun () ->
        let model = Heron_cost.Model.create gen_v100.Heron.Generator.problem in
        let rng = Rng.create 5 in
        let sols = Solver.rand_sat rng gen_v100.Heron.Generator.problem 32 in
        List.iteri (fun i a -> Heron_cost.Model.record model a (float_of_int (i mod 7))) sols;
        Heron_cost.Model.refit model));
    (* Substrate micro-benchmarks. *)
    Test.make ~name:"substrate_csp_solve" (Staged.stage (fun () ->
        ignore (Solver.solve (Rng.create (fresh ())) gen_v100.Heron.Generator.problem)));
    Test.make ~name:"substrate_validate" (Staged.stage (fun () ->
        ignore (Heron_dla.Validate.check D.v100 prog_v100)));
    Test.make ~name:"substrate_perf_model" (Staged.stage (fun () ->
        ignore (Heron_dla.Perf_model.analyze D.v100 prog_v100)));
    Test.make ~name:"substrate_instantiate" (Staged.stage (fun () ->
        ignore
          (Concrete.instantiate gen_v100.Heron.Generator.template
             prog_v100.Concrete.assignment)));
    Test.make ~name:"substrate_ref_exec_gemm16" (Staged.stage (fun () ->
        let op = Op.gemm ~m:16 ~n:16 ~k:16 () in
        let inputs =
          List.map (fun (n, s) -> (n, Array.make s 1.0)) (Heron_tensor.Ref_exec.input_sizes op)
        in
        ignore (Heron_tensor.Ref_exec.run op inputs)));
  ]

let run_benchmarks () =
  let grouped = Test.make_grouped ~name:"heron" ~fmt:"%s/%s" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ t ] -> rows := (name, t) :: !rows
      | _ -> ())
    results;
  print_endline "Bechamel micro-benchmarks (monotonic clock):";
  Printf.printf "%-44s %16s\n%s\n" "benchmark" "time/run" (String.make 62 '-');
  List.sort compare !rows
  |> List.iter (fun (name, ns) ->
         let pretty =
           if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         Printf.printf "%-44s %16s\n" name pretty);
  print_newline ()

let run_experiments () =
  let budget = 100 and seed = 42 in
  print_endline "=== Regenerated tables and figures (reduced budget) ===";
  print_newline ();
  print_string (E.Exp_space.table4 ());
  print_newline ();
  print_string (E.Exp_space.table5 ());
  print_newline ();
  print_string (E.Exp_ops.table9 ());
  print_newline ();
  print_string (E.Exp_search.fig2 ~budget:200 ~seed ());
  print_newline ();
  print_string (E.Exp_ops.fig6 ~budget ~seed ());
  print_newline ();
  print_string (E.Exp_ops.fig7 ~budget ~seed ());
  print_newline ();
  print_string (E.Exp_ops.fig8 ~budget ~seed ());
  print_newline ();
  print_string (E.Exp_ops.fig9 ~budget ~seed ());
  print_newline ();
  print_string (E.Exp_networks.fig10 ~budget:48 ~seed ());
  print_newline ();
  print_string (E.Exp_space.fig11 ~samples:200 ~seed ());
  print_newline ();
  print_string (E.Exp_search.fig12 ~budget:200 ~seed ());
  print_newline ();
  print_string (E.Exp_search.fig13 ~budget:100 ~seed ());
  print_newline ();
  print_string (E.Exp_time.table10 ~budget:64 ~seed ());
  print_newline ();
  print_string (E.Exp_time.fig14 ~budget:64 ~seed ());
  print_newline ();
  print_string (E.Exp_ablation.cga_knobs ~budget:100 ~seed ());
  print_newline ();
  print_string (E.Exp_ablation.propagation ~seed ())

(* --quick: wall-clock comparison of the one pool fan-out, CSP solving
   inside CGA, at jobs=1 vs jobs=2: [Pipeline.tune] of Table 9 G1 on V100
   at 64 trials, best of 3 each. Fails unless both runs produce the same
   library and trace. Emits BENCH_parallel.json with the host's domain
   count, since on one core the ratio only measures pool overhead. *)
let run_quick () =
  let module Pool = Heron_util.Pool in
  let module Pipeline = Heron.Pipeline in
  let module Env = Heron_search.Env in
  let op = List.assoc "G1" Heron_nets.Suites.table9_gemm in
  let budget = 64 and seed = 42 in
  let tune pool =
    let t0 = Heron_obs.Obs.Clock.now_ns () in
    let t = Pipeline.tune ~budget ~seed ?pool D.v100 op in
    let s = float_of_int (Heron_obs.Obs.Clock.now_ns () - t0) *. 1e-9 in
    let r = t.Pipeline.outcome.Heron_search.Cga.result in
    let library =
      match (r.Env.best_assignment, r.Env.best_latency) with
      | Some a, Some l ->
          Heron.Library.to_string (Heron.Library.add Heron.Library.empty D.v100 op ~latency_us:l a)
      | _ -> ""
    in
    (s, (library, r.Env.trace))
  in
  let best_of n pool =
    let best = ref infinity and out = ref None in
    for _ = 1 to n do
      let s, o = tune pool in
      best := Float.min !best s;
      out := Some o
    done;
    (!best, Option.get !out)
  in
  let jobs1, out1 = best_of 3 None in
  let jobs2, out2 = Pool.with_pool ~domains:2 (fun p -> best_of 3 (Some p)) in
  if out1 <> out2 then begin
    prerr_endline "FATAL: jobs=2 library or trace differs from jobs=1";
    exit 1
  end;
  let json =
    Printf.sprintf
      {|{
  "workload": "Pipeline.tune gemm 1024x1024x1024 on v100, %d trials, seed %d, best of 3",
  "domains_available": %d,
  "results_identical": true,
  "tune_s": { "jobs1": %.6f, "jobs2": %.6f },
  "speedup": %.3f
}
|}
      budget seed (Domain.recommended_domain_count ()) jobs1 jobs2
      (if jobs2 > 0.0 then jobs1 /. jobs2 else 0.0)
  in
  Heron_util.Atomic_io.write_string ~path:"BENCH_parallel.json" json;
  print_string json;
  Printf.printf "wrote BENCH_parallel.json (host reports %d domains)\n"
    (Domain.recommended_domain_count ())

let () =
  if Array.exists (String.equal "--quick") Sys.argv then run_quick ()
  else begin
    run_benchmarks ();
    run_experiments ()
  end
