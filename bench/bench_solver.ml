(* Solver engine comparison: the production engine (compiled-template
   cache, bitset domains, trail-based backtracking, one-pass exact
   support) against the frozen pre-overhaul reference [Solver_ref], on a
   fixed-seed CGA-shaped workload over the v100 GEMM space — 64 RandSAT
   draws plus three generations of 32 crossover offspring solved as a
   batch. Both engines run the byte-identical problem list sequentially
   (no pool), so node counts match exactly and the ratio isolates
   per-node engine cost plus compile reuse. Exits 1, before writing
   anything, unless both engines return the same solution lists, node
   counts and propagate-round counts. Emits BENCH_solver.json. *)

module Op = Heron_tensor.Op
module D = Heron_dla.Descriptor
module Solver = Heron_csp.Solver
module Solver_ref = Heron_csp.Solver_ref
module Assignment = Heron_csp.Assignment
module Problem = Heron_csp.Problem
module Rng = Heron_util.Rng
module Obs = Heron_obs.Obs

let passes = 3
let workload_draws = 64

let space = (Heron.Generator.generate D.v100 (Op.gemm ~m:1024 ~n:1024 ~k:1024 ())).problem

(* One pass's problems: the base space and CGA's constraint-based
   crossover offspring, materialized up front. Every pass gets its own
   physically distinct, structurally identical copy of the space, so the
   production engine's template cache — keyed by physical identity, and
   already warmed for [space] by the generator's satisfiability check —
   starts each pass cold and pays the same root propagations as the
   reference. The parents come from the reference engine so nothing
   warms that cache. *)
let workload () =
  let base =
    Problem.of_parts
      (List.map (fun v -> (v, Problem.domain space v)) (Array.to_list (Problem.vars space)))
      (Problem.constraints space)
  in
  let parents = Array.of_list (Solver_ref.rand_sat (Rng.create 5) base 8) in
  if Array.length parents < 2 then failwith "v100 GEMM space unexpectedly hard";
  let keys = [ "tile_i_warp"; "tile_j_warp"; "tile_r_in"; "vec_a" ] in
  ( base,
    List.init 3 (fun g ->
        Heron_search.Cga.crossover_csps (Rng.create (200 + g)) base ~keys ~parents ~n:32) )

let workloads = Array.init passes (fun _ -> workload ())

let now () = float_of_int (Obs.Clock.now_ns ()) *. 1e-9

(* One full workload pass parameterized by the engine's entry points;
   returns wall-clock seconds and every solution, rendered, in order. *)
let timed_pass (base, generations) ~rand_sat ~solve_all =
  let t0 = now () in
  let draws = rand_sat (Rng.create 7) base workload_draws in
  let batches = List.mapi (fun g batch -> solve_all (Rng.create (100 + g)) batch) generations in
  let time = now () -. t0 in
  let render = function Some a -> Assignment.to_string a | None -> "-" in
  (time, List.map Assignment.to_string draws @ List.concat_map (List.map render) batches)

(* Best time over the passes; every pass must return the same solutions. *)
let best_pass ~rand_sat ~solve_all =
  let best = ref infinity and solutions = ref None in
  Array.iter
    (fun w ->
      let time, sols = timed_pass w ~rand_sat ~solve_all in
      best := Float.min !best time;
      match !solutions with
      | None -> solutions := Some sols
      | Some s when s = sols -> ()
      | Some _ ->
          prerr_endline "FAIL: solution lists differ between repeated passes";
          exit 1)
    workloads;
  (!best, Option.get !solutions)

(* Counts accumulate over the passes; each pass is deterministic, so
   per-pass counts are the accumulated total divided by [passes]. *)
let run_ref () =
  let stats = Solver_ref.fresh_stats () in
  let r0 = !Solver_ref.propagate_rounds in
  let time, solutions =
    best_pass
      ~rand_sat:(fun rng p n -> Solver_ref.rand_sat ~stats rng p n)
      ~solve_all:(fun rng ps -> Solver_ref.solve_all ~stats rng ps)
  in
  (stats.Solver_ref.nodes / passes, (!Solver_ref.propagate_rounds - r0) / passes, time, solutions)

let run_new () =
  let nodes = Obs.Counter.make "solver.nodes" in
  let rounds = Obs.Counter.make "solver.propagate_rounds" in
  let n0 = Obs.Counter.value nodes and r0 = Obs.Counter.value rounds in
  let time, solutions =
    best_pass
      ~rand_sat:(fun rng p n -> Solver.rand_sat rng p n)
      ~solve_all:(fun rng ps -> Solver.solve_all rng ps)
  in
  ( (Obs.Counter.value nodes - n0) / passes,
    (Obs.Counter.value rounds - r0) / passes,
    time,
    solutions )

let () =
  let ref_nodes, ref_rounds, ref_time, ref_solutions = run_ref () in
  let new_nodes, new_rounds, new_time, new_solutions = run_new () in
  let gate what ok =
    if not ok then begin
      Printf.eprintf "FAIL: %s differ between Solver and Solver_ref\n" what;
      exit 1
    end
  in
  gate "solution lists" (new_solutions = ref_solutions);
  gate (Printf.sprintf "node counts (ref %d, new %d)" ref_nodes new_nodes)
    (new_nodes = ref_nodes);
  gate (Printf.sprintf "propagate-round counts (ref %d, new %d)" ref_rounds new_rounds)
    (new_rounds = ref_rounds);
  let per_sec n t = if t > 0.0 then float_of_int n /. t else 0.0 in
  let json =
    Printf.sprintf
      {|{
  "workload": {
    "space": "v100 gemm 1024x1024x1024",
    "rand_sat_draws": %d,
    "generations": 3,
    "offspring_per_generation": 32
  },
  "reference": {
    "time_search_s": %.6f,
    "nodes": %d,
    "nodes_per_sec": %.0f,
    "propagate_rounds": %d,
    "propagate_rounds_per_sec": %.0f
  },
  "engine": {
    "time_search_s": %.6f,
    "nodes": %d,
    "nodes_per_sec": %.0f,
    "propagate_rounds": %d,
    "propagate_rounds_per_sec": %.0f
  },
  "speedup": {
    "nodes_per_sec": %.2f,
    "time_search_reduction_pct": %.1f
  }
}
|}
      workload_draws ref_time ref_nodes
      (per_sec ref_nodes ref_time)
      ref_rounds
      (per_sec ref_rounds ref_time)
      new_time new_nodes
      (per_sec new_nodes new_time)
      new_rounds
      (per_sec new_rounds new_time)
      (per_sec new_nodes new_time /. Float.max (per_sec ref_nodes ref_time) 1e-9)
      (100.0 *. (1.0 -. (new_time /. Float.max ref_time 1e-9)))
  in
  Heron_util.Atomic_io.write_string ~path:"BENCH_solver.json" json;
  print_string json;
  print_endline "wrote BENCH_solver.json"
