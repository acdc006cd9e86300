module Op = Heron_tensor.Op
module Descriptor = Heron_dla.Descriptor
module Solver = Heron_csp.Solver
module Env = Heron_search.Env
module Cga = Heron_search.Cga
module Rng = Heron_util.Rng
module Pipeline = Heron.Pipeline
module Generator = Heron.Generator
module Obs = Heron_obs.Obs

let score (r : Env.result) =
  match r.Env.best_latency with Some l -> 1000.0 /. l | None -> 0.0

let cga_knobs ?(budget = 200) ?(seed = 42) () =
  let op = Op.gemm ~m:1024 ~n:1024 ~k:1024 () in
  let gen = Generator.generate Descriptor.v100 op in
  let seeds = [ seed; seed + 1; seed + 2 ] in
  let run params =
    let scores =
      List.map
        (fun s ->
          let env = Pipeline.make_env ~seed:s Descriptor.v100 gen in
          score (Cga.run ~params env ~budget).Cga.result)
        seeds
    in
    List.fold_left ( +. ) 0.0 scores /. float_of_int (List.length scores)
  in
  let d = Cga.default_params in
  let variants =
    [
      ("default", d);
      ("top-k = 4", { d with Cga.top_k = 4 });
      ("top-k = 16", { d with Cga.top_k = 16 });
      ("no mutation", { d with Cga.mutation = false });
      ("random keys (CGA-1)", { d with Cga.key_selection = Cga.Random_keys });
      ("epsilon = 0 (pure exploit)", { d with Cga.epsilon = 0.0 });
      ("epsilon = 0.5", { d with Cga.epsilon = 0.5 });
    ]
  in
  let rows =
    List.map (fun (name, p) -> [ name; Printf.sprintf "%.1f" (run p) ]) variants
  in
  "Ablation — CGA knobs on GEMM G1, V100 (mean best score 1000/latency_us over 3 seeds)\n\n"
  ^ Report.table ~header:[ "variant"; "score" ] rows

let propagation ?(seed = 42) () =
  let cases =
    [
      ("GEMM G1", Generator.generate Descriptor.v100 (Op.gemm ~m:1024 ~n:1024 ~k:1024 ()));
      ( "C2D",
        Generator.generate Descriptor.v100
          (Op.conv2d ~n:16 ~ci:64 ~h:56 ~w:56 ~co:64 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ()) );
    ]
  in
  let c_nodes = Obs.Counter.make "solver.nodes" and c_fails = Obs.Counter.make "solver.fails" in
  let solve_stats ~exact_limit (gen : Generator.t) =
    let rng = Rng.create seed in
    let nodes0 = Obs.Counter.value c_nodes and fails0 = Obs.Counter.value c_fails in
    let t0 = Obs.Clock.now_ns () in
    let solved = ref 0 in
    for _ = 1 to 20 do
      match Solver.solve ~exact_limit rng gen.Generator.problem with
      | Some _ -> incr solved
      | None -> ()
    done;
    (!solved, Obs.Counter.value c_nodes - nodes0, Obs.Counter.value c_fails - fails0,
     float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9)
  in
  let rows =
    List.concat_map
      (fun (name, gen) ->
        List.map
          (fun (mode, limit) ->
            let solved, nodes, fails, secs = solve_stats ~exact_limit:limit gen in
            [ name; mode; string_of_int solved; string_of_int nodes; string_of_int fails;
              Printf.sprintf "%.3f s" secs ])
          [ ("exact binary pruning", 10_000); ("bounds only", 0) ])
      cases
  in
  "Ablation — CSP propagation strength (20 RandSAT draws each)\n\n"
  ^ Report.table ~header:[ "space"; "propagation"; "solved"; "nodes"; "fails"; "time" ] rows
