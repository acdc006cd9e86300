module Op = Heron_tensor.Op
module Descriptor = Heron_dla.Descriptor
module Env = Heron_search.Env
module Cga = Heron_search.Cga
module Baselines = Heron_search.Baselines
module Generator = Heron.Generator
module Pipeline = Heron.Pipeline

let best_at trace step =
  let rec go best = function
    | [] -> best
    | (p : Env.point) :: rest -> if p.Env.step > step then best else go p.Env.best rest
  in
  go None trace

let trace_rows ~checkpoints traces =
  List.map
    (fun (name, trace) ->
      name
      :: List.map
           (fun cp ->
             match best_at trace cp with
             | None -> "-"
             | Some l -> Printf.sprintf "%.1f" (1000.0 /. l))
           checkpoints)
    traces

let checkpoints_for budget =
  List.filter (fun c -> c <= budget) [ 25; 50; 100; 200; 400; 800; 1600; 2000 ]

let render_traces ~budget traces =
  let checkpoints = checkpoints_for budget in
  Report.table
    ~header:("method" :: List.map (fun c -> Printf.sprintf "@%d" c) checkpoints)
    (trace_rows ~checkpoints traces)

let run_on_problem ~seed desc op searchers =
  let gen = Generator.generate ~seed desc op in
  List.map
    (fun (name, search) ->
      let env = Pipeline.make_env ~seed desc gen in
      let result : Env.result = search env in
      (name, result))
    searchers

let classic_searchers ~budget =
  [
    ("RAND", fun env -> Baselines.random_search env ~budget);
    ("SA", fun env -> Baselines.simulated_annealing env ~budget);
    ("GA", fun env -> Baselines.genetic env ~budget);
  ]

let cga_searcher ~budget = ("CGA", fun env -> (Cga.run env ~budget).Cga.result)

let fig2 ?(budget = 400) ?(seed = 42) () =
  let op = Op.gemm ~m:32 ~n:1000 ~k:2048 () in
  let results =
    run_on_problem ~seed Descriptor.v100 op (classic_searchers ~budget)
  in
  let traces = List.map (fun (n, (r : Env.result)) -> (n, r.Env.trace)) results in
  let invalids =
    List.map
      (fun (n, (r : Env.result)) ->
        Printf.sprintf "%s: %d/%d explored candidates invalid" n r.Env.invalid
          (List.length r.Env.trace))
      results
  in
  "Figure 2 — RAND vs SA vs GA in Heron's irregular constrained space (GEMM G3)\n"
  ^ "(best-so-far score 1000/latency_us at each exploration step; higher is better)\n\n"
  ^ render_traces ~budget traces
  ^ "\n" ^ String.concat "\n" invalids ^ "\n"

let fig12 ?(budget = 400) ?(seed = 42) () =
  let cases =
    [
      ("C2D", Op.conv2d ~n:16 ~ci:64 ~h:56 ~w:56 ~co:64 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
      ("GEMM", Op.gemm ~m:1024 ~n:1024 ~k:1024 ());
    ]
  in
  let sections =
    List.map
      (fun (name, op) ->
        let searchers = cga_searcher ~budget :: classic_searchers ~budget in
        let results = run_on_problem ~seed Descriptor.v100 op searchers in
        let traces = List.map (fun (n, (r : Env.result)) -> (n, r.Env.trace)) results in
        Printf.sprintf "%s:\n%s" name (render_traces ~budget traces))
      cases
  in
  "Figure 12 — CGA vs SA, GA and RAND on C2D and GEMM (V100)\n"
  ^ "(best-so-far score 1000/latency_us; higher is better)\n\n"
  ^ String.concat "\n" sections

let fig13 ?(budget = 200) ?(seed = 42) () =
  let sizes = [ 256; 512; 1024; 2048 ] in
  let variant_searchers ~budget =
    [
      cga_searcher ~budget;
      ( "CGA-1",
        fun env ->
          (Cga.run
             ~params:{ Cga.default_params with Cga.key_selection = Cga.Random_keys }
             env ~budget)
            .Cga.result );
      ("GA-1", fun env -> Baselines.ga_stochastic_ranking env ~budget);
      ("GA-2", fun env -> Baselines.ga_sat_decoder env ~budget);
      ("GA-3", fun env -> Baselines.ga_multi_objective env ~budget);
    ]
  in
  let rows =
    List.map
      (fun n ->
        let op = Op.gemm ~m:n ~n ~k:n () in
        let results =
          run_on_problem ~seed Descriptor.v100 op (variant_searchers ~budget)
        in
        let cga_best =
          match List.assoc "CGA" results with
          | { Env.best_latency = Some l; _ } -> Some l
          | _ -> None
        in
        string_of_int n
        :: List.map
             (fun (_, (r : Env.result)) ->
               match (r.Env.best_latency, cga_best) with
               | Some l, Some c -> Printf.sprintf "%.2f" (c /. l)
               | _ -> "-")
             results)
      sizes
  in
  "Figure 13 — CGA vs constraint-handling GA variants on GEMM (N, N, N)\n"
  ^ "(performance relative to CGA; 1.00 = CGA, lower is worse)\n\n"
  ^ Report.table ~header:[ "N"; "CGA"; "CGA-1"; "GA-1"; "GA-2"; "GA-3" ] rows

