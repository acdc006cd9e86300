module Op = Heron_tensor.Op
module Descriptor = Heron_dla.Descriptor
module Env = Heron_search.Env
module Cga = Heron_search.Cga
module Methods = Heron_baselines.Methods
module Pipeline = Heron.Pipeline
module Obs = Heron_obs.Obs

(* Per-measurement harness overhead on a real device (upload, launch,
   timing), in seconds. *)
let harness_overhead_s = 0.15

let simulated_measure_s (trace : Env.point list) ~reps =
  List.fold_left
    (fun acc (p : Env.point) ->
      let run =
        match p.Env.latency with Some l -> l *. 1e-6 *. float_of_int reps | None -> 0.05
      in
      acc +. run +. harness_overhead_s)
    0.0 trace

let time_ops () =
  [
    ("GEMM", Op.gemm ~m:1024 ~n:1024 ~k:1024 ());
    ("BMM", Op.bmm ~b:192 ~m:128 ~n:128 ~k:64 ());
    ("Conv1D", Op.conv1d ~n:16 ~ci:64 ~l:256 ~co:128 ~kl:3 ~stride:1 ~pad:1 ());
    ("Conv2D", Op.conv2d ~n:16 ~ci:64 ~h:56 ~w:56 ~co:64 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ());
    ( "Conv3D",
      Op.conv3d ~n:8 ~ci:16 ~d:8 ~h:28 ~w:28 ~co:32 ~kd:3 ~kh:3 ~kw:3 ~stride:1 ~pad:1 () );
  ]

let table10 ?(budget = 120) ?(seed = 42) () =
  let desc = Descriptor.v100 in
  let rows =
    List.map
      (fun (name, op) ->
        let per_method (m : Methods.t) =
          let t0 = Obs.Clock.now_ns () in
          let r = m.Methods.run desc op ~budget ~seed in
          let wall = float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9 in
          let total = wall +. simulated_measure_s r.Methods.trace ~reps:3 in
          Printf.sprintf "%.1f" (total /. 60.0)
        in
        [ name; per_method Methods.autotvm; per_method Methods.amos;
          per_method Methods.heron ])
      (time_ops ())
  in
  "Table 10 — compilation time on TensorCore (minutes; search wall-clock plus\n\
   simulated on-device measurement time)\n\n"
  ^ Report.table ~header:[ "operator"; "AutoTVM"; "AMOS"; "Heron" ] rows

let fig14 ?(budget = 120) ?(seed = 42) () =
  let desc = Descriptor.v100 in
  let rows =
    List.map
      (fun (name, op) ->
        let before = Obs.span_totals () in
        let tuned = Pipeline.tune ~budget ~seed desc op in
        let p = Cga.phases ~before ~after:(Obs.span_totals ()) in
        let measure =
          simulated_measure_s tuned.Pipeline.outcome.Cga.result.Env.trace ~reps:3
          +. p.Cga.measure_s
        in
        let search = p.Cga.search_s in
        let model = p.Cga.model_s in
        let total = measure +. search +. model in
        let pct x = Printf.sprintf "%.0f%%" (100.0 *. x /. total) in
        [ name; Printf.sprintf "%.1f min" (total /. 60.0); pct search; pct model;
          pct measure ])
      (time_ops ())
  in
  "Figure 14 — breakdown of Heron's compilation time\n\n"
  ^ Report.table ~header:[ "operator"; "total"; "CGA search"; "cost model"; "measurement" ]
      rows
