(* Command-line harness regenerating every table and figure of the paper's
   evaluation. Each subcommand prints the corresponding rows/series. *)

open Cmdliner
module E = Heron_experiments
module Obs = Heron_obs.Obs

let budget_arg default =
  Arg.(value & opt int default & info [ "trials"; "t" ] ~docv:"N"
         ~doc:"Measurement trials per tuning run (the paper uses 2000).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let samples_arg =
  Arg.(value & opt int 300 & info [ "samples" ] ~docv:"N" ~doc:"Space samples (fig11).")

let jobs_arg =
  Arg.(
    value
    & opt int (Heron_util.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domain-pool parallelism for CSP solving in every tuning run, \
           the only parallel phase (default: recommended domain count - \
           1). Results are identical for any value.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured JSONL event journal to $(docv) (see \
           OBSERVABILITY.md). Tracing never changes results.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print solver/search/pool counter totals when done.")

let faults_arg =
  Arg.(
    value & opt string "off"
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic measurement-fault injection for every tuning run: \
           $(b,off), or comma-separated key=value pairs over seed, \
           timeout, crash, hang, noise, persistent. See heron_tune \
           --help.")

(* Install the parsed fault spec as the process default so every
   Pipeline.tune under [f] picks it up. *)
let with_faults spec f =
  match Heron_dla.Faults.parse spec with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok s ->
      Heron_dla.Faults.set_default s;
      Fun.protect ~finally:(fun () -> Heron_dla.Faults.set_default None) f

(* Wrap one experiment run in the journal (when --trace) and the metrics
   dump (when --metrics). *)
let with_obs ~seed ~budget ~jobs trace metrics f =
  let m = Obs.manifest ~tool:"experiments" ~seed ?budget ~jobs () in
  let r = Obs.with_trace trace m f in
  if metrics then print_string (Obs.metrics_report ());
  r

let print s = print_string s

(* Every subcommand runs under [Io_faults.top_level], like the other
   binaries: an I/O error, such as a --trace file in a missing directory,
   exits 4 with one stderr line naming the file. *)
let guarded f =
  Heron_util.Io_faults.top_level (fun () ->
      f ();
      0)

let exits =
  List.map (fun (c, doc) -> Cmd.Exit.info c ~doc) Heron_util.Io_faults.exits @ Cmd.Exit.defaults

let no_arg_cmd name doc f =
  Cmd.v (Cmd.info name ~doc ~exits)
    Term.(const (fun () -> guarded (fun () -> print (f ()))) $ const ())

let budgeted_cmd name doc default f =
  Cmd.v (Cmd.info name ~doc ~exits)
    Term.(
      const (fun budget seed jobs trace metrics faults ->
          guarded @@ fun () ->
          with_faults faults (fun () ->
              Heron_util.Pool.with_jobs jobs (fun _ ->
                  with_obs ~seed ~budget:(Some budget) ~jobs trace metrics (fun () ->
                      print (f ~budget ~seed ())))))
      $ budget_arg default $ seed_arg $ jobs_arg $ trace_arg $ metrics_arg $ faults_arg)

let fig11_cmd =
  Cmd.v (Cmd.info "fig11" ~doc:"Search-space quality heat maps (Heron vs AutoTVM)." ~exits)
    Term.(
      const (fun samples seed trace metrics ->
          guarded @@ fun () ->
          with_obs ~seed ~budget:None ~jobs:1 trace metrics (fun () ->
              print (E.Exp_space.fig11 ~samples ~seed ())))
      $ samples_arg $ seed_arg $ trace_arg $ metrics_arg)

let nets_cmd =
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Exit with status 1 unless every gate passes (gradient beats round-robin, transfer \
             reaches the convergence threshold no slower than cold, pooled and pool-less runs \
             are identical).")
  in
  let net_arg =
    Arg.(
      value & opt string "mini"
      & info [ "network" ] ~docv:"NAME"
          ~doc:"Network to tune (tiny|mini|resnet-50|vgg-16|inception-v3|bert).")
  in
  let lenient_arg =
    Arg.(
      value & flag
      & info [ "lenient" ]
          ~doc:
            "Relax the scheduling gate to gradient-no-worse-than-round-robin (for tiny workloads \
             where both policies saturate).")
  in
  let run budget seed jobs net lenient trace metrics gate =
    guarded @@ fun () ->
    Heron_util.Pool.with_jobs jobs @@ fun _ ->
    with_obs ~seed ~budget:(Some budget) ~jobs trace metrics @@ fun () ->
    match E.Exp_nets.run ~budget ~seed ~net ~strict:(not lenient) () with
    | exception Invalid_argument e ->
        prerr_endline e;
        exit 2
    | report, ok ->
        print report;
        if gate && not ok then exit 1
  in
  Cmd.v
    (Cmd.info "nets" ~exits
       ~doc:
         "Whole-network tuning: gradient budget allocation vs round-robin at equal budget, plus \
          the cross-task transfer ablation.")
    Term.(
      const run $ budget_arg 80 $ seed_arg $ jobs_arg $ net_arg $ lenient_arg $ trace_arg
      $ metrics_arg $ gate_arg)

let all_cmd =
  let run budget seed jobs trace metrics faults =
    guarded @@ fun () ->
    with_faults faults @@ fun () ->
    Heron_util.Pool.with_jobs jobs @@ fun _ ->
    with_obs ~seed ~budget:(Some budget) ~jobs trace metrics @@ fun () ->
    print (E.Exp_space.table4 ());
    print "\n";
    print (E.Exp_space.table5 ());
    print "\n";
    print (E.Exp_search.fig2 ~budget:(min budget 400) ~seed ());
    print "\n";
    print (E.Exp_ops.table9 ());
    print "\n";
    print (E.Exp_ops.fig6 ~budget ~seed ());
    print "\n";
    print (E.Exp_ops.fig7 ~budget ~seed ());
    print "\n";
    print (E.Exp_ops.fig8 ~budget ~seed ());
    print "\n";
    print (E.Exp_ops.fig9 ~budget ~seed ());
    print "\n";
    print (E.Exp_networks.fig10 ~budget:(min budget 48) ~seed ());
    print "\n";
    print (E.Exp_space.fig11 ~seed ());
    print "\n";
    print (E.Exp_search.fig12 ~budget:(min budget 400) ~seed ());
    print "\n";
    print (E.Exp_search.fig13 ~budget:(min budget 200) ~seed ());
    print "\n";
    print (E.Exp_time.table10 ~budget:(min budget 120) ~seed ());
    print "\n";
    print (E.Exp_time.fig14 ~budget:(min budget 120) ~seed ())
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment (long)." ~exits)
    Term.(const run $ budget_arg 80 $ seed_arg $ jobs_arg $ trace_arg $ metrics_arg $ faults_arg)

let cmds =
  [
    no_arg_cmd "table4" "Variable-category breakdown for GEMM (Table 4)." E.Exp_space.table4;
    no_arg_cmd "table5" "Variables/constraints per operator (Table 5)." E.Exp_space.table5;
    no_arg_cmd "table9" "Evaluated shape configurations (Table 9)." E.Exp_ops.table9;
    budgeted_cmd "fig2" "RAND vs SA vs GA exploration traces (Figure 2)." 400
      (fun ~budget ~seed () -> E.Exp_search.fig2 ~budget ~seed ());
    budgeted_cmd "fig6" "Operator performance on V100 (Figure 6)." 80
      (fun ~budget ~seed () -> E.Exp_ops.fig6 ~budget ~seed ());
    budgeted_cmd "fig7" "T4/A100 absolute performance (Figure 7)." 80
      (fun ~budget ~seed () -> E.Exp_ops.fig7 ~budget ~seed ());
    budgeted_cmd "fig8" "DL Boost operator performance (Figure 8)." 80
      (fun ~budget ~seed () -> E.Exp_ops.fig8 ~budget ~seed ());
    budgeted_cmd "fig9" "VTA operator performance (Figure 9)." 80
      (fun ~budget ~seed () -> E.Exp_ops.fig9 ~budget ~seed ());
    budgeted_cmd "fig10" "Network performance (Figure 10)." 48
      (fun ~budget ~seed () -> E.Exp_networks.fig10 ~budget ~seed ());
    fig11_cmd;
    budgeted_cmd "fig12" "CGA vs SA/GA/RAND traces (Figure 12)." 400
      (fun ~budget ~seed () -> E.Exp_search.fig12 ~budget ~seed ());
    budgeted_cmd "fig13" "CGA vs constraint-handling GAs (Figure 13)." 200
      (fun ~budget ~seed () -> E.Exp_search.fig13 ~budget ~seed ());
    budgeted_cmd "table10" "Compilation time comparison (Table 10)." 120
      (fun ~budget ~seed () -> E.Exp_time.table10 ~budget ~seed ());
    budgeted_cmd "fig14" "Heron compile-time breakdown (Figure 14)." 120
      (fun ~budget ~seed () -> E.Exp_time.fig14 ~budget ~seed ());
    budgeted_cmd "ablation" "CGA knob + propagation ablations (DESIGN.md)." 200
      (fun ~budget ~seed () ->
        E.Exp_ablation.cga_knobs ~budget ~seed () ^ "\n" ^ E.Exp_ablation.propagation ~seed ());
    nets_cmd;
    all_cmd;
  ]

let () =
  let info =
    Cmd.info "experiments" ~version:"1.0" ~exits
      ~doc:"Regenerate the tables and figures of the Heron paper (ASPLOS 2023)."
  in
  exit (Cmd.eval' (Cmd.group info cmds))
