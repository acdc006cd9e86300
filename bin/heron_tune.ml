(* Tune a single operator on a chosen DLA from the command line and print
   the resulting schedule, latency and search statistics. *)

open Cmdliner
module Op = Heron_tensor.Op
module D = Heron_dla.Descriptor
module Pool = Heron_util.Pool
module Obs = Heron_obs.Obs

let desc_of_string = function
  | "v100" -> Ok D.v100
  | "t4" -> Ok D.t4
  | "a100" -> Ok D.a100
  | "dlboost" -> Ok D.dlboost
  | "vta" -> Ok D.vta
  | "tpu" -> Ok D.tpu
  | "cambricon" -> Ok D.cambricon
  | s -> Error (Printf.sprintf "unknown DLA %S (v100|t4|a100|dlboost|vta|tpu|cambricon)" s)

let op_of ~kind ~dims ~dt =
  let dt = match dt with "i8" -> Op.I8 | "f32" -> Op.F32 | _ -> Op.F16 in
  match (kind, dims) with
  | "gemm", [ m; n; k ] -> Ok (Op.gemm ~dt ~m ~n ~k ())
  | "bmm", [ b; m; n; k ] -> Ok (Op.bmm ~dt ~b ~m ~n ~k ())
  | "gemv", [ m; k ] -> Ok (Op.gemv ~dt ~m ~k ())
  | "c1d", [ n; ci; l; co; kl; stride; pad ] ->
      Ok (Op.conv1d ~dt ~n ~ci ~l ~co ~kl ~stride ~pad ())
  | "c2d", [ n; ci; h; w; co; kh; kw; stride; pad ] ->
      Ok (Op.conv2d ~dt ~n ~ci ~h ~w ~co ~kh ~kw ~stride ~pad ())
  | "scan", [ b; l ] -> Ok (Op.scan ~b ~l ())
  | _ ->
      Error
        "usage: gemm M N K | bmm B M N K | gemv M K | c1d N CI L CO KL S P | \
         c2d N CI H W CO KH KW S P | scan B L"

(* Whole-network mode: extract tasks, let the gradient scheduler slice
   the budget, print the per-task allocation and the end-to-end latency. *)
let run_network desc name ~budget ~seed ~jobs ~slice ~policy ~transfer trace metrics checkpoint
    resume kill_after =
  match Heron_nets.Models.find name with
  | None ->
      Printf.eprintf "unknown network %S (tiny|mini|resnet-50|vgg-16|inception-v3|bert)\n" name;
      2
  | Some net ->
      Printf.printf "tuning network %s on %s (budget %d, slice %d, seed %d, %d jobs, %s%s)\n%!"
        net.Heron_nets.Models.net_name desc.D.dname budget slice seed (max 1 jobs)
        (match policy with
        | Heron_nets.Scheduler.Round_robin -> "round-robin"
        | _ -> "gradient")
        (if transfer then ", transfer" else ", no transfer");
      let manifest =
        Obs.manifest ~tool:"heron_tune" ~seed ~descriptor:desc.D.dname
          ~op:net.Heron_nets.Models.net_name ~budget ~jobs:(max 1 jobs) ()
      in
      (match
         Obs.with_trace trace manifest (fun () ->
             Pool.with_jobs jobs (fun pool ->
                 Heron_nets.Tuner.tune ~budget ~seed ~slice ~policy ~transfer ?pool ?checkpoint
                   ?resume ?kill_after desc net))
       with
      | exception Invalid_argument e ->
          prerr_endline e;
          2
      | r ->
          if metrics then print_string (Obs.metrics_report ());
          List.iter
            (fun tr ->
              Printf.printf "  %-40s rounds %2d  trials %4d  steps %4d  best %s%s\n"
                (Heron_nets.Tasks.to_string tr.Heron_nets.Tuner.tr_task)
                tr.Heron_nets.Tuner.tr_rounds tr.Heron_nets.Tuner.tr_alloc
                tr.Heron_nets.Tuner.tr_steps
                (match tr.Heron_nets.Tuner.tr_best with
                | None -> "none"
                | Some b -> Printf.sprintf "%.2f us" b)
                (if tr.Heron_nets.Tuner.tr_transferred then "  (transferred)" else ""))
            r.Heron_nets.Tuner.r_reports;
          Printf.printf "measurements: %d\n" r.Heron_nets.Tuner.r_measurements;
          (match r.Heron_nets.Tuner.r_latency_us with
          | None -> print_endline "no end-to-end latency (some task has no valid schedule)"
          | Some l -> Printf.printf "end-to-end latency: %.2f us\n" l);
          0)

(* A simulated process death from --io-faults must terminate like a real
   crash would: nonzero (3, matching --kill-after), nothing handled. *)
let crash_to_exit3 f =
  try f ()
  with Heron_util.Io_faults.Crashed _ as e ->
    Printf.eprintf "io-faults: %s\n%!" (Printexc.to_string e);
    3

let run dla network kind dims dt trials seed jobs slice round_robin no_transfer trace metrics
    faults io_faults checkpoint resume kill_after =
  match Heron_util.Io_faults.parse io_faults with
  | Error e ->
      prerr_endline e;
      2
  | Ok io_spec ->
  Heron_util.Io_faults.set_default (Option.map Heron_util.Io_faults.create io_spec);
  crash_to_exit3 @@ fun () ->
  match desc_of_string dla with
  | Error e -> prerr_endline e; 2
  | Ok desc -> (
      match network with
      | Some name ->
          let policy =
            if round_robin then Heron_nets.Scheduler.Round_robin
            else Heron_nets.Scheduler.Gradient
          in
          run_network desc name ~budget:trials ~seed ~jobs ~slice ~policy
            ~transfer:(not no_transfer) trace metrics checkpoint resume kill_after
      | None -> (
      match kind with
      | None ->
          prerr_endline "an operator (e.g. gemm 1024 1024 1024) or --network NAME is required";
          2
      | Some kind ->
      match op_of ~kind ~dims ~dt with
      | Error e -> prerr_endline e; 2
      | Ok op ->
          match Heron_dla.Faults.parse faults with
          | Error e -> prerr_endline e; 2
          | Ok fault_spec ->
          Heron_dla.Faults.set_default fault_spec;
          Printf.printf "tuning %s on %s (%d trials, seed %d, %d jobs)\n%!"
            (Op.to_string op) desc.D.dname trials seed (max 1 jobs);
          (match fault_spec with
          | None -> ()
          | Some s ->
              Printf.printf "faults: %s\n%!" (Heron_dla.Faults.to_string s));
          let manifest =
            Obs.manifest ~tool:"heron_tune" ~seed ~descriptor:desc.D.dname
              ~op:(Op.to_string op) ~budget:trials ~jobs:(max 1 jobs) ()
          in
          let before = Obs.span_totals () in
          match
            Obs.with_trace trace manifest (fun () ->
                Pool.with_jobs jobs (fun pool ->
                    Heron.Pipeline.tune ~budget:trials ~seed ?pool ?checkpoint ?resume
                      ?kill_after desc op))
          with
          | exception Invalid_argument e ->
              prerr_endline e;
              2
          | tuned ->
          let phases = Heron_search.Cga.phases ~before ~after:(Obs.span_totals ()) in
          if metrics then print_string (Obs.metrics_report ());
          Printf.printf "space: %s\n"
            (Heron.Stats.to_string (Heron.Stats.of_problem tuned.gen.problem));
          Printf.printf
            "phases (%d jobs): search %.2fs, model %.2fs, measure %.2fs\n"
            tuned.Heron.Pipeline.outcome.Heron_search.Cga.jobs
            phases.Heron_search.Cga.search_s phases.Heron_search.Cga.model_s
            phases.Heron_search.Cga.measure_s;
          (match Heron.Pipeline.best_latency_us tuned with
          | None -> print_endline "no valid program found"
          | Some l ->
              Printf.printf "best latency: %.2f us (%.2f TFLOPS)\n" l
                (Heron_dla.Perf_model.achieved_tflops op l);
              match Heron.Pipeline.best_program tuned with
              | None -> ()
              | Some prog ->
                  print_string (Heron_sched.Concrete.to_string prog);
                  print_newline ();
                  print_string (Heron_dla.Explain.report desc prog);
                  print_newline ();
                  print_string (Heron.Codegen.emit desc prog));
          0))

let () =
  let dla = Arg.(value & opt string "v100" & info [ "dla" ] ~docv:"DLA") in
  let network =
    Arg.(
      value
      & opt (some string) None
      & info [ "network" ] ~docv:"NAME"
          ~doc:
            "Tune a whole network (tiny|mini|resnet-50|vgg-16|inception-v3|bert) instead of one \
             operator: the measurement budget ($(b,--trials)) is sliced across the network's \
             distinct tasks by a gradient-based scheduler and the winners are assembled into one \
             library.")
  in
  let kind = Arg.(value & pos 0 (some string) None & info [] ~docv:"OP") in
  let dims = Arg.(value & pos_right 0 int [] & info [] ~docv:"DIMS") in
  let dt = Arg.(value & opt string "f16" & info [ "dtype" ] ~docv:"DT") in
  let trials = Arg.(value & opt int 200 & info [ "trials"; "t" ] ~docv:"N") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let jobs =
    Arg.(
      value
      & opt int (Pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domain-pool parallelism for CSP solving, the only parallel \
             phase; measurement and the cost model run on one domain \
             (default: recommended domain count - 1). Results are \
             identical for any value.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a structured JSONL event journal (manifest, spans, \
             eval/generation events, counter totals) to $(docv). See \
             OBSERVABILITY.md for the schema. Tracing never changes \
             results.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print solver/search/pool counter totals after tuning.")
  in
  let slice =
    Arg.(
      value & opt int 16
      & info [ "slice" ] ~docv:"N"
          ~doc:"Network mode: measurement trials per scheduler round (default 16).")
  in
  let round_robin =
    Arg.(
      value & flag
      & info [ "round-robin" ]
          ~doc:
            "Network mode ablation: allocate rounds cyclically instead of by estimated marginal \
             end-to-end gain.")
  in
  let no_transfer =
    Arg.(
      value & flag
      & info [ "no-transfer" ]
          ~doc:
            "Network mode ablation: disable cross-task cost-model transfer; every task's search \
             starts cold.")
  in
  let faults =
    Arg.(
      value & opt string "off"
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic measurement-fault injection: $(b,off), or \
             comma-separated key=value pairs over seed, timeout, crash, \
             hang, noise, persistent (e.g. \
             $(b,seed=1,timeout=0.1,crash=0.05,noise=0.2,persistent=0.05)). \
             Faults are a pure function of the spec and each \
             configuration, so campaigns are reproducible and identical \
             for any --jobs value.")
  in
  let io_faults =
    Arg.(
      value & opt string "off"
      & info [ "io-faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic storage-fault injection on the write path \
             (checkpoints, library saves, journal writes): $(b,off); \
             $(b,record) (inject nothing, count I/O sites); \
             $(b,crash_at=N) (simulate process death at the N-th site, \
             exit 3); or comma-separated key=value pairs over seed, \
             enospc, eio, torn, rename, crash, persistent (e.g. \
             $(b,seed=1,enospc=0.05,torn=0.1)). Faults are a pure \
             function of the spec and the write history — zero RNG state \
             is consumed, so search results are unchanged unless a write \
             actually fails.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Checkpoint the search state to $(docv) after every \
             exploration iteration. For one operator the file is an \
             append-only log, one checksummed record per iteration; \
             with $(b,--network) it is one JSON file replaced atomically \
             per round. A killed run resumed with $(b,--resume) finishes \
             byte-identically; given the same $(docv) for both flags, it \
             continues the log in place, cutting off a record torn by \
             the kill.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint written by $(b,--checkpoint), from \
             its last whole record. The run parameters (DLA, operator, \
             trials, seed, faults) must match the checkpointed run.")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Testing hook: exit with status 3 (simulating a crash) after \
             the N-th checkpoint write.")
  in
  let term =
    Term.(
      const run $ dla $ network $ kind $ dims $ dt $ trials $ seed $ jobs $ slice $ round_robin
      $ no_transfer $ trace $ metrics $ faults $ io_faults $ checkpoint $ resume $ kill_after)
  in
  let info = Cmd.info "heron_tune" ~doc:"Tune one operator with Heron on a simulated DLA." in
  exit (Cmd.eval' (Cmd.v info term))
