(* Tests for the search algorithms, centered on the paper's core claims:
   constraint-based crossover/mutation always yields valid offspring, and
   CGA optimizes constrained problems (checked end-to-end on the paper's
   Figure 5 toy problem). *)

module Domain = Heron_csp.Domain
module Cons = Heron_csp.Cons
module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Solver = Heron_csp.Solver
module Env = Heron_search.Env
module Cga = Heron_search.Cga
module Cga_ref = Heron_search.Cga_ref
module Intern = Heron_search.Intern
module Baselines = Heron_search.Baselines
module Rng = Heron_util.Rng

(* The paper's Figure 5 problem: maximize 0.4x + 0.6y + 0.01z subject to
   x*y <= 8, x,y in 1..5, z in {0,1}. Optimum: x=2, y=4 (or x=1,y=5
   scoring 0.8+... compare: x2y4 = 0.8+2.4 = 3.2; x1y5 = 0.4+3.0 = 3.4;
   wait x*y<=8 admits (1,5): 5<=8 -> 3.4 + z. So best is x=1,y=5,z=1. *)
let fig5_problem () =
  let b = Problem.builder () in
  Problem.add_var b "x" (Domain.of_list [ 1; 2; 3; 4; 5 ]);
  Problem.add_var b "y" (Domain.of_list [ 1; 2; 3; 4; 5 ]);
  Problem.add_var b "z" (Domain.of_list [ 0; 1 ]);
  Problem.add_var b "xy" (Domain.of_list (List.init 8 (fun i -> i + 1)));
  Problem.add_cons b (Cons.Prod ("xy", [ "x"; "y" ]));
  Problem.freeze b

let fig5_objective a =
  (0.4 *. float_of_int (Assignment.get a "x"))
  +. (0.6 *. float_of_int (Assignment.get a "y"))
  +. (0.01 *. float_of_int (Assignment.get a "z"))

(* Wrap the objective as a latency so that maximizing fitness = maximizing
   the objective. *)
let fig5_env seed =
  let p = fig5_problem () in
  {
    Env.problem = p;
    measure =
      (fun a ->
        if Problem.check p a = Ok () then Some (1000.0 /. fig5_objective a) else None);
    rng = Rng.create seed;
  }

let test_fig5_optimum_known () =
  let p = fig5_problem () in
  let sols = Solver.enumerate p in
  let best = List.fold_left (fun acc a -> max acc (fig5_objective a)) 0.0 sols in
  Alcotest.(check (float 1e-9)) "optimum" 3.41 best

let test_cga_finds_fig5_optimum () =
  let outcome = Cga.run (fig5_env 1) ~budget:60 in
  match outcome.Cga.result.Env.best_assignment with
  | None -> Alcotest.fail "must find something"
  | Some a -> Alcotest.(check (float 0.02)) "optimal" 3.41 (fig5_objective a)

let test_crossover_offspring_valid () =
  (* Offspring of constraint-based crossover always satisfy CSP_initial. *)
  let p = fig5_problem () in
  let rng = Rng.create 5 in
  let parents = Array.of_list (Solver.rand_sat rng p 6) in
  let csps = Cga.crossover_csps rng p ~keys:[ "x"; "y" ] ~parents ~n:40 in
  let offspring = List.filter_map (fun csp -> Solver.solve rng csp) csps in
  Alcotest.(check bool) "some offspring" true (List.length offspring > 10);
  List.iter
    (fun a -> Alcotest.(check bool) "valid" true (Problem.check p a = Ok ()))
    offspring

let test_crossover_inherits_keys () =
  (* Without mutation, every kept key variable takes a parental value. *)
  let p = fig5_problem () in
  let rng = Rng.create 6 in
  let pa = Assignment.of_list [ ("x", 1); ("y", 5); ("z", 0); ("xy", 5) ] in
  let pb = Assignment.of_list [ ("x", 2); ("y", 4); ("z", 1); ("xy", 8) ] in
  let csps = Cga.crossover_csps ~mutation:false rng p ~keys:[ "x"; "y" ] ~parents:[| pa; pb |] ~n:30 in
  List.iter
    (fun csp ->
      match Solver.solve rng csp with
      | None -> ()
      | Some child ->
          Alcotest.(check bool) "x from a parent" true
            (List.mem (Assignment.get child "x") [ 1; 2 ]);
          Alcotest.(check bool) "y from a parent" true
            (List.mem (Assignment.get child "y") [ 4; 5 ]))
    csps

let test_crossover_mutation_drops_one () =
  let p = fig5_problem () in
  let rng = Rng.create 7 in
  let parents = Array.of_list (Solver.rand_sat rng p 4) in
  let with_m = Cga.crossover_csps ~mutation:true rng p ~keys:[ "x"; "y"; "z" ] ~parents ~n:10 in
  let without = Cga.crossover_csps ~mutation:false rng p ~keys:[ "x"; "y"; "z" ] ~parents ~n:10 in
  List.iter
    (fun csp -> Alcotest.(check int) "2 extra constraints" (Problem.n_cons p + 2) (Problem.n_cons csp))
    with_m;
  List.iter
    (fun csp -> Alcotest.(check int) "3 extra constraints" (Problem.n_cons p + 3) (Problem.n_cons csp))
    without

let test_recorder_budget_and_cache () =
  let env = fig5_env 2 in
  let r = Env.Recorder.create env ~budget:5 in
  let a = Assignment.of_list [ ("x", 1); ("y", 5); ("z", 1); ("xy", 5) ] in
  let first = Env.Recorder.eval r a in
  Alcotest.(check bool) "measured" true (first <> None);
  (* Replays do not consume budget. *)
  for _ = 1 to 10 do
    ignore (Env.Recorder.eval r a)
  done;
  Alcotest.(check int) "only one step" 4 (Env.Recorder.steps_left r);
  Alcotest.(check bool) "seen" true (Env.Recorder.seen r a);
  let result = Env.Recorder.finish r in
  Alcotest.(check int) "trace length" 1 (List.length result.Env.trace)

let test_recorder_tracks_best () =
  let env = fig5_env 3 in
  let r = Env.Recorder.create env ~budget:10 in
  let a1 = Assignment.of_list [ ("x", 1); ("y", 1); ("z", 0); ("xy", 1) ] in
  let a2 = Assignment.of_list [ ("x", 1); ("y", 5); ("z", 1); ("xy", 5) ] in
  ignore (Env.Recorder.eval r a1);
  ignore (Env.Recorder.eval r a2);
  let res = Env.Recorder.finish r in
  (match res.Env.best_assignment with
  | Some b -> Alcotest.(check bool) "best is a2" true (Assignment.equal b a2)
  | None -> Alcotest.fail "has best");
  Alcotest.(check int) "no invalid" 0 res.Env.invalid

let test_recorder_counts_invalid () =
  let env = fig5_env 4 in
  let r = Env.Recorder.create env ~budget:10 in
  let bad = Assignment.of_list [ ("x", 5); ("y", 5); ("z", 0); ("xy", 8) ] in
  Alcotest.(check bool) "invalid measure" true (Env.Recorder.eval r bad = None);
  Alcotest.(check int) "counted" 1 (Env.Recorder.finish r).Env.invalid

let searcher_finds_good name search =
  Alcotest.test_case (name ^ " reaches a good fig5 solution") `Quick (fun () ->
      let result = search (fig5_env 11) in
      match result.Env.best_latency with
      | None -> Alcotest.failf "%s found nothing" name
      | Some l ->
          let obj = 1000.0 /. l in
          Alcotest.(check bool) (name ^ " close to optimum") true (obj >= 2.8))

let test_trace_monotone () =
  let result = Baselines.random_search (fig5_env 12) ~budget:40 in
  let rec check prev = function
    | [] -> ()
    | (p : Env.point) :: rest ->
        (match (prev, p.Env.best) with
        | Some a, Some b -> Alcotest.(check bool) "best non-increasing" true (b <= a)
        | _ -> ());
        check p.Env.best rest
  in
  check None result.Env.trace

let test_ga_sat_decoder_all_valid () =
  let env = fig5_env 13 in
  let result = Baselines.ga_sat_decoder env ~budget:60 in
  Alcotest.(check int) "decoder yields only valid programs" 0 result.Env.invalid

let test_ga_variants_run () =
  List.iter
    (fun (name, search) ->
      let result = search (fig5_env 14) ~budget:40 in
      Alcotest.(check bool) (name ^ " measured something") true
        (List.length result.Env.trace > 0))
    [
      ("GA-1", Baselines.ga_stochastic_ranking ?params:None ?pf:None);
      ("GA-3", Baselines.ga_multi_objective ?params:None);
      ("SA", fun env ~budget -> Baselines.simulated_annealing env ~budget);
    ]

let test_ga_terminates_on_tiny_space () =
  (* Regression: once the whole (tiny) space is measured, converged GA
     populations only produce cached replays; the recorder's secondary
     evaluation cap must still terminate the loop. *)
  let result = Baselines.genetic (fig5_env 31) ~budget:200 in
  Alcotest.(check bool) "terminated with a best" true (result.Env.best_latency <> None);
  Alcotest.(check bool) "within budget" true (List.length result.Env.trace <= 200)

let test_sa_terminates_on_tiny_space () =
  let result = Baselines.simulated_annealing (fig5_env 32) ~budget:200 in
  Alcotest.(check bool) "terminated" true (List.length result.Env.trace <= 200)

let test_cga_deterministic_given_seed () =
  let run () =
    let o = Cga.run (fig5_env 21) ~budget:40 in
    o.Cga.result.Env.best_latency
  in
  Alcotest.(check bool) "same result" true (run () = run ())

(* The multicore determinism contract: a fixed seed yields byte-identical
   results — best latency, full trace and invalid count — whatever the
   domain-pool size, including no pool at all. Checked on the Fig. 5 toy
   and on a 64-trial tune of Table 9's G1 on V100, whose library entry
   must match byte for byte as well. *)
let test_cga_trace_identical_across_jobs () =
  let fig5 pool = ((Cga.run ?pool (fig5_env 21) ~budget:40).Cga.result, "") in
  let g1 pool =
    let op = List.assoc "G1" Heron_nets.Suites.table9_gemm in
    let v100 = Heron_dla.Descriptor.v100 in
    let tuned = Heron.Pipeline.tune ~budget:64 ~seed:42 ?pool v100 op in
    let r = tuned.Heron.Pipeline.outcome.Cga.result in
    let library =
      match (r.Env.best_assignment, r.Env.best_latency) with
      | Some a, Some l ->
          Heron.Library.(to_string (add empty v100 op ~latency_us:l a))
      | _ -> Alcotest.fail "G1 found no program"
    in
    (r, library)
  in
  List.iter
    (fun (name, run, pool_sizes) ->
      let key (r, library) = (r.Env.best_latency, r.Env.trace, r.Env.invalid, library) in
      let sequential = key (run None) in
      List.iter
        (fun domains ->
          Heron_util.Pool.with_pool ~domains (fun p ->
              Alcotest.(check bool)
                (Printf.sprintf "%s jobs=%d identical" name domains)
                true
                (key (run (Some p)) = sequential)))
        pool_sizes)
    [ ("fig5", fig5, [ 1; 4 ]); ("G1", g1, [ 2 ]) ]

(* The recorder's two entry points, assignment-keyed [eval] and interned
   [eval_id], interleaved over one budget-5 run: explicit returns,
   budget left and trace across a cache replay, a duplicate, an invalid
   program, budget exhaustion and a replay after it. *)
let test_eval_and_eval_id () =
  let assignment x y z = Assignment.of_list [ ("x", x); ("y", y); ("z", z); ("xy", x * y) ] in
  let lat x y z = Some (1000.0 /. fig5_objective (assignment x y z)) in
  let env = fig5_env 17 in
  let measured = ref 0 in
  let env =
    {
      env with
      Env.measure =
        (fun a ->
          incr measured;
          env.Env.measure a);
    }
  in
  let r = Env.Recorder.create env ~budget:5 in
  let by_id a = Env.Recorder.eval_id r (Env.Recorder.intern r a) in
  let steps =
    [
      (Env.Recorder.eval r, assignment 1 1 0, lat 1 1 0, 4);
      (by_id, assignment 1 1 0, lat 1 1 0, 4) (* cache replay: no budget *);
      (by_id, assignment 1 5 1, lat 1 5 1, 3);
      (Env.Recorder.eval r, assignment 2 4 0, lat 2 4 0, 2);
      (Env.Recorder.eval r, assignment 1 5 1, lat 1 5 1, 2) (* duplicate: replay *);
      (by_id, assignment 5 5 0, None, 1) (* invalid: x*y = 25 violates xy <= 8 *);
      (Env.Recorder.eval r, assignment 1 3 0, lat 1 3 0, 0);
      (by_id, assignment 2 3 1, None, 0) (* budget exhausted: not measured *);
      (Env.Recorder.eval r, assignment 2 2 1, None, 0);
      (by_id, assignment 2 4 0, lat 2 4 0, 0) (* replay still served *);
    ]
  in
  List.iteri
    (fun i (eval, a, expected, left) ->
      Alcotest.(check (option (float 0.0))) (Printf.sprintf "return %d" i) expected (eval a);
      Alcotest.(check int) (Printf.sprintf "steps_left after %d" i) left
        (Env.Recorder.steps_left r))
    steps;
  Alcotest.(check int) "one measurement per fresh step" 5 !measured;
  Alcotest.(check bool) "exhausted" true (Env.Recorder.exhausted r);
  let res = Env.Recorder.finish r in
  let best = lat 1 5 1 in
  let expected_trace =
    [
      { Env.step = 1; latency = lat 1 1 0; best = lat 1 1 0 };
      { Env.step = 2; latency = best; best };
      { Env.step = 3; latency = lat 2 4 0; best };
      { Env.step = 4; latency = None; best };
      { Env.step = 5; latency = lat 1 3 0; best };
    ]
  in
  Alcotest.(check bool) "trace" true (res.Env.trace = expected_trace);
  Alcotest.(check (option (float 0.0))) "best latency" best res.Env.best_latency;
  Alcotest.(check bool) "best assignment" true
    (Option.equal Assignment.equal res.Env.best_assignment (Some (assignment 1 5 1)));
  Alcotest.(check int) "invalid" 1 res.Env.invalid

module Resilience = Heron_search.Resilience
module Checkpoint = Heron_search.Checkpoint

(* Drive one retry session from a scripted list of attempt outcomes. *)
let scripted outcomes ~attempt =
  if attempt < List.length outcomes then List.nth outcomes attempt
  else Alcotest.failf "unexpected attempt %d" attempt

let test_resilience_verdicts () =
  let p = Resilience.default_policy in
  (match Resilience.run p (scripted [ Resilience.Measured 5.0 ]) with
  | Resilience.Ok_measured { latency; tally } ->
      Alcotest.(check (float 0.0)) "clean latency" 5.0 latency;
      Alcotest.(check int) "no retries" 0 tally.Resilience.retries
  | _ -> Alcotest.fail "clean measurement must be Ok_measured");
  (match Resilience.run p (scripted [ Resilience.Invalid ]) with
  | Resilience.Invalid_config { tally } ->
      Alcotest.(check int) "invalid never retries" 0 tally.Resilience.retries
  | _ -> Alcotest.fail "validator rejection must be Invalid_config");
  (match
     Resilience.run p
       (scripted [ Resilience.Fault Resilience.Timeout; Resilience.Measured 7.0 ])
   with
  | Resilience.Ok_measured { latency; tally } ->
      Alcotest.(check (float 0.0)) "retried latency" 7.0 latency;
      Alcotest.(check int) "one retry" 1 tally.Resilience.retries;
      Alcotest.(check int) "one timeout" 1 tally.Resilience.timeouts
  | _ -> Alcotest.fail "transient fault then success must be Ok_measured");
  (match
     Resilience.run p
       (scripted (List.init (p.Resilience.max_retries + 1) (fun _ -> Resilience.Fault Resilience.Crash)))
   with
  | Resilience.Quarantined { tally } ->
      Alcotest.(check int) "all attempts crashed" (p.Resilience.max_retries + 1)
        tally.Resilience.crashes;
      Alcotest.(check int) "all retries used" p.Resilience.max_retries tally.Resilience.retries
  | _ -> Alcotest.fail "exhausted retries must be Quarantined");
  match Resilience.run p (scripted [ Resilience.Fault Resilience.Hang ]) with
  | Resilience.Degraded { tally } ->
      Alcotest.(check int) "one hang" 1 tally.Resilience.hangs;
      Alcotest.(check (float 0.0)) "hang consumed the deadline" p.Resilience.deadline_us
        tally.Resilience.sim_us
  | _ -> Alcotest.fail "a hang with retries left must be Degraded"

(* A snapshot written by a real (small) CGA run survives the JSON
   round-trip exactly: same label, loop state, recorder export, survivors
   and model samples. *)
let test_checkpoint_roundtrip () =
  let env = fig5_env 5 in
  let snapshots = ref [] in
  let _ =
    Cga.run
      ~params:Cga.{ default_params with pop_size = 8; generations = 2; batch = 4 }
      ~on_snapshot:(fun s -> snapshots := s :: !snapshots)
      env ~budget:16
  in
  Alcotest.(check bool) "snapshots written" true (!snapshots <> []);
  let snap = List.hd !snapshots in
  let path = Filename.temp_file "heron_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save ~path ~label:"test-run" snap;
      match Checkpoint.load ~path with
      | Error e -> Alcotest.fail e
      | Ok (label, back) ->
          Alcotest.(check string) "label" "test-run" label;
          Alcotest.(check int) "iter" snap.Cga.s_iter back.Cga.s_iter;
          Alcotest.(check int) "dry" snap.Cga.s_dry back.Cga.s_dry;
          Alcotest.(check bool) "stopped" snap.Cga.s_stopped back.Cga.s_stopped;
          Alcotest.(check string) "rng" snap.Cga.s_rng_hex back.Cga.s_rng_hex;
          let r0 = snap.Cga.s_recorder and r1 = back.Cga.s_recorder in
          Alcotest.(check int) "steps" r0.Env.Recorder.x_steps r1.Env.Recorder.x_steps;
          Alcotest.(check bool) "trace identical" true
            (r0.Env.Recorder.x_trace = r1.Env.Recorder.x_trace);
          Alcotest.(check bool) "cache identical" true
            (r0.Env.Recorder.x_cache = r1.Env.Recorder.x_cache);
          Alcotest.(check bool) "best latency identical" true
            (r0.Env.Recorder.x_best = r1.Env.Recorder.x_best);
          Alcotest.(check (option string)) "best assignment identical"
            (Option.map Assignment.key r0.Env.Recorder.x_best_a)
            (Option.map Assignment.key r1.Env.Recorder.x_best_a);
          Alcotest.(check bool) "survivors identical" true
            (List.map (fun (a, l) -> (Assignment.key a, l)) snap.Cga.s_survivors
            = List.map (fun (a, l) -> (Assignment.key a, l)) back.Cga.s_survivors);
          Alcotest.(check bool) "model samples identical" true
            (snap.Cga.s_model = back.Cga.s_model))

let read_file path = In_channel.with_open_bin path In_channel.input_all
let render ~label s = Heron_obs.Json.to_string (Checkpoint.snapshot_to_json ~label s)

(* The checkpoint log of one fixed-seed run: the file's bytes after each
   write, with the snapshot written. *)
let logged_run ~path ~label =
  let params = Cga.{ default_params with pop_size = 8; generations = 2; batch = 4 } in
  let w = Checkpoint.writer ~path ~label in
  let writes = ref [] in
  let _ =
    Cga.run ~params
      ~on_snapshot:(fun s ->
        Checkpoint.write w s;
        writes := (read_file path, s) :: !writes)
      (fig5_env 11) ~budget:24
  in
  List.rev !writes

(* Every write of a checkpoint log loads back to the snapshot written:
   through one writer for a whole fixed-seed run, a run resumed by a
   writer that continues the same file past a torn record and one resumed
   through a fresh writer, unrelated snapshots whose latencies include
   -0.0 (equal to 0.0) and NaN, a sliding cost-model window, two runs
   interleaved, snapshots read back from the file (equal to the written
   ones but physically fresh) and a cache that evicts its oldest entries.
   A write that should extend the file leaves the previous bytes as a
   prefix of the new ones, and the run continued in place ends on the
   uninterrupted log's bytes. *)
let test_checkpoint_log_loads_back () =
  let params = Cga.{ default_params with pop_size = 8; generations = 2; batch = 4 } in
  let label = "log-test" in
  let path = Filename.temp_file "heron_ckw" ".log" in
  let written = ref 0 and extended = ref 0 in
  let write_and_check ?(extends = false) ctx w s =
    let before = read_file path in
    Checkpoint.write w s;
    incr written;
    let ctx = Printf.sprintf "%s: write %d" ctx !written in
    (match Checkpoint.load ~path with
    | Ok (l, back) ->
        Alcotest.(check string) (ctx ^ ": label") label l;
        Alcotest.(check string) ctx (render ~label s) (render ~label back)
    | Error e -> Alcotest.fail (ctx ^ ": " ^ e));
    let after = read_file path in
    let n = String.length before in
    if String.length after > n && String.sub after 0 n = before then incr extended
    else if extends then Alcotest.failf "%s: the previous bytes are not a prefix" ctx
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Checkpoint.writer ~path ~label in
      let logs = ref [] in
      let _ =
        Cga.run ~params
          ~on_snapshot:(fun s ->
            write_and_check ~extends:(!logs <> []) "run" w s;
            logs := (read_file path, s) :: !logs)
          (fig5_env 11) ~budget:24
      in
      let logs = List.rev !logs in
      let snapshots = List.map snd logs in
      Alcotest.(check bool) "several writes" true (List.length snapshots > 2);
      let k = List.length snapshots / 2 in
      let mid = List.nth snapshots k in
      let full = read_file path in
      (* Killed while appending the record after [mid]: 7 bytes of it landed. *)
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub full 0 (String.length (fst (List.nth logs k)) + 7)));
      (match Checkpoint.read ~path with
      | Error e -> Alcotest.fail e
      | Ok log ->
          Alcotest.(check int) "torn record dropped" 7 log.Checkpoint.dropped;
          Alcotest.(check string) "torn log holds the record before" (render ~label mid)
            (render ~label log.Checkpoint.snapshot);
          let w = Checkpoint.reopen ~path log in
          let _ =
            Cga.run ~params ~resume:log.Checkpoint.snapshot
              ~on_snapshot:(write_and_check ~extends:true "continued" w)
              (fig5_env 11) ~budget:24
          in
          Alcotest.(check bool) "continued log equals the uninterrupted one" true
            (read_file path = full));
      let fresh = Checkpoint.writer ~path ~label and first = ref true in
      let _ =
        Cga.run ~params ~resume:mid
          ~on_snapshot:(fun s ->
            write_and_check ~extends:(not !first) "resumed" fresh s;
            first := false)
          (fig5_env 11) ~budget:24
      in
      let base = List.hd snapshots in
      let r = base.Cga.s_recorder in
      let with_latency i l =
        {
          base with
          Cga.s_iter = 100 + i;
          s_survivors = List.map (fun (a, _) -> (a, l)) base.Cga.s_survivors;
          s_model = List.map (fun (bins, _) -> (bins, l)) base.Cga.s_model;
          s_recorder =
            {
              r with
              Env.Recorder.x_best = Some l;
              x_trace = List.map (fun p -> { p with Env.latency = Some l }) r.Env.Recorder.x_trace;
              x_cache = List.map (fun (k, _) -> (k, Some l)) r.Env.Recorder.x_cache;
            };
        }
      in
      let odd = [ 0.0; -0.0; nan; Float.neg nan; infinity; 1e16; Float.succ 1e16; 0.1 +. 0.2 ] in
      List.iteri (fun i l -> write_and_check "unrelated" w (with_latency i l)) (odd @ List.rev odd);
      (* A full cost-model window slides: rows enter at its head (most
         recent first) and as many leave at its tail. *)
      let w = Checkpoint.writer ~path ~label in
      write_and_check "window" w base;
      let window = ref base.Cga.s_model in
      for i = 1 to 4 do
        let bins = fst (List.hd base.Cga.s_model) in
        let fresh = List.init i (fun j -> (Array.map (fun b -> b + i + j) bins, float_of_int j)) in
        let n = List.length !window in
        window := fresh @ List.filteri (fun k _ -> k < n - i) !window;
        write_and_check ~extends:true "window" w
          { base with Cga.s_iter = base.Cga.s_iter + i; s_model = !window }
      done;
      let other = ref [] in
      let _ =
        Cga.run ~params
          ~on_snapshot:(fun s -> other := s :: !other)
          (fig5_env 12) ~budget:24
      in
      let w = Checkpoint.writer ~path ~label in
      List.iteri
        (fun i s ->
          write_and_check "interleaved" w s;
          match List.nth_opt (List.rev !other) i with
          | Some o -> write_and_check "interleaved" w o
          | None -> ())
        snapshots;
      let reread s =
        match Checkpoint.load ~path with
        | Ok (_, back) -> back
        | Error e -> Alcotest.fail (e ^ " (after writing iteration " ^ string_of_int s.Cga.s_iter ^ ")")
      in
      let w = Checkpoint.writer ~path ~label in
      List.iter
        (fun s ->
          write_and_check "run" w s;
          write_and_check "read back" w (reread s))
        snapshots;
      let env = fig5_env 13 in
      let r = Env.Recorder.create ~cache_cap:4 env ~budget:64 in
      let w = Checkpoint.writer ~path ~label in
      let distinct = List.filteri (fun i _ -> i < 12) (Solver.enumerate env.Env.problem) in
      (* [base]'s survivors are not in this cache: a snapshot that kept
         them could only replace the file. *)
      let evicting_extends = ref 0 in
      List.iteri
        (fun i a ->
          ignore (Env.Recorder.eval r a);
          let before = !extended in
          write_and_check "evicting" w
            { base with Cga.s_recorder = Env.Recorder.export r; s_survivors = [] };
          if i >= 4 then evicting_extends := !evicting_extends + !extended - before)
        distinct;
      Alcotest.(check int) "8 evictions" 8 (List.length distinct - Env.Recorder.cache_size r);
      Alcotest.(check bool) "writes that evict extend the log" true (!evicting_extends > 0))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* The search loop interns children by their values; checkpoints and
   resumed survivors arrive as maps. Both must land on one id, and the
   map an id hands back must be the assignment itself. *)
let test_intern_values_and_maps () =
  let p = fig5_problem () in
  let names = Problem.vars p in
  let maps = Solver.rand_sat (Rng.create 3) p 8
  and values = Solver.rand_sat_values (Rng.create 3) p 8 in
  Alcotest.(check int) "same draws" (List.length maps) (List.length values);
  let t = Intern.create names in
  List.iter2
    (fun a vs ->
      Alcotest.(check string) "draw" (Assignment.key a)
        (Assignment.key (Assignment.of_values names vs));
      let id = Intern.intern t a in
      Alcotest.(check int) "map and values share an id" id (Intern.intern_values t vs);
      Alcotest.(check bool) "assignment is the map" true
        (Assignment.equal (Intern.assignment t id) a);
      Alcotest.(check string) "key" (Assignment.key a) (Intern.key t id))
    maps values;
  (* Interned by values: the map is built on first use, then memoized. *)
  let t = Intern.create names in
  List.iter2
    (fun a vs ->
      let id = Intern.intern_values t vs in
      Alcotest.(check string) "key before map" (Assignment.key a) (Intern.key t id);
      let built = Intern.assignment t id in
      Alcotest.(check bool) "built map" true (Assignment.equal built a);
      Alcotest.(check bool) "memoized" true (Intern.assignment t id == built))
    maps values;
  (* Values differing only above bit 24 are different candidates. *)
  let t = Intern.create [| "a"; "b" |] in
  let low = Intern.intern_values t [| 5; 0 |]
  and high = Intern.intern_values t [| 5 + (1 lsl 40); 0 |] in
  Alcotest.(check bool) "high bits count" true (low <> high);
  Alcotest.(check int) "re-intern" high (Intern.intern_values t [| 5 + (1 lsl 40); 0 |]);
  (* A map over other variables is refused, naming the variable. *)
  let t = Intern.create names in
  List.iter
    (fun (bindings, needle) ->
      match Intern.intern t (Assignment.of_list bindings) with
      | _ -> Alcotest.failf "map without exactly the problem's variables accepted (%s)" needle
      | exception Invalid_argument e ->
          if not (contains e needle) then Alcotest.failf "%S does not name %s" e needle)
    [
      ([ ("x", 1); ("y", 1); ("z", 0) ], "\"xy\"");
      ([ ("x", 1); ("y", 1); ("z", 0); ("xy", 1); ("w", 1) ], "\"w\"");
      ([ ("a", 1); ("x", 1); ("y", 1); ("z", 0); ("xy", 1) ], "\"a\"");
      ([], "\"x\"");
    ];
  Alcotest.(check int) "nothing interned" 0 (Intern.size t);
  match Intern.intern_values t [| 1; 1 |] with
  | _ -> Alcotest.fail "short value array accepted"
  | exception Invalid_argument _ -> ()

(* A snapshot from a different task must be rejected before anything is
   restored: its model rows would corrupt the feature ring, and its carried
   assignments and cache keys would not fit this problem. Tamper with a genuine
   snapshot in each of the ways a foreign one would differ. *)
let test_resume_rejects_foreign_snapshot () =
  let snapshots = ref [] in
  let _ =
    Cga.run
      ~params:Cga.{ default_params with pop_size = 8; generations = 2; batch = 4 }
      ~on_snapshot:(fun s -> snapshots := s :: !snapshots)
      (fig5_env 7) ~budget:16
  in
  Alcotest.(check bool) "snapshots written" true (!snapshots <> []);
  let snap = List.hd !snapshots in
  let expect_reject ~needle snap' =
    match Cga.run ~resume:snap' (fig5_env 7) ~budget:8 with
    | _ -> Alcotest.failf "tampered snapshot accepted (wanted %S)" needle
    | exception Invalid_argument e ->
        if not (contains e needle) then
          Alcotest.failf "diagnostic %S does not mention %S" e needle
  in
  (* Model row wider than this task's feature layout. *)
  expect_reject ~needle:"feature layout mismatch"
    { snap with Cga.s_model = [ (Array.make 64 0, 1.0) ] };
  (* Survivor binding the wrong number of variables. *)
  expect_reject ~needle:"binds"
    { snap with Cga.s_survivors = [ (Assignment.of_list [ ("x", 1) ], 10.0) ] };
  (* Survivor binding a variable this problem does not have. *)
  expect_reject ~needle:"unknown variable"
    {
      snap with
      Cga.s_survivors =
        [ (Assignment.of_list [ ("x", 1); ("y", 1); ("q", 1); ("xy", 1) ], 10.0) ];
    };
  (* Recorder best assignment with a value outside this task's domain. *)
  expect_reject ~needle:"outside this task's domain"
    {
      snap with
      Cga.s_survivors = [];
      s_model = [];
      s_recorder =
        {
          snap.Cga.s_recorder with
          Env.Recorder.x_best_a =
            Some (Assignment.of_list [ ("x", 99); ("y", 1); ("z", 0); ("xy", 1) ]);
        };
    };
  (* Measurement-cache keys over other variables: the import names the
     key. *)
  List.iter
    (fun key ->
      expect_reject ~needle:key
        {
          snap with
          Cga.s_recorder =
            {
              snap.Cga.s_recorder with
              Env.Recorder.x_cache = (key, Some 1.0) :: snap.Cga.s_recorder.Env.Recorder.x_cache;
            };
        })
    [ "q=1;x=1;xy=1;y=1;z=0"; "x=1;y=1;z=0" ];
  (* The untampered snapshot itself still resumes fine. *)
  ignore (Cga.run ~resume:snap (fig5_env 7) ~budget:16)

let test_checkpoint_diagnostics () =
  let expect_error ~needle content =
    let path = Filename.temp_file "heron_ck_bad" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> output_string oc content);
        match Checkpoint.load ~path with
        | Ok _ -> Alcotest.failf "must reject %S" content
        | Error e ->
            let contains =
              let nl = String.length needle and el = String.length e in
              let rec at i = i + nl <= el && (String.sub e i nl = needle || at (i + 1)) in
              at 0
            in
            if not contains then Alcotest.failf "diagnostic %S does not mention %S" e needle)
  in
  let frame p = Printf.sprintf "%d %016Lx %s\n" (String.length p) (Heron_util.Hashing.fnv1a p) p in
  expect_error ~needle:"invalid JSON" (frame "{ truncated");
  expect_error ~needle:"heron_checkpoint" (frame "{\"foo\": 1}");
  expect_error ~needle:"unsupported version" (frame "{\"heron_checkpoint\": 999}");
  expect_error ~needle:"missing field \"rng\""
    (frame
       "{\"heron_checkpoint\": 1, \"label\": \"x\", \"iter\": 0, \"dry\": 0, \"stopped\": false}");
  expect_error ~needle:"record 0: a delta record" (frame "{\"heron_delta\": 1}");
  expect_error ~needle:"no whole record" "";
  expect_error ~needle:"whole-file" "{\"heron_checkpoint\": 1}\n"

(* A damaged log loads to the last whole record before the damage: a
   truncated last record, a flipped byte in the last record, a flipped
   byte in a middle record. (A whole-file checkpoint, the format before
   logs, is refused by name in [test_checkpoint_diagnostics].) *)
let test_checkpoint_log_frames () =
  let label = "frames" in
  let path = Filename.temp_file "heron_ckf" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let writes = Array.of_list (logged_run ~path ~label) in
      let n = Array.length writes in
      Alcotest.(check bool) "several records" true (n > 3);
      let full = fst writes.(n - 1) in
      (* The length of records 0 .. i. *)
      let ends i = String.length (fst writes.(i)) in
      let loads_to ctx content i =
        Out_channel.with_open_bin path (fun oc -> output_string oc content);
        match Checkpoint.read ~path with
        | Error e -> Alcotest.fail (ctx ^ ": " ^ e)
        | Ok log ->
            Alcotest.(check int) (ctx ^ ": records") (i + 1) log.Checkpoint.records;
            Alcotest.(check int) (ctx ^ ": bytes dropped") (String.length content - ends i)
              log.Checkpoint.dropped;
            Alcotest.(check string) ctx (render ~label (snd writes.(i)))
              (render ~label log.Checkpoint.snapshot)
      in
      let flip at =
        String.mapi (fun j c -> if j = at then Char.chr (Char.code c lxor 1) else c) full
      in
      loads_to "whole log" full (n - 1);
      loads_to "truncated last record" (String.sub full 0 (String.length full - 5)) (n - 2);
      loads_to "flipped byte in the last record" (flip ((ends (n - 2) + ends (n - 1)) / 2)) (n - 2);
      let m = n / 2 in
      loads_to "flipped byte in a middle record" (flip ((ends (m - 1) + ends m) / 2)) (m - 1))

(* Allocation regression pins for the exploration loop. Two claims:

   (1) Steady-state per-iteration minor-heap churn is amortized O(1):
   the flat engine keeps population ids, scores, ranking order and
   feature rows in arrays reused across iterations, so once those reach
   their high-water mark a late iteration allocates what an early one
   does — growth of the recorder's seen/cache state or the training
   window must not leak into per-iteration allocation.

   (2) The interned engine allocates under 0.65x the frozen string-keyed
   loop on identical work (same seed, draw-for-draw identical
   trajectory): no per-candidate key strings, no per-generation scored
   lists, no per-ranking re-binning, and children bred, solved, interned
   and binned as value arrays, with no crossover CSP or solution map.
   Both runs are deterministic, so the minor-word totals are exact, not
   noisy. *)
let test_cga_iteration_allocation_constant () =
  (* Unconstrained 6-var space (~260k points): candidates stay plentiful
     for the whole run, so every iteration does full-size work. *)
  let wide_problem () =
    let b = Problem.builder () in
    List.iter
      (fun v -> Problem.add_var b v (Domain.of_list (List.init 8 (fun i -> i + 1))))
      [ "a"; "b"; "c"; "d"; "e"; "f" ];
    Problem.freeze b
  in
  let p = wide_problem () in
  let make_env () =
    {
      Env.problem = p;
      measure =
        (fun a ->
          let s = Assignment.fold (fun v x acc -> acc + (x * String.length v)) a 17 in
          Some (1.0 +. float_of_int (s land 0xFF)));
      rng = Rng.create 42;
    }
  in
  let params =
    {
      Cga.default_params with
      Cga.pop_size = 64;
      generations = 3;
      batch = 4;
      top_k = 3;
      survivors = 8;
    }
  in
  let words = ref [] in
  let on_snapshot _ = words := Gc.minor_words () :: !words in
  let w0 = Gc.minor_words () in
  ignore (Cga.run ~params ~on_snapshot (make_env ()) ~budget:60);
  let live_total = Gc.minor_words () -. w0 in
  let ws = Array.of_list (List.rev !words) in
  let n = Array.length ws in
  Alcotest.(check bool) "enough iterations" true (n >= 12);
  let delta i = ws.(i + 1) -. ws.(i) in
  let avg lo hi =
    let acc = ref 0.0 in
    for i = lo to hi - 1 do
      acc := !acc +. delta i
    done;
    !acc /. float_of_int (hi - lo)
  in
  (* Skip iteration 0 (scratch arrays grow to their high-water mark). *)
  let early = avg 1 4 and late = avg (n - 4) (n - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "O(1) iteration churn (early %.0f vs late %.0f words)" early late)
    true
    (late < early *. 1.3);
  let w1 = Gc.minor_words () in
  ignore (Cga_ref.run ~params (make_env ()) ~budget:60);
  let ref_total = Gc.minor_words () -. w1 in
  Alcotest.(check bool)
    (Printf.sprintf "allocates under 0.65x the frozen loop (live %.0f vs ref %.0f words)"
       live_total ref_total)
    true
    (live_total < ref_total *. 0.65);
  (* [Cga_ref] solves through the live [Solver], so a cheaper solver also
     lowers the ratio's bound. The live run is pinned on its own too: it
     read 3,436,163 words (ref 6,416,338) when children were first bred on
     variable ids, and may grow by 10% at most. *)
  Alcotest.(check bool)
    (Printf.sprintf "allocates under 3,779,779 words (live %.0f)" live_total)
    true
    (live_total < 3_436_163. *. 1.1)

let suite =
  [
    Alcotest.test_case "fig5 optimum" `Quick test_fig5_optimum_known;
    Alcotest.test_case "CGA finds fig5 optimum" `Quick test_cga_finds_fig5_optimum;
    Alcotest.test_case "offspring always valid" `Quick test_crossover_offspring_valid;
    Alcotest.test_case "crossover inherits key genes" `Quick test_crossover_inherits_keys;
    Alcotest.test_case "mutation drops one constraint" `Quick test_crossover_mutation_drops_one;
    Alcotest.test_case "recorder budget/cache" `Quick test_recorder_budget_and_cache;
    Alcotest.test_case "recorder best tracking" `Quick test_recorder_tracks_best;
    Alcotest.test_case "recorder invalid count" `Quick test_recorder_counts_invalid;
    searcher_finds_good "RAND" (fun env -> Baselines.random_search env ~budget:50);
    searcher_finds_good "CGA" (fun env -> (Cga.run env ~budget:50).Cga.result);
    Alcotest.test_case "trace best monotone" `Quick test_trace_monotone;
    Alcotest.test_case "SAT-decoder always valid" `Quick test_ga_sat_decoder_all_valid;
    Alcotest.test_case "GA variants run" `Quick test_ga_variants_run;
    Alcotest.test_case "GA terminates on tiny space" `Quick test_ga_terminates_on_tiny_space;
    Alcotest.test_case "SA terminates on tiny space" `Quick test_sa_terminates_on_tiny_space;
    Alcotest.test_case "CGA deterministic" `Quick test_cga_deterministic_given_seed;
    Alcotest.test_case "CGA trace identical across jobs" `Quick
      test_cga_trace_identical_across_jobs;
    Alcotest.test_case "eval and eval_id, step by step" `Quick test_eval_and_eval_id;
    Alcotest.test_case "resilience verdicts" `Quick test_resilience_verdicts;
    Alcotest.test_case "checkpoint JSON roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint log loads back each write" `Quick test_checkpoint_log_loads_back;
    Alcotest.test_case "resume rejects foreign snapshots" `Quick
      test_resume_rejects_foreign_snapshot;
    Alcotest.test_case "checkpoint diagnostics" `Quick test_checkpoint_diagnostics;
    Alcotest.test_case "checkpoint log frames" `Quick test_checkpoint_log_frames;
    Alcotest.test_case "intern by values and by map" `Quick test_intern_values_and_maps;
    Alcotest.test_case "O(1) iteration allocation" `Quick
      test_cga_iteration_allocation_constant;
  ]
