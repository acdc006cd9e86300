module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Solver = Heron_csp.Solver
module Faults = Heron_dla.Faults
module Cga = Heron_search.Cga
module Env = Heron_search.Env
module Resilience = Heron_search.Resilience
module Checkpoint = Heron_search.Checkpoint
module Io_faults = Heron_util.Io_faults
module Json = Heron_obs.Json
module Rng = Heron_util.Rng

let seed_pair = QCheck.pair QCheck.small_int QCheck.small_int

(* A moderately hostile fault universe: every class of fault occurs, rates
   vary with the generated fault seed. *)
let hostile_spec fseed =
  {
    Faults.seed = fseed;
    timeout_rate = 0.1 +. (0.05 *. float_of_int (fseed mod 4));
    crash_rate = 0.1;
    hang_rate = 0.05;
    noise = 0.2;
    persistent = 0.15;
  }

let run_cga ?resilience ?resume ?on_snapshot seed =
  let env =
    Env.
      {
        problem = Search_props.toy_problem ();
        measure = Search_props.hash_measure;
        rng = Rng.create seed;
      }
  in
  Cga.run ~params:Search_props.small_params ?resilience ?resume ?on_snapshot env ~budget:12

let same_result (a : Env.result) (b : Env.result) =
  a.Env.trace = b.Env.trace
  && a.Env.best_latency = b.Env.best_latency
  && a.Env.invalid = b.Env.invalid
  && Option.map Assignment.key a.Env.best_assignment
     = Option.map Assignment.key b.Env.best_assignment

(* (a) Even under injected faults, every configuration that reaches the
   measurer — and in particular the reported best — satisfies the CSP. *)
let offspring_valid_under_faults ~count =
  QCheck.Test.make ~name:"fault: measured offspring satisfy the CSP under faults" ~count
    seed_pair (fun (seed, fseed) ->
      let problem = Search_props.toy_problem () in
      let all_valid = ref true in
      let attempt a ~attempt =
        if Problem.check problem a <> Ok () then all_valid := false;
        Heron.Pipeline.make_attempt_measure Search_props.hash_measure (hostile_spec fseed) a
          ~attempt
      in
      let resilience = Env.Recorder.make_resilience attempt in
      let outcome = run_cga ~resilience seed in
      !all_valid
      &&
      match outcome.Cga.result.Env.best_assignment with
      | None -> true
      | Some a -> Problem.check problem a = Ok ())

(* (b) A quarantined configuration is never measured again: whatever the
   eval sequence, no configuration sees more than max_retries + 1
   measurement attempts, and a quarantined config replays as None. *)
let quarantine_never_remeasured ~count =
  QCheck.Test.make ~name:"fault: quarantined configs are never re-measured" ~count seed_pair
    (fun (seed, fseed) ->
      let problem = Search_props.toy_problem () in
      let spec = { Faults.zero with seed = fseed; crash_rate = 0.6; persistent = 0.5 } in
      let attempts = Hashtbl.create 32 in
      let attempt a ~attempt:n =
        let key = Assignment.key a in
        Hashtbl.replace attempts key (1 + Option.value ~default:0 (Hashtbl.find_opt attempts key));
        Heron.Pipeline.make_attempt_measure Search_props.hash_measure spec a ~attempt:n
      in
      let resilience = Env.Recorder.make_resilience attempt in
      let env =
        Env.{ problem; measure = Search_props.hash_measure; rng = Rng.create seed }
      in
      let r = Env.Recorder.create ~resilience env ~budget:200 in
      let sols = Solver.rand_sat (Rng.create seed) problem 8 in
      QCheck.assume (sols <> []);
      (* Visit every configuration three times; replays must come from the
         cache/quarantine set, never from fresh measurement sessions. *)
      let replays_consistent = ref true in
      List.iter
        (fun a ->
          let first = Env.Recorder.eval r a in
          let again = Env.Recorder.eval r a in
          if first <> again then replays_consistent := false)
        (sols @ sols);
      let max_attempts = Resilience.default_policy.Resilience.max_retries + 1 in
      !replays_consistent
      && Hashtbl.fold (fun _ n ok -> ok && n <= max_attempts) attempts true)

(* (c) A zero-rate fault spec is byte-for-byte inert: the resilient run
   equals the resilience-free run in trace, incumbent and invalid count. *)
let faults_off_inert ~count =
  QCheck.Test.make ~name:"fault: zero-rate fault spec is byte-identical to faults off" ~count
    seed_pair (fun (seed, fseed) ->
      let spec = { Faults.zero with seed = fseed } in
      let resilience =
        Env.Recorder.make_resilience
          (Heron.Pipeline.make_attempt_measure Search_props.hash_measure spec)
      in
      let plain = run_cga seed in
      let shielded = run_cga ~resilience seed in
      same_result plain.Cga.result shielded.Cga.result)

(* (d) Crash-safe resume: killing the loop at any iteration boundary and
   resuming from that snapshot reproduces the uninterrupted run. *)
let resume_equals_uninterrupted ~count =
  QCheck.Test.make ~name:"fault: resume from any snapshot equals the uninterrupted run" ~count
    seed_pair (fun (seed, k) ->
      let fseed = seed + k in
      let make_resilience () =
        Env.Recorder.make_resilience
          (Heron.Pipeline.make_attempt_measure Search_props.hash_measure (hostile_spec fseed))
      in
      let snapshots = ref [] in
      let full =
        run_cga ~resilience:(make_resilience ())
          ~on_snapshot:(fun s -> snapshots := s :: !snapshots)
          seed
      in
      let snaps = List.rev !snapshots in
      QCheck.assume (snaps <> []);
      let resume = List.nth snaps (k mod List.length snaps) in
      let resumed = run_cga ~resilience:(make_resilience ()) ~resume seed in
      same_result full.Cga.result resumed.Cga.result)

(* (e) A checkpoint write that tears or fails loses that write only: a
   whole small run writes its log under injected torn writes and ENOSPC,
   going on past a write that raised, as [Pipeline.tune] does past a torn
   one. After every write the log reads back the last snapshot that
   landed — the one just written when the write returned — and resuming
   in place from the final file ends on the fault-free run's result and
   snapshot. *)
let checkpoint_writes_lose_only_themselves ~count =
  QCheck.Test.make ~name:"fault: a torn or failed checkpoint write loses only that write" ~count
    QCheck.(quad small_int small_int (int_bound 5) (int_bound 5))
    (fun (seed, fseed, torn, enospc) ->
      let label = "io-faults" in
      let render s = Json.to_string (Checkpoint.snapshot_to_json ~label s) in
      let run ?resume ~on_snapshot () =
        let env =
          {
            Env.problem = Search_props.toy_problem ();
            measure = Search_props.hash_measure;
            rng = Rng.create seed;
          }
        in
        Cga.run ~params:Search_props.small_params ?resume ~on_snapshot env ~budget:40
      in
      let final = ref None in
      let full = run ~on_snapshot:(fun s -> final := Some (render s)) () in
      let path = Filename.temp_file "heron_iofaults" ".log" in
      let remove p = if Sys.file_exists p then Sys.remove p in
      let campaign = Io_faults.default () in
      Fun.protect
        ~finally:(fun () ->
          Io_faults.set_default campaign;
          remove path;
          remove (path ^ ".tmp"))
      @@ fun () ->
      let read () = match Checkpoint.read ~path with Ok log -> Some log | Error _ -> None in
      let spec =
        {
          Io_faults.zero with
          seed = fseed;
          torn = 0.1 *. float_of_int torn;
          enospc = 0.1 *. float_of_int enospc;
        }
      in
      let w = Checkpoint.writer ~path ~label and landed = ref None and ok = ref true in
      Io_faults.set_default (Some (Io_faults.create spec));
      ignore
        (run
           ~on_snapshot:(fun s ->
             (match Checkpoint.write w s with
             | () -> landed := Some (render s)
             | exception (Sys_error _ | Heron_util.Atomic_io.Torn_write _) -> ());
             let back = Option.map (fun log -> render log.Checkpoint.snapshot) (read ()) in
             if back <> !landed then ok := false)
           ());
      Io_faults.set_default None;
      !ok
      &&
      match (!landed, read ()) with
      | None, _ -> true
      | Some _, None -> false
      | Some _, Some log ->
          let w = Checkpoint.reopen ~path log in
          let resumed =
            run ~resume:log.Checkpoint.snapshot ~on_snapshot:(Checkpoint.write w) ()
          in
          same_result full.Cga.result resumed.Cga.result
          && Option.map (fun log -> render log.Checkpoint.snapshot) (read ()) = !final)

let tests ?(count = 20) () =
  [
    offspring_valid_under_faults ~count;
    quarantine_never_remeasured ~count;
    faults_off_inert ~count:(max 1 (count / 2));
    resume_equals_uninterrupted ~count:(max 1 (count / 2));
    checkpoint_writes_lose_only_themselves ~count;
  ]
