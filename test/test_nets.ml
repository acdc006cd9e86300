(* Tests for the whole-network multi-task tuner: task extraction,
   scheduler state round-trip, --jobs independence of the full tuning run,
   and the crash/resume cycle (kill after a round, resume from the
   composite checkpoint, byte-identical final library). *)

module Op = Heron_tensor.Op
module Assignment = Heron_csp.Assignment
module Pool = Heron_util.Pool
module Json = Heron_obs.Json
module Library = Heron.Library
module Tasks = Heron_nets.Tasks
module Models = Heron_nets.Models
module Scheduler = Heron_nets.Scheduler
module Tuner = Heron_nets.Tuner
module D = Heron_dla.Descriptor

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* ---------- task extraction ---------- *)

let test_extract_dedup () =
  (* tiny lists the 32^3 gemm twice (multiplicities 2 and 1): the
     extractor must fold both layers into one task of weight 3, keeping
     first-appearance order and dense ids. *)
  let ts = Tasks.extract Models.tiny in
  Alcotest.(check int) "two distinct tasks" 2 (List.length ts);
  let t0 = List.nth ts 0 and t1 = List.nth ts 1 in
  Alcotest.(check int) "dense id 0" 0 t0.Tasks.t_id;
  Alcotest.(check int) "dense id 1" 1 t1.Tasks.t_id;
  Alcotest.(check int) "duplicate layers sum weights" 3 t0.Tasks.t_weight;
  Alcotest.(check int) "singleton weight" 1 t1.Tasks.t_weight;
  Alcotest.(check bool) "keys distinct" true (t0.Tasks.t_key <> t1.Tasks.t_key);
  (match Models.tiny.Models.layers with
  | (_, op) :: _ ->
      Alcotest.(check string) "first-appearance order" (Library.op_key op) t0.Tasks.t_key
  | [] -> Alcotest.fail "tiny has layers");
  Alcotest.(check bool) "extraction is deterministic" true (Tasks.extract Models.tiny = ts);
  Alcotest.(check (array (float 0.0))) "weights vector" [| 3.0; 1.0 |] (Tasks.weights ts)

let test_extract_ignores_nonpositive () =
  let net =
    {
      Models.net_name = "Z";
      layers =
        [ (0, Op.gemm ~m:8 ~n:8 ~k:8 ()); (-3, Op.gemm ~m:8 ~n:8 ~k:8 ());
          (2, Op.gemm ~m:8 ~n:8 ~k:8 ()) ];
    }
  in
  match Tasks.extract net with
  | [ t ] -> Alcotest.(check int) "only positive multiplicities count" 2 t.Tasks.t_weight
  | ts -> Alcotest.failf "expected one task, got %d" (List.length ts)

(* ---------- scheduler state round-trip ---------- *)

let report_stream sched n =
  (* A deterministic improving-then-flat latency stream, so both the
     original and the restored scheduler see identical reports. *)
  for i = 0 to n - 1 do
    match Scheduler.next sched with
    | None -> ()
    | Some (t, a) ->
        let best = Some (20.0 /. float_of_int (i + 1)) in
        Scheduler.report sched ~task:t ~alloc:a ~best ~done_:false
  done

let test_scheduler_export_import () =
  let s = Scheduler.create ~slice:4 ~budget:64 [| 3.0; 1.0; 2.0 |] in
  report_stream s 5;
  (* Round-trip through the printed JSON, exactly as the checkpoint file
     does. *)
  let s' =
    match Json.parse (Json.to_string (Scheduler.export s)) with
    | Error e -> Alcotest.failf "export did not print valid JSON: %s" e
    | Ok v -> (
        match Scheduler.import v with
        | Ok s' -> s'
        | Error e -> Alcotest.fail e)
  in
  Alcotest.(check int) "remaining preserved" (Scheduler.remaining s) (Scheduler.remaining s');
  (* Both continue byte-identically to exhaustion under the same report
     stream. *)
  let drain sched =
    let log = ref [] in
    let continue_ = ref true in
    while !continue_ do
      match Scheduler.next sched with
      | None -> continue_ := false
      | Some (t, a) ->
          let r = List.length !log in
          let best = Some (10.0 +. float_of_int ((r * 13) mod 7)) in
          Scheduler.report sched ~task:t ~alloc:a ~best ~done_:false;
          log := (t, a) :: !log
    done;
    List.rev !log
  in
  let tail = drain s and tail' = drain s' in
  Alcotest.(check bool) "continuation nonempty" true (tail <> []);
  Alcotest.(check bool) "restored scheduler continues identically" true (tail = tail')

let test_scheduler_import_rejects () =
  (match Scheduler.import (Json.String "nope") with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  let c = Scheduler.create ~policy:(Scheduler.Custom (fun _ -> 1.0)) ~budget:8 [| 1.0 |] in
  match Scheduler.import (Scheduler.export c) with
  | Ok _ -> Alcotest.fail "custom-policy snapshot restored"
  | Error e ->
      if not (contains e "custom") then
        Alcotest.failf "diagnostic %S does not mention the custom policy" e

(* ---------- whole-run determinism ---------- *)

(* Everything durable about a tuning run. [r_measurements] is deliberately
   excluded: the measurer-invocation count is process-local bookkeeping
   and differs across a kill/resume cycle (the pre-crash process took some
   of them with it). *)
let fingerprint r =
  ( r.Tuner.r_allocations,
    r.Tuner.r_latency_us,
    List.map
      (fun tr ->
        ( tr.Tuner.tr_best,
          tr.Tuner.tr_trace,
          Option.map Assignment.key tr.Tuner.tr_best_assignment,
          tr.Tuner.tr_transferred,
          tr.Tuner.tr_rounds,
          tr.Tuner.tr_alloc ))
      r.Tuner.r_reports,
    Library.to_string r.Tuner.r_library )

let budget = 32
let seed = 11
let slice = 8

let test_jobs_independence () =
  let seq = Tuner.tune ~budget ~seed ~slice D.v100 Models.tiny in
  let par = Pool.with_jobs 3 (fun () -> Tuner.tune ~budget ~seed ~slice D.v100 Models.tiny) in
  Alcotest.(check bool) "tuning run identical at any --jobs" true
    (fingerprint seq = fingerprint par);
  Alcotest.(check bool) "library nonempty" true (Library.size seq.Tuner.r_library > 0)

(* ---------- checkpoint restore ---------- *)

(* The true mid-run crash (kill after the first round, resume, compare to
   the uninterrupted run) lives in [test_nets_crash.ml]: it forks, and
   OCaml forbids fork in this binary once the pool suites have spawned
   domains. Here: a completed run's checkpoint reconstructs the whole
   result from the file alone, and mismatched runs are refused. *)
let test_checkpoint_resume () =
  let full = Tuner.tune ~budget ~seed ~slice D.v100 Models.tiny in
  let path = Filename.temp_file "heron_nets_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let ckpt = Tuner.tune ~budget ~seed ~slice ~checkpoint:path D.v100 Models.tiny in
      Alcotest.(check bool) "checkpointing does not perturb the run" true
        (fingerprint full = fingerprint ckpt);
      (* The final checkpoint has zero budget left: resuming runs no
         rounds, so the library and reports are rebuilt purely from the
         restored scheduler state and per-task snapshots. *)
      let resumed = Tuner.tune ~budget ~seed ~slice ~resume:path D.v100 Models.tiny in
      Alcotest.(check string) "library rebuilt from the file alone"
        (Library.to_string full.Tuner.r_library)
        (Library.to_string resumed.Tuner.r_library);
      Alcotest.(check bool) "result rebuilt from the file alone" true
        (fingerprint full = fingerprint resumed);
      (* The same file must be refused by any differently-labelled run:
         another seed, and another network (task-set mismatch). *)
      (match Tuner.tune ~budget ~seed:(seed + 1) ~slice ~resume:path D.v100 Models.tiny with
      | _ -> Alcotest.fail "mismatched seed accepted"
      | exception Invalid_argument e ->
          if not (contains e "different run") then
            Alcotest.failf "diagnostic %S does not mention the label mismatch" e);
      match Tuner.tune ~budget ~seed ~slice ~resume:path D.v100 Models.mini with
      | _ -> Alcotest.fail "mismatched network accepted"
      | exception Invalid_argument _ -> ())

let suite =
  [
    Alcotest.test_case "extractor dedups and sums weights" `Quick test_extract_dedup;
    Alcotest.test_case "extractor ignores non-positive layers" `Quick
      test_extract_ignores_nonpositive;
    Alcotest.test_case "scheduler export/import round-trip" `Quick
      test_scheduler_export_import;
    Alcotest.test_case "scheduler import diagnostics" `Quick test_scheduler_import_rejects;
    Alcotest.test_case "tuning identical across jobs" `Quick test_jobs_independence;
    Alcotest.test_case "checkpoint rebuilds the result" `Quick test_checkpoint_resume;
  ]
