module Problem = Heron_csp.Problem
module Solver = Heron_csp.Solver
module Features = Heron_cost.Features
module Transfer = Heron_cost.Transfer
module Cga = Heron_search.Cga
module Env = Heron_search.Env
module Scheduler = Heron_nets.Scheduler
module Tasks = Heron_nets.Tasks
module Tuner = Heron_nets.Tuner
module Models = Heron_nets.Models
module Generator = Heron.Generator
module Pipeline = Heron.Pipeline
module Rng = Heron_util.Rng
module Hashing = Heron_util.Hashing

(* Deterministic per-(task, round) pseudo-measurements, so every property
   drives the scheduler with the same report stream on replay. *)
let synth_best task rounds =
  let h =
    Int64.to_int (Hashing.fnv1a (Printf.sprintf "nets:%d:%d" task rounds)) land 0xFFFF
  in
  10.0 /. float_of_int (rounds + 1) *. (1.0 +. (float_of_int h /. 65536.0))

let synth_done task rounds =
  let h = Int64.to_int (Hashing.fnv1a (Printf.sprintf "done:%d:%d" task rounds)) in
  h land 7 = 0

(* Drive a scheduler to exhaustion with the synthetic stream; returns the
   allocation sequence (newest last). Raises on a violated step invariant
   so QCheck reports the offending configuration. *)
let drive sched =
  let allocs = ref [] in
  let rounds = ref 0 in
  let continue_ = ref true in
  (* Budget strictly decreases every round, so this always terminates. *)
  while !continue_ do
    match Scheduler.next sched with
    | None -> continue_ := false
    | Some (task, alloc) ->
        let before = Scheduler.remaining sched in
        if alloc <= 0 || alloc > before then
          failwith (Printf.sprintf "round %d: alloc %d of %d remaining" !rounds alloc before);
        let v = Scheduler.views sched in
        let rs = v.(task).Scheduler.v_rounds in
        Scheduler.report sched ~task ~alloc
          ~best:(Some (synth_best task rs))
          ~done_:(synth_done task rs);
        allocs := (task, alloc) :: !allocs;
        incr rounds
  done;
  List.rev !allocs

let arb_config =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* weights = array_repeat n (map float_of_int (int_range 1 8)) in
      let* budget = int_range 1 200 in
      let* slice = int_range 1 32 in
      return (weights, budget, slice))
  in
  QCheck.make
    ~print:(fun (w, b, s) ->
      Printf.sprintf "weights=[%s] budget=%d slice=%d"
        (String.concat ";" (Array.to_list (Array.map string_of_float w)))
        b s)
    gen

(* Conservation: allocations sum to exactly the spent budget; the loop
   only stops early (budget left over) when every task is done; and the
   warmup floor sends the first rounds to distinct tasks. *)
let scheduler_conservation ~count =
  QCheck.Test.make ~name:"nets: scheduler conserves budget and warms every task" ~count
    arb_config
    (fun (weights, budget, slice) ->
      let sched = Scheduler.create ~slice ~budget weights in
      let allocs = drive sched in
      let spent = List.fold_left (fun acc (_, a) -> acc + a) 0 allocs in
      let views = Scheduler.views sched in
      let all_done = Array.for_all (fun v -> v.Scheduler.v_done) views in
      let remaining = Scheduler.remaining sched in
      (* Exact conservation. *)
      spent + remaining = budget
      (* Early stop only when no task can absorb budget. *)
      && (remaining = 0 || all_done)
      (* Warmup floor: the first min(n, rounds) rounds hit distinct tasks. *)
      &&
      let n = Array.length weights in
      let first = List.filteri (fun i _ -> i < n) allocs in
      let tasks = List.map fst first in
      List.length (List.sort_uniq compare tasks) = List.length tasks
      (* Per-task bookkeeping agrees with the allocation log. *)
      && Array.for_all
           (fun v ->
             v.Scheduler.v_alloc
             = List.fold_left
                 (fun acc (t, a) -> if t = v.Scheduler.v_id then acc + a else acc)
                 0 allocs)
           views)

(* A constant gain estimate must reproduce round-robin order exactly:
   under ties the scheduler prefers the least recently scheduled task,
   which is the cyclic order. *)
let round_robin_equivalence ~count =
  QCheck.Test.make ~name:"nets: constant-gain allocation equals round-robin" ~count
    arb_config
    (fun (weights, budget, slice) ->
      let const_ =
        Scheduler.create ~policy:(Scheduler.Custom (fun _ -> 1.0)) ~slice ~budget weights
      in
      let rr = Scheduler.create ~policy:Scheduler.Round_robin ~slice ~budget weights in
      drive const_ = drive rr)

(* Transfer soundness: imported rows are always layout-compatible with
   the target (exactly n_features cells, every bin within range), for
   arbitrary donor/target problem pairs. *)
let transfer_layout ~count =
  QCheck.Test.make ~name:"nets: transferred windows fit the target feature layout" ~count
    (QCheck.triple (Csp_gen.arbitrary ()) (Csp_gen.arbitrary ()) QCheck.small_int)
    (fun (dsp, tsp, seed) ->
      let donor = Csp_gen.to_problem dsp and target = Csp_gen.to_problem tsp in
      let df = Features.of_problem donor and tf = Features.of_problem target in
      let rng = Rng.create seed in
      let sols = Solver.rand_sat ~max_fails:10_000 rng donor 6 in
      QCheck.assume (sols <> []);
      let window =
        List.mapi (fun i a -> (Features.binned df a, 1.0 +. float_of_int i)) sols
      in
      let portable = Transfer.export df window in
      match Transfer.import tf portable with
      | None -> true (* low coverage: cold start, nothing to check *)
      | Some rows ->
          let nb = Features.n_bins tf in
          rows <> []
          && List.for_all
               (fun (bins, score) ->
                 Array.length bins = Features.n_features tf
                 && Array.for_all (fun b -> b >= 0) (Array.mapi (fun i b -> nb.(i) - 1 - b) bins)
                 && Array.for_all (fun b -> b >= 0) bins
                 && Float.is_finite score)
               rows)

(* Driver inertness: with transfer off, the multi-task tuner is nothing
   but a scheduler around per-task chunked CGA runs — replaying the
   recorded allocation by hand (same per-task seeds, same cumulative
   budgets) must reproduce every task's trace and best byte-for-byte. *)
let no_transfer_inert ~count =
  QCheck.Test.make ~name:"nets: no-transfer tuning equals hand-rolled chunked CGA" ~count
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let desc = Heron_dla.Descriptor.v100 in
      let net = Models.tiny in
      let budget = 24 and slice = 8 in
      let r = Tuner.tune ~budget ~seed ~slice ~transfer:false desc net in
      List.for_all
        (fun tr ->
          let t = tr.Tuner.tr_task in
          let tseed = Tuner.task_seed ~seed t.Tasks.t_key in
          let gen = Generator.generate ~seed:tseed desc t.Tasks.t_op in
          let measure, _ = Pipeline.make_measure desc gen in
          let env = { Env.problem = gen.Generator.problem; measure; rng = Rng.create tseed } in
          let snapshot = ref None in
          let cum = ref 0 in
          List.iter
            (fun (task, alloc) ->
              if task = t.Tasks.t_id then begin
                cum := !cum + alloc;
                ignore
                  (Cga.run ?resume:!snapshot
                     ~on_snapshot:(fun s -> snapshot := Some s)
                     env ~budget:!cum)
              end)
            r.Tuner.r_allocations;
          match !snapshot with
          | None -> tr.Tuner.tr_trace = [] && tr.Tuner.tr_best = None
          | Some s ->
              s.Cga.s_recorder.Env.Recorder.x_trace = tr.Tuner.tr_trace
              && s.Cga.s_recorder.Env.Recorder.x_best = tr.Tuner.tr_best
              && s.Cga.s_recorder.Env.Recorder.x_best_a = tr.Tuner.tr_best_assignment)
        r.Tuner.r_reports)

let tests ?(count = 20) () =
  [
    scheduler_conservation ~count:(max 1 (count * 4));
    round_robin_equivalence ~count:(max 1 (count * 4));
    transfer_layout ~count;
    no_transfer_inert ~count:(max 1 (count / 10));
  ]
