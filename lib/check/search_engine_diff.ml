(* Differential properties of the interned flat-pool search engine:
   {!Heron_search.Cga} (live) against {!Cga_ref} / {!Env_ref} (the frozen
   pre-overhaul string-keyed loop). Both engines must agree byte for byte
   — results, traces, every per-iteration checkpoint rendered through
   {!Heron_search.Checkpoint}, and draw-for-draw RNG consumption — at
   --jobs 1 and 4, with and without injected faults, and across
   resume-mid-run splits. Snapshots
   are compared as serialized checkpoint bytes, so interned ids can
   never leak into the on-disk format unnoticed. *)

module Assignment = Heron_csp.Assignment
module Cga = Heron_search.Cga
module Env = Heron_search.Env
module Checkpoint = Heron_search.Checkpoint
module Faults = Heron_dla.Faults
module Rng = Heron_util.Rng
module Pool = Heron_util.Pool
module Obs = Heron_obs.Obs
module Json = Heron_obs.Json

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)
let seed_pair = QCheck.pair seed_arb QCheck.small_int

let make_env seed =
  Env.
    {
      problem = Search_props.toy_problem ();
      measure = Search_props.hash_measure;
      rng = Rng.create seed;
    }

let budget = 12

let run_live ?resilience ?resume ?on_snapshot seed =
  let env = make_env seed in
  let o =
    Cga.run ~params:Search_props.small_params ?resilience ?resume ?on_snapshot env ~budget
  in
  (o, Rng.state_hex env.Env.rng)

let run_ref ?resilience ?resume ?on_snapshot seed =
  let env = make_env seed in
  let o =
    Cga_ref.run ~params:Search_props.small_params ?resilience ?resume ?on_snapshot env ~budget
  in
  (o, Rng.state_hex env.Env.rng)

let checkpoint_bytes s = Json.to_string (Checkpoint.snapshot_to_json ~label:"diff" s)

let same_result (a : Env.result) (b : Env.result) =
  a.Env.trace = b.Env.trace
  && a.Env.best_latency = b.Env.best_latency
  && a.Env.invalid = b.Env.invalid
  && Option.map Assignment.key a.Env.best_assignment
     = Option.map Assignment.key b.Env.best_assignment

let same_snapshots sa sb =
  List.length sa = List.length sb
  && List.for_all2 (fun a b -> String.equal (checkpoint_bytes a) (checkpoint_bytes b)) sa sb

let collect () =
  let acc = ref [] in
  ((fun s -> acc := s :: !acc), fun () -> List.rev !acc)

(* The hostile fault universe of {!Fault_props}, applied identically to
   both engines (each gets its own resilience value of its own type, built
   from the same deterministic attempt closure). *)
let fault_spec fseed =
  {
    Faults.seed = fseed;
    timeout_rate = 0.1 +. (0.05 *. float_of_int (fseed mod 4));
    crash_rate = 0.1;
    hang_rate = 0.05;
    noise = 0.2;
    persistent = 0.15;
  }

let attempt_measure fseed =
  Heron.Pipeline.make_attempt_measure Search_props.hash_measure (fault_spec fseed)

(* (a) Fault-free runs are byte-identical: result, every checkpoint, and
   total RNG consumption (the post-run generator state equality makes the
   draw-for-draw claim: one extra or missing draw anywhere desyncs it). *)
let run_identical ~count =
  QCheck.Test.make ~name:"search_engine: run byte-identical to frozen engine" ~count
    seed_arb (fun seed ->
      let push_a, snaps_a = collect () and push_b, snaps_b = collect () in
      let a, rng_a = run_live ~on_snapshot:push_a seed in
      let b, rng_b = run_ref ~on_snapshot:push_b seed in
      same_result a.Cga.result b.Cga.result
      && String.equal rng_a rng_b
      && same_snapshots (snaps_a ()) (snaps_b ()))

(* (b) Same with the live engine on a 4-domain default pool against the
   frozen engine with no pool at all: identity and jobs-independence at
   once. *)
let run_identical_jobs4 ~count =
  QCheck.Test.make ~name:"search_engine: jobs-4 run byte-identical to jobs-1 frozen engine"
    ~count seed_arb (fun seed ->
      let push_a, snaps_a = collect () and push_b, snaps_b = collect () in
      let a, rng_a = Pool.with_jobs 4 (fun () -> run_live ~on_snapshot:push_a seed) in
      let b, rng_b = Pool.with_jobs 1 (fun () -> run_ref ~on_snapshot:push_b seed) in
      same_result a.Cga.result b.Cga.result
      && String.equal rng_a rng_b
      && same_snapshots (snaps_a ()) (snaps_b ()))

(* (c) Under injected faults (retries, quarantine, degraded commits), the
   engines still agree byte for byte — the fault paths are id-keyed in the
   live recorder and string-keyed in the frozen one. *)
let faults_identical ~count =
  QCheck.Test.make ~name:"search_engine: faulty run byte-identical to frozen engine" ~count
    seed_pair (fun (seed, fseed) ->
      let push_a, snaps_a = collect () and push_b, snaps_b = collect () in
      let ra = Env.Recorder.make_resilience (attempt_measure fseed) in
      let rb = Env_ref.Recorder.make_resilience (attempt_measure fseed) in
      let a, rng_a = run_live ~resilience:ra ~on_snapshot:push_a seed in
      let b, rng_b = run_ref ~resilience:rb ~on_snapshot:push_b seed in
      same_result a.Cga.result b.Cga.result
      && String.equal rng_a rng_b
      && same_snapshots (snaps_a ()) (snaps_b ()))

(* (d) Resume-mid-run: both engines resumed from the same mid-run
   checkpoint agree with each other AND with the uninterrupted run's
   remaining checkpoints. The post-resume snapshots byte-match the
   uninterrupted ones, so nothing about the resumed representation —
   in particular no interned id — leaks into the checkpoint format. *)
let resume_identical ~count =
  QCheck.Test.make
    ~name:"search_engine: resume-mid-run byte-identical, checkpoints stay pure" ~count
    seed_pair (fun (seed, k) ->
      let push_full, snaps_full = collect () in
      let full, _ = run_live ~on_snapshot:push_full seed in
      let snaps = snaps_full () in
      QCheck.assume (snaps <> []);
      let cut = k mod List.length snaps in
      let resume = List.nth snaps cut in
      let push_a, snaps_a = collect () and push_b, snaps_b = collect () in
      let a, rng_a = run_live ~resume ~on_snapshot:push_a seed in
      let b, rng_b = run_ref ~resume ~on_snapshot:push_b seed in
      let tail = List.filteri (fun i _ -> i > cut) snaps in
      same_result a.Cga.result b.Cga.result
      && String.equal rng_a rng_b
      && same_snapshots (snaps_a ()) (snaps_b ())
      && same_snapshots (snaps_a ()) tail
      && same_result a.Cga.result full.Cga.result)

(* (e) The search.* counters are pool-independent: interning, dedupe and
   ranking all happen on the sequential control path, so a 4-domain run
   advances them exactly as a pool-less one. *)
let counters_jobs_independent ~count =
  let watched =
    [ "search.interned"; "search.intern_hits"; "search.dedupe_hits"; "search.rank_rows" ]
  in
  let deltas f =
    let before = Obs.Counter.snapshot () in
    f ();
    let after = Obs.Counter.snapshot () in
    let get l n = Option.value ~default:0 (List.assoc_opt n l) in
    List.map (fun n -> (n, get after n - get before n)) watched
  in
  QCheck.Test.make ~name:"search_engine: search.* counters independent of pool size" ~count
    seed_arb (fun seed ->
      let d1 = deltas (fun () -> Pool.with_jobs 1 (fun () -> ignore (run_live seed))) in
      let d4 = deltas (fun () -> Pool.with_jobs 4 (fun () -> ignore (run_live seed))) in
      d1 = d4 && List.exists (fun (_, d) -> d > 0) d1)

let tests ?(count = 20) () =
  [
    run_identical ~count;
    run_identical_jobs4 ~count:(max 1 (count / 2));
    faults_identical ~count;
    resume_identical ~count:(max 1 (count / 2));
    counters_jobs_independent ~count:(max 1 (count / 3));
  ]
