module Op = Heron_tensor.Op
module Assignment = Heron_csp.Assignment
module Concrete = Heron_sched.Concrete
module Descriptor = Heron_dla.Descriptor
module Measure = Heron_dla.Measure
module Perf_model = Heron_dla.Perf_model
module Faults = Heron_dla.Faults
module Env = Heron_search.Env
module Cga = Heron_search.Cga
module Resilience = Heron_search.Resilience
module Checkpoint = Heron_search.Checkpoint
module Obs = Heron_obs.Obs
module Rng = Heron_util.Rng

(* Checkpoint writes torn on every retry, and so lost. *)
let c_lost_writes = Obs.Counter.make "checkpoint.lost_writes"

type tuned = {
  gen : Generator.t;
  outcome : Cga.outcome;
  desc : Descriptor.t;
  op : Op.t;
  measurements : int;
}

let make_measure ?reps desc (gen : Generator.t) =
  (* One measurer per closure, with the per-operator perf-model context
     built once up front. *)
  let measurer = Measure.create ?reps ~op:gen.Generator.template.Heron_sched.Template.op desc in
  let measure a =
    match Concrete.instantiate gen.Generator.template a with
    | exception Invalid_argument _ -> None
    | prog -> ( match Measure.run measurer prog with Ok l -> Some l | Error _ -> None)
  in
  (measure, fun () -> Measure.count measurer)

let make_env ?reps ?(seed = 42) desc gen =
  let measure, _count = make_measure ?reps desc gen in
  { Env.problem = gen.Generator.problem; measure; rng = Rng.create seed }

(* One resilient measurement attempt: ask the fault injector what happens
   to this (config, attempt), then either report the fault or run the real
   measurer and scale its latency by the (possibly 1.0) noise factor. A
   persistently-failing config crashes on every attempt, so it exhausts
   its retries and lands in quarantine. *)
let make_attempt_measure measure spec a ~attempt =
  let key = Assignment.key a in
  match Faults.decide spec ~key ~attempt with
  | Faults.Timeout -> Resilience.Fault Resilience.Timeout
  | Faults.Crash | Faults.Persistent -> Resilience.Fault Resilience.Crash
  | Faults.Hang -> Resilience.Fault Resilience.Hang
  | Faults.Noise factor -> (
      match measure a with
      | None -> Resilience.Invalid
      | Some l -> Resilience.Measured (l *. factor))

let run_label desc op ~budget ~seed ~faults =
  Printf.sprintf "%s|%s|budget=%d|seed=%d|faults=%s" desc.Descriptor.dname (Op.to_string op)
    budget seed
    (match faults with None -> "off" | Some s -> Faults.to_string s)

let tune ?(budget = 200) ?(seed = 42) ?reps ?params ?pool ?faults ?policy ?checkpoint ?resume
    ?kill_after desc op =
  let faults = Faults.resolve faults in
  let gen = Generator.generate ~seed desc op in
  let measure, count = make_measure ?reps desc gen in
  let env = { Env.problem = gen.Generator.problem; measure; rng = Rng.create seed } in
  let resilience =
    match faults with
    | None -> None
    | Some spec -> Some (Env.Recorder.make_resilience ?policy (make_attempt_measure measure spec))
  in
  let label = run_label desc op ~budget ~seed ~faults in
  let resumed =
    match resume with
    | None -> None
    | Some path -> (
        match Checkpoint.read ~path with
        | Error e -> invalid_arg e
        | Ok log ->
            if log.Checkpoint.label <> label then
              invalid_arg
                (Printf.sprintf
                   "checkpoint: %s belongs to a different run (file label %S, this run %S)" path
                   log.Checkpoint.label label)
            else Some (path, log))
  in
  let on_snapshot =
    match checkpoint with
    | None -> None
    | Some path ->
        (* Resuming from the file being written continues its log in place
           from the snapshot the run resumes from. *)
        let w =
          match resumed with
          | Some (from, log) when from = path -> Checkpoint.reopen ~path log
          | _ -> Checkpoint.writer ~path ~label
        in
        let writes = ref 0 in
        Some
          (fun snap ->
            (* A torn write is page-cache loss, which a real process
               would never see: when it tears on every retry it is lost,
               not fatal. The file keeps every earlier whole record, and
               the next write tries again. *)
            Obs.with_span "search.checkpoint" (fun () ->
                try Checkpoint.write w snap
                with Heron_util.Atomic_io.Torn_write _ -> Obs.Counter.incr c_lost_writes);
            incr writes;
            (* Crash simulation for resilience tests: die (uncleanly, as a
               crash would) after the Nth checkpoint write. *)
            match kill_after with Some n when !writes >= n -> exit 3 | _ -> ())
  in
  let resume = Option.map (fun (_, log) -> log.Checkpoint.snapshot) resumed in
  let outcome = Cga.run ?params ?pool ?resilience ?resume ?on_snapshot env ~budget in
  { gen; outcome; desc; op; measurements = count () }

let best_latency_us t = t.outcome.Cga.result.Env.best_latency

let best_program t =
  match t.outcome.Cga.result.Env.best_assignment with
  | None -> None
  | Some a -> Some (Concrete.instantiate t.gen.Generator.template a)
