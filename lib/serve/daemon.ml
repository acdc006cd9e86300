module Op = Heron_tensor.Op
module Descriptor = Heron_dla.Descriptor
module Library = Heron.Library
module Generator = Heron.Generator
module Pipeline = Heron.Pipeline
module Model = Heron_cost.Model
module Env = Heron_search.Env
module Cga = Heron_search.Cga
module Rng = Heron_util.Rng
module Hashing = Heron_util.Hashing
module Obs = Heron_obs.Obs

let c_lookups = Obs.Counter.make "serve.lookups"
let c_hits = Obs.Counter.make "serve.hits"
let c_misses = Obs.Counter.make "serve.misses"
let c_degraded = Obs.Counter.make "serve.degraded"
let c_enqueued = Obs.Counter.make "serve.enqueued"
let c_deduped = Obs.Counter.make "serve.deduped"
let c_tasks = Obs.Counter.make "serve.tasks"
let c_unresolved = Obs.Counter.make "serve.unresolved"
let c_publish_failures = Obs.Counter.make "serve.publish_failures"
let c_queue_sync_failures = Obs.Counter.make "serve.queue_sync_failures"
let g_read_only = Obs.Gauge.make "serve.read_only"

type config = {
  dir : string;
  desc : Descriptor.t;
  resolve : string -> Op.t option;
  budget : int;
  seed : int;
  family_max : int;
  keep : int;
}

let default_config ?(dir = ".heron-serve") ?(resolve = fun _ -> None) desc =
  { dir; desc; resolve; budget = 64; seed = 42; family_max = 4; keep = 4 }

let universe_resolve ops =
  let table = Hashtbl.create (List.length ops) in
  List.iter (fun op -> Hashtbl.replace table (Library.op_key op) op) ops;
  fun key -> Hashtbl.find_opt table key

type t = {
  config : config;
  store : Store.t;
  index : Index.t;
  queue : Tuning_queue.t;
  mutable library : Library.t;
  mutable version : int;  (* latest *durable* store version *)
  mutable index_version : int;
      (* logical version of the served index: tracks [version] while the
         disk is healthy, keeps advancing past it in read-only mode so
         {!Index.publish}'s strict monotonicity holds for in-memory-only
         publishes *)
  mutable read_only : bool;
      (* the store stopped accepting writes (persistent ENOSPC/EIO after
         retries); serving continues from memory, publishes stay queued *)
  mutable unflushed : Tuning_queue.task list;
      (* tasks tuned into [library] but not yet durably published; kept in
         the on-disk queue so a crash in read-only mode redoes them *)
  load_warnings : Library.load_warning list;
  recovered : bool;
}

let queue_path config = Filename.concat config.dir "queue.json"

let start config =
  let store = Store.open_ ~dir:config.dir in
  let version, library, load_warnings, recovered =
    match Store.load_latest store with
    | None -> (0, Library.empty, [], false)
    | Some l -> (l.Store.version, l.Store.library, l.Store.warnings, l.Store.recovered)
  in
  let queue =
    if Sys.file_exists (queue_path config) then
      match Tuning_queue.load ~path:(queue_path config) with
      | Ok q -> q
      | Error _ -> Tuning_queue.create ()
    else Tuning_queue.create ()
  in
  {
    config;
    store;
    index = Index.create (Index.build ~version library);
    queue;
    library;
    version;
    index_version = version;
    read_only = false;
    unflushed = [];
    load_warnings;
    recovered;
  }

let config t = t.config
let library t = t.library
let version t = t.version
let index t = t.index
let queue_length t = Tuning_queue.length t.queue
let load_warnings t = t.load_warnings
let recovered t = t.recovered
let read_only t = t.read_only

(* Queue checkpoints must never take the serving path down: a failed sync
   (full disk) is counted and the in-memory queue stays authoritative. A
   simulated crash ([Io_faults.Crashed]) is not a [Sys_error] and still
   propagates — process death is not a degraded mode. *)
let sync t =
  try Tuning_queue.save t.queue ~path:(queue_path t.config)
  with Sys_error _ -> Obs.Counter.incr c_queue_sync_failures

(* ---------- the lookup path ---------- *)

type served = { s_outcome : Index.outcome; s_version : int; s_enqueued : bool }

(* A miss (or a near-hit: the exact shape is still worth tuning) becomes a
   task unless its key is already pending. The probe's key is the task
   key, so a repeated miss is answered by [Tuning_queue.mem] before the
   key is split, and allocates nothing. The queue checkpoint makes an
   accepted task durable before we return. *)
let enqueue_for t (p : Index.probe) =
  let key = p.Index.p_key in
  if Tuning_queue.mem t.queue key then begin
    Obs.Counter.incr c_deduped;
    false
  end
  else
    match String.rindex_opt key '@' with
    | None -> false
    | Some i ->
        let op_key = String.sub key 0 i in
        let dla = String.sub key (i + 1) (String.length key - i - 1) in
        if Tuning_queue.enqueue t.queue { Tuning_queue.t_dla = dla; t_op_key = op_key } then begin
          Obs.Counter.incr c_enqueued;
          sync t;
          true
        end
        else begin
          Obs.Counter.incr c_deduped;
          false
        end

let lookup t probe =
  Obs.Counter.incr c_lookups;
  let snap = Index.current t.index in
  let outcome = Index.query snap probe in
  let enqueued =
    match outcome with
    | Index.Hit _ ->
        Obs.Counter.incr c_hits;
        false
    | Index.Near _ ->
        Obs.Counter.incr c_degraded;
        enqueue_for t probe
    | Index.Miss ->
        Obs.Counter.incr c_misses;
        enqueue_for t probe
  in
  { s_outcome = outcome; s_version = Index.version snap; s_enqueued = enqueued }

let lookup_op t op = lookup t (Index.probe ~dla:t.config.desc.Descriptor.dname op)

(* ---------- background tuning ---------- *)

(* Per-task seed: daemon seed mixed with the task's full key. A pure
   function of durable state, so neither queue-drain order, nor --jobs,
   nor a kill/resume cycle can shift any task's tuning stream. *)
let task_seed t task =
  let h = Int64.to_int (Hashing.fnv1a (Tuning_queue.task_key task)) land 0x3FFFFFFF in
  t.config.seed lxor h

(* Warm start: seed the new task's cost model with the previous family
   member's training window. Only samples that fit the new problem's
   feature layout are kept; an incompatible donor simply degrades to a
   cold start. *)
let warm_snapshot env = function
  | [] -> None
  | donor -> (
      let model = Model.create env.Env.problem in
      match List.filter (fun (bins, _) -> Model.layout_ok model bins) donor with
      | [] -> None
      | usable -> Some (Cga.warm_snapshot env usable))

(* Tune one task. Returns the updates for the library plus this task's
   model window, the next family member's warm-start donor. *)
let tune_task ?pool ?params ~donor t task op =
  Obs.with_span "serve.tune" (fun () ->
      let seed = task_seed t task in
      let gen = Generator.generate ~seed t.config.desc op in
      let measure, _ = Pipeline.make_measure t.config.desc gen in
      let env = { Env.problem = gen.Heron.Generator.problem; measure; rng = Rng.create seed } in
      let resume = warm_snapshot env donor in
      let outcome = Cga.run ?params ?pool ?resume env ~budget:t.config.budget in
      Obs.Counter.incr c_tasks;
      let result =
        match (outcome.Cga.result.Env.best_latency, outcome.Cga.result.Env.best_assignment) with
        | Some latency_us, Some a -> Some (latency_us, a)
        | _ -> None
      in
      (result, Model.samples outcome.Cga.model))

(* A durable publish succeeded: flip out of read-only if we were in it,
   settle every task the new snapshot covers, and swap the index. *)
let published ?on_publish t version ~settled lib =
  if t.read_only then begin
    t.read_only <- false;
    Obs.Gauge.set g_read_only 0.0
  end;
  (match on_publish with Some f -> f version | None -> ());
  t.library <- lib;
  t.version <- version;
  t.index_version <- max version (t.index_version + 1);
  Index.publish t.index (Index.build ~version:t.index_version lib);
  Tuning_queue.remove t.queue settled;
  t.unflushed <- [];
  sync t

(* The store refused the write even after retries: degrade to read-only
   serving. The freshly tuned results still go live in memory — traffic is
   answered with the best known schedules — while the tasks stay in the
   durable queue, so a crash in this mode redoes them (idempotently) and
   the next successful publish persists everything at once. *)
let publish_failed t ~batch lib =
  Obs.Counter.incr c_publish_failures;
  if not t.read_only then begin
    t.read_only <- true;
    Obs.Gauge.set g_read_only 1.0
  end;
  t.library <- lib;
  t.index_version <- t.index_version + 1;
  Index.publish t.index (Index.build ~version:t.index_version lib);
  t.unflushed <- t.unflushed @ batch

(* In read-only mode, try to flush the accumulated in-memory state before
   tuning anything new. Cheap when it fails (one publish attempt), and on
   success the queued tasks settle without being re-tuned. *)
let retry_pending_publish ?on_publish t =
  if t.read_only then
    match Store.publish ~keep:t.config.keep t.store t.library with
    | version -> published ?on_publish t version ~settled:t.unflushed t.library
    | exception Sys_error _ -> Obs.Counter.incr c_publish_failures

let pump ?pool ?params ?on_publish t ~max_tasks =
  Obs.with_span "serve.pump" (fun () ->
      let tuned = ref 0 in
      let continue_ = ref true in
      retry_pending_publish ?on_publish t;
      while
        !continue_ && (not t.read_only) && !tuned < max_tasks
        && not (Tuning_queue.is_empty t.queue)
      do
        let batch =
          Tuning_queue.peek_family t.queue ~max:(min t.config.family_max (max_tasks - !tuned))
        in
        if batch = [] then continue_ := false
        else begin
          let lib = ref t.library in
          let donor = ref [] in
          List.iter
            (fun task ->
              match t.config.resolve task.Tuning_queue.t_op_key with
              | None -> Obs.Counter.incr c_unresolved
              | Some op ->
                  let result, samples = tune_task ?pool ?params ~donor:!donor t task op in
                  donor := samples;
                  incr tuned;
                  (match result with
                  | Some (latency_us, a) ->
                      lib := Library.add !lib t.config.desc op ~latency_us a
                  | None -> ()))
            batch;
          (* One atomic publish per family batch: snapshot + sum + manifest
             on disk, then the index swap, then the queue checkpoint with
             the batch removed. A crash before the final checkpoint re-runs
             the batch on resume — idempotent, because tuning is a pure
             function of each task's key-derived seed. The crash hook fires
             in the hardest window: the snapshot is durable but the queue
             checkpoint still lists the batch. *)
          match Store.publish ~keep:t.config.keep t.store !lib with
          | version -> published ?on_publish t version ~settled:(t.unflushed @ batch) !lib
          | exception Sys_error _ -> publish_failed t ~batch !lib
        end
      done;
      !tuned)

let drain ?pool ?params ?on_publish t =
  let rec go n =
    let k = pump ?pool ?params ?on_publish t ~max_tasks:max_int in
    if k = 0 then n else go (n + k)
  in
  go 0
