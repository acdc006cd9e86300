(* Frozen pre-overhaul recorder, kept verbatim as the differential oracle
   for the interned flat-array engine in {!Env} (PR 4/6 playbook: freeze
   the old code, demand byte-identical results). Every bookkeeping touch
   here re-derives the string key with [Assignment.key] and stores it in
   string-keyed hash tables — exactly the cost profile the overhaul
   removes. Do not modify except to keep it compiling: the [search_engine]
   property group diffs the live engine against this one.

   The recorder shares {!Env}'s [t], [point], [result] and
   [Recorder.export] types, so exports, snapshots and checkpoints built
   from either engine can be compared byte for byte. *)

module Assignment = Heron_csp.Assignment
module Obs = Heron_obs.Obs
module Json = Heron_obs.Json
module Env = Heron_search.Env
module Resilience = Heron_search.Resilience

module Recorder = struct
  (* Counter handles are shared with the live recorder by name:
     [Obs.Counter.make] is idempotent, so both engines advance the same
     metrics and counter-based tests hold for either. *)
  let c_evals = Obs.Counter.make "env.evals"
  let c_cache_hits = Obs.Counter.make "env.cache_hits"
  let c_steps = Obs.Counter.make "env.measure_steps"
  let c_invalid = Obs.Counter.make "env.invalid"
  let c_skips = Obs.Counter.make "env.budget_skips"
  let c_evictions = Obs.Counter.make "env.cache_evictions"
  let c_retries = Obs.Counter.make "env.retries"
  let c_quarantined = Obs.Counter.make "env.quarantined"
  let c_quarantine_hits = Obs.Counter.make "env.quarantine_hits"
  let c_degraded = Obs.Counter.make "env.degraded"
  let c_fault_timeouts = Obs.Counter.make "env.fault_timeouts"
  let c_fault_crashes = Obs.Counter.make "env.fault_crashes"
  let c_fault_hangs = Obs.Counter.make "env.fault_hangs"

  type resilience = {
    attempt_measure : Assignment.t -> attempt:int -> Resilience.attempt;
    mutable predict : (Assignment.t -> float option) option;
    quarantined : (string, unit) Hashtbl.t;
    degraded : (string, unit) Hashtbl.t;
  }

  let make_resilience attempt_measure =
    {
      attempt_measure;
      predict = None;
      quarantined = Hashtbl.create 32;
      degraded = Hashtbl.create 32;
    }

  let set_fallback rz predict = rz.predict <- predict

  type r = {
    env : Env.t;
    budget : int;
    resilience : resilience option;
    cache : (string, float option) Hashtbl.t;
    cache_cap : int;
    cache_order : string Queue.t;  (* insertion order, for FIFO eviction *)
    mutable steps : int;
    mutable evals : int;  (* total eval calls, cached replays included *)
    mutable best : float option;
    mutable best_a : Assignment.t option;
    mutable trace_rev : Env.point list;
    mutable invalid : int;
  }

  let default_cache_cap = 65_536

  let create ?(cache_cap = default_cache_cap) ?resilience env ~budget =
    {
      env;
      budget;
      resilience;
      cache = Hashtbl.create 256;
      cache_cap = max 1 cache_cap;
      cache_order = Queue.create ();
      steps = 0;
      evals = 0;
      best = None;
      best_a = None;
      trace_rev = [];
      invalid = 0;
    }

  let cache_size r = Hashtbl.length r.cache

  let quarantined_key r key =
    match r.resilience with None -> false | Some rz -> Hashtbl.mem rz.quarantined key

  let degraded r a =
    match r.resilience with
    | None -> false
    | Some rz -> Hashtbl.mem rz.degraded (Assignment.key a)

  let cache_insert r key l =
    while Hashtbl.length r.cache >= r.cache_cap do
      let oldest = Queue.pop r.cache_order in
      Hashtbl.remove r.cache oldest;
      Obs.Counter.incr c_evictions
    done;
    Hashtbl.replace r.cache key l;
    Queue.push key r.cache_order

  let commit_fresh ?(degraded = false) ?(quarantined = false) r a key l =
    cache_insert r key l;
    r.steps <- r.steps + 1;
    Obs.Counter.incr c_steps;
    (match l with
    | None ->
        if not (degraded || quarantined) then begin
          r.invalid <- r.invalid + 1;
          Obs.Counter.incr c_invalid
        end
    | Some lat ->
        if not degraded then begin
          let better = match r.best with None -> true | Some b -> lat < b in
          if better then begin
            r.best <- Some lat;
            r.best_a <- Some a
          end
        end);
    r.trace_rev <- { Env.step = r.steps; latency = l; best = r.best } :: r.trace_rev;
    if Obs.enabled () then
      Obs.emit "eval"
        ([
           ("step", Json.Int r.steps);
           ("latency", match l with None -> Json.Null | Some x -> Json.Float x);
           ("best", match r.best with None -> Json.Null | Some x -> Json.Float x);
         ]
        @ (if degraded then [ ("degraded", Json.Bool true) ] else [])
        @ if quarantined then [ ("quarantined", Json.Bool true) ] else []);
    l

  type outcome = Plain of float option | Resilient of Resilience.verdict

  let measure_outcome r a =
    match r.resilience with
    | None -> Plain (r.env.Env.measure a)
    | Some rz ->
        Resilient
          (Resilience.run Resilience.default_policy (fun ~attempt -> rz.attempt_measure a ~attempt))

  let commit_outcome r a key = function
    | Plain l -> commit_fresh r a key l
    | Resilient v -> (
        let rz =
          match r.resilience with
          | Some rz -> rz
          | None -> assert false (* Resilient outcomes only arise with resilience on *)
        in
        let t = Resilience.tally_of v in
        Obs.Counter.add c_retries t.Resilience.retries;
        Obs.Counter.add c_fault_timeouts t.Resilience.timeouts;
        Obs.Counter.add c_fault_crashes t.Resilience.crashes;
        Obs.Counter.add c_fault_hangs t.Resilience.hangs;
        match v with
        | Resilience.Ok_measured { latency; _ } -> commit_fresh r a key (Some latency)
        | Resilience.Invalid_config _ -> commit_fresh r a key None
        | Resilience.Degraded _ ->
            Obs.Counter.incr c_degraded;
            Hashtbl.replace rz.degraded key ();
            let l = match rz.predict with None -> None | Some p -> p a in
            commit_fresh ~degraded:true r a key l
        | Resilience.Quarantined _ ->
            Obs.Counter.incr c_quarantined;
            Hashtbl.replace rz.quarantined key ();
            commit_fresh ~quarantined:true r a key None)

  let exhausted r = r.steps >= r.budget || r.evals >= 50 * r.budget
  let steps_left r = max 0 (r.budget - r.steps)

  let seen r a = Hashtbl.mem r.cache (Assignment.key a)

  let eval r a =
    r.evals <- r.evals + 1;
    Obs.Counter.incr c_evals;
    let key = Assignment.key a in
    match Hashtbl.find_opt r.cache key with
    | Some l ->
        Obs.Counter.incr c_cache_hits;
        l
    | None ->
        if quarantined_key r key then begin
          Obs.Counter.incr c_quarantine_hits;
          None
        end
        else if exhausted r then begin
          Obs.Counter.incr c_skips;
          None
        end
        else commit_outcome r a key (measure_outcome r a)

  type plan =
    | Cached of float option
    | Run of int
    | Dup of int
    | Skip
    | Qhit

  let eval_batch ?pool r batch =
    let batch = Array.of_list batch in
    let n = Array.length batch in
    let plans = Array.make n Skip in
    let jobs_rev = ref [] and n_jobs = ref 0 in
    let evals_v = ref r.evals and steps_v = ref r.steps in
    let fresh_keys = Hashtbl.create (2 * n) in
    for i = 0 to n - 1 do
      incr evals_v;
      let key = Assignment.key batch.(i) in
      match Hashtbl.find_opt r.cache key with
      | Some l -> plans.(i) <- Cached l
      | None -> (
          match Hashtbl.find_opt fresh_keys key with
          | Some j -> plans.(i) <- Dup j
          | None ->
              if quarantined_key r key then plans.(i) <- Qhit
              else if !steps_v >= r.budget || !evals_v >= 50 * r.budget then
                plans.(i) <- Skip
              else begin
                plans.(i) <- Run !n_jobs;
                Hashtbl.replace fresh_keys key !n_jobs;
                jobs_rev := batch.(i) :: !jobs_rev;
                incr n_jobs;
                incr steps_v
              end)
    done;
    let jobs = Array.of_list (List.rev !jobs_rev) in
    let measured = Heron_util.Pool.map ?pool (fun a -> measure_outcome r a) jobs in
    Array.to_list
      (Array.mapi
         (fun i a ->
           r.evals <- r.evals + 1;
           Obs.Counter.incr c_evals;
           match plans.(i) with
           | Cached l ->
               Obs.Counter.incr c_cache_hits;
               l
           | Dup j -> (
               Obs.Counter.incr c_cache_hits;
               match Hashtbl.find_opt r.cache (Assignment.key jobs.(j)) with
               | Some l -> l
               | None -> None)
           | Skip ->
               Obs.Counter.incr c_skips;
               None
           | Qhit ->
               Obs.Counter.incr c_quarantine_hits;
               None
           | Run j -> commit_outcome r a (Assignment.key a) measured.(j))
         batch)

  let finish r =
    {
      Env.best_latency = r.best;
      best_assignment = r.best_a;
      trace = List.rev r.trace_rev;
      invalid = r.invalid;
    }

  (* ---------- checkpointing (shared export type with the live engine) -- *)

  let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

  let export r =
    {
      Env.Recorder.x_steps = r.steps;
      x_evals = r.evals;
      x_invalid = r.invalid;
      x_best = r.best;
      x_best_a = r.best_a;
      x_trace = List.rev r.trace_rev;
      x_cache =
        List.rev
          (Queue.fold (fun acc key -> (key, Hashtbl.find r.cache key) :: acc) [] r.cache_order);
      x_quarantined = (match r.resilience with None -> [] | Some rz -> sorted_keys rz.quarantined);
      x_degraded = (match r.resilience with None -> [] | Some rz -> sorted_keys rz.degraded);
    }

  let import ?resilience env ~budget (x : Env.Recorder.export) =
    let r = create ?resilience env ~budget in
    List.iter
      (fun (key, l) ->
        Hashtbl.replace r.cache key l;
        Queue.push key r.cache_order)
      x.Env.Recorder.x_cache;
    r.steps <- x.Env.Recorder.x_steps;
    r.evals <- x.Env.Recorder.x_evals;
    r.invalid <- x.Env.Recorder.x_invalid;
    r.best <- x.Env.Recorder.x_best;
    r.best_a <- x.Env.Recorder.x_best_a;
    r.trace_rev <- List.rev x.Env.Recorder.x_trace;
    (match resilience with
    | None -> ()
    | Some rz ->
        List.iter (fun k -> Hashtbl.replace rz.quarantined k ()) x.Env.Recorder.x_quarantined;
        List.iter (fun k -> Hashtbl.replace rz.degraded k ()) x.Env.Recorder.x_degraded);
    r
end
