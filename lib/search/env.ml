module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Obs = Heron_obs.Obs
module Json = Heron_obs.Json

type t = {
  problem : Problem.t;
  measure : Assignment.t -> float option;
  rng : Heron_util.Rng.t;
}

type point = { step : int; latency : float option; best : float option }

type result = {
  best_latency : float option;
  best_assignment : Assignment.t option;
  trace : point list;
  invalid : int;
}

let score_of_latency l = 1000.0 /. l

let score = function None -> 0.0 | Some l -> score_of_latency l

(* The recorder is the interned flat-array engine: every assignment it
   touches is mapped to a dense int id by {!Intern} (hash computed once,
   key string materialized only for checkpoints), and all per-config
   bookkeeping — cache membership and values, quarantine and degraded
   marks — lives in flat per-id arrays grown alongside the intern table.
   [Heron_check.Env_ref.Recorder] is the frozen pre-overhaul string-keyed
   engine; the [search_engine] property group holds the two
   byte-identical. *)
module Recorder = struct
  let c_evals = Obs.Counter.make "env.evals"
  let c_cache_hits = Obs.Counter.make "env.cache_hits"
  let c_steps = Obs.Counter.make "env.measure_steps"
  let c_invalid = Obs.Counter.make "env.invalid"
  let c_skips = Obs.Counter.make "env.budget_skips"
  let c_evictions = Obs.Counter.make "env.cache_evictions"

  (* Resilience outcomes (all zero when no resilience layer is installed,
     so fault-free runs emit no extra counter events). *)
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
  }

  let make_resilience attempt_measure = { attempt_measure; predict = None }

  let set_fallback rz predict = rz.predict <- predict

  (* Per-id state bits packed into one byte. *)
  let f_cached = 1
  let f_quarantined = 2
  let f_degraded = 4

  type r = {
    env : t;
    budget : int;
    resilience : resilience option;
    intern : Intern.t;
    mutable flags : Bytes.t;  (* per-id f_* bits *)
    mutable cvals : float option array;  (* per-id cached measurement *)
    cache_cap : int;
    cache_order : int Queue.t;  (* insertion order, for FIFO eviction *)
    mutable cache_n : int;  (* ids currently holding f_cached *)
    mutable quar_rev : int list;  (* quarantined ids, newest first *)
    mutable degr_rev : int list;  (* degraded ids, newest first *)
    mutable steps : int;
    mutable evals : int;  (* total eval calls, cached replays included *)
    mutable best : float option;
    mutable best_a : Assignment.t option;
    mutable trace_rev : point list;
    mutable invalid : int;
  }

  let default_cache_cap = 65_536

  let create ?(cache_cap = default_cache_cap) ?resilience env ~budget =
    {
      env;
      budget;
      resilience;
      intern = Intern.create (Problem.vars env.problem);
      flags = Bytes.make 256 '\000';
      cvals = Array.make 256 None;
      cache_cap = max 1 cache_cap;
      cache_order = Queue.create ();
      cache_n = 0;
      quar_rev = [];
      degr_rev = [];
      steps = 0;
      evals = 0;
      best = None;
      best_a = None;
      trace_rev = [];
      invalid = 0;
    }

  let interner r = r.intern

  (* Grow the per-id arrays to cover every allocated id. Readers bound-
     check instead (ids above the watermark carry no flags), so callers
     that only ever read — [seen_id] on freshly interned populations —
     cost nothing. *)
  let ensure r =
    let n = Intern.size r.intern in
    if n > Bytes.length r.flags then begin
      let cap = ref (Bytes.length r.flags) in
      while n > !cap do
        cap := 2 * !cap
      done;
      let flags = Bytes.make !cap '\000' in
      Bytes.blit r.flags 0 flags 0 (Bytes.length r.flags);
      r.flags <- flags;
      let cvals = Array.make !cap None in
      Array.blit r.cvals 0 cvals 0 (Array.length r.cvals);
      r.cvals <- cvals
    end

  let intern r a =
    let id = Intern.intern r.intern a in
    ensure r;
    id

  let intern_values r vs =
    let id = Intern.intern_values r.intern vs in
    ensure r;
    id

  let get_flag r id bit =
    id < Bytes.length r.flags && Char.code (Bytes.unsafe_get r.flags id) land bit <> 0

  let set_flag r id bit =
    ensure r;
    Bytes.unsafe_set r.flags id
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get r.flags id) lor bit))

  let clear_flag r id bit =
    Bytes.unsafe_set r.flags id
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get r.flags id) land lnot bit))

  let cache_size r = r.cache_n

  let seen_id r id = get_flag r id f_cached
  let seen r a = seen_id r (intern r a)

  let degraded_id r id = get_flag r id f_degraded
  let degraded r a = degraded_id r (intern r a)

  (* Insert a fresh measurement, evicting oldest entries beyond the cap.
     Evicted configurations cost a fresh step if revisited, so the default
     cap is far above any realistic campaign's distinct-config count. *)
  let cache_insert r id l =
    while r.cache_n >= r.cache_cap do
      let oldest = Queue.pop r.cache_order in
      if get_flag r oldest f_cached then begin
        clear_flag r oldest f_cached;
        r.cvals.(oldest) <- None;
        r.cache_n <- r.cache_n - 1
      end;
      Obs.Counter.incr c_evictions
    done;
    ensure r;
    if not (get_flag r id f_cached) then r.cache_n <- r.cache_n + 1;
    set_flag r id f_cached;
    r.cvals.(id) <- l;
    Queue.push id r.cache_order

  (* Bookkeeping for one fresh measurement. A [degraded] commit stores a
     cost-model prediction, not a measurement: it never becomes the
     incumbent best. Neither degraded nor quarantined commits count as
     [invalid] — that bucket means "the validator rejected the program". *)
  let commit_fresh ?(degraded = false) ?(quarantined = false) r id l =
    cache_insert r id l;
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
            r.best_a <- Some (Intern.assignment r.intern id)
          end
        end);
    r.trace_rev <- { step = r.steps; latency = l; best = r.best } :: r.trace_rev;
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

  (* Measure one fresh candidate and commit it: either the plain measure
     call, or a full resilient retry session (attempts, simulated
     backoff) whose verdict decides how the result is recorded. *)
  let measure_fresh r id =
    let a = Intern.assignment r.intern id in
    match r.resilience with
    | None -> commit_fresh r id (r.env.measure a)
    | Some rz -> (
        let v =
          Resilience.run Resilience.default_policy (fun ~attempt -> rz.attempt_measure a ~attempt)
        in
        let t = Resilience.tally_of v in
        Obs.Counter.add c_retries t.Resilience.retries;
        Obs.Counter.add c_fault_timeouts t.Resilience.timeouts;
        Obs.Counter.add c_fault_crashes t.Resilience.crashes;
        Obs.Counter.add c_fault_hangs t.Resilience.hangs;
        match v with
        | Resilience.Ok_measured { latency; _ } -> commit_fresh r id (Some latency)
        | Resilience.Invalid_config _ -> commit_fresh r id None
        | Resilience.Degraded _ ->
            Obs.Counter.incr c_degraded;
            if not (get_flag r id f_degraded) then begin
              set_flag r id f_degraded;
              r.degr_rev <- id :: r.degr_rev
            end;
            let l = match rz.predict with None -> None | Some p -> p a in
            commit_fresh ~degraded:true r id l
        | Resilience.Quarantined _ ->
            Obs.Counter.incr c_quarantined;
            if not (get_flag r id f_quarantined) then begin
              set_flag r id f_quarantined;
              r.quar_rev <- id :: r.quar_rev
            end;
            commit_fresh ~quarantined:true r id None)

  (* The secondary cap bounds searchers whose populations converge onto
     already-measured configurations (replays are free in budget terms but
     must not allow an infinite loop). *)
  let exhausted r = r.steps >= r.budget || r.evals >= 50 * r.budget
  let steps_left r = max 0 (r.budget - r.steps)

  let eval_id r id =
    r.evals <- r.evals + 1;
    Obs.Counter.incr c_evals;
    if get_flag r id f_cached then begin
      Obs.Counter.incr c_cache_hits;
      r.cvals.(id)
    end
    else if get_flag r id f_quarantined then begin
      (* Reachable only after the quarantined cache entry was evicted:
         the config is still never re-measured and still scores 0. *)
      Obs.Counter.incr c_quarantine_hits;
      None
    end
    else if exhausted r then begin
      Obs.Counter.incr c_skips;
      None
    end
    else measure_fresh r id

  let eval r a = eval_id r (intern r a)

  let finish r =
    {
      best_latency = r.best;
      best_assignment = r.best_a;
      trace = List.rev r.trace_rev;
      invalid = r.invalid;
    }

  (* ---------- checkpointing ---------- *)

  type export = {
    x_steps : int;
    x_evals : int;
    x_invalid : int;
    x_best : float option;
    x_best_a : Assignment.t option;
    x_trace : point list;
    x_cache : (string * float option) list;
    x_quarantined : string list;
    x_degraded : string list;
  }

  (* Key strings are materialized here — and nowhere else on the hot
     path — via the intern table's memoized [Intern.key], so repeated
     checkpoints of a steady-state run re-use every string. The export
     is byte-identical to the string-keyed engine's: cache in FIFO
     order, quarantine/degraded sets sorted. *)
  let export r =
    {
      x_steps = r.steps;
      x_evals = r.evals;
      x_invalid = r.invalid;
      x_best = r.best;
      x_best_a = r.best_a;
      x_trace = List.rev r.trace_rev;
      x_cache =
        List.rev
          (Queue.fold (fun acc id -> (Intern.key r.intern id, r.cvals.(id)) :: acc) []
             r.cache_order);
      x_quarantined =
        List.sort String.compare (List.rev_map (Intern.key r.intern) r.quar_rev);
      x_degraded = List.sort String.compare (List.rev_map (Intern.key r.intern) r.degr_rev);
    }

  let id_of_key r ctx k =
    let fail e = invalid_arg (Printf.sprintf "Env.Recorder.import: %s key %S: %s" ctx k e) in
    match Assignment.of_key k with
    | Ok a -> ( try Intern.intern_keyed r.intern a k with Invalid_argument e -> fail e)
    | Error e -> fail e

  let import ?resilience env ~budget x =
    let r = create ?resilience env ~budget in
    List.iter
      (fun (key, l) ->
        let id = id_of_key r "cache" key in
        ensure r;
        if not (get_flag r id f_cached) then r.cache_n <- r.cache_n + 1;
        set_flag r id f_cached;
        r.cvals.(id) <- l;
        Queue.push id r.cache_order)
      x.x_cache;
    r.steps <- x.x_steps;
    r.evals <- x.x_evals;
    r.invalid <- x.x_invalid;
    r.best <- x.x_best;
    r.best_a <- x.x_best_a;
    r.trace_rev <- List.rev x.x_trace;
    (match resilience with
    | None -> ()
    | Some _ ->
        (* Like the pre-overhaul engine, quarantine/degraded marks only
           survive an import when a resilience layer is installed (without
           one they are unreachable anyway). *)
        List.iter
          (fun k ->
            let id = id_of_key r "quarantined" k in
            if not (get_flag r id f_quarantined) then begin
              set_flag r id f_quarantined;
              r.quar_rev <- id :: r.quar_rev
            end)
          x.x_quarantined;
        List.iter
          (fun k ->
            let id = id_of_key r "degraded" k in
            if not (get_flag r id f_degraded) then begin
              set_flag r id f_degraded;
              r.degr_rev <- id :: r.degr_rev
            end)
          x.x_degraded);
    r
end
