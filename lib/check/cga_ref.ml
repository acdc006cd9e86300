(* Frozen pre-overhaul CGA loop, kept verbatim as the differential oracle
   for the interned flat-pool engine in {!Cga} (the PR 4/6 playbook).
   Every population pass here rebuilds lists, every dedupe/seen touch
   re-stringifies assignments through the string-keyed {!Env_ref.Recorder},
   and ranking pays full list sorts with polymorphic compare — the cost
   profile the overhaul removes. Do not modify except to keep it
   compiling: the [search_engine] property group diffs the live engine
   against this one.

   Shares {!Cga}'s [params], [outcome] and [snapshot] types, so results
   and checkpoints from either engine compare byte for byte. Two
   deliberate deltas from the historical loop, both shared with the live
   engine and neither affecting results: step-3 ranking runs in its own
   [cga.rank] span (it previously fell between the timed phases), and the
   phases are timed by their [Obs] spans alone, on the monotonic wall
   clock, instead of by [Sys.time] buckets, which read process CPU time
   summed over all domains. *)

module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Cons = Heron_csp.Cons
module Solver = Heron_csp.Solver
module Model = Heron_cost.Model
module Rng = Heron_util.Rng
module Pool = Heron_util.Pool
module Obs = Heron_obs.Obs
module Json = Heron_obs.Json
module Env = Heron_search.Env
module Cga = Heron_search.Cga

(* Shared counter handles (idempotent by name): both engines advance the
   same cga.* metrics. *)
let c_iterations = Obs.Counter.make "cga.iterations"
let c_generations = Obs.Counter.make "cga.generations"
let c_offspring_attempted = Obs.Counter.make "cga.offspring_attempted"
let c_offspring_accepted = Obs.Counter.make "cga.offspring_accepted"

let crossover_csps ?(mutation = true) rng problem ~keys ~parents ~n =
  if Array.length parents < 2 then []
  else
    List.init n (fun _ ->
        let c1 = Rng.choice rng parents and c2 = Rng.choice rng parents in
        let constraints =
          List.filter_map
            (fun v ->
              match (Assignment.find_opt c1 v, Assignment.find_opt c2 v) with
              | Some a, Some b -> Some (Cons.In (v, List.sort_uniq compare [ a; b ]))
              | _ -> None)
            keys
        in
        let constraints =
          if mutation && constraints <> [] then begin
            let drop = Rng.int rng (List.length constraints) in
            List.filteri (fun i _ -> i <> drop) constraints
          end
          else constraints
        in
        Problem.with_extra problem constraints)

let roulette rng scored n =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 scored in
  if total <= 0.0 then Array.init n (fun _ -> fst (Rng.choice rng scored))
  else begin
    let m = Array.length scored in
    let cum = Array.make m 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i (_, w) ->
        acc := !acc +. w;
        cum.(i) <- !acc)
      scored;
    Array.init n (fun _ ->
        let target = Rng.float rng *. total in
        if cum.(m - 1) < target then fst scored.(m - 1)
        else begin
          let lo = ref 0 and hi = ref (m - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if cum.(mid) >= target then hi := mid else lo := mid + 1
          done;
          fst scored.(!lo)
        end)
  end

let dedupe assignments =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun a ->
      let k = Assignment.key a in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    assignments

let run ?(params = Cga.default_params) ?resilience ?resume ?on_snapshot (env : Env.t)
    ~budget =
  let params =
    { params with Cga.batch = min params.Cga.batch (max 4 (budget / 8)) }
  in
  let pool = Pool.default () in
  let model = Model.create env.Env.problem in
  (match resilience with
  | None -> ()
  | Some rz ->
      Env_ref.Recorder.set_fallback rz
        (Some
           (fun a ->
             let s = Model.predict model a in
             if s > 0.0 then Some (1000.0 /. s) else None)));
  let iter_no = ref 0 in
  let survivors = ref [] in
  let continue = ref true in
  let dry_iterations = ref 0 in
  (match resume with
  | None -> ()
  | Some s ->
      List.iteri
        (fun i (bins, _) ->
          if not (Model.layout_ok model bins) then
            invalid_arg
              (Printf.sprintf
                 "Cga.run: resume: model sample %d: feature layout mismatch (%d cells, this \
                  task bins %d features)"
                 i (Array.length bins) (Model.n_features model)))
        s.Cga.s_model;
      let vars = Problem.vars env.Env.problem in
      let check_assignment ctx a =
        let bound = Assignment.bindings a in
        if List.length bound <> Array.length vars then
          invalid_arg
            (Printf.sprintf
               "Cga.run: resume: %s: binds %d variables, this task has %d" ctx
               (List.length bound) (Array.length vars));
        List.iter
          (fun (v, x) ->
            if not (Array.exists (String.equal v) vars) then
              invalid_arg
                (Printf.sprintf "Cga.run: resume: %s: unknown variable %S" ctx v)
            else if not (Heron_csp.Domain.mem x (Problem.domain env.Env.problem v)) then
              invalid_arg
                (Printf.sprintf
                   "Cga.run: resume: %s: %s = %d is outside this task's domain" ctx v x))
          bound
      in
      List.iteri
        (fun i (a, _) -> check_assignment (Printf.sprintf "survivor %d" i) a)
        s.Cga.s_survivors;
      (match s.Cga.s_recorder.Env.Recorder.x_best_a with
      | None -> ()
      | Some a -> check_assignment "recorder best assignment" a));
  let rec_ =
    match resume with
    | None -> Env_ref.Recorder.create ?resilience env ~budget
    | Some s -> Env_ref.Recorder.import ?resilience env ~budget s.Cga.s_recorder
  in
  (match resume with
  | None -> ()
  | Some s ->
      iter_no := s.Cga.s_iter;
      dry_iterations := s.Cga.s_dry;
      continue := not s.Cga.s_stopped;
      survivors := s.Cga.s_survivors;
      (match Rng.set_state_hex env.Env.rng s.Cga.s_rng_hex with
      | Ok () -> ()
      | Error e -> invalid_arg ("Cga.run: resume: " ^ e));
      Model.restore model s.Cga.s_model;
      Model.refit model);
  let emit_snapshot () =
    match on_snapshot with
    | None -> ()
    | Some f ->
        f
          {
            Cga.s_iter = !iter_no;
            s_dry = !dry_iterations;
            s_stopped = not !continue;
            s_rng_hex = Rng.state_hex env.Env.rng;
            s_recorder = Env_ref.Recorder.export rec_;
            s_survivors = !survivors;
            s_model = Model.samples model;
          }
  in
  while !continue && not (Env_ref.Recorder.exhausted rec_) do
    incr iter_no;
    Obs.Counter.incr c_iterations;
    (* Step 1: first generation = random valid assignments + survivors. *)
    let pop0 =
      Obs.with_span "cga.seed_population" (fun () ->
          let need = max 2 (params.Cga.pop_size - List.length !survivors) in
          Solver.rand_sat ?pool env.Env.rng env.Env.problem need
          @ List.map fst !survivors)
    in
    if pop0 = [] then continue := false
    else begin
      let predict_all assignments =
        List.map2
          (fun a s -> (a, max s 1e-6))
          assignments
          (Model.predict_batch model assignments)
      in
      (* Step 2: evolve on CSPs for several generations. *)
      let pop = ref (dedupe pop0) in
      Obs.with_span "cga.evolve" (fun () ->
          for g = 1 to params.Cga.generations do
            Obs.Counter.incr c_generations;
            let scored = Array.of_list (predict_all !pop) in
            let chosen = roulette env.Env.rng scored params.Cga.pop_size in
            let parents = Array.append chosen (Array.of_list (List.map fst !survivors)) in
            let keys =
              match params.Cga.key_selection with
              | Cga.By_model -> Model.key_variables model params.Cga.top_k
              | Cga.Random_keys ->
                  let all = Array.copy (Problem.vars env.Env.problem) in
                  Rng.shuffle env.Env.rng all;
                  Array.to_list (Array.sub all 0 (min params.Cga.top_k (Array.length all)))
            in
            let csps =
              crossover_csps ~mutation:params.Cga.mutation env.Env.rng env.Env.problem ~keys
                ~parents ~n:params.Cga.pop_size
            in
            let children =
              Solver.solve_all ~max_fails:400 ~max_restarts:0 ?pool env.Env.rng csps
              |> List.filter_map Fun.id
            in
            Obs.Counter.add c_offspring_attempted (List.length csps);
            Obs.Counter.add c_offspring_accepted (List.length children);
            if Obs.enabled () then
              Obs.emit "generation"
                [
                  ("iter", Json.Int !iter_no);
                  ("gen", Json.Int g);
                  ("pop", Json.Int (List.length !pop));
                  ("offspring_attempted", Json.Int (List.length csps));
                  ("offspring_accepted", Json.Int (List.length children));
                ];
            pop := dedupe (children @ !pop)
          done);
      (* Step 3: epsilon-greedy selection of the measurement batch. *)
      let fresh =
        Obs.with_span "cga.rank" (fun () ->
            List.filter (fun a -> not (Env_ref.Recorder.seen rec_ a)) !pop
            |> predict_all
            |> List.sort (fun (_, x) (_, y) -> compare y x))
      in
      let batch_n = min params.Cga.batch (Env_ref.Recorder.steps_left rec_) in
      let n_explore =
        int_of_float (ceil (params.Cga.epsilon *. float_of_int batch_n))
      in
      let n_exploit = max 0 (batch_n - n_explore) in
      let top = List.filteri (fun i _ -> i < n_exploit) fresh |> List.map fst in
      let rest = List.filteri (fun i _ -> i >= n_exploit) fresh |> List.map fst in
      let n_explore = min n_explore (List.length rest) in
      let explore = Rng.sample env.Env.rng rest n_explore in
      let chosen = top @ explore in
      if chosen = [] then begin
        incr dry_iterations;
        if !dry_iterations >= 3 then continue := false
      end
      else begin
        dry_iterations := 0;
        let latencies =
          Obs.with_span "cga.measure" (fun () ->
              Env_ref.Recorder.eval_batch ?pool rec_ chosen)
        in
        let measured = List.combine chosen latencies in
        let measured =
          List.filter (fun (a, _) -> not (Env_ref.Recorder.degraded rec_ a)) measured
        in
        (* Step 4: update the cost model on the measured scores. *)
        Obs.with_span "cga.model" (fun () ->
            List.iter (fun (a, l) -> Model.record model a (Env.score l)) measured;
            Model.refit model);
        let valid =
          List.filter_map (fun (a, l) -> match l with Some v -> Some (a, v) | None -> None)
            measured
        in
        survivors :=
          List.sort (fun (_, x) (_, y) -> compare x y) (valid @ !survivors)
          |> List.filteri (fun i _ -> i < params.Cga.survivors)
      end
    end;
    emit_snapshot ()
  done;
  {
    Cga.result = Env_ref.Recorder.finish rec_;
    model;
    jobs = (match pool with Some p -> Pool.jobs p | None -> 1);
  }
