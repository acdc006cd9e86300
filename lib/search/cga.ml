module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Cons = Heron_csp.Cons
module Solver = Heron_csp.Solver
module Model = Heron_cost.Model
module Fmat = Heron_cost.Fmat
module Rng = Heron_util.Rng
module Pool = Heron_util.Pool
module Obs = Heron_obs.Obs
module Json = Heron_obs.Json

let c_iterations = Obs.Counter.make "cga.iterations"
let c_generations = Obs.Counter.make "cga.generations"
let c_offspring_attempted = Obs.Counter.make "cga.offspring_attempted"
let c_offspring_accepted = Obs.Counter.make "cga.offspring_accepted"

(* Flat-engine counters ([search.interned] / [search.intern_hits] live in
   {!Intern}). Dedupe and ranking run on the sequential control path, so
   both are independent of pool size. *)
let c_dedupe_hits = Obs.Counter.make "search.dedupe_hits"
let c_rank_rows = Obs.Counter.make "search.rank_rows"

type key_selection = By_model | Random_keys

type params = {
  pop_size : int;
  generations : int;
  batch : int;
  epsilon : float;
  top_k : int;
  survivors : int;
  key_selection : key_selection;
  mutation : bool;
}

let default_params =
  {
    pop_size = 32;
    generations = 3;
    batch = 16;
    epsilon = 0.15;
    top_k = 8;
    survivors = 16;
    key_selection = By_model;
    mutation = true;
  }

type outcome = { result : Env.result; model : Model.t; jobs : int }

(* The spans of one CGA iteration, and the paper's three-way breakdown of
   tuning time (Table 10, Fig. 14) read from their totals. Prediction
   ([costmodel.predict]) nests inside evolution and ranking, so it counts
   as search. *)
let span_seed = "cga.seed_population"
let span_evolve = "cga.evolve"
let span_rank = "cga.rank"
let span_measure = "cga.measure"
let span_model = "cga.model"

type phases = { search_s : float; model_s : float; measure_s : float }

let phases ~before ~after =
  let seconds names =
    let ns totals =
      List.fold_left
        (fun acc name ->
          match List.assoc_opt name totals with Some t -> acc + t.Obs.ns | None -> acc)
        0 names
    in
    float_of_int (ns after - ns before) *. 1e-9
  in
  {
    search_s = seconds [ span_seed; span_evolve; span_rank ];
    model_s = seconds [ span_model ];
    measure_s = seconds [ span_measure ];
  }

(* Everything the exploration loop carries across an iteration boundary.
   Restoring a snapshot and continuing is byte-identical to never having
   stopped: the RNG state covers every stochastic choice, the recorder
   export covers measurements/trace/quarantine, and the model ensemble is
   reproduced from its samples because GBT fitting is deterministic.
   Snapshots speak assignments and key strings, never intern ids — ids
   are a per-run representation, so the on-disk format is engine-
   independent (see {!Checkpoint}). *)
type snapshot = {
  s_iter : int;
  s_dry : int;
  s_stopped : bool;
  s_rng_hex : string;
  s_recorder : Env.Recorder.export;
  s_survivors : (Assignment.t * float) list;
  s_model : (int array * float) list;
}

let warm_snapshot (env : Env.t) rows =
  {
    s_iter = 0;
    s_dry = 0;
    s_stopped = false;
    s_rng_hex = Rng.state_hex env.Env.rng;
    s_recorder =
      {
        Env.Recorder.x_steps = 0;
        x_evals = 0;
        x_invalid = 0;
        x_best = None;
        x_best_a = None;
        x_trace = [];
        x_cache = [];
        x_quarantined = [];
        x_degraded = [];
      };
    s_survivors = [];
    s_model = rows;
  }

(* Algorithm 3's crossover and mutation draw, for [n] children: each
   child picks two parents with [Rng.choice], restricts every key variable
   both bind to the set of their two values, and mutation drops one of
   those restrictions at an [Rng.int] position. [value p k] is parent
   [p]'s value of key [k], if bound. The search loop draws over value
   arrays and variable ids, [crossover_csps] over assignments and names:
   the same draws either way. *)
let draw_children ~mutation rng ~value ~keys ~parents ~n =
  if Array.length parents < 2 then []
  else
    List.init n (fun _ ->
        let c1 = Rng.choice rng parents and c2 = Rng.choice rng parents in
        let restrictions =
          List.filter_map
            (fun k ->
              match (value c1 k, value c2 k) with
              | Some a, Some b ->
                  Some (k, if a = b then [| a |] else if a < b then [| a; b |] else [| b; a |])
              | _ -> None)
            keys
        in
        if mutation && restrictions <> [] then begin
          let drop = Rng.int rng (List.length restrictions) in
          List.filteri (fun i _ -> i <> drop) restrictions
        end
        else restrictions)

let crossover_csps ?(mutation = true) rng problem ~keys ~parents ~n =
  draw_children ~mutation rng ~value:Assignment.find_opt ~keys ~parents ~n
  |> List.map (fun rs ->
         Problem.with_extra problem
           (List.map (fun (v, values) -> Cons.In (v, Array.to_list values)) rs))

(* ---------- flat population scratch ---------- *)

(* The population lives in reusable int-id arrays persisted across
   iterations: [pop.(0 .. pop_n-1)] are the live candidate ids, [buf] is
   the merge scratch populations are rebuilt through, [stamp]/[round]
   implement O(1) first-occurrence dedupe (a stamped id was already kept
   this round), and [feats] caches each id's binned feature row so
   ranking and model updates never re-bin an assignment. Everything grows
   geometrically and is only ever reused, so a steady-state iteration
   allocates nothing on this path. *)
type scratch = {
  mutable pop : int array;
  mutable pop_n : int;
  mutable buf : int array;
  mutable buf_n : int;
  mutable stamp : int array;
  mutable round : int;
  mutable scores : float array;  (* clamped predicted fitness, by pop index *)
  mutable cum : float array;  (* roulette cumulative weights *)
  mutable sel : int array;  (* roulette winners *)
  mutable fresh : int array;  (* step-3 unseen ids *)
  mutable order : int array;  (* ranking permutation over [fresh] *)
  mutable shuf : int array;  (* epsilon-greedy shuffle scratch *)
  feats : Fmat.t;  (* binned feature row per id *)
  mutable feats_n : int;  (* ids with a cached row: [0, feats_n) *)
}

let grown_int a n =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let cap' = ref (max 64 cap) in
    while n > !cap' do
      cap' := 2 * !cap'
    done;
    let a' = Array.make !cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  end

let grown_float a n =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let cap' = ref (max 64 cap) in
    while n > !cap' do
      cap' := 2 * !cap'
    done;
    let a' = Array.make !cap' 0.0 in
    Array.blit a 0 a' 0 cap;
    a'
  end

let make_scratch nf =
  {
    pop = Array.make 64 0;
    pop_n = 0;
    buf = Array.make 64 0;
    buf_n = 0;
    stamp = [||];
    round = 0;
    scores = [||];
    cum = [||];
    sel = [||];
    fresh = [||];
    order = [||];
    shuf = [||];
    feats = Fmat.create ~n_features:nf ();
    feats_n = 0;
  }

let push_buf sc id =
  sc.buf <- grown_int sc.buf (sc.buf_n + 1);
  sc.buf.(sc.buf_n) <- id;
  sc.buf_n <- sc.buf_n + 1

(* Rebuild [pop] from [buf], keeping the first occurrence of every id —
   [Cga_ref]'s string-keyed [dedupe] as one stamped array pass. *)
let dedupe_buf_into_pop intern sc =
  sc.stamp <- grown_int sc.stamp (Intern.size intern);
  sc.round <- sc.round + 1;
  sc.pop <- grown_int sc.pop sc.buf_n;
  sc.pop_n <- 0;
  for i = 0 to sc.buf_n - 1 do
    let id = sc.buf.(i) in
    if sc.stamp.(id) = sc.round then Obs.Counter.incr c_dedupe_hits
    else begin
      sc.stamp.(id) <- sc.round;
      sc.pop.(sc.pop_n) <- id;
      sc.pop_n <- sc.pop_n + 1
    end
  done

(* Bin the feature rows of ids allocated since the last sync. Ids are
   dense and allocated in order, so the row cache is a high-watermark. *)
let sync_feats model intern sc =
  let n = Intern.size intern in
  if n > sc.feats_n then begin
    Fmat.set_rows sc.feats n;
    for id = sc.feats_n to n - 1 do
      Model.featurize_values model (Intern.values intern id) sc.feats id
    done;
    sc.feats_n <- n
  end

(* In-place rank of [order.(0 .. nf-1)] (indices into [fresh]) by
   predicted score descending, index ascending. The index tiebreak makes
   the comparison a total order, so this unstable heapsort produces
   exactly the sequence the frozen engine's stable descending list sort
   does — without allocating. *)
let sort_order sc nf =
  let ord = sc.order and s = sc.scores in
  let cmp i j =
    let c = Float.compare s.(j) s.(i) in
    if c <> 0 then c else Int.compare i j
  in
  let swap i j =
    let t = ord.(i) in
    ord.(i) <- ord.(j);
    ord.(j) <- t
  in
  let rec sift i n =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < n && cmp ord.(l) ord.(!m) > 0 then m := l;
    if r < n && cmp ord.(r) ord.(!m) > 0 then m := r;
    if !m <> i then begin
      swap i !m;
      sift !m n
    end
  in
  for i = (nf / 2) - 1 downto 0 do
    sift i nf
  done;
  for k = nf - 1 downto 1 do
    swap 0 k;
    sift 0 k
  done

let run ?(params = default_params) ?pool ?resilience ?resume ?on_snapshot
    (env : Env.t) ~budget =
  let params = { params with batch = min params.batch (max 4 (budget / 8)) } in
  let pool = Pool.resolve pool in
  let model = Model.create env.Env.problem in
  (match resilience with
  | None -> ()
  | Some rz ->
      Env.Recorder.set_fallback rz
        (Some
           (fun a ->
             let s = Model.predict model a in
             if s > 0.0 then Some (1000.0 /. s) else None)));
  let iter_no = ref 0 in
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
        s.s_model;
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
        s.s_survivors;
      (match s.s_recorder.Env.Recorder.x_best_a with
      | None -> ()
      | Some a -> check_assignment "recorder best assignment" a));
  let rec_ =
    match resume with
    | None -> Env.Recorder.create ?resilience env ~budget
    | Some s -> Env.Recorder.import ?resilience env ~budget s.s_recorder
  in
  let intern = Env.Recorder.interner rec_ in
  let sc = make_scratch (Model.n_features model) in
  (* Survivors carry (id, measured latency); ids only ever leave the run
     through [emit_snapshot], as assignments. *)
  let survivors = ref [] in
  (match resume with
  | None -> ()
  | Some s ->
      iter_no := s.s_iter;
      dry_iterations := s.s_dry;
      continue := not s.s_stopped;
      survivors := List.map (fun (a, l) -> (Env.Recorder.intern rec_ a, l)) s.s_survivors;
      (match Rng.set_state_hex env.Env.rng s.s_rng_hex with
      | Ok () -> ()
      | Error e -> invalid_arg ("Cga.run: resume: " ^ e));
      Model.restore model s.s_model;
      Model.refit model);
  let emit_snapshot () =
    match on_snapshot with
    | None -> ()
    | Some f ->
        f
          (Obs.with_span "cga.snapshot" (fun () ->
               {
                 s_iter = !iter_no;
                 s_dry = !dry_iterations;
                 s_stopped = not !continue;
                 s_rng_hex = Rng.state_hex env.Env.rng;
                 s_recorder = Env.Recorder.export rec_;
                 s_survivors =
                   List.map (fun (id, l) -> (Intern.assignment intern id, l)) !survivors;
                 s_model = Model.samples model;
               }))
  in
  (* Score [ids.(0 .. n-1)] into [scores.(0 .. n-1)] through the cached
     feature rows, clamped strictly positive for roulette weights (the
     frozen engine clamps identically before its sorts, so ranking sees
     the same values). *)
  let score_ids ids n =
    sync_feats model intern sc;
    sc.scores <- grown_float sc.scores n;
    Model.predict_gather model sc.feats ids n sc.scores;
    for i = 0 to n - 1 do
      if sc.scores.(i) < 1e-6 then sc.scores.(i) <- 1e-6
    done
  in
  (* Roulette-wheel selection into [sel.(0 .. n-1)]: cumulative weights
     over the live population plus one [Rng.float] and a binary search
     per draw — draw-for-draw the RNG consumption of the frozen engine. *)
  let roulette_ids n =
    sc.sel <- grown_int sc.sel n;
    let m = sc.pop_n in
    let total = ref 0.0 in
    for i = 0 to m - 1 do
      total := !total +. sc.scores.(i)
    done;
    let total = !total in
    if total <= 0.0 then
      for k = 0 to n - 1 do
        sc.sel.(k) <- sc.pop.(Rng.int env.Env.rng m)
      done
    else begin
      sc.cum <- grown_float sc.cum m;
      let acc = ref 0.0 in
      for i = 0 to m - 1 do
        acc := !acc +. sc.scores.(i);
        sc.cum.(i) <- !acc
      done;
      for k = 0 to n - 1 do
        let target = Rng.float env.Env.rng *. total in
        (* Fall back to the LAST element: when floating-point rounding
           leaves the cumulative weight just below [target], the draw
           belongs to the final slot, not to the first. *)
        if sc.cum.(m - 1) < target then sc.sel.(k) <- sc.pop.(m - 1)
        else begin
          let lo = ref 0 and hi = ref (m - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if sc.cum.(mid) >= target then hi := mid else lo := mid + 1
          done;
          sc.sel.(k) <- sc.pop.(!lo)
        end
      done
    end
  in
  while !continue && not (Env.Recorder.exhausted rec_) do
    incr iter_no;
    Obs.Counter.incr c_iterations;
    (* Step 1: first generation = random valid assignments + survivors,
       interned and deduped in one pass over the flat buffer. *)
    Obs.with_span span_seed (fun () ->
        let need = max 2 (params.pop_size - List.length !survivors) in
        let seeds = Solver.rand_sat_values ?pool env.Env.rng env.Env.problem need in
        sc.buf_n <- 0;
        List.iter (fun vs -> push_buf sc (Env.Recorder.intern_values rec_ vs)) seeds;
        List.iter (fun (id, _) -> push_buf sc id) !survivors);
    if sc.buf_n = 0 then continue := false
    else begin
      dedupe_buf_into_pop intern sc;
      (* Step 2: evolve on CSPs for several generations. *)
      Obs.with_span span_evolve (fun () ->
          for g = 1 to params.generations do
            Obs.Counter.incr c_generations;
            score_ids sc.pop sc.pop_n;
            roulette_ids params.pop_size;
            let ns = List.length !survivors in
            let parents = Array.make (params.pop_size + ns) [||] in
            for i = 0 to params.pop_size - 1 do
              parents.(i) <- Intern.values intern sc.sel.(i)
            done;
            List.iteri
              (fun i (id, _) -> parents.(params.pop_size + i) <- Intern.values intern id)
              !survivors;
            let keys =
              match params.key_selection with
              | By_model -> Model.key_ids model params.top_k
              | Random_keys ->
                  let all = Array.init (Problem.n_vars env.Env.problem) Fun.id in
                  Rng.shuffle env.Env.rng all;
                  Array.to_list (Array.sub all 0 (min params.top_k (Array.length all)))
            in
            let restrictions =
              draw_children ~mutation:params.mutation env.Env.rng
                ~value:(fun vs v -> Some vs.(v))
                ~keys ~parents ~n:params.pop_size
            in
            let children =
              Solver.solve_children ~max_fails:400 ~max_restarts:0 ?pool env.Env.rng
                env.Env.problem restrictions
              |> List.filter_map Fun.id
            in
            Obs.Counter.add c_offspring_attempted (List.length restrictions);
            Obs.Counter.add c_offspring_accepted (List.length children);
            if Obs.enabled () then
              Obs.emit "generation"
                [
                  ("iter", Json.Int !iter_no);
                  ("gen", Json.Int g);
                  ("pop", Json.Int sc.pop_n);
                  ("offspring_attempted", Json.Int (List.length restrictions));
                  ("offspring_accepted", Json.Int (List.length children));
                ];
            (* pop <- dedupe (children @ pop), children first. *)
            sc.buf_n <- 0;
            List.iter (fun vs -> push_buf sc (Env.Recorder.intern_values rec_ vs)) children;
            sc.buf <- grown_int sc.buf (sc.buf_n + sc.pop_n);
            Array.blit sc.pop 0 sc.buf sc.buf_n sc.pop_n;
            sc.buf_n <- sc.buf_n + sc.pop_n;
            dedupe_buf_into_pop intern sc
          done);
      (* Step 3: epsilon-greedy selection of the measurement batch —
         filter unseen, score through the cached rows, rank in place. *)
      let nf =
        Obs.with_span span_rank (fun () ->
            sc.fresh <- grown_int sc.fresh sc.pop_n;
            let nf = ref 0 in
            for i = 0 to sc.pop_n - 1 do
              let id = sc.pop.(i) in
              if not (Env.Recorder.seen_id rec_ id) then begin
                sc.fresh.(!nf) <- id;
                incr nf
              end
            done;
            let nf = !nf in
            score_ids sc.fresh nf;
            Obs.Counter.add c_rank_rows nf;
            sc.order <- grown_int sc.order nf;
            for i = 0 to nf - 1 do
              sc.order.(i) <- i
            done;
            sort_order sc nf;
            nf)
      in
      let batch_n = min params.batch (Env.Recorder.steps_left rec_) in
      let n_explore = int_of_float (ceil (params.epsilon *. float_of_int batch_n)) in
      let n_exploit = max 0 (batch_n - n_explore) in
      let n_top = min n_exploit nf in
      (* The exploration draw replays [Rng.sample] on the ranked tail:
         copy the tail ids in rank order and run the full Fisher-Yates
         shuffle (RNG consumption depends on the tail length, not on how
         many ids are taken), then take the first [n_explore]. *)
      let n_rest = nf - n_top in
      sc.shuf <- grown_int sc.shuf n_rest;
      for i = 0 to n_rest - 1 do
        sc.shuf.(i) <- sc.fresh.(sc.order.(n_top + i))
      done;
      for i = n_rest - 1 downto 1 do
        let j = Rng.int env.Env.rng (i + 1) in
        let t = sc.shuf.(i) in
        sc.shuf.(i) <- sc.shuf.(j);
        sc.shuf.(j) <- t
      done;
      let n_explore = min n_explore n_rest in
      let n_chosen = n_top + n_explore in
      if n_chosen = 0 then begin
        incr dry_iterations;
        if !dry_iterations >= 3 then continue := false
      end
      else begin
        dry_iterations := 0;
        let chosen =
          Array.init n_chosen (fun k ->
              if k < n_top then sc.fresh.(sc.order.(k)) else sc.shuf.(k - n_top))
        in
        let latencies =
          Obs.with_span span_measure (fun () ->
              Array.map (Env.Recorder.eval_id rec_) chosen)
        in
        let measured = ref [] in
        for i = n_chosen - 1 downto 0 do
          let id = chosen.(i) in
          if not (Env.Recorder.degraded_id rec_ id) then
            measured := (id, latencies.(i)) :: !measured
        done;
        let measured = !measured in
        (* Step 4: update the cost model on the measured scores, feeding
           the cached feature rows straight into the training ring. *)
        Obs.with_span span_model (fun () ->
            List.iter
              (fun (id, l) -> Model.record_row model sc.feats id (Env.score l))
              measured;
            Model.refit model);
        let valid =
          List.filter_map
            (fun (id, l) -> match l with Some v -> Some (id, v) | None -> None)
            measured
        in
        survivors :=
          List.sort (fun ((_ : int), x) (_, y) -> Float.compare x y) (valid @ !survivors)
          |> List.filteri (fun i _ -> i < params.survivors)
      end
    end;
    emit_snapshot ()
  done;
  {
    result = Env.Recorder.finish rec_;
    model;
    jobs = (match pool with Some p -> Pool.jobs p | None -> 1);
  }
