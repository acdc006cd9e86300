(* Heron's wall-clock benchmark. One command runs one named workload:

     dune exec perfbench/heron_bench.exe -- --workload tune-v100 --seed 1 \
       --seconds 24 --trace 0

   Every workload generates spaces (set-up), tunes, publishes the tuned
   library to a store and serves lookups from it. The end-to-end metrics
   come from untraced passes; with [--trace 1] every pass is followed by
   the same work inside an [Obs] journal, and the per-layer metrics are
   read back from that journal's spans and counters. Every timing is taken
   here, from outside the library, on the monotonic clock of
   {!Perfbench.Timer}. The last line of standard output is one JSON object
   with the keys correct, attempted, failed and metrics; see
   perfbench/README.md for the workloads and metrics. *)

module Op = Heron_tensor.Op
module D = Heron_dla.Descriptor
module Validate = Heron_dla.Validate
module Violation = Heron_dla.Violation
module Perf_model = Heron_dla.Perf_model
module Assignment = Heron_csp.Assignment
module Solver = Heron_csp.Solver
module Generator = Heron.Generator
module Pipeline = Heron.Pipeline
module Library = Heron.Library
module Stats = Heron.Stats
module Cga = Heron_search.Cga
module Env = Heron_search.Env
module Checkpoint = Heron_search.Checkpoint
module Suites = Heron_nets.Suites
module Models = Heron_nets.Models
module Tasks = Heron_nets.Tasks
module Tuner = Heron_nets.Tuner
module Daemon = Heron_serving.Daemon
module Index = Heron_serving.Index
module Store = Heron_serving.Store
module Traffic = Heron_serving.Traffic
module Rng = Heron_util.Rng
module Obs = Heron_obs.Obs
module Json = Heron_obs.Json
module Timer = Perfbench.Timer
module Profile = Perfbench.Profile
module Catalogue = Perfbench.Catalogue

(* ---------- files and host ---------- *)

(* All scratch state (stores, checkpoints, journals) lives here, under the
   working directory, and is removed when the run ends. *)
let scratch_root = "_perfbench"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let copy_files ~src ~dst =
  ignore (fresh_dir dst);
  Array.iter
    (fun f ->
      let body = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> output_string oc body))
    (Sys.readdir src)

let proc_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | s -> String.split_on_char '\n' s

let nproc () =
  List.length
    (List.filter (String.starts_with ~prefix:"processor") (proc_lines "/proc/cpuinfo"))

(* VmHWM: the resident-set high-water mark of this process. *)
let peak_rss_mb () =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> acc)
      | _ -> acc)
    0.0 (proc_lines "/proc/self/status")

(* ---------- passes ---------- *)

type ctx = { seed : int; smoke : bool }

(* Derived seeds: a pure function of a seed and an index. *)
let sub_seed seed i = Hashtbl.hash (seed, i) land 0x3FFFFFFF

(* The seed of all tuning. It is fixed, as [heron_tune]'s default seed is:
   over ten search seeds the tuning wall time of one op set varies with an
   interquartile range of 13-24%, which would hide any smaller regression.
   The run seed drives what the serving side sees: the request streams,
   the popularity ranks and the pre-published library's schedules. *)
let search_seed = 42

type tuned = { desc : D.t; op : Op.t; weight : int; best_us : float option }

(* One window of consecutive lookups: its latency percentiles and rate. *)
type window = { p50_ns : float; p99_ns : float; per_s : float }

(* What a pass keeps of its lookups. *)
type lookups = {
  count : int;
  hits : int;
  windows : window list;
  hit_p50_ns : float;
  miss_p50_ns : float;  (** near-hits and misses that found their task already queued *)
  enqueue_p50_us : float;  (** lookups that queued a new tuning task *)
  index_query_p50_ns : float;
  store_load_s : float;
}

type outcome = {
  setup_s : float;
  generate_s : float;  (** space generation over the ops this pass tunes *)
  space_vars : int;
  space_cons : int;
  calls_s : float list;  (** wall time of each tuning call, in call order *)
  tuned : tuned list;
  lookups : lookups;
  checkpoint_ms : float;
  checkpoint_bytes : int;
  digest : string;  (** of the libraries, eval traces and lookup outcomes *)
  errors : string list;
}

let seconds ns = float_of_int ns /. 1e9

(* [f] run at least [reps] times and for at least [min_s] seconds: the
   median wall time in seconds and the last result. *)
let median_s ?(min_s = 0.0) reps f =
  let times = ref [] and last = ref None and total = ref 0.0 in
  while List.length !times < reps || !total < min_s do
    let x, ns = Timer.time f in
    last := Some x;
    times := seconds ns :: !times;
    total := !total +. seconds ns
  done;
  (Timer.median !times, Option.get !last)

(* Set-up is timed as the median of at least three runs covering at least
   0.2 s, so that millisecond set-ups are measured as steadily as long
   ones. *)
let time_setup f = median_s ~min_s:0.2 3 f

let generate_all ~seed ops = List.map (fun (desc, op) -> Generator.generate ~seed desc op) ops

let space_size gens =
  List.fold_left
    (fun (v, c) g ->
      let s = Stats.of_problem g.Generator.problem in
      (v + s.Stats.total_vars, c + s.Stats.total_cons))
    (0, 0) gens

let add_trace buf (points : Env.point list) =
  let f = function None -> "-" | Some l -> Printf.sprintf "%h" l in
  List.iter
    (fun (p : Env.point) ->
      Buffer.add_string buf (Printf.sprintf "%d %s %s\n" p.Env.step (f p.Env.latency) (f p.Env.best)))
    points

let check_program err desc op prog =
  match Validate.check desc prog with
  | Ok () -> ()
  | Error v ->
      Printf.ksprintf err "%s on %s: best program fails validation: %s" (Op.to_string op)
        desc.D.dname (Violation.to_string v)

let check_library err lib ops =
  List.iter
    (fun (desc, op) ->
      match Library.lookup lib desc op with
      | Some e -> check_program err desc op (Library.program_of e desc op)
      | None -> ())
    ops

(* ---------- serving ---------- *)

(* Per-lookup latencies of a pass in the order they ran, each with an
   outcome tag: 'h' hit, 'n' near-hit, 'm' miss, upper-cased when the
   lookup queued a tuning task. [spans] are the timed windows as (first,
   length, wall ns). *)
type recorder = {
  durs : int array;
  kinds : Bytes.t;
  mutable n : int;
  mutable spans : (int * int * int) list;
}

let recorder capacity =
  { durs = Array.make capacity 0; kinds = Bytes.make capacity ' '; n = 0; spans = [] }

let same_entry (a : Library.entry) (b : Library.entry) =
  a == b
  || a.Library.op_key = b.Library.op_key
     && a.Library.dla = b.Library.dla
     && Float.equal a.Library.latency_us b.Library.latency_us
     && Assignment.equal a.Library.assignment b.Library.assignment

let probe (desc, op) = Index.probe ~dla:desc.D.dname op

(* One lookup through the daemon, timed and tagged. A hit must be exactly
   the published entry for its key, and a key with a published entry must
   hit; [bad] counts the lookups that break either rule. *)
let lookup rc bad daemon p expected =
  let a = Timer.now_ns () in
  let s = Daemon.lookup daemon p in
  let d = Timer.now_ns () - a in
  let kind =
    match (s.Daemon.s_outcome, expected) with
    | Index.Hit e, Some x ->
        if not (same_entry x e) then incr bad;
        'h'
    | Index.Hit _, None ->
        incr bad;
        'h'
    | Index.Near _, x ->
        if Option.is_some x then incr bad;
        'n'
    | Index.Miss, x ->
        if Option.is_some x then incr bad;
        'm'
  in
  rc.durs.(rc.n) <- d;
  Bytes.set rc.kinds rc.n (if s.Daemon.s_enqueued then Char.uppercase_ascii kind else kind);
  rc.n <- rc.n + 1

(* A closed-loop wave: one caller sends [n] Zipf-distributed lookups over
   [universe] (rank 0 hottest) back to back, in timed windows of
   [window] lookups. *)
let lookup_wave rc err daemon universe ~seed ~window n =
  let lib = Daemon.library daemon in
  let probes = Array.map probe universe in
  let expected = Array.map (fun (desc, op) -> Library.lookup lib desc op) universe in
  let traffic = Traffic.create ~rng:(Rng.create seed) ~n:(Array.length universe) ~s:1.1 in
  let bad = ref 0 in
  let left = ref n in
  while !left > 0 do
    let m = min window !left in
    let first = rc.n in
    let t0 = Timer.now_ns () in
    for _ = 1 to m do
      let r = Traffic.next traffic in
      lookup rc bad daemon probes.(r) expected.(r)
    done;
    rc.spans <- (first, m, Timer.now_ns () - t0) :: rc.spans;
    left := !left - m
  done;
  if !bad > 0 then Printf.ksprintf err "%d lookups disagree with the published library" !bad

let sorted a =
  Array.sort Int.compare a;
  a

(* Window statistics and per-outcome medians, plus two layer probes run
   after the traffic: direct [Index.query] calls on the final snapshot and
   reloads of the store from disk. *)
let summarize rc daemon universe ~store_dir =
  let pct a p = float_of_int (Timer.percentile a p) in
  let windows =
    List.rev_map
      (fun (first, m, wall) ->
        let w = sorted (Array.sub rc.durs first m) in
        { p50_ns = pct w 50.0; p99_ns = pct w 99.0; per_s = float_of_int m /. seconds wall })
      rc.spans
  in
  let where kinds =
    let keep i = String.contains kinds (Bytes.get rc.kinds i) in
    let a = Array.make rc.n 0 and k = ref 0 in
    for i = 0 to rc.n - 1 do
      if keep i then begin
        a.(!k) <- rc.durs.(i);
        incr k
      end
    done;
    sorted (Array.sub a 0 !k)
  in
  let snap = Index.current (Daemon.index daemon) in
  let probes = Array.map probe universe in
  let q =
    Array.init (min rc.n 20_000) (fun i ->
        let p = probes.(i mod Array.length probes) in
        let a = Timer.now_ns () in
        ignore (Sys.opaque_identity (Index.query snap p));
        Timer.now_ns () - a)
  in
  {
    count = rc.n;
    hits = Array.length (where "hH");
    windows;
    hit_p50_ns = pct (where "h") 50.0;
    miss_p50_ns = pct (where "nm") 50.0;
    enqueue_p50_us = pct (where "NM") 50.0 /. 1e3;
    index_query_p50_ns = pct (sorted q) 50.0;
    store_load_s = fst (median_s 3 (fun () -> Store.load_latest (Store.open_ ~dir:store_dir)));
  }

(* The serving half of the tuning workloads: publish what was tuned, start
   a daemon on it, and serve a Zipf stream over the tuned ops (hottest
   first) plus a few never-tuned [cold] ones, which near-hit or miss and
   queue work that is never drained. *)
let serve_tail ctx err ~dir ~library ~hot ~cold =
  let store_dir = fresh_dir (Filename.concat dir "store") in
  ignore (Store.publish (Store.open_ ~dir:store_dir) library);
  let universe = Array.of_list (hot @ cold) in
  let config =
    {
      (Daemon.default_config ~dir:store_dir
         ~resolve:(Daemon.universe_resolve (List.map snd (hot @ cold)))
         (fst universe.(0)))
      with
      Daemon.seed = search_seed;
    }
  in
  let daemon = Daemon.start config in
  (* A serving process does not carry the tuner's heap: start the traffic
     from a compacted one. *)
  Gc.compact ();
  let n, window = if ctx.smoke then (2_000, 500) else (200_000, 20_000) in
  let rc = recorder n in
  lookup_wave rc err daemon universe ~seed:(sub_seed ctx.seed 7) ~window n;
  summarize rc daemon universe ~store_dir

(* ---------- tuning workloads ---------- *)

(* The run's final search snapshot, loaded back and saved again: the cost
   of one checkpoint write. The copy must load back to the same
   snapshot. *)
let checkpoint_probe err path =
  match Checkpoint.load ~path with
  | Error e ->
      Printf.ksprintf err "checkpoint: %s" e;
      (0.0, 0)
  | Ok (label, snap) ->
      let copy = path ^ ".copy" in
      let s, () = median_s 5 (fun () -> Checkpoint.save ~path:copy ~label snap) in
      let render s = Json.to_string (Checkpoint.snapshot_to_json ~label s) in
      (match Checkpoint.load ~path:copy with
      | Ok (l, s') when l = label && render s' = render snap -> ()
      | _ -> Printf.ksprintf err "checkpoint %s does not round-trip" path);
      (s *. 1e3, file_size path)

let pipeline_pass ctx ~ops ~budget ~cold dir =
  let errors = ref [] in
  let err m = errors := m :: !errors in
  let setup_s, gens = time_setup (fun () -> generate_all ~seed:search_seed ops) in
  let space_vars, space_cons = space_size gens in
  let ck = Filename.concat dir "search.ckpt" in
  let art = Buffer.create 65536 in
  let lib = ref Library.empty in
  let runs =
    List.mapi
      (fun i (desc, op) ->
        let t, ns =
          Timer.time (fun () ->
              Pipeline.tune ~budget ~seed:(sub_seed search_seed i) ~checkpoint:ck desc op)
        in
        let result = t.Pipeline.outcome.Cga.result in
        (match (result.Env.best_latency, result.Env.best_assignment) with
        | Some l, Some a -> lib := Library.add !lib desc op ~latency_us:l a
        | _ -> ());
        Option.iter (check_program err desc op) (Pipeline.best_program t);
        add_trace art result.Env.trace;
        ({ desc; op; weight = 1; best_us = result.Env.best_latency }, seconds ns))
      ops
  in
  Buffer.add_string art (Library.to_string !lib);
  let checkpoint_ms, checkpoint_bytes = checkpoint_probe err ck in
  let lookups = serve_tail ctx err ~dir ~library:!lib ~hot:ops ~cold in
  {
    setup_s;
    generate_s = setup_s;
    space_vars;
    space_cons;
    calls_s = List.map snd runs;
    tuned = List.map fst runs;
    lookups;
    checkpoint_ms;
    checkpoint_bytes;
    digest = Digest.string (Buffer.contents art);
    errors = List.rev !errors;
  }

(* The network tuner checkpoints one composite file per round; its
   per-task search snapshots are what a checkpoint write serializes. *)
let nets_checkpoint_probe err path =
  let fail e =
    Printf.ksprintf err "nets checkpoint: %s" e;
    []
  in
  let snapshots =
    match Json.parse (String.trim (In_channel.with_open_bin path In_channel.input_all)) with
    | exception Sys_error e -> fail e
    | Error e -> fail e
    | Ok v -> (
        match Json.member "tasks" v with
        | Some (Json.List tasks) ->
            List.concat_map
              (fun t ->
                match Json.member "snapshot" t with
                | None | Some Json.Null -> []
                | Some s -> (
                    match Checkpoint.snapshot_of_json s with Ok x -> [ x ] | Error e -> fail e))
              tasks
        | _ -> fail "no tasks")
  in
  let copy = path ^ ".copy" in
  let s, () =
    median_s 5 (fun () ->
        List.iter (fun (label, snap) -> Checkpoint.save ~path:copy ~label snap) snapshots)
  in
  (s *. 1e3, file_size path)

let nets_pass ctx ~net ~budget ~slice ~cold dir =
  let errors = ref [] in
  let err m = errors := m :: !errors in
  let desc = D.v100 in
  let tasks = Tasks.extract net in
  let ops = List.map (fun t -> (desc, t.Tasks.t_op)) tasks in
  let setup_s, gens = time_setup (fun () -> generate_all ~seed:search_seed ops) in
  let space_vars, space_cons = space_size gens in
  let ck = Filename.concat dir "nets.ckpt" in
  let r, ns =
    Timer.time (fun () -> Tuner.tune ~budget ~seed:search_seed ~slice ~checkpoint:ck desc net)
  in
  let lib = r.Tuner.r_library in
  check_library err lib ops;
  let art = Buffer.create 65536 in
  Buffer.add_string art (Library.to_string lib);
  List.iter
    (fun (t, a) -> Buffer.add_string art (Printf.sprintf "round %d %d\n" t a))
    r.Tuner.r_allocations;
  let tuned =
    List.map
      (fun (tr : Tuner.task_report) ->
        add_trace art tr.Tuner.tr_trace;
        {
          desc;
          op = tr.Tuner.tr_task.Tasks.t_op;
          weight = tr.Tuner.tr_task.Tasks.t_weight;
          best_us = tr.Tuner.tr_best;
        })
      r.Tuner.r_reports
  in
  let checkpoint_ms, checkpoint_bytes = nets_checkpoint_probe err ck in
  (* Heaviest tasks are the hottest keys. *)
  let hot =
    List.map
      (fun t -> (desc, t.Tasks.t_op))
      (List.stable_sort (fun a b -> compare b.Tasks.t_weight a.Tasks.t_weight) tasks)
  in
  let lookups = serve_tail ctx err ~dir ~library:lib ~hot ~cold in
  {
    setup_s;
    generate_s = setup_s;
    space_vars;
    space_cons;
    calls_s = [ seconds ns ];
    tuned;
    lookups;
    checkpoint_ms;
    checkpoint_bytes;
    digest = Digest.string (Buffer.contents art);
    errors = List.rev !errors;
  }

(* ---------- the serving workload ---------- *)

(* The pre-published library: 256 f16 GEMMs whose M and N are multiples
   of 32, each with one valid schedule drawn by the CSP solver (not
   tuned). *)
let grid_ops smoke =
  let dims = if smoke then [ 32; 64 ] else [ 32; 64; 96; 128; 160; 192; 224; 256 ] in
  let ks = if smoke then [ 32; 64 ] else [ 16; 32; 48; 64 ] in
  List.concat_map
    (fun m -> List.concat_map (fun n -> List.map (fun k -> Op.gemm ~m ~n ~k ()) ks) dims)
    dims

(* Shapes that go live during the run: small GEMMs whose extents are odd
   multiples of 16, so none is in the grid. *)
let arriving_ops count =
  let dims = [| 16; 48; 80; 112 |] in
  let all =
    Array.init 64 (fun i -> Op.gemm ~m:dims.(i / 16) ~n:dims.(i / 4 mod 4) ~k:dims.(i mod 4) ())
  in
  let perm = Rng.permutation (Rng.create search_seed) 64 in
  List.init count (fun i -> all.(perm.(i)))

let prepare_store ctx err desc ops dir =
  let add (lib, i) op =
    let gen = Generator.generate ~seed:ctx.seed desc op in
    match Solver.solve (Rng.create (sub_seed ctx.seed (100 + i))) gen.Generator.problem with
    | None ->
        Printf.ksprintf err "prepare: no schedule for %s" (Op.to_string op);
        (lib, i + 1)
    | Some a -> (
        match fst (Pipeline.make_measure desc gen) a with
        | Some l -> (Library.add lib desc op ~latency_us:l a, i + 1)
        | None ->
            Printf.ksprintf err "prepare: invalid schedule for %s" (Op.to_string op);
            (lib, i + 1))
  in
  ignore (Store.publish (Store.open_ ~dir) (fst (List.fold_left add (Library.empty, 0) ops)))

let serve_pass ctx ~grid ~prepared ~waves ~per_wave ~window ~arrivals ~budget dir =
  let errors = ref [] in
  let err m = errors := m :: !errors in
  let desc = D.v100 in
  let store_dir = Filename.concat dir "store" in
  copy_files ~src:prepared ~dst:store_dir;
  let arriving = List.map (fun op -> (desc, op)) (arriving_ops (waves * arrivals)) in
  let config =
    {
      (Daemon.default_config ~dir:store_dir
         ~resolve:(Daemon.universe_resolve (grid @ List.map snd arriving))
         desc)
      with
      Daemon.budget;
      seed = search_seed;
    }
  in
  let setup_s, daemon = time_setup (fun () -> Daemon.start config) in
  let generate_s, gens = time_setup (fun () -> generate_all ~seed:search_seed arriving) in
  let space_vars, space_cons = space_size gens in
  let order =
    let a = Array.of_list (List.map (fun op -> (desc, op)) grid) in
    Rng.shuffle (Rng.create (sub_seed ctx.seed 12)) a;
    ref (Array.to_list a)
  in
  let rc = recorder (waves * (per_wave + arrivals)) in
  let bad = ref 0 and calls = ref [] and sync_s = ref [] and queue_bytes = ref 0 in
  for w = 0 to waves - 1 do
    (* A new model goes live: its shapes are requested once, in a fixed
       order, then take the hottest ranks. *)
    let fresh = List.filteri (fun i _ -> i / arrivals = w) arriving in
    List.iter (fun x -> lookup rc bad daemon (probe x) None) fresh;
    order := fresh @ !order;
    lookup_wave rc err daemon (Array.of_list !order) ~seed:(sub_seed ctx.seed (1000 + w)) ~window
      per_wave;
    let (), ns = Timer.time (fun () -> Daemon.sync daemon) in
    sync_s := seconds ns :: !sync_s;
    queue_bytes := max !queue_bytes (file_size (Filename.concat store_dir "queue.json"));
    let _, ns = Timer.time (fun () -> Daemon.drain daemon) in
    calls := seconds ns :: !calls
  done;
  if !bad > 0 then Printf.ksprintf err "%d arriving shapes were already served" !bad;
  let lib = Daemon.library daemon in
  check_library err lib arriving;
  let tuned =
    List.map
      (fun (desc, op) ->
        let best_us = Option.map (fun e -> e.Library.latency_us) (Library.lookup lib desc op) in
        { desc; op; weight = 1; best_us })
      arriving
  in
  {
    setup_s;
    generate_s;
    space_vars;
    space_cons;
    calls_s = List.rev !calls;
    tuned;
    lookups = summarize rc daemon (Array.of_list !order) ~store_dir;
    checkpoint_ms = Timer.median !sync_s *. 1e3;
    checkpoint_bytes = !queue_bytes;
    digest = Digest.string (Library.to_string lib ^ Bytes.sub_string rc.kinds 0 rc.n);
    errors = List.rev !errors;
  }

(* ---------- workloads ---------- *)

type workload = {
  name : string;
  prepare : ctx -> string -> string -> outcome;
      (** untimed preparation in a scratch directory; returns the pass,
          which runs in a fresh directory of its own *)
}

let table9 name = match Suites.find_op name with Some op -> op | None -> invalid_arg name
let i8_gemm m = Op.gemm ~dt:Op.I8 ~m ~n:m ~k:m ()

let workloads =
  [
    {
      name = "tune-v100";
      prepare =
        (fun ctx _ ->
          let ops =
            if ctx.smoke then [ (D.v100, table9 "G3") ]
            else List.map (fun n -> (D.v100, table9 n)) [ "G1"; "G3"; "C1" ]
          in
          pipeline_pass ctx ~ops
            ~budget:(if ctx.smoke then 16 else 128)
            ~cold:
              [ (D.v100, Op.gemm ~m:1000 ~n:1000 ~k:1000 ()); (D.v100, Op.gemm ~m:48 ~n:48 ~k:48 ()) ]);
    };
    {
      name = "tune-small-long";
      prepare =
        (fun ctx _ ->
          pipeline_pass ctx
            ~ops:[ (D.dlboost, i8_gemm 512); (D.vta, i8_gemm 256) ]
            ~budget:(if ctx.smoke then 64 else 1000)
            ~cold:[ (D.dlboost, i8_gemm 500); (D.vta, i8_gemm 48) ]);
    };
    {
      name = "nets-bert";
      prepare =
        (fun ctx _ ->
          nets_pass ctx
            ~net:(if ctx.smoke then Models.tiny else Models.bert)
            ~budget:(if ctx.smoke then 32 else 48)
            ~slice:(if ctx.smoke then 16 else 8)
            ~cold:
              [ (D.v100, Op.gemm ~m:2000 ~n:768 ~k:768 ()); (D.v100, Op.gemm ~m:48 ~n:48 ~k:48 ()) ]);
    };
    {
      name = "serve-zipf";
      prepare =
        (fun ctx root ->
          let grid = grid_ops ctx.smoke in
          let prepared = fresh_dir (Filename.concat root "prepared") in
          let prep_errors = ref [] in
          prepare_store ctx (fun m -> prep_errors := m :: !prep_errors) D.v100 grid prepared;
          fun dir ->
            let o =
              serve_pass ctx ~grid ~prepared
                ~waves:(if ctx.smoke then 2 else 8)
                ~per_wave:(if ctx.smoke then 2_000 else 125_000)
                ~window:(if ctx.smoke then 500 else 25_000)
                ~arrivals:2
                ~budget:(if ctx.smoke then 8 else 16)
                dir
            in
            { o with errors = List.rev !prep_errors @ o.errors });
    };
  ]

(* ---------- metrics ---------- *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let sum = List.fold_left ( +. ) 0.0
let least = List.fold_left Float.min infinity
let most = List.fold_left Float.max neg_infinity

(* The host's speed drifts by up to 1.7x for seconds at a time
   (perfbench/README.md), so every timing is the best repetition: each
   tuning call's fastest run, the fastest set-up, and the best window of
   lookups. Deterministic results come from the first pass; every pass
   produces the same ones. *)
let best_tune_s passes =
  let calls = List.map (fun o -> o.calls_s) passes in
  sum (List.mapi (fun i _ -> least (List.map (fun c -> List.nth c i) calls)) (List.hd calls))

let quality tuned =
  let found = List.filter_map (fun t -> Option.map (fun l -> (t, l)) t.best_us) tuned in
  let geomean =
    exp
      (sum (List.map (fun (t, l) -> log (Perf_model.achieved_tflops t.op l)) found)
      /. float_of_int (max 1 (List.length found)))
  in
  let work = sum (List.map (fun (t, _) -> float_of_int t.weight *. t.op.Op.flops) found) in
  let time = sum (List.map (fun (t, l) -> float_of_int t.weight *. l) found) in
  (geomean, if time > 0.0 then work /. time /. 1e6 else 0.0)

let end_to_end ~peak_rss passes =
  let first = List.hd passes in
  let windows = List.concat_map (fun o -> o.lookups.windows) passes in
  let geomean, net = quality first.tuned in
  [
    ("setup_s", least (List.map (fun o -> o.setup_s) passes));
    ("tune_s", best_tune_s passes);
    ("best_tflops_geomean", geomean);
    ("net_tflops", net);
    ("lookup_p50_ns", least (List.map (fun w -> w.p50_ns) windows));
    ("lookup_p99_ns", least (List.map (fun w -> w.p99_ns) windows));
    ("lookups_per_s", most (List.map (fun w -> w.per_s) windows));
    ("hit_ratio", ratio first.lookups.hits first.lookups.count);
    ("peak_rss_mb", peak_rss);
  ]

(* The CGA phase spans; everything else inside the tuning calls — space
   generation aside — is checkpoint and store I/O plus loop glue. *)
let cga_phases = [ "cga.seed_population"; "cga.evolve"; "cga.rank"; "cga.measure"; "cga.model" ]

let per_layer ~overhead traced prof =
  let c = Profile.counter prof in
  let sp = Profile.span prof in
  let incl name = seconds (sp name).Profile.incl_ns in
  let self name = seconds (sp name).Profile.self_ns in
  let nodes = c "solver.nodes" in
  let lk = traced.lookups in
  [
    ("generator.generate_s", traced.generate_s);
    ("space.variables", float_of_int traced.space_vars);
    ("space.constraints", float_of_int traced.space_cons);
    ("solver.solve_calls", float_of_int (c "solver.solve_calls"));
    ("solver.nodes", float_of_int nodes);
    ("solver.fails", float_of_int (c "solver.fails"));
    ("solver.fail_ratio", ratio (c "solver.fails") nodes);
    ( "solver.compile_cache_hit_ratio",
      ratio (c "solver.compile_cache_hits") (c "solver.compile_cache_hits" + c "solver.compiles") );
    ( "solver.nodes_per_s",
      let t = incl "cga.seed_population" +. incl "cga.evolve" in
      if t > 0.0 then float_of_int nodes /. t else 0.0 );
    ("cga.seed_population_s", self "cga.seed_population");
    ("cga.evolve_s", self "cga.evolve");
    ("cga.rank_s", self "cga.rank");
    ("cga.measure_s", self "cga.measure");
    ("cga.model_s", self "cga.model");
    ("cga.iterations", float_of_int (c "cga.iterations"));
    ("cga.offspring_accept_ratio", ratio (c "cga.offspring_accepted") (c "cga.offspring_attempted"));
    ("env.cache_hit_ratio", ratio (c "env.cache_hits") (c "env.evals"));
    ("tune.unspanned_s", sum traced.calls_s -. traced.generate_s -. sum (List.map incl cga_phases));
    ("checkpoint.save_ms", traced.checkpoint_ms);
    ("checkpoint.bytes", float_of_int traced.checkpoint_bytes);
    ("costmodel.fit_s", self "costmodel.fit");
    ("costmodel.fit_calls", float_of_int (c "costmodel.fit_calls"));
    ("costmodel.predict_rows", float_of_int (c "costmodel.predict_rows"));
    ("measure.runs", float_of_int (c "measure.runs"));
    ("measure.invalid", float_of_int (c "measure.invalid"));
    ("nets.rounds", float_of_int (c "nets.rounds"));
    ("nets.transfer_applied", float_of_int (c "nets.transfer_applied"));
    ("serve.lookup_hit_p50_ns", lk.hit_p50_ns);
    ("serve.lookup_miss_p50_ns", lk.miss_p50_ns);
    ("serve.enqueue_p50_us", lk.enqueue_p50_us);
    ("index.query_p50_ns", lk.index_query_p50_ns);
    ("store.load_s", lk.store_load_s);
    ("serve.publish_s", Timer.median (List.map seconds (sp "serve.publish").Profile.durs_ns));
    ("serve.publishes", float_of_int (c "serve.publishes"));
    ("serve.enqueued", float_of_int (c "serve.enqueued"));
    ("serve.deduped", float_of_int (c "serve.deduped"));
    ("serve.near_ratio", ratio (c "serve.degraded") (c "serve.lookups"));
    ("obs.overhead_ratio", overhead);
  ]

(* ---------- the run ---------- *)

let counter_delta before after name =
  let v l = Option.value ~default:0 (List.assoc_opt name l) in
  v after - v before

let metrics_json (catalogue : Catalogue.metric list) values =
  Json.Obj
    (List.map
       (fun (m : Catalogue.metric) ->
         ( m.Catalogue.name,
           Json.Obj
             [
               ("value", Json.Float (List.assoc m.Catalogue.name values));
               ("unit", Json.String m.Catalogue.unit);
             ] ))
       catalogue)

let print_metrics title (catalogue : Catalogue.metric list) values =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m : Catalogue.metric) ->
      Printf.printf "  %-14s %-32s %16.6g %s\n" m.Catalogue.layer m.Catalogue.name
        (List.assoc m.Catalogue.name values) m.Catalogue.unit)
    catalogue

let print_profile prof =
  Printf.printf "spans of the fastest traced pass (count, inclusive s, self s)\n";
  List.iter
    (fun (s : Profile.span) ->
      Printf.printf "  %-24s %8d %12.6f %12.6f\n" s.Profile.name s.Profile.count
        (seconds s.Profile.incl_ns) (seconds s.Profile.self_ns))
    (Profile.spans prof)

(* Every workload tunes on one domain (no [Heron_util.Pool]). At --jobs 2,
   tune-v100's tuning time spread over ten seeds was 12.8% of its median,
   against 7.2% at --jobs 1, in interleaved runs on a 2-core host: a
   parallel run needs both cores to be fast at once. *)
let jobs = 1

(* A run repeats its deterministic pass until [secs] seconds have passed,
   at least twice. With [trace], each untraced pass is followed by a
   traced one, and the per-layer metrics come from the traced pass with
   the shortest tuning time. *)
let run w ~seed ~seconds:secs ~trace ~smoke =
  let root = fresh_dir scratch_root in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let ctx = { seed; smoke } in
  let manifest = Obs.manifest ~tool:"heron_bench" ~seed ~jobs () in
  Printf.printf
    "workload %s: seed %d, seconds %d%s, jobs %d | host: nproc %d, recommended domains %d, \
     ocaml %s, git %s\n\
     %!"
    w.name seed secs (if smoke then " (smoke)" else "") jobs (nproc ())
    (Domain.recommended_domain_count ()) Sys.ocaml_version manifest.Obs.git_rev;
  let pass, prepare_ns = Timer.time (fun () -> w.prepare ctx root) in
  Printf.printf "prepare: %.3f s (untimed)\n%!" (seconds prepare_ns);
  let in_dir f =
    let dir = fresh_dir (Filename.concat root "pass") in
    let o = f dir in
    rm_rf dir;
    o
  in
  let attempted = ref 0 and failed = ref 0 in
  let untraced_pass () =
    let before = Obs.Counter.snapshot () in
    let o = in_dir pass in
    let delta = counter_delta before (Obs.Counter.snapshot ()) in
    attempted := !attempted + delta "measure.runs" + o.lookups.count + delta "serve.publishes";
    failed :=
      !failed + delta "measure.invalid" + delta "serve.publish_failures"
      + delta "serve.queue_sync_failures" + delta "serve.unresolved"
      + List.length (List.filter (fun t -> t.best_us = None) o.tuned);
    o
  in
  let traced_pass i =
    let journal = Filename.concat root (Printf.sprintf "trace-%d.jsonl" i) in
    let o = Obs.with_trace (Some journal) manifest (fun () -> in_dir pass) in
    let prof = Profile.read journal in
    Sys.remove journal;
    (o, prof)
  in
  let t0 = Timer.now_ns () in
  let untraced = ref [] and traced = ref [] in
  let reps () = List.length !untraced in
  (* Another repetition only when it should still end within [secs]. *)
  let room () =
    let elapsed = seconds (Timer.now_ns () - t0) in
    elapsed +. (elapsed /. float_of_int (reps ())) <= float_of_int secs
  in
  while reps () < (if smoke then 1 else 2) || ((not smoke) && room ()) do
    untraced := untraced_pass () :: !untraced;
    if trace then traced := traced_pass (reps ()) :: !traced
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  Printf.printf "repetitions: %d in %.3f s\n" (List.length untraced) (seconds (Timer.now_ns () - t0));
  List.iteri
    (fun i o ->
      Printf.printf "  pass %d: setup_s %.6g tune_s %.6g best window p50 %.0f ns\n" (i + 1)
        o.setup_s (sum o.calls_s)
        (least (List.map (fun w -> w.p50_ns) o.lookups.windows)))
    untraced;
  let e2e = end_to_end ~peak_rss:(peak_rss_mb ()) untraced in
  print_metrics "end-to-end (best repetition)" Catalogue.end_to_end e2e;
  let first = List.hd untraced in
  let same o = String.equal o.digest first.digest in
  let errors =
    List.sort_uniq compare (List.concat_map (fun o -> o.errors) (untraced @ List.map fst traced))
    @ (if List.for_all same untraced then []
       else [ "repetitions produced different libraries, traces or lookup outcomes" ])
    @ (if List.for_all (fun (o, _) -> same o) traced then []
       else [ "traced and untraced passes produced different libraries, traces or lookup outcomes" ])
    @ List.filter_map (function _, Error e -> Some ("journal: " ^ e) | _, Ok _ -> None) traced
    @
    if List.exists (fun t -> t.best_us = None) first.tuned then
      [ "a tuning call found no valid program" ]
    else []
  in
  let metrics =
    match List.filter_map (function o, Ok p -> Some (o, p) | _, Error _ -> None) traced with
    | [] -> metrics_json Catalogue.end_to_end e2e
    | profiled ->
        let fastest =
          List.fold_left
            (fun (o, p) (o', p') -> if sum o'.calls_s < sum o.calls_s then (o', p') else (o, p))
            (List.hd profiled) profiled
        in
        let overhead = (best_tune_s (List.map fst traced) /. best_tune_s untraced) -. 1.0 in
        let layers = per_layer ~overhead (fst fastest) (snd fastest) in
        print_profile (snd fastest);
        print_metrics "per layer (fastest traced pass)" Catalogue.per_layer layers;
        metrics_json Catalogue.per_layer layers
  in
  Printf.printf "ops: attempted %d, failed %d\n" !attempted !failed;
  List.iter (Printf.printf "CHECK FAILED: %s\n") errors;
  let correct = errors = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", metrics);
          ]));
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and secs = ref 24 and trace = ref 0 and smoke = ref false in
  let names = String.concat "|" (List.map (fun w -> w.name) workloads) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, Printf.sprintf "NAME  %s" names);
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_int secs, "S  measure for about S seconds (default 24)");
      ("--trace", Arg.Set_int trace, "0|1  add traced passes and report per-layer metrics");
      ("--smoke", Arg.Set smoke, " one pass of tiny budgets, for tests");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "heron_bench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      Printf.eprintf "unknown workload %S (%s)\n" !workload names;
      exit 2
  | Some w ->
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "--trace takes 0 or 1";
        exit 2
      end;
      exit (run w ~seed:!seed ~seconds:(max 1 !secs) ~trace:(!trace = 1) ~smoke:!smoke)
