(* Exhaustive crash-point verification of the storage protocols.

   Each scenario below is a write-path protocol (store publish, queue
   checkpoint, CGA checkpoint replace and append, nets composite
   checkpoint, the serve daemon end to end). The explorer runs it once under a site-recording
   {!Heron_util.Io_faults} injector to enumerate its N I/O sites — every
   executed write/fsync/rename boundary — then replays it N times with a
   simulated process death at exactly site i, checks the protocol's
   mid-crash invariants (never torn, never version-regressed), runs the
   scenario's recovery with faults off, and requires the recovered final
   state to equal the uninterrupted run's. Not a sampled campaign: every
   enumerated crash point is visited. *)

module Op = Heron_tensor.Op
module Assignment = Heron_csp.Assignment
module Library = Heron.Library
module Json = Heron_obs.Json
module Store = Heron_serving.Store
module Tuning_queue = Heron_serving.Tuning_queue
module Daemon = Heron_serving.Daemon
module Cga = Heron_search.Cga
module Checkpoint = Heron_search.Checkpoint
module Env = Heron_search.Env
module Tuner = Heron_nets.Tuner
module Models = Heron_nets.Models
module Io_faults = Heron_util.Io_faults
module Rng = Heron_util.Rng

let seed_pair = QCheck.pair QCheck.small_int QCheck.small_int
let desc = Heron_dla.Descriptor.v100
let dname = desc.Heron_dla.Descriptor.dname
let dir_counter = ref 0

let fresh_name prefix =
  incr dir_counter;
  Printf.sprintf "_cp_%s_%d" prefix !dir_counter

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---------- the explorer ---------- *)

type 'ctx scenario = {
  setup : unit -> 'ctx;
  run : 'ctx -> unit;  (* the protocol under test; faults land here *)
  mid_check : 'ctx -> bool;  (* invariants at the crash point, faults off *)
  recover : 'ctx -> unit;  (* application-level redo, faults off *)
  final : 'ctx -> string;  (* canonical end state *)
  teardown : 'ctx -> unit;
}

let with_injector spec f =
  Io_faults.set_default (Some (Io_faults.create spec));
  Fun.protect ~finally:(fun () -> Io_faults.set_default None) f

(* Record once (N sites, expected final state), then crash at every i < N.
   Each replay must actually die at its site — the record run proved the
   site is reached — and recovery must land on the expected state. *)
let explore s =
  let ctx = s.setup () in
  let inj = Io_faults.create { Io_faults.zero with record = true } in
  let n =
    Io_faults.set_default (Some inj);
    Fun.protect
      ~finally:(fun () -> Io_faults.set_default None)
      (fun () ->
        s.run ctx;
        Io_faults.sites_seen inj)
  in
  let expected = s.final ctx in
  s.teardown ctx;
  n > 0
  &&
  let rec sweep i =
    if i >= n then true
    else
      let ctx = s.setup () in
      let ok =
        Fun.protect ~finally:(fun () -> s.teardown ctx) @@ fun () ->
        let crashed =
          with_injector
            { Io_faults.zero with crash_at = Some i }
            (fun () ->
              match s.run ctx with
              | () -> false
              | exception Io_faults.Crashed _ -> true)
        in
        crashed && s.mid_check ctx
        &&
        (s.recover ctx;
         s.final ctx = expected)
      in
      ok && sweep (i + 1)
  in
  sweep 0

(* ---------- shared generators ---------- *)

let dims = [| 8; 16; 24; 32; 48; 64 |]

let random_op rng =
  Op.gemm ~m:(Rng.choice rng dims) ~n:(Rng.choice rng dims) ~k:(Rng.choice rng dims) ()

let random_library rng n =
  let rec go lib i =
    if i = 0 then lib
    else
      let op = random_op rng in
      let latency_us = float_of_int (1 + Rng.int rng 1000) /. 7. in
      let a = Assignment.of_list [ ("tile", 1 + Rng.int rng 16) ] in
      go (Library.add lib desc op ~latency_us a) (i - 1)
  in
  go Library.empty n

(* ---------- (a) store publish ---------- *)

type store_ctx = { sc_dir : string; sc_libs : Library.t list }

(* The store's crash contract: at any boundary the readable state is a
   prefix of the publish history — some already-published library (or the
   empty store), never a torn or half-written one — and redoing the
   publishes that had not completed converges on the uninterrupted
   content. *)
let store_scenario libs =
  let loaded_content dir =
    let store = Store.open_ ~dir in
    match Store.load_latest store with
    | None -> None
    | Some l -> Some (l.Store.recovered, l.Store.warnings, Library.to_string l.Store.library)
  in
  {
    setup = (fun () -> { sc_dir = fresh_name "store"; sc_libs = libs });
    run =
      (fun c ->
        let store = Store.open_ ~dir:c.sc_dir in
        List.iter (fun lib -> ignore (Store.publish store lib)) c.sc_libs);
    mid_check =
      (fun c ->
        match loaded_content c.sc_dir with
        | None -> true (* crash before the first publish completed *)
        | Some (_, warnings, content) ->
            warnings = []
            && List.exists (fun lib -> Library.to_string lib = content) c.sc_libs);
    recover =
      (fun c ->
        (* The caller's redo: republish everything not yet *completely*
           on disk. The loaded state names the last publish whose content
           landed — but a [recovered] load means its manifest never did
           (the death fell between the snapshot/sidecar and the manifest),
           so that publish is re-run too: re-publishing the same content
           is idempotent and completes the protocol. *)
        let store = Store.open_ ~dir:c.sc_dir in
        let done_ =
          match loaded_content c.sc_dir with
          | None -> 0
          | Some (recovered, _, content) ->
              let rec last_match i best = function
                | [] -> best
                | lib :: rest ->
                    last_match (i + 1)
                      (if Library.to_string lib = content then i + 1 else best)
                      rest
              in
              let matched = last_match 0 0 c.sc_libs in
              if recovered then matched - 1 else matched
        in
        List.iteri
          (fun i lib -> if i >= done_ then ignore (Store.publish store lib))
          c.sc_libs);
    final =
      (fun c ->
        match loaded_content c.sc_dir with
        | None -> "<empty>"
        | Some (recovered, warnings, content) ->
            Printf.sprintf "recovered=%b warnings=%d\n%s" recovered (List.length warnings)
              content);
    teardown = (fun c -> rm_rf c.sc_dir);
  }

let store_publish_sweep ~count =
  QCheck.Test.make ~name:"crash: store publish survives death at every I/O site" ~count
    seed_pair (fun (seed, k) ->
      let rng = Rng.create ((seed * 9973) + k) in
      let libs = List.init (1 + (k mod 3)) (fun _ -> random_library rng (1 + Rng.int rng 4)) in
      explore (store_scenario libs))

(* ---------- (b) tuning-queue checkpoint ---------- *)

let families = [| "gemm/f16"; "gemm/f32"; "c2d/f16" |]

let random_task rng =
  {
    Tuning_queue.t_dla = dname;
    t_op_key =
      Printf.sprintf "%s/i:%d,j:%d" (Rng.choice rng families) (Rng.choice rng dims)
        (Rng.choice rng dims);
  }

type queue_ctx = { qc_path : string; qc_stream : Tuning_queue.task list }

let queue_keys q = List.map Tuning_queue.task_key (Tuning_queue.tasks q)

(* The daemon's accept path: enqueue, checkpoint, repeat. A crash leaves
   the checkpoint at some prefix of the accept history; replaying the whole
   miss stream over it is idempotent (dedup), so redo converges. *)
let queue_scenario stream =
  let full_keys =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, seen) t ->
              let key = Tuning_queue.task_key t in
              if List.mem key seen then (acc, seen) else (key :: acc, key :: seen))
            ([], []) stream))
  in
  let prefix_of_full keys =
    let rec go = function
      | [], _ -> true
      | k :: ks, f :: fs -> k = f && go (ks, fs)
      | _ :: _, [] -> false
    in
    go (keys, full_keys)
  in
  {
    setup = (fun () -> { qc_path = fresh_name "queue" ^ ".json"; qc_stream = stream });
    run =
      (fun c ->
        let q = Tuning_queue.create () in
        List.iter
          (fun t ->
            if Tuning_queue.enqueue q t then Tuning_queue.save q ~path:c.qc_path)
          c.qc_stream);
    mid_check =
      (fun c ->
        (not (Sys.file_exists c.qc_path))
        ||
        match Tuning_queue.load ~path:c.qc_path with
        | Error _ -> false (* a torn checkpoint must be impossible *)
        | Ok q -> prefix_of_full (queue_keys q));
    recover =
      (fun c ->
        let q =
          if Sys.file_exists c.qc_path then
            match Tuning_queue.load ~path:c.qc_path with
            | Ok q -> q
            | Error _ -> Tuning_queue.create ()
          else Tuning_queue.create ()
        in
        List.iter (fun t -> ignore (Tuning_queue.enqueue q t)) c.qc_stream;
        Tuning_queue.save q ~path:c.qc_path);
    final =
      (fun c ->
        match Tuning_queue.load ~path:c.qc_path with
        | Ok q -> String.concat "|" (queue_keys q)
        | Error e -> "<error: " ^ e ^ ">");
    teardown = (fun c -> rm_rf c.qc_path);
  }

let queue_checkpoint_sweep ~count =
  QCheck.Test.make ~name:"crash: queue-checkpoint redo is idempotent at every I/O site" ~count
    seed_pair (fun (seed, k) ->
      let rng = Rng.create ((seed * 7433) + k) in
      let stream = List.init (2 + Rng.int rng 5) (fun _ -> random_task rng) in
      explore (queue_scenario stream))

(* ---------- (c) CGA checkpoint save ---------- *)

let synthetic_snapshot rng =
  {
    Cga.s_iter = 1 + Rng.int rng 8;
    s_dry = Rng.int rng 3;
    s_stopped = false;
    s_rng_hex = Rng.state_hex (Rng.create (Rng.int rng 10_000));
    s_recorder =
      {
        Env.Recorder.x_steps = Rng.int rng 50;
        x_evals = Rng.int rng 50;
        x_invalid = Rng.int rng 5;
        x_best = Some (float_of_int (1 + Rng.int rng 100) /. 3.);
        x_best_a = Some (Assignment.of_list [ ("tile", 1 + Rng.int rng 8) ]);
        x_trace = [];
        x_cache = [];
        x_quarantined = [];
        x_degraded = [];
      };
    s_survivors = [ (Assignment.of_list [ ("tile", 1 + Rng.int rng 8) ], 0.5) ];
    s_model = [ ([| Rng.int rng 4; Rng.int rng 4 |], float_of_int (Rng.int rng 9) /. 2.) ];
  }

type ckpt_ctx = { cc_path : string; cc_writer : Checkpoint.writer }

(* Old-or-new: a checkpoint overwrite killed at any boundary leaves a
   loadable checkpoint equal to exactly one of the two versions. Both
   versions, and the redo, go through one writer, as a tuning run's
   checkpoints do. The snapshots are unrelated, so every write replaces
   the log. *)
let checkpoint_scenario ~label ~old_snap ~new_snap =
  let old_ckpt = (label, old_snap) and new_ckpt = (label, new_snap) in
  let render (label, s) = Json.to_string (Checkpoint.snapshot_to_json ~label s) in
  {
    setup =
      (fun () ->
        let path = fresh_name "ckpt" ^ ".json" in
        let c = { cc_path = path; cc_writer = Checkpoint.writer ~path ~label } in
        Checkpoint.write c.cc_writer old_snap;
        c);
    run = (fun c -> Checkpoint.write c.cc_writer new_snap);
    mid_check =
      (fun c ->
        match Checkpoint.load ~path:c.cc_path with
        | Error _ -> false
        | Ok got ->
            let r = render got in
            r = render old_ckpt || r = render new_ckpt);
    recover = (fun c -> Checkpoint.write c.cc_writer new_snap);
    final =
      (fun c ->
        match Checkpoint.load ~path:c.cc_path with
        | Ok got -> render got
        | Error e -> "<error: " ^ e ^ ">");
    teardown = (fun c -> rm_rf c.cc_path);
  }

let search_checkpoint_sweep ~count =
  QCheck.Test.make ~name:"crash: CGA checkpoint save leaves old or new at every I/O site"
    ~count seed_pair (fun (seed, k) ->
      let rng = Rng.create ((seed * 6121) + k) in
      let old_snap = synthetic_snapshot rng in
      let new_snap = synthetic_snapshot rng in
      explore (checkpoint_scenario ~label:"run" ~old_snap ~new_snap))

(* The same for an append: two consecutive snapshots of one small real
   run, the second appended to a log that holds the first. A death leaves
   a log that loads to one of the two. Recovery is a resume: a writer that
   continues the file from the snapshot it holds, fed the resumed run's
   snapshots up to the second one, must end on the uninterrupted log's
   bytes. *)
let run_small ?resume ~on_snapshot seed =
  let env =
    {
      Env.problem = Search_props.toy_problem ();
      measure = Search_props.hash_measure;
      rng = Rng.create seed;
    }
  in
  ignore (Cga.run ~params:Search_props.small_params ?resume ~on_snapshot env ~budget:12)

let append_scenario ~seed ~label ~old_snap ~new_snap =
  let render (label, s) = Json.to_string (Checkpoint.snapshot_to_json ~label s) in
  let upto = new_snap.Cga.s_iter in
  {
    setup =
      (fun () ->
        let path = fresh_name "ckpt_log" ^ ".log" in
        let c = { cc_path = path; cc_writer = Checkpoint.writer ~path ~label } in
        Checkpoint.write c.cc_writer old_snap;
        c);
    run = (fun c -> Checkpoint.write c.cc_writer new_snap);
    mid_check =
      (fun c ->
        match Checkpoint.load ~path:c.cc_path with
        | Error _ -> false
        | Ok got ->
            let r = render got in
            r = render (label, old_snap) || r = render (label, new_snap));
    recover =
      (fun c ->
        match Checkpoint.read ~path:c.cc_path with
        | Error e -> failwith e
        | Ok log ->
            let w = Checkpoint.reopen ~path:c.cc_path log in
            run_small ~resume:log.Checkpoint.snapshot seed ~on_snapshot:(fun s ->
                if s.Cga.s_iter <= upto then Checkpoint.write w s));
    final = (fun c -> In_channel.with_open_bin c.cc_path In_channel.input_all);
    teardown = (fun c -> rm_rf c.cc_path);
  }

let search_append_sweep ~count =
  QCheck.Test.make
    ~name:"crash: CGA checkpoint append leaves old or new and continues in place at every I/O site"
    ~count seed_pair (fun (seed, k) ->
      let snapshots = ref [] in
      run_small seed ~on_snapshot:(fun s -> snapshots := s :: !snapshots);
      let snapshots = Array.of_list (List.rev !snapshots) in
      let n = Array.length snapshots in
      n < 2
      ||
      let i = k mod (n - 1) in
      explore
        (append_scenario ~seed ~label:"run" ~old_snap:snapshots.(i) ~new_snap:snapshots.(i + 1)))

(* ---------- (d) nets composite checkpoint ---------- *)

type nets_ctx = { nc_path : string; nc_seed : int; mutable nc_result : Tuner.result option }

(* The whole-network tuner checkpoints after every scheduler round; a
   death at any boundary of any of those writes must leave a resumable
   checkpoint whose continuation is byte-identical to the uninterrupted
   run. *)
let nets_scenario seed =
  let budget = 24 and slice = 8 in
  let tune ?resume c =
    c.nc_result <-
      Some
        (Tuner.tune ~budget ~seed:c.nc_seed ~slice ~transfer:false ~checkpoint:c.nc_path
           ?resume desc Models.tiny)
  in
  {
    setup = (fun () -> { nc_path = fresh_name "nets" ^ ".json"; nc_seed = seed; nc_result = None });
    run = (fun c -> tune c);
    mid_check =
      (fun c ->
        (* Old-or-new: whatever checkpoint the death left (if any) is a
           complete JSON document, never a torn one. *)
        (not (Sys.file_exists c.nc_path))
        ||
        match In_channel.with_open_bin c.nc_path In_channel.input_all with
        | exception Sys_error _ -> false
        | body -> Result.is_ok (Json.parse (String.trim body)));
    recover =
      (fun c ->
        if Sys.file_exists c.nc_path then tune ~resume:c.nc_path c else tune c);
    final =
      (fun c ->
        match c.nc_result with
        | None -> "<no result>"
        | Some r ->
            (* [r_measurements] counts this process's live measure calls,
               so a resumed run legitimately reports fewer; the tuned
               artifacts are what must be byte-identical. *)
            Printf.sprintf "latency=%s\n%s"
              (match r.Tuner.r_latency_us with
              | Some l -> Printf.sprintf "%.6f" l
              | None -> "none")
              (Library.to_string r.Tuner.r_library));
    teardown = (fun c -> rm_rf c.nc_path);
  }

let nets_checkpoint_sweep ~count =
  QCheck.Test.make ~name:"crash: nets composite checkpoint resumes at every I/O site" ~count
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
    (fun seed -> explore (nets_scenario seed))

(* ---------- (e) serve daemon end to end ---------- *)

type serve_ctx = { dc_dir : string; dc_config : Daemon.config; dc_universe : Op.t list }

(* The whole daemon protocol under the explorer: accept misses (durable
   queue), tune, publish, checkpoint. After a death anywhere, a fresh
   daemon on the same directory plus a client retry of the same misses
   must drain to a library byte-identical to the uninterrupted run's —
   the determinism contract of daemon.mli, now checked at every
   individual syscall boundary rather than one hand-picked window. *)
let serve_scenario seed =
  let rng = Rng.create ((seed * 31) + 7) in
  let universe = List.init 2 (fun _ -> random_op rng) in
  let mk_config dir =
    {
      (Daemon.default_config ~dir ~resolve:(Daemon.universe_resolve universe) desc) with
      Daemon.budget = 4;
      seed = 11 + seed;
      family_max = 2;
    }
  in
  let serve_all config =
    let d = Daemon.start config in
    List.iter (fun op -> ignore (Daemon.lookup_op d op)) universe;
    ignore (Daemon.drain d)
  in
  {
    setup =
      (fun () ->
        let dir = fresh_name "daemon" in
        { dc_dir = dir; dc_config = mk_config dir; dc_universe = universe });
    run = (fun c -> serve_all c.dc_config);
    mid_check =
      (fun c ->
        (* Restart must always be clean: whatever the death left behind
           loads without a single skipped line. *)
        let d = Daemon.start c.dc_config in
        Daemon.load_warnings d = [] && not (Daemon.read_only d));
    recover = (fun c -> serve_all c.dc_config);
    final =
      (fun c ->
        let d = Daemon.start c.dc_config in
        Library.to_string (Daemon.library d));
    teardown = (fun c -> rm_rf c.dc_dir);
  }

let serve_daemon_sweep ~count =
  QCheck.Test.make ~name:"crash: serve daemon drains identically after death at every I/O site"
    ~count
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
    (fun seed -> explore (serve_scenario seed))

let tests ?(count = 20) () =
  [
    store_publish_sweep ~count:(max 1 (count / 2));
    queue_checkpoint_sweep ~count;
    search_checkpoint_sweep ~count;
    search_append_sweep ~count;
    nets_checkpoint_sweep ~count:(max 1 (count / 10));
    serve_daemon_sweep ~count:(max 1 (count / 10));
  ]
