(* Tests for the serving layer: lenient library loading, the lock-free
   index under concurrent readers, seeded traffic determinism (including
   --jobs independence of a full daemon scenario), and in-process
   kill+resume byte-identity of the daemon's published library. *)

module Op = Heron_tensor.Op
module Assignment = Heron_csp.Assignment
module Library = Heron.Library
module Index = Heron_serving.Index
module Daemon = Heron_serving.Daemon
module Traffic = Heron_serving.Traffic
module Pool = Heron_util.Pool
module Rng = Heron_util.Rng

let desc = Heron_dla.Descriptor.v100
let dname = desc.Heron_dla.Descriptor.dname

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let in_dir name f =
  let dir = "_test_serve_" ^ name in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---------- Library.load hardening ---------- *)

let good1 = "gemm/f16/i:16,j:16,r:16|v100|12.500000|ti=4,tj=8"
let good2 = "gemm/f16/i:32,j:32,r:32|v100|20.000000|ti=8"

let write path body = Heron_util.Atomic_io.write_string ~path body

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_load_lenient () =
  in_dir "load" @@ fun dir ->
  let path = Filename.concat dir "lib.heron" in
  (* Truncated line, garbage line, bad latency, bad binding, duplicate key
     (worse then better), interleaved with good lines. *)
  write path
    (String.concat "\n"
       [
         good1;
         "gemm/f16/i:64,j:64,r:64|v100";
         "complete garbage";
         good2;
         "gemm/f16/i:48,j:48,r:48|v100|not_a_number|ti=4";
         "gemm/f16/i:48,j:48,r:48|v100|3.0|ti=oops";
         "gemm/f16/i:32,j:32,r:32|v100|99.000000|ti=2";
         "gemm/f16/i:32,j:32,r:32|v100|15.000000|ti=1";
         "";
       ]);
  match Library.load_result path with
  | Error e -> Alcotest.failf "lenient load failed: %s" e
  | Ok (lib, warnings) ->
      Alcotest.(check int) "malformed lines skipped" 4 (List.length warnings);
      Alcotest.(check (list int)) "warning line numbers" [ 2; 3; 5; 6 ]
        (List.map (fun w -> w.Library.lw_line) warnings);
      Alcotest.(check int) "surviving entries" 2 (Library.size lib);
      (match
         List.find_opt
           (fun (e : Library.entry) -> e.Library.op_key = "gemm/f16/i:32,j:32,r:32")
           (Library.entries lib)
       with
      | None -> Alcotest.fail "duplicated key lost"
      | Some e ->
          Alcotest.(check (float 0.0)) "duplicate keeps best latency" 15.0 e.Library.latency_us);
      (* The strict loader still refuses the file, naming the first bad line. *)
      (match Library.load path with
      | exception Failure msg ->
          Alcotest.(check bool) "strict error names line 2" true
            (contains_substring msg "line 2")
      | _ -> Alcotest.fail "strict load must fail on malformed lines")

let test_load_clean_roundtrip () =
  in_dir "roundtrip" @@ fun dir ->
  let path = Filename.concat dir "lib.heron" in
  write path (good1 ^ "\n" ^ good2 ^ "\n");
  let lib = Library.load path in
  Alcotest.(check int) "strict load accepts clean files" 2 (Library.size lib);
  Alcotest.(check string) "save/load round-trip" (good1 ^ "\n" ^ good2 ^ "\n")
    (Library.to_string lib);
  match Library.load_result (Filename.concat dir "missing.heron") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load_result must report unreadable files"

(* ---------- the lock-free index ---------- *)

let entry_lib latency extra =
  let op = Op.gemm ~m:16 ~n:16 ~k:16 () in
  let lib = Library.add Library.empty desc op ~latency_us:latency Assignment.empty in
  List.fold_left
    (fun lib m ->
      Library.add lib desc (Op.gemm ~m ~n:32 ~k:32 ()) ~latency_us:50.0 Assignment.empty)
    lib extra

let test_index_near_fallback () =
  let lib = entry_lib 10.0 [ 64 ] in
  let snap = Index.build ~version:1 lib in
  let hit = Index.query_op snap ~dla:dname (Op.gemm ~m:16 ~n:16 ~k:16 ()) in
  let near = Index.query_op snap ~dla:dname (Op.gemm ~m:48 ~n:32 ~k:32 ()) in
  let miss = Index.query_op snap ~dla:dname (Op.gemm ~m:128 ~n:128 ~k:128 ()) in
  (match hit with
  | Index.Hit e -> Alcotest.(check (float 0.0)) "exact hit" 10.0 e.Library.latency_us
  | _ -> Alcotest.fail "expected Hit");
  (match near with
  | Index.Near e ->
      (* 48 rounds up to 64: served by the 64x32x32 entry's bucket. *)
      Alcotest.(check string) "bucket fallback" "gemm/f16/i:64,j:32,r:32" e.Library.op_key
  | _ -> Alcotest.fail "expected Near");
  match miss with
  | Index.Miss -> ()
  | _ -> Alcotest.fail "expected Miss"

(* Reader domains hammer the index while the main domain publishes new
   versions. Each reader checks, per observed snapshot, that (a) versions
   never go backwards and (b) the probe entry's latency matches the
   snapshot's version — a torn read (entry from one version, version field
   from another) cannot pass. *)
let test_concurrent_readers () =
  let versions = 40 in
  let key = Library.op_key (Op.gemm ~m:16 ~n:16 ~k:16 ()) ^ "@" ^ dname in
  let lib_at v = entry_lib (float_of_int v) (List.init (v mod 5) (fun i -> 64 + (16 * i))) in
  let idx = Index.create (Index.build ~version:1 (lib_at 1)) in
  let stop = Atomic.make false and started = Atomic.make 0 in
  let reader () =
    let ok = ref true and last = ref 0 and observed = ref 0 in
    let look () =
      let snap = Index.current idx in
      let v = Index.version snap in
      if v < !last then ok := false;
      if v <> !last then incr observed;
      last := v;
      match Index.find snap key with
      | Some e -> if e.Library.latency_us <> float_of_int v then ok := false
      | None -> ok := false
    in
    (* The writer publishes only once every reader holds a first
       snapshot, so no reader can start after the last publish. *)
    look ();
    Atomic.incr started;
    while not (Atomic.get stop) do
      look ()
    done;
    (* The final publish happens before [stop] is set: this snapshot
       carries the final version. *)
    look ();
    (!ok, !observed, !last)
  in
  let readers = List.init 4 (fun _ -> Domain.spawn reader) in
  while Atomic.get started < 4 do
    Domain.cpu_relax ()
  done;
  for v = 2 to versions do
    Index.publish idx (Index.build ~version:v (lib_at v));
    for _ = 1 to 2000 do
      Domain.cpu_relax ()
    done
  done;
  Atomic.set stop true;
  let results = List.map Domain.join readers in
  List.iteri
    (fun i (ok, observed, last) ->
      Alcotest.(check bool) (Printf.sprintf "reader %d: monotone, untorn" i) true ok;
      Alcotest.(check bool) (Printf.sprintf "reader %d: saw progress" i) true (observed >= 2);
      Alcotest.(check int) (Printf.sprintf "reader %d: final snapshot" i) versions last)
    results;
  let final = Index.current idx in
  Alcotest.(check int) "final version" versions (Index.version final);
  (* Final state equals the sequentially built index. *)
  let seq = Index.build ~version:versions (lib_at versions) in
  List.iter
    (fun (e : Library.entry) ->
      let k = e.Library.op_key ^ "@" ^ e.Library.dla in
      match (Index.find final k, Index.find seq k) with
      | Some a, Some b ->
          Alcotest.(check (float 0.0)) ("entry " ^ k) b.Library.latency_us a.Library.latency_us
      | _ -> Alcotest.fail ("entry missing: " ^ k))
    (Library.entries (lib_at versions));
  Alcotest.(check int) "same size" (Index.size seq) (Index.size final);
  (* Publishing a stale version must be refused. *)
  match Index.publish idx (Index.build ~version:versions (lib_at versions)) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "stale publish must raise"

(* ---------- traffic determinism ---------- *)

let test_traffic_deterministic () =
  let draw seed =
    let t = Traffic.create ~rng:(Rng.create seed) ~n:16 ~s:1.1 in
    List.init 10_000 (fun _ -> Traffic.next t)
  in
  Alcotest.(check (list int)) "equal seeds, equal streams" (draw 7) (draw 7);
  Alcotest.(check bool) "different seeds differ" true (draw 7 <> draw 8);
  let t = Traffic.create ~rng:(Rng.create 1) ~n:8 ~s:1.3 in
  let ws = List.init 8 (Traffic.weight t) in
  Alcotest.(check bool) "zipf weights decrease" true
    (List.for_all2 (fun a b -> a >= b) (List.filteri (fun i _ -> i < 7) ws) (List.tl ws));
  Alcotest.(check (float 1e-9)) "weights normalized" 1.0 (List.fold_left ( +. ) 0.0 ws)

(* One full daemon scenario: replay a seeded Zipf wave, drain, replay a
   second wave. Returns the per-request outcome string and the final
   published library text. *)
let run_scenario ~dir ~pool =
  let universe =
    [ Op.gemm ~m:16 ~n:16 ~k:16 (); Op.gemm ~m:32 ~n:32 ~k:32 (); Op.gemm ~m:32 ~n:16 ~k:16 () ]
  in
  let config =
    {
      (Daemon.default_config ~dir ~resolve:(Daemon.universe_resolve universe) desc) with
      Daemon.budget = 6;
      seed = 11;
      family_max = 2;
    }
  in
  let daemon = Daemon.start config in
  let probes = Array.of_list (List.map (Index.probe ~dla:dname) universe) in
  let traffic = Traffic.create ~rng:(Rng.create 5) ~n:(Array.length probes) ~s:1.0 in
  let outcomes = Buffer.create 256 in
  for _wave = 1 to 2 do
    for _ = 1 to 150 do
      let served = Daemon.lookup daemon probes.(Traffic.next traffic) in
      Buffer.add_char outcomes
        (match served.Daemon.s_outcome with
        | Index.Hit _ -> 'h'
        | Index.Near _ -> 'n'
        | Index.Miss -> 'm');
      Buffer.add_char outcomes (if served.Daemon.s_enqueued then '!' else '.')
    done;
    ignore (Daemon.drain ?pool daemon)
  done;
  (Buffer.contents outcomes, Library.to_string (Daemon.library daemon), Daemon.version daemon)

let test_daemon_jobs_independent () =
  in_dir "jobs1" @@ fun dir1 ->
  in_dir "jobs2" @@ fun dir2 ->
  let o1, l1, v1 = run_scenario ~dir:dir1 ~pool:None in
  let o2, l2, v2 =
    Pool.with_pool ~domains:2 (fun pool -> run_scenario ~dir:dir2 ~pool:(Some pool))
  in
  Alcotest.(check string) "outcome stream identical at any jobs" o1 o2;
  Alcotest.(check string) "published library identical at any jobs" l1 l2;
  Alcotest.(check int) "same version" v1 v2;
  Alcotest.(check bool) "library non-empty" true (l1 <> "")

(* ---------- kill + resume ---------- *)

exception Killed

(* Crash the daemon right after its first publish — the snapshot is on
   disk, the queue checkpoint still lists the published batch — then
   "restart the process" (a fresh Daemon.start on the same directory) and
   drain. The redo of the half-finished batch is idempotent, so the final
   library is byte-identical to an uninterrupted daemon's. *)
let test_kill_resume_identical () =
  let universe =
    [
      Op.gemm ~m:16 ~n:16 ~k:16 ();
      Op.gemm ~m:32 ~n:32 ~k:32 ();
      Op.gemm ~m:32 ~n:16 ~k:16 ();
      Op.gemm ~m:16 ~n:32 ~k:16 ();
    ]
  in
  let config dir =
    {
      (Daemon.default_config ~dir ~resolve:(Daemon.universe_resolve universe) desc) with
      Daemon.budget = 6;
      seed = 23;
      family_max = 2;
    }
  in
  let enqueue_all daemon =
    List.iter (fun op -> ignore (Daemon.lookup_op daemon op)) universe
  in
  in_dir "uninterrupted" @@ fun dir_a ->
  in_dir "killed" @@ fun dir_b ->
  let a = Daemon.start (config dir_a) in
  enqueue_all a;
  let tuned_a = Daemon.drain a in
  Alcotest.(check int) "all tasks tuned" 4 tuned_a;
  let b = Daemon.start (config dir_b) in
  enqueue_all b;
  (match Daemon.drain ~on_publish:(fun _ -> raise Killed) b with
  | exception Killed -> ()
  | _ -> Alcotest.fail "crash hook did not fire");
  (* Restart: the store has v1, the queue checkpoint still has all the
     work the publish had not yet retired. *)
  let b' = Daemon.start (config dir_b) in
  Alcotest.(check int) "restart sees the published snapshot" 1 (Daemon.version b');
  Alcotest.(check bool) "restart resumes a non-empty queue" true (Daemon.queue_length b' > 0);
  Alcotest.(check bool) "restart is clean" false (Daemon.recovered b');
  let _ = Daemon.drain b' in
  Alcotest.(check string) "killed+resumed library is byte-identical"
    (Library.to_string (Daemon.library a))
    (Library.to_string (Daemon.library b'));
  (* The redone batch costs the crashed run one extra publish; content,
     not the version counter, is the identity contract. *)
  Alcotest.(check bool) "crashed run republished" true (Daemon.version b' >= Daemon.version a)

(* ---------- store checksum sidecars + degraded read-only mode ---------- *)

module Store = Heron_serving.Store
module Io_faults = Heron_util.Io_faults

(* Every publish leaves a [.sum] sidecar next to the snapshot; a snapshot
   whose body no longer matches it is rejected by recovery, which then
   settles on the newest version that still verifies. *)
let test_store_sum_sidecar () =
  in_dir "sum" @@ fun dir ->
  let op = Op.gemm ~m:16 ~n:16 ~k:16 () in
  let lib1 = Library.add Library.empty desc op ~latency_us:10.0 Assignment.empty in
  let lib2 = Library.add lib1 desc (Op.gemm ~m:32 ~n:32 ~k:32 ()) ~latency_us:20.0 Assignment.empty in
  let store = Store.open_ ~dir in
  let v1 = Store.publish store lib1 in
  let v2 = Store.publish store lib2 in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "v%d sidecar exists" v)
        true
        (Sys.file_exists (Store.sum_path store v)))
    [ v1; v2 ];
  (* Corrupt v2's body without updating the sidecar: recovery must reject
     it and settle on v1, flagging the recovery. *)
  let snap2 = Store.snapshot_path store v2 in
  let body = In_channel.with_open_bin snap2 In_channel.input_all in
  Out_channel.with_open_bin snap2 (fun oc ->
      Out_channel.output_string oc (String.map (function '0' -> '9' | c -> c) body));
  match Store.load_latest store with
  | None -> Alcotest.fail "v1 must still be loadable"
  | Some loaded ->
      Alcotest.(check int) "fell back to the previous version" v1 loaded.Store.version;
      Alcotest.(check bool) "flagged as recovered" true loaded.Store.recovered;
      Alcotest.(check int) "no skipped lines" 0 (List.length loaded.Store.warnings);
      Alcotest.(check string) "previous content intact" (Library.to_string lib1)
        (Library.to_string loaded.Store.library)

(* A full disk (persistent ENOSPC on every path) flips the daemon into
   read-only serving: tuned results go live in memory, nothing lands on
   disk, and the first pump after space returns republishes and retires
   the queued batch. *)
let test_daemon_degraded_readonly () =
  in_dir "degraded" @@ fun dir ->
  let universe = [ Op.gemm ~m:16 ~n:16 ~k:16 (); Op.gemm ~m:32 ~n:32 ~k:32 () ] in
  let config =
    {
      (Daemon.default_config ~dir ~resolve:(Daemon.universe_resolve universe) desc) with
      Daemon.budget = 6;
      seed = 11;
      family_max = 2;
    }
  in
  Io_faults.set_default
    (Some (Io_faults.create { Io_faults.zero with persistent = 1.0 }));
  let daemon =
    Fun.protect ~finally:(fun () -> Io_faults.set_default None) @@ fun () ->
    let daemon = Daemon.start config in
    List.iter (fun op -> ignore (Daemon.lookup_op daemon op)) universe;
    let tuned = Daemon.drain daemon in
    Alcotest.(check bool) "tasks were tuned before the failed publish" true (tuned > 0);
    Alcotest.(check bool) "daemon went read-only" true (Daemon.read_only daemon);
    Alcotest.(check int) "nothing durably published" 0 (Daemon.version daemon);
    Alcotest.(check bool) "results live in memory" true
      (Library.size (Daemon.library daemon) > 0);
    Alcotest.(check bool) "queue keeps the unflushed batch" true
      (Daemon.queue_length daemon > 0);
    Alcotest.(check bool) "no manifest on the full disk" false
      (Sys.file_exists (Filename.concat dir "MANIFEST.json"));
    (* Traffic is still answered from the in-memory index. *)
    (match (Daemon.lookup_op daemon (List.hd universe)).Daemon.s_outcome with
    | Index.Hit _ -> ()
    | _ -> Alcotest.fail "read-only daemon must still serve hits");
    daemon
  in
  (* Space returns: the next pump retries the pending publish before
     tuning anything. *)
  let tuned = Daemon.pump daemon ~max_tasks:0 in
  Alcotest.(check int) "no tuning needed to recover" 0 tuned;
  Alcotest.(check bool) "read-only cleared" false (Daemon.read_only daemon);
  Alcotest.(check bool) "publish landed" true (Daemon.version daemon > 0);
  Alcotest.(check int) "queued batch retired" 0 (Daemon.queue_length daemon);
  (* A process restart sees exactly the in-memory state that was serving. *)
  let daemon' = Daemon.start config in
  Alcotest.(check string) "restart sees the recovered library"
    (Library.to_string (Daemon.library daemon))
    (Library.to_string (Daemon.library daemon'))

let suite =
  [
    Alcotest.test_case "library: lenient load skips malformed lines" `Quick test_load_lenient;
    Alcotest.test_case "library: strict load round-trips clean files" `Quick
      test_load_clean_roundtrip;
    Alcotest.test_case "index: exact hit, bucket near-miss, miss" `Quick test_index_near_fallback;
    Alcotest.test_case "index: concurrent readers see monotone untorn snapshots" `Quick
      test_concurrent_readers;
    Alcotest.test_case "traffic: seeded zipf streams are reproducible" `Quick
      test_traffic_deterministic;
    Alcotest.test_case "daemon: scenario is --jobs independent" `Slow
      test_daemon_jobs_independent;
    Alcotest.test_case "daemon: kill after publish + resume is byte-identical" `Slow
      test_kill_resume_identical;
    Alcotest.test_case "store: checksum sidecar rejects corrupt snapshots" `Quick
      test_store_sum_sidecar;
    Alcotest.test_case "daemon: full disk degrades to read-only, then recovers" `Quick
      test_daemon_degraded_readonly;
  ]
