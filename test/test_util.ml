(* Unit and property tests for heron_util. *)

module Rng = Heron_util.Rng
module Ints = Heron_util.Ints
module Hashing = Heron_util.Hashing

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 500 do
    let v = Rng.range rng 3 9 in
    Alcotest.(check bool) "in [3,9]" true (v >= 3 && v <= 9)
  done

let test_rng_float () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      let a = Array.of_list xs in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* split_n: the parallel-determinism workhorse. Stream i must be a pure
   function of (parent state, i), streams must not collide, and the array
   form must agree with sequential splitting and with random access. *)

let stream_prefix rng k = List.init k (fun _ -> Rng.bits64 rng)

let test_split_n_deterministic =
  QCheck.Test.make ~name:"split_n is a pure function of (state, n)" ~count:200
    QCheck.(pair small_int (int_range 0 16))
    (fun (seed, n) ->
      let a = Rng.split_n (Rng.create seed) n in
      let b = Rng.split_n (Rng.create seed) n in
      Array.for_all2 (fun x y -> stream_prefix x 4 = stream_prefix y 4) a b)

let test_split_n_independent =
  QCheck.Test.make ~name:"split_n streams are pairwise distinct" ~count:200
    QCheck.(pair small_int (int_range 2 16))
    (fun (seed, n) ->
      let rngs = Rng.split_n (Rng.create seed) n in
      let prefixes = Array.to_list (Array.map (fun r -> stream_prefix r 4) rngs) in
      List.length (List.sort_uniq compare prefixes) = n)

let test_split_n_matches_sequential =
  QCheck.Test.make ~name:"split_n agrees with n sequential splits" ~count:200
    QCheck.(pair small_int (int_range 0 16))
    (fun (seed, n) ->
      let arr = Rng.split_n (Rng.create seed) n in
      let parent = Rng.create seed in
      let seq = Array.init n (fun _ -> Rng.split parent) in
      Array.for_all2 (fun x y -> stream_prefix x 4 = stream_prefix y 4) arr seq)

let test_split_at_matches_split_n =
  QCheck.Test.make ~name:"split_at i = split_n.(i), parent unadvanced" ~count:200
    QCheck.(pair small_int (int_range 1 16))
    (fun (seed, n) ->
      let parent = Rng.create seed in
      let before = stream_prefix (Rng.copy parent) 2 in
      let by_index = Array.init n (fun i -> Rng.split_at parent i) in
      let after = stream_prefix (Rng.copy parent) 2 in
      let arr = Rng.split_n (Rng.copy parent) n in
      before = after
      && Array.for_all2 (fun x y -> stream_prefix x 4 = stream_prefix y 4) by_index arr)

let test_permutation_prop =
  QCheck.Test.make ~name:"permutation is a permutation of 0..n-1" ~count:200
    QCheck.(pair small_int (int_range 0 32))
    (fun (seed, n) ->
      let p = Rng.permutation (Rng.create seed) n in
      List.sort compare (Array.to_list p) = List.init n (fun i -> i))

let test_sample_distinct () =
  let rng = Rng.create 3 in
  let xs = List.init 20 (fun i -> i) in
  let s = Rng.sample rng xs 8 in
  Alcotest.(check int) "size" 8 (List.length s);
  Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq compare s))

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (Ints.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (Ints.divisors 1);
  Alcotest.(check (list int)) "divisors 7" [ 1; 7 ] (Ints.divisors 7)

let test_divisors_prop =
  QCheck.Test.make ~name:"divisors divide and are complete" ~count:200
    QCheck.(int_range 1 2000)
    (fun n ->
      let ds = Ints.divisors n in
      List.for_all (fun d -> n mod d = 0) ds
      && List.length ds
         = List.length (List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))))

let test_pow2s () =
  Alcotest.(check (list int)) "pow2 upto 20" [ 1; 2; 4; 8; 16 ] (Ints.pow2s_upto 20)

let test_ceil_div =
  QCheck.Test.make ~name:"ceil_div rounds up" ~count:200
    QCheck.(pair (int_range 0 10000) (int_range 1 100))
    (fun (a, b) ->
      let q = Ints.ceil_div a b in
      (q * b >= a) && ((q - 1) * b < a || q = 0))

let test_round_up () =
  Alcotest.(check int) "round_up 13 8" 16 (Ints.round_up 13 8);
  Alcotest.(check int) "round_up 16 8" 16 (Ints.round_up 16 8)

let test_is_pow2 () =
  Alcotest.(check bool) "16" true (Ints.is_pow2 16);
  Alcotest.(check bool) "12" false (Ints.is_pow2 12);
  Alcotest.(check bool) "0" false (Ints.is_pow2 0)

let test_log2_floor () =
  Alcotest.(check int) "log2 1" 0 (Ints.log2_floor 1);
  Alcotest.(check int) "log2 8" 3 (Ints.log2_floor 8);
  Alcotest.(check int) "log2 9" 3 (Ints.log2_floor 9)

(* Stores on disk carry FNV-1a checksums and every seed and jitter draw
   derives from it, so its values are pinned to the published 64-bit
   test vectors; hashing must allocate only the boxed result. *)
let test_hash_stable () =
  Alcotest.(check int64) "fnv stable" (Hashing.fnv1a "heron") (Hashing.fnv1a "heron");
  Alcotest.(check bool) "different inputs differ" true
    (Hashing.fnv1a "a" <> Hashing.fnv1a "b");
  List.iter
    (fun (s, h) -> Alcotest.(check int64) (Printf.sprintf "fnv1a %S" s) h (Hashing.fnv1a s))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ];
  let s = String.init 1100 (fun i -> Char.chr (i land 0xff)) in
  let reps = 1000 in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Hashing.fnv1a s))
  done;
  let w2 = Gc.minor_words () in
  let per_call = (w2 -. w1 -. (w1 -. w0)) /. float_of_int reps in
  Alcotest.(check bool)
    (Printf.sprintf "1,100-byte hash allocates %.2f words (at most 3)" per_call)
    true (per_call <= 3.0)

let test_hash_ranges () =
  List.iter
    (fun s ->
      let u = Hashing.unit_float s and sv = Hashing.signed_unit s in
      Alcotest.(check bool) "unit in [0,1)" true (u >= 0.0 && u < 1.0);
      Alcotest.(check bool) "signed in [-1,1)" true (sv >= -1.0 && sv < 1.0))
    [ ""; "x"; "heron"; "a-much-longer-key-with-digits-123456" ]

let test_rng_state_hex_roundtrip () =
  let a = Rng.create 987 in
  for _ = 1 to 37 do
    ignore (Rng.bits64 a)
  done;
  let hex = Rng.state_hex a in
  Alcotest.(check int) "16 hex digits" 16 (String.length hex);
  let b = Rng.create 0 in
  (match Rng.set_state_hex b hex with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  for _ = 1 to 50 do
    Alcotest.(check int64) "streams rejoin" (Rng.bits64 a) (Rng.bits64 b)
  done;
  (match Rng.set_state_hex b "nope" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "short state must be rejected");
  match Rng.set_state_hex b "zzzzzzzzzzzzzzzz" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-hex state must be rejected"

let in_temp_dir f =
  let dir = Filename.temp_file "heron_atomic" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_atomic_write () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "out.json" in
      Heron_util.Atomic_io.write_string ~path "first";
      Alcotest.(check string) "content lands" "first" (read_file path);
      Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
      (* A failing writer must leave the previous content untouched and
         clean its temp file up. *)
      (match
         Heron_util.Atomic_io.with_file_out ~path (fun oc ->
             output_string oc "torn";
             failwith "mid-write crash")
       with
      | () -> Alcotest.fail "writer must propagate the exception"
      | exception Failure _ -> ());
      Alcotest.(check string) "old content preserved" "first" (read_file path);
      Alcotest.(check bool) "tmp cleaned up" false (Sys.file_exists (path ^ ".tmp")))

(* A real error after the content is written (here rename(2) onto a
   non-empty directory, EISDIR) must keep the contract: Sys_error, so
   with_retry retries it, and no temp file left behind. *)
let test_atomic_write_real_error () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "taken" in
      let inner = Filename.concat path "occupant" in
      Sys.mkdir path 0o755;
      Heron_util.Atomic_io.write_string ~path:inner "x";
      Fun.protect
        ~finally:(fun () ->
          Sys.remove inner;
          Sys.rmdir path)
        (fun () ->
          let retries = Heron_obs.Obs.Counter.make "io.retries" in
          let before = Heron_obs.Obs.Counter.value retries in
          (match
             Heron_util.Atomic_io.with_retry ~attempts:3 ~what:"test" (fun () ->
                 Heron_util.Atomic_io.write_string ~path "x")
           with
          | () -> Alcotest.fail "writing over a directory must fail"
          | exception Sys_error _ -> ()
          | exception e -> Alcotest.failf "expected Sys_error, got %s" (Printexc.to_string e));
          Alcotest.(check int) "every failed attempt but the last retried" 2
            (Heron_obs.Obs.Counter.value retries - before);
          Alcotest.(check bool) "tmp cleaned up" false (Sys.file_exists (path ^ ".tmp"))))

let test_atomic_write_fsync () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "durable.json" in
      Heron_util.Atomic_io.write_string ~fsync:true ~path "durable content";
      Alcotest.(check string) "content lands" "durable content" (read_file path);
      Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp")))

module Io_faults = Heron_util.Io_faults

let with_injector spec f =
  Io_faults.set_default (Some (Io_faults.create spec));
  Fun.protect ~finally:(fun () -> Io_faults.set_default None) f

let test_io_faults_parse () =
  (match Io_faults.parse "off" with
  | Ok None -> ()
  | _ -> Alcotest.fail "off must parse to no spec");
  (match Io_faults.parse "record" with
  | Ok (Some s) -> Alcotest.(check bool) "record flag" true s.Io_faults.record
  | _ -> Alcotest.fail "record must parse");
  (match Io_faults.parse "crash_at=7" with
  | Ok (Some s) -> Alcotest.(check (option int)) "crash point" (Some 7) s.Io_faults.crash_at
  | _ -> Alcotest.fail "crash_at must parse");
  (match Io_faults.parse "seed=3,enospc=0.1,torn=0.25" with
  | Ok (Some s) ->
      Alcotest.(check int) "seed" 3 s.Io_faults.seed;
      Alcotest.(check (float 1e-9)) "enospc" 0.1 s.Io_faults.enospc;
      Alcotest.(check (float 1e-9)) "torn" 0.25 s.Io_faults.torn;
      (* Canonical rendering round-trips. *)
      (match Io_faults.parse (Io_faults.to_string s) with
      | Ok (Some s') -> Alcotest.(check bool) "roundtrip" true (s = s')
      | _ -> Alcotest.fail "to_string must parse back")
  | _ -> Alcotest.fail "rate spec must parse");
  (match Io_faults.parse "enospc=1.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range rate must be rejected");
  match Io_faults.parse "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must be rejected"

(* The same spec over the same write history makes the same decisions —
   and a torn fault never hits a durable (fsynced) write. *)
let test_io_faults_deterministic_and_fsync_immune () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "victim.txt" in
      let spec = { Io_faults.zero with seed = 5; enospc = 1.0 } in
      let outcome () =
        with_injector spec (fun () ->
            match Heron_util.Atomic_io.write_string ~path "payload" with
            | () -> "ok"
            | exception Sys_error msg -> "fail: " ^ msg)
      in
      let a = outcome () and b = outcome () in
      Alcotest.(check string) "same spec, same history, same fate" a b;
      Alcotest.(check bool) "enospc=1.0 always fails" true
        (String.length a >= 5 && String.sub a 0 5 = "fail:");
      (* Non-durable writes can tear (the surviving prefix is hash-chosen,
         so over several paths some must come up short); fsynced writes
         are immune at every path. *)
      let torn = { Io_faults.zero with seed = 5; torn = 1.0 } in
      let content = String.init 64 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
      let paths = List.init 8 (fun i -> Filename.concat dir (Printf.sprintf "t%d" i)) in
      with_injector torn (fun () ->
          List.iter (fun p -> Heron_util.Atomic_io.write_string ~path:p content) paths);
      let lens = List.map (fun p -> String.length (read_file p)) paths in
      Alcotest.(check bool) "torn writes keep prefixes" true
        (List.for_all (fun l -> l <= 64) lens);
      Alcotest.(check bool) "some non-durable write actually tore" true
        (List.exists (fun l -> l < 64) lens);
      with_injector torn (fun () ->
          List.iter
            (fun p -> Heron_util.Atomic_io.write_string ~fsync:true ~path:p content)
            paths);
      Alcotest.(check bool) "durable writes immune to torn faults" true
        (List.for_all (fun p -> read_file p = content) paths))

let test_io_faults_record_counts_sites () =
  in_temp_dir (fun dir ->
      let inj = Io_faults.create { Io_faults.zero with record = true } in
      Io_faults.set_default (Some inj);
      Fun.protect ~finally:(fun () -> Io_faults.set_default None) (fun () ->
          (* write + rename: 2 sites; with fsync a third. *)
          Heron_util.Atomic_io.write_string ~path:(Filename.concat dir "a") "x";
          Alcotest.(check int) "plain write = 2 sites" 2 (Io_faults.sites_seen inj);
          Heron_util.Atomic_io.write_string ~fsync:true ~path:(Filename.concat dir "b") "x";
          Alcotest.(check int) "durable write adds 3 sites" 5 (Io_faults.sites_seen inj)))

(* An append is one write site. A failed append leaves the file as it
   was, so under retries the file holds exactly the appends that returned,
   in order, and no failed record's bytes sit between two good ones. A
   crash keeps a prefix of the record. *)
let test_atomic_append () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "log" in
      Heron_util.Atomic_io.write_string ~path "head\n";
      let inj = Io_faults.create { Io_faults.zero with record = true } in
      Io_faults.set_default (Some inj);
      Fun.protect
        ~finally:(fun () -> Io_faults.set_default None)
        (fun () -> Heron_util.Atomic_io.append ~path "one\n");
      Alcotest.(check int) "an append = 1 site" 1 (Io_faults.sites_seen inj);
      Alcotest.(check string) "appended" "head\none\n" (read_file path);
      let expected = Buffer.create 256 and failed = ref 0 in
      Buffer.add_string expected (read_file path);
      with_injector { Io_faults.zero with seed = 3; enospc = 0.5 } (fun () ->
          for i = 1 to 40 do
            let record = Printf.sprintf "record %d\n" i in
            match
              Heron_util.Atomic_io.with_retry ~what:"test" (fun () ->
                  Heron_util.Atomic_io.append ~path record)
            with
            | () -> Buffer.add_string expected record
            | exception Sys_error _ -> incr failed
          done);
      Alcotest.(check bool) "some appends failed every attempt" true (!failed > 0);
      Alcotest.(check string) "the file holds the appends that returned" (Buffer.contents expected)
        (read_file path);
      let before = read_file path and record = String.make 64 'x' in
      with_injector { Io_faults.zero with crash_at = Some 0 } (fun () ->
          match Heron_util.Atomic_io.append ~path record with
          | () -> Alcotest.fail "crash_at=0 must kill the append"
          | exception Io_faults.Crashed _ -> ());
      let after = read_file path in
      let n = String.length before in
      Alcotest.(check bool) "a crash keeps a prefix of the record" true
        (String.length after <= n + 64
        && String.sub after 0 n = before
        && String.for_all (Char.equal 'x') (String.sub after n (String.length after - n))))

let test_with_retry () =
  (* A transient failure is retried; the third attempt succeeds. *)
  let calls = ref 0 in
  let v =
    Heron_util.Atomic_io.with_retry ~attempts:3 ~what:"test" (fun () ->
        incr calls;
        if !calls < 3 then raise (Sys_error "transient (injected)");
        !calls)
  in
  Alcotest.(check int) "succeeds on the last attempt" 3 v;
  (* Attempts exhausted: the last error propagates. *)
  let calls = ref 0 in
  (match
     Heron_util.Atomic_io.with_retry ~attempts:2 ~what:"test" (fun () ->
         incr calls;
         raise (Sys_error "still failing"))
   with
  | _ -> Alcotest.fail "exhausted retry must raise"
  | exception Sys_error _ -> Alcotest.(check int) "bounded attempts" 2 !calls);
  (* A simulated process death is never retried. *)
  let calls = ref 0 in
  match
    Heron_util.Atomic_io.with_retry ~attempts:3 ~what:"test" (fun () ->
        incr calls;
        raise (Io_faults.Crashed { path = "p"; op = Io_faults.Write; site = 0 }))
  with
  | _ -> Alcotest.fail "crash must propagate"
  | exception Io_faults.Crashed _ -> Alcotest.(check int) "no retry on crash" 1 !calls

(* Replay.to_alcotest derives each property's generator state from one
   campaign seed plus the property name and prints the replay commands on
   failure; QCHECK_SEED overrides the seed. *)
let qtest t = Heron_check.Replay.to_alcotest ~seed:(Heron_check.Replay.seed_from_env ()) t

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng int bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng range bounds" `Quick test_rng_range;
    Alcotest.test_case "rng float range" `Quick test_rng_float;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    qtest test_shuffle_permutation;
    qtest test_split_n_deterministic;
    qtest test_split_n_independent;
    qtest test_split_n_matches_sequential;
    qtest test_split_at_matches_split_n;
    qtest test_permutation_prop;
    Alcotest.test_case "sample distinct" `Quick test_sample_distinct;
    Alcotest.test_case "divisors examples" `Quick test_divisors;
    qtest test_divisors_prop;
    Alcotest.test_case "pow2s" `Quick test_pow2s;
    qtest test_ceil_div;
    Alcotest.test_case "round_up" `Quick test_round_up;
    Alcotest.test_case "is_pow2" `Quick test_is_pow2;
    Alcotest.test_case "log2_floor" `Quick test_log2_floor;
    Alcotest.test_case "hash stability" `Quick test_hash_stable;
    Alcotest.test_case "hash ranges" `Quick test_hash_ranges;
    Alcotest.test_case "rng state hex roundtrip" `Quick test_rng_state_hex_roundtrip;
    Alcotest.test_case "atomic write" `Quick test_atomic_write;
    Alcotest.test_case "atomic write fsync" `Quick test_atomic_write_fsync;
    Alcotest.test_case "atomic write real error" `Quick test_atomic_write_real_error;
    Alcotest.test_case "io-faults spec parse" `Quick test_io_faults_parse;
    Alcotest.test_case "io-faults deterministic, fsync torn-immune" `Quick
      test_io_faults_deterministic_and_fsync_immune;
    Alcotest.test_case "io-faults record counts sites" `Quick test_io_faults_record_counts_sites;
    Alcotest.test_case "with_retry policy" `Quick test_with_retry;
    Alcotest.test_case "atomic append" `Quick test_atomic_append;
  ]
