(* Observability layer tests: JSON round-trips, clock resolution, counter
   semantics (incl. race-freedom under the domain pool), span nesting,
   golden-trace regression on a fixed-seed tuning run (schema validity,
   monotone best-so-far, counter/evals agreement), tracing transparency
   (results are byte-identical with and without a journal),
   jobs-independence of the deterministic counters, and the Recorder
   cache cap. *)

module Obs = Heron_obs.Obs
module Json = Heron_obs.Json
module Trace = Heron_obs.Trace
module Pool = Heron_util.Pool
module Rng = Heron_util.Rng
module Domain_ = Heron_csp.Domain
module Cons = Heron_csp.Cons
module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Env = Heron_search.Env
module Cga = Heron_search.Cga

(* ---------- helpers ---------- *)

let tmp_journal () = Filename.temp_file "heron_obs" ".jsonl"

let with_journal f =
  let path = tmp_journal () in
  let m = Obs.manifest ~tool:"test" ~seed:0 () in
  Obs.start ~path m;
  let x = Fun.protect ~finally:Obs.stop f in
  let events =
    match Trace.read_file path with
    | Ok es -> es
    | Error msg -> Alcotest.failf "journal unreadable: %s" msg
  in
  Sys.remove path;
  (x, events)

let counter_delta names f =
  let before = List.map (fun n -> Obs.Counter.value (Obs.Counter.make n)) names in
  let x = f () in
  let after = List.map (fun n -> Obs.Counter.value (Obs.Counter.make n)) names in
  (x, List.map2 (fun a b -> a - b) after before)

let check_valid events =
  Alcotest.(check (list string)) "schema valid" [] (Trace.schema_errors events);
  Alcotest.(check (list string)) "nesting valid" [] (Trace.nesting_errors events)

(* The paper's Figure 5 toy space: fast enough to tune in milliseconds. *)
let toy_problem () =
  let b = Problem.builder () in
  Problem.add_var b "x" (Domain_.of_list [ 1; 2; 3; 4; 5 ]);
  Problem.add_var b "y" (Domain_.of_list [ 1; 2; 3; 4; 5 ]);
  Problem.add_var b "z" (Domain_.of_list [ 0; 1 ]);
  Problem.add_var b "xy" (Domain_.of_list (List.init 8 (fun i -> i + 1)));
  Problem.add_cons b (Cons.Prod ("xy", [ "x"; "y" ]));
  Problem.freeze b

let toy_objective a =
  (0.4 *. float_of_int (Assignment.get a "x"))
  +. (0.6 *. float_of_int (Assignment.get a "y"))
  +. (0.01 *. float_of_int (Assignment.get a "z"))

let toy_env seed =
  let p = toy_problem () in
  {
    Env.problem = p;
    measure =
      (fun a ->
        if Problem.check p a = Ok () then Some (1000.0 /. toy_objective a) else None);
    rng = Rng.create seed;
  }

(* ---------- JSON ---------- *)

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-123456789);
      Json.Float 0.1;
      Json.Float 1.0;
      Json.Float 1e-9;
      Json.Float (-3.25);
      Json.String "";
      Json.String "plain";
      Json.String "esc \"quotes\" \\ back \n newline \t tab";
      Json.String "ctrl \001 char";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Float 2.5 ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.parse s with
      | Ok v' -> Alcotest.(check bool) ("roundtrip " ^ s) true (v = v')
      | Error msg -> Alcotest.failf "parse %s failed: %s" s msg)
    values

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [ "{"; "tru"; "1 2"; "\"\\q\""; "[1,"; "{\"a\":}"; "" ]

let test_json_accessors () =
  let j = Json.Obj [ ("i", Json.Int 3); ("f", Json.Float 2.5); ("s", Json.String "x") ] in
  Alcotest.(check (option int)) "int" (Some 3) (Option.bind (Json.member "i" j) Json.to_int_opt);
  Alcotest.(check (option (float 0.0)))
    "int widens" (Some 3.0)
    (Option.bind (Json.member "i" j) Json.to_float_opt);
  Alcotest.(check (option string))
    "string" (Some "x")
    (Option.bind (Json.member "s" j) Json.to_string_opt);
  Alcotest.(check bool) "missing" true (Json.member "nope" j = None)

(* The printer as it stood before ints and strings were written in
   place: a test-only oracle for [Json.to_string]. Checkpoint files are
   compared byte for byte across versions, so the rendering of every
   value must stay exactly this. *)
module Oracle = struct
  let escape_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let float_repr f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec write b = function
    | Json.Null -> Buffer.add_string b "null"
    | Json.Bool true -> Buffer.add_string b "true"
    | Json.Bool false -> Buffer.add_string b "false"
    | Json.Int i -> Buffer.add_string b (string_of_int i)
    | Json.Float f -> Buffer.add_string b (float_repr f)
    | Json.String s -> escape_string b s
    | Json.List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            write b x)
          xs;
        Buffer.add_char b ']'
    | Json.Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape_string b k;
            Buffer.add_char b ':';
            write b v)
          fields;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 128 in
    write b v;
    Buffer.contents b
end

let special_floats =
  [
    0.0; -0.0; nan; Float.neg nan; infinity; neg_infinity;
    Int64.float_of_bits 1L (* smallest subnormal *);
    Int64.float_of_bits 0x000FFFFFFFFFFFFFL (* largest subnormal *);
    -1e-310; Float.min_float; Float.max_float; -.Float.max_float;
    1e16; Float.pred 1e16; Float.succ 1e16; -1e16; -.Float.pred 1e16;
    2e16; 12345678901234568.0; 123456789012345678.0; 9007199254740993.0;
    0.1; 0.1 +. 0.2; 1.0 /. 3.0; -2.0 /. 3.0; 1.0; -3.25; 4.35; 1e-9; 6.02214076e23;
  ]

let gen_float =
  let open QCheck.Gen in
  frequency
    [
      (3, oneofl special_floats);
      (2, float);
      (* arbitrary bit patterns: every exponent, NaN payloads, subnormals *)
      (2, map2 (fun hi lo -> Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32)
                                                    (Int64.of_int (lo land 0xFFFFFFFF)))) int int);
      (* integral floats, many above 1e16 *)
      (2, map float_of_int int);
      (1, map (fun n -> float_of_int n /. 1000.0) small_signed_int);
    ]

let gen_int =
  let open QCheck.Gen in
  frequency
    [ (2, oneofl [ min_int; max_int; min_int + 1; 0; -1; 1; -9; -10; 9; 10 ]); (3, int); (2, small_signed_int) ]

(* Strings over all 256 byte values. *)
let gen_string =
  let open QCheck.Gen in
  frequency
    [ (1, return (String.init 256 Char.chr)); (6, string_size ~gen:char (int_bound 12)) ]

let gen_json =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           frequency
             [
               (1, return Json.Null);
               (1, map (fun b -> Json.Bool b) bool);
               (3, map (fun i -> Json.Int i) gen_int);
               (4, map (fun f -> Json.Float f) gen_float);
               (3, map (fun s -> Json.String s) gen_string);
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 6) (self (n / 3))));
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (int_bound 6) (pair gen_string (self (n / 3)))) );
             ])

(* [parse] gives back what was printed: floats by bit pattern, except that
   non-finite floats print as null and an integral float printed without
   a '.' or an exponent reads back as the equal int. *)
let rec same v v' =
  match (v, v') with
  | Json.Float f, Json.Null -> not (Float.is_finite f)
  | Json.Float f, Json.Float g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
  | Json.Float f, Json.Int i -> Float.is_integer f && Float.equal (float_of_int i) f
  | Json.List xs, Json.List ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (k', y) -> String.equal k k' && same x y) xs ys
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.String _), _ -> v = v'
  | (Json.Float _ | Json.List _ | Json.Obj _), _ -> false

let prop_to_string_matches_oracle =
  QCheck.Test.make ~name:"json to_string equals the oracle and round-trips" ~count:500
    (QCheck.make ~print:Oracle.to_string gen_json)
    (fun v ->
      let expected = Oracle.to_string v in
      Json.to_string v = expected
      &&
      match Json.parse expected with
      | Ok v' -> same v v' && Json.to_string v' = expected
      | Error _ -> false)

(* ---------- clock ---------- *)

(* Back-to-back readings resolve well below a microsecond: a 1 us clock
   would read the same value twice far more often than not. *)
let test_clock_resolution () =
  let n = 10_000 in
  let deltas = Array.make n 0 in
  let prev = ref (Obs.Clock.now_ns ()) in
  for i = 0 to n - 1 do
    let t = Obs.Clock.now_ns () in
    deltas.(i) <- t - !prev;
    prev := t
  done;
  Array.sort Int.compare deltas;
  let median = deltas.(n / 2) in
  Alcotest.(check bool) "never decreases" true (deltas.(0) >= 0);
  Alcotest.(check bool) (Printf.sprintf "median delta %d ns > 0" median) true (median > 0);
  Alcotest.(check bool) (Printf.sprintf "median delta %d ns < 1 us" median) true (median < 1000)

(* ---------- counters ---------- *)

let test_counter_basics () =
  let c = Obs.Counter.make "test.basic" in
  let c' = Obs.Counter.make "test.basic" in
  let v0 = Obs.Counter.value c in
  Obs.Counter.incr c;
  Obs.Counter.add c' 9;
  Alcotest.(check int) "same counter by name" (v0 + 10) (Obs.Counter.value c);
  Alcotest.(check bool) "in snapshot" true
    (List.mem_assoc "test.basic" (Obs.Counter.snapshot ()))

let test_gauge_basics () =
  let g = Obs.Gauge.make "test.gauge" in
  Obs.Gauge.set g 2.5;
  Alcotest.(check (float 0.0)) "set/get" 2.5 (Obs.Gauge.value g);
  Alcotest.(check bool) "in snapshot" true
    (List.mem_assoc "test.gauge" (Obs.Gauge.snapshot ()))

(* Satellite: counters must be race-free under Pool.parallel_map — the
   total is exact and identical for any jobs value. *)
let test_counter_race_free_under_pool () =
  let c = Obs.Counter.make "test.race" in
  let tasks = 64 and per_task = 25 in
  List.iter
    (fun domains ->
      let _, deltas =
        counter_delta [ "test.race" ] (fun () ->
            Pool.with_pool ~domains (fun pool ->
                ignore
                  (Pool.parallel_init pool tasks (fun _ ->
                       for _ = 1 to per_task do
                         Obs.Counter.incr c
                       done))))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "exact total with %d domains" domains)
        [ tasks * per_task ] deltas)
    [ 1; 2; 4; 8 ]

(* pool.tasks counts submitted tasks, so its total is jobs-independent even
   though the chunk split is not. *)
let test_pool_task_counter_jobs_independent () =
  let run domains =
    let _, deltas =
      counter_delta [ "pool.tasks" ] (fun () ->
          Pool.with_pool ~domains (fun pool ->
              ignore (Pool.parallel_init pool 37 (fun i -> i * i))))
    in
    deltas
  in
  let d1 = run 1 in
  Alcotest.(check (list int)) "37 tasks at jobs=1" [ 37 ] d1;
  Alcotest.(check bool) "same at jobs=4" true (run 4 = d1)

(* ---------- journal and spans ---------- *)

let test_start_stop_lifecycle () =
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  let _, events =
    with_journal (fun () ->
        Alcotest.(check bool) "enabled inside" true (Obs.enabled ());
        (match Obs.start ~path:"/dev/null" (Obs.manifest ~tool:"t" ()) with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "double start must raise"))
  in
  check_valid events;
  Obs.stop () (* idempotent: no trace active *)

let test_span_nesting_and_parents () =
  let (), events =
    with_journal (fun () ->
        Obs.with_span "outer" (fun () ->
            Obs.with_span "inner" (fun () -> ());
            Obs.with_span "inner2" (fun () -> ())))
  in
  check_valid events;
  let begins = List.filter (fun (e : Trace.event) -> e.ev = "span_begin") events in
  Alcotest.(check int) "three spans" 3 (List.length begins);
  let find name =
    List.find (fun e -> Trace.string_field "span" e = Some name) begins
  in
  let outer_id = Option.get (Trace.int_field "id" (find "outer")) in
  Alcotest.(check bool) "outer is a root" true
    (Trace.field "parent" (find "outer") = Some Json.Null);
  Alcotest.(check (option int)) "inner nests under outer" (Some outer_id)
    (Trace.int_field "parent" (find "inner"));
  Alcotest.(check (option int)) "inner2 nests under outer" (Some outer_id)
    (Trace.int_field "parent" (find "inner2"))

let test_span_exception_safe () =
  let (), events =
    with_journal (fun () ->
        match Obs.with_span "boom" (fun () -> failwith "expected") with
        | exception Failure _ -> ()
        | () -> Alcotest.fail "exception must propagate")
  in
  check_valid events;
  Alcotest.(check int) "span closed despite exception" 1
    (List.length (List.filter (fun (e : Trace.event) -> e.ev = "span_end") events))

let test_timestamps_monotone () =
  let (), events =
    with_journal (fun () ->
        for _ = 1 to 50 do
          Obs.with_span "tick" (fun () -> ())
        done)
  in
  check_valid events;
  ignore
    (List.fold_left
       (fun prev (e : Trace.event) ->
         Alcotest.(check bool) "t_ns non-decreasing" true (e.t_ns >= prev);
         e.t_ns)
       0 events)

let test_trace_lint_rejects_malformed () =
  (* The validators must actually catch broken journals. *)
  Alcotest.(check bool) "bad JSON" true (Trace.parse_line "{not json" |> Result.is_error);
  Alcotest.(check bool) "missing header" true
    (Trace.parse_line "{\"v\":1,\"ev\":\"counter\"}" |> Result.is_error);
  Alcotest.(check bool) "wrong version" true
    (Trace.parse_line "{\"v\":99,\"t_ns\":0,\"ev\":\"counter\"}" |> Result.is_error);
  let ev line =
    match Trace.parse_line line with Ok e -> e | Error m -> Alcotest.failf "parse: %s" m
  in
  let manifest =
    ev "{\"v\":1,\"t_ns\":0,\"ev\":\"manifest\",\"schema\":1,\"tool\":\"t\",\"git_rev\":\"x\"}"
  in
  Alcotest.(check bool) "unknown event type flagged" true
    (Trace.schema_errors [ manifest; ev "{\"v\":1,\"t_ns\":1,\"ev\":\"bogus\"}" ] <> []);
  Alcotest.(check bool) "missing required field flagged" true
    (Trace.schema_errors
       [ manifest; ev "{\"v\":1,\"t_ns\":1,\"ev\":\"counter\",\"name\":\"c\"}" ]
    <> []);
  Alcotest.(check bool) "manifest-first enforced" true
    (Trace.schema_errors [ ev "{\"v\":1,\"t_ns\":0,\"ev\":\"trace_end\",\"events\":1}" ] <> []);
  Alcotest.(check bool) "unmatched span_end flagged" true
    (Trace.nesting_errors
       [ ev "{\"v\":1,\"t_ns\":1,\"ev\":\"span_end\",\"span\":\"s\",\"id\":7,\"domain\":0,\"dur_ns\":1}" ]
    <> []);
  Alcotest.(check bool) "unclosed span flagged" true
    (Trace.nesting_errors
       [ ev "{\"v\":1,\"t_ns\":1,\"ev\":\"span_begin\",\"span\":\"s\",\"id\":7,\"parent\":null,\"domain\":0}" ]
    <> [])

(* ---------- golden trace of a fixed-seed tuning run ---------- *)

let test_golden_tuning_trace () =
  let (outcome, step_delta), events =
    with_journal (fun () ->
        counter_delta [ "env.measure_steps" ] (fun () -> Cga.run (toy_env 21) ~budget:40))
  in
  let outcome, step_delta = (outcome, List.hd step_delta) in
  check_valid events;
  (* Eval trajectory: steps are consecutive from 1, best is monotone
     non-increasing, and the journal agrees with the in-memory result. *)
  let evals = Trace.evals events in
  let result = outcome.Cga.result in
  Alcotest.(check int) "one eval event per trace point"
    (List.length result.Env.trace) (List.length evals);
  List.iteri
    (fun i (step, _, _) -> Alcotest.(check int) "steps consecutive" (i + 1) step)
    evals;
  ignore
    (List.fold_left
       (fun prev (_, _, best) ->
         (match (prev, best) with
         | Some p, Some b -> Alcotest.(check bool) "best monotone" true (b <= p)
         | None, _ -> ()
         | Some _, None -> Alcotest.fail "best disappeared");
         best)
       None evals);
  (match List.rev evals with
  | (_, _, final_best) :: _ ->
      Alcotest.(check bool) "final best matches result" true
        (final_best = result.Env.best_latency)
  | [] -> Alcotest.fail "no eval events");
  (* Counter totals in the journal describe this run alone and agree with
     both the live counter delta and the number of emitted eval events. *)
  Alcotest.(check (option int)) "journal steps counter = live delta" (Some step_delta)
    (Trace.counter events "env.measure_steps");
  Alcotest.(check int) "steps counter = eval events" (List.length evals) step_delta;
  (* Structure: generation events and the CGA phase spans are present. *)
  Alcotest.(check bool) "has generation events" true
    (List.exists (fun (e : Trace.event) -> e.ev = "generation") events);
  let span_names =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.ev = "span_begin" then Trace.string_field "span" e else None)
      events
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("span " ^ name) true (List.mem name span_names))
    [ "cga.seed_population"; "cga.evolve"; "cga.measure" ];
  match events with
  | first :: _ ->
      Alcotest.(check (option string)) "manifest tool" (Some "test")
        (Trace.string_field "tool" first);
      Alcotest.(check bool) "git_rev present" true
        (Trace.string_field "git_rev" first <> Some "")
  | [] -> Alcotest.fail "empty journal"

(* Tracing must never change what the search does. *)
let test_tracing_transparent () =
  let run traced =
    let go () =
      let o = Cga.run (toy_env 33) ~budget:40 in
      (o.Cga.result.Env.best_latency, o.Cga.result.Env.trace, o.Cga.result.Env.invalid)
    in
    if traced then fst (with_journal go) else go ()
  in
  let plain = run false in
  Alcotest.(check bool) "traced run identical" true (run true = plain);
  Alcotest.(check bool) "untraced rerun identical" true (run false = plain)

(* ---------- span totals ---------- *)

(* The change in every span's total across [f]; spans that did not close
   in [f] are left out. *)
let span_deltas f =
  let before = Obs.span_totals () in
  let x = f () in
  let delta (name, (t : Obs.span_total)) =
    let b =
      Option.value (List.assoc_opt name before) ~default:{ Obs.count = 0; ns = 0 }
    in
    if t.Obs.count = b.Obs.count then None
    else Some (name, { Obs.count = t.Obs.count - b.Obs.count; ns = t.Obs.ns - b.Obs.ns })
  in
  (x, List.filter_map delta (Obs.span_totals ()))

let counts deltas = List.map (fun (name, (t : Obs.span_total)) -> (name, t.Obs.count)) deltas

(* Without a journal a span still adds to its name's total: one count and
   its wall time, also when its body raises. *)
let test_span_totals_without_journal () =
  Alcotest.(check bool) "no journal" false (Obs.enabled ());
  let (), deltas =
    span_deltas (fun () ->
        Obs.with_span "test.total" (fun () -> Unix.sleepf 0.002);
        match
          Obs.with_span "test.total" (fun () ->
              Unix.sleepf 0.002;
              failwith "expected")
        with
        | exception Failure _ -> ()
        | () -> Alcotest.fail "exception must propagate")
  in
  Alcotest.(check (list (pair string int))) "two spans counted" [ ("test.total", 2) ]
    (counts deltas);
  let t = List.assoc "test.total" deltas in
  Alcotest.(check bool)
    (Printf.sprintf "both sleeps timed (%d ns)" t.Obs.ns)
    true (t.Obs.ns >= 4_000_000)

(* A traced run: each span's total grows by exactly the [dur_ns] its
   [span_end] events carry. *)
let test_span_totals_match_journal () =
  let ((), deltas), events =
    with_journal (fun () -> span_deltas (fun () -> ignore (Cga.run (toy_env 21) ~budget:40)))
  in
  check_valid events;
  let journal =
    List.fold_left
      (fun acc (e : Trace.event) ->
        match (e.ev, Trace.string_field "span" e, Trace.int_field "dur_ns" e) with
        | "span_end", Some name, Some dur ->
            let n, ns = Option.value (List.assoc_opt name acc) ~default:(0, 0) in
            (name, (n + 1, ns + dur)) :: List.remove_assoc name acc
        | _ -> acc)
      [] events
    |> List.sort compare
  in
  Alcotest.(check bool) "spans ran" true (List.length journal >= 4);
  Alcotest.(check (list (pair string (pair int int))))
    "totals = journal counts and dur_ns sums" journal
    (List.map (fun (name, (t : Obs.span_total)) -> (name, (t.Obs.count, t.Obs.ns))) deltas)

let tune_v100 ?checkpoint () =
  ignore
    (Heron.Pipeline.tune ~budget:32 ~seed:5 ?checkpoint Heron_dla.Descriptor.v100
       (Heron_tensor.Op.gemm ~m:128 ~n:128 ~k:128 ()))

(* [Cga.phases] across a tuning call is the change in the [cga.*] totals:
   search = seeding + evolution + ranking, model, measure. *)
let test_phases_from_span_totals () =
  let before = Obs.span_totals () in
  tune_v100 ();
  let after = Obs.span_totals () in
  let p = Cga.phases ~before ~after in
  let ns name =
    let total l = match List.assoc_opt name l with Some t -> t.Obs.ns | None -> 0 in
    total after - total before
  in
  let s names = float_of_int (List.fold_left (fun acc n -> acc + ns n) 0 names) *. 1e-9 in
  Alcotest.(check bool) "search timed" true (p.Cga.search_s > 0.0);
  Alcotest.(check (float 0.0)) "search" (s [ "cga.seed_population"; "cga.evolve"; "cga.rank" ])
    p.Cga.search_s;
  Alcotest.(check (float 0.0)) "model" (s [ "cga.model" ]) p.Cga.model_s;
  Alcotest.(check (float 0.0)) "measure" (s [ "cga.measure" ]) p.Cga.measure_s

(* Tracing changes no span: a traced and an untraced tuning run close the
   same spans, as often. *)
let test_span_counts_traced_untraced () =
  let path = Filename.temp_file "heron_span_counts" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let (), plain = span_deltas (tune_v100 ~checkpoint:path) in
      let ((), traced), _ = with_journal (fun () -> span_deltas (tune_v100 ~checkpoint:path)) in
      Alcotest.(check bool) "prediction spans" true (List.mem_assoc "costmodel.predict" plain);
      Alcotest.(check (list (pair string int))) "same span names and counts" (counts plain)
        (counts traced))

(* Each checkpoint write of a tuning run is one [search.checkpoint] span,
   the snapshot it writes is built in one [cga.snapshot] span, and tracing
   leaves the checkpoint file byte-identical. A run without a checkpoint
   builds no snapshot. *)
let test_checkpoint_span_per_iteration () =
  let op = Heron_tensor.Op.gemm ~m:128 ~n:128 ~k:128 () in
  let tune ?checkpoint () =
    ignore (Heron.Pipeline.tune ~budget:32 ~seed:5 ?checkpoint Heron_dla.Descriptor.v100 op)
  in
  let count name events =
    List.length
      (List.filter
         (fun (e : Trace.event) -> e.ev = "span_begin" && Trace.string_field "span" e = Some name)
         events)
  in
  let plain = Filename.temp_file "heron_ck_plain" ".json" in
  let traced = Filename.temp_file "heron_ck_traced" ".json" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove plain;
      Sys.remove traced)
    (fun () ->
      tune ~checkpoint:plain ();
      let (), events = with_journal (fun () -> tune ~checkpoint:traced ()) in
      check_valid events;
      let spans = count "search.checkpoint" events in
      Alcotest.(check bool) "checkpoints written" true (spans > 0);
      Alcotest.(check (option int)) "one span per iteration" (Trace.counter events "cga.iterations")
        (Some spans);
      Alcotest.(check (option int)) "one snapshot per iteration"
        (Trace.counter events "cga.iterations")
        (Some (count "cga.snapshot" events));
      let (), events = with_journal (fun () -> tune ()) in
      Alcotest.(check int) "no snapshot without a checkpoint" 0 (count "cga.snapshot" events);
      Alcotest.(check string) "traced checkpoint identical" (read plain) (read traced))

(* The network tuner's composite checkpoint: one [nets.checkpoint] span per
   scheduler round, and the same file bytes with and without a journal. *)
let test_nets_checkpoint_span_per_round () =
  let tune path =
    ignore
      (Heron_nets.Tuner.tune ~budget:24 ~seed:3 ~slice:8 ~checkpoint:path
         Heron_dla.Descriptor.v100 Heron_nets.Models.tiny)
  in
  let plain = Filename.temp_file "heron_nets_plain" ".json" in
  let traced = Filename.temp_file "heron_nets_traced" ".json" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove plain;
      Sys.remove traced)
    (fun () ->
      tune plain;
      let (), events = with_journal (fun () -> tune traced) in
      check_valid events;
      let spans =
        List.length
          (List.filter
             (fun (e : Trace.event) ->
               e.ev = "span_begin" && Trace.string_field "span" e = Some "nets.checkpoint")
             events)
      in
      Alcotest.(check bool) "checkpoints written" true (spans > 0);
      Alcotest.(check (option int)) "one span per round" (Trace.counter events "nets.rounds")
        (Some spans);
      Alcotest.(check string) "traced checkpoint identical" (read plain) (read traced))

(* Each span's name and the names of all its ancestors. *)
let span_ancestry events =
  let begins = List.filter (fun (e : Trace.event) -> e.ev = "span_begin") events in
  let by_id =
    List.filter_map
      (fun e ->
        match (Trace.int_field "id" e, Trace.string_field "span" e) with
        | Some id, Some name -> Some (id, (name, Trace.int_field "parent" e))
        | _ -> None)
      begins
  in
  let rec ancestors = function
    | None -> []
    | Some id -> (
        match List.assoc_opt id by_id with
        | Some (name, parent) -> name :: ancestors parent
        | None -> [])
  in
  List.map (fun (_, (name, parent)) -> (name, ancestors parent)) by_id

let is_cga name = String.starts_with ~prefix:"cga." name

(* Space generation is one [generator.generate] span per tuned op, outside
   the search: a single-op tuning run has exactly one, on no CGA phase's
   path and with no CGA phase under it; the network tuner has one per
   task, under [nets.tune]. Tracing leaves the results unchanged. *)
let test_generate_span () =
  let op = Heron_tensor.Op.gemm ~m:128 ~n:128 ~k:128 () in
  let tune () =
    let r = Heron.Pipeline.tune ~budget:16 ~seed:5 Heron_dla.Descriptor.v100 op in
    (Heron.Pipeline.best_latency_us r, r.Heron.Pipeline.outcome.Cga.result.Env.trace)
  in
  let plain = tune () in
  let traced, events = with_journal tune in
  check_valid events;
  Alcotest.(check bool) "traced tuning identical" true (traced = plain);
  let spans = span_ancestry events in
  let gens = List.filter (fun (name, _) -> name = "generator.generate") spans in
  Alcotest.(check int) "one generate span" 1 (List.length gens);
  Alcotest.(check bool) "generate is outside every cga span" true
    (List.for_all (fun (_, path) -> not (List.exists is_cga path)) gens
    && List.for_all
         (fun (name, path) -> not (is_cga name && List.mem "generator.generate" path))
         spans);
  let net = Heron_nets.Models.tiny in
  let tune_net () =
    let r = Heron_nets.Tuner.tune ~budget:16 ~seed:3 ~slice:8 Heron_dla.Descriptor.v100 net in
    ( r.Heron_nets.Tuner.r_latency_us,
      List.map (fun t -> t.Heron_nets.Tuner.tr_trace) r.Heron_nets.Tuner.r_reports )
  in
  let plain = tune_net () in
  let traced, events = with_journal tune_net in
  check_valid events;
  Alcotest.(check bool) "traced network tuning identical" true (traced = plain);
  let gens =
    List.filter (fun (name, _) -> name = "generator.generate") (span_ancestry events)
  in
  Alcotest.(check int) "one generate span per task"
    (List.length (Heron_nets.Tasks.extract net))
    (List.length gens);
  Alcotest.(check bool) "inside nets.tune" true
    (List.for_all (fun (_, path) -> List.mem "nets.tune" path) gens)

(* The deterministic counters advance by exactly the same amount for any
   pool size (atomic increments over identical work). *)
let deterministic_counters =
  [
    "env.evals";
    "env.measure_steps";
    "env.invalid";
    "env.cache_hits";
    "solver.nodes";
    "solver.fails";
    "solver.rand_sat_draws";
    "solver.solve_calls";
    "solver.compiles";
    "solver.compile_cache_hits";
    "solver.trail_pushes";
    "solver.revise";
    "solver.support_checks";
    "solver.propagate_rounds";
    "solver.wipeouts";
    "cga.iterations";
    "cga.generations";
    "cga.offspring_attempted";
    "cga.offspring_accepted";
  ]

let test_counters_jobs_independent () =
  let run pool =
    counter_delta deterministic_counters (fun () ->
        (Cga.run ?pool (toy_env 21) ~budget:40).Cga.result.Env.best_latency)
  in
  let best0, deltas0 = run None in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let best, deltas = run (Some p) in
          Alcotest.(check bool) "same best" true (best = best0);
          List.iteri
            (fun i name ->
              Alcotest.(check int)
                (Printf.sprintf "%s identical at jobs=%d" name domains)
                (List.nth deltas0 i) (List.nth deltas i))
            deterministic_counters))
    [ 2; 4 ]

(* CSP solving is the pool's only client inside CGA: every pool task of a
   pooled run is one random draw or one crossover offspring solve. *)
let test_pool_tasks_are_solver_tasks () =
  let names = [ "pool.tasks"; "solver.rand_sat_draws"; "cga.offspring_attempted" ] in
  let _, deltas =
    Pool.with_pool ~domains:2 (fun p ->
        counter_delta names (fun () -> ignore (Cga.run ~pool:p (toy_env 21) ~budget:40)))
  in
  match deltas with
  | [ tasks; draws; offspring ] ->
      Alcotest.(check bool) "solver tasks ran" true (draws > 0 && offspring > 0);
      Alcotest.(check int) "pool.tasks = draws + offspring" (draws + offspring) tasks
  | _ -> assert false

(* ---------- Recorder cache cap ---------- *)

let test_cache_cap_holds () =
  let measured = ref 0 in
  let p = toy_problem () in
  let env =
    {
      Env.problem = p;
      measure =
        (fun a ->
          incr measured;
          Some (1000.0 /. toy_objective a));
      rng = Rng.create 1;
    }
  in
  let assignment x y = Assignment.of_list [ ("x", x); ("y", y); ("z", 0); ("xy", x * y) ] in
  let distinct = [ assignment 1 1; assignment 1 2; assignment 1 3;
                   assignment 1 4; assignment 1 5; assignment 2 1 ] in
  let r = Env.Recorder.create ~cache_cap:3 env ~budget:100 in
  let _, evictions =
    counter_delta [ "env.cache_evictions" ] (fun () ->
        List.iter (fun a -> ignore (Env.Recorder.eval r a)) distinct)
  in
  Alcotest.(check bool) "cap holds" true (Env.Recorder.cache_size r <= 3);
  Alcotest.(check (list int)) "evictions counted" [ 3 ] evictions;
  (* An evicted configuration is re-measured (one more hardware call); a
     resident one replays from cache. *)
  let calls = !measured in
  ignore (Env.Recorder.eval r (assignment 1 1));
  Alcotest.(check int) "evicted key re-measured" (calls + 1) !measured;
  ignore (Env.Recorder.eval r (assignment 2 1));
  Alcotest.(check int) "resident key cached" (calls + 1) !measured

let test_cache_cap_default_never_evicts () =
  let r = Env.Recorder.create (toy_env 9) ~budget:50 in
  let _, evictions =
    counter_delta [ "env.cache_evictions" ] (fun () ->
        for x = 1 to 5 do
          for y = 1 to 5 do
            if x * y <= 8 then
              ignore
                (Env.Recorder.eval r
                   (Assignment.of_list [ ("x", x); ("y", y); ("z", 0); ("xy", x * y) ]))
          done
        done)
  in
  Alcotest.(check (list int)) "no evictions at default cap" [ 0 ] evictions

(* A failed journal write — here injected via the same hook that
   Io_faults.set_default installs — drops that one event and counts it;
   the run continues and the surviving journal still validates. *)
let test_journal_write_fault_drops_event () =
  let drop_next = ref false in
  Obs.set_journal_write_fault
    (Some
       (fun ~path:_ ~seq:_ ->
         if !drop_next then begin
           drop_next := false;
           true
         end
         else false));
  Fun.protect ~finally:(fun () -> Obs.set_journal_write_fault None) @@ fun () ->
  let ((), deltas), events =
    with_journal (fun () ->
        counter_delta [ "obs.journal_write_failures" ] (fun () ->
            Obs.emit "gauge" [ ("name", Json.String "keep_a"); ("value", Json.Float 1.0) ];
            drop_next := true;
            Obs.emit "gauge" [ ("name", Json.String "dropped"); ("value", Json.Float 2.0) ];
            Obs.emit "gauge" [ ("name", Json.String "keep_b"); ("value", Json.Float 3.0) ]))
  in
  Alcotest.(check (list int)) "one failure counted" [ 1 ] deltas;
  Alcotest.(check bool) "hook consumed" false !drop_next;
  check_valid events;
  let gauge_names =
    List.filter_map
      (fun e ->
        if e.Trace.ev = "gauge" then
          Option.bind (Trace.field "name" e) Json.to_string_opt
        else None)
      events
  in
  Alcotest.(check bool) "events around the drop survive" true
    (List.mem "keep_a" gauge_names && List.mem "keep_b" gauge_names);
  Alcotest.(check bool) "the faulted event is gone" false (List.mem "dropped" gauge_names)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Heron_check.Replay.to_alcotest ~seed:(Heron_check.Replay.seed_from_env ())
      prop_to_string_matches_oracle;
    Alcotest.test_case "span totals without a journal" `Quick test_span_totals_without_journal;
    Alcotest.test_case "clock resolves below 1 us" `Quick test_clock_resolution;
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
    Alcotest.test_case "counters race-free under pool" `Quick
      test_counter_race_free_under_pool;
    Alcotest.test_case "pool.tasks jobs-independent" `Quick
      test_pool_task_counter_jobs_independent;
    Alcotest.test_case "start/stop lifecycle" `Quick test_start_stop_lifecycle;
    Alcotest.test_case "span nesting and parents" `Quick test_span_nesting_and_parents;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "timestamps monotone" `Quick test_timestamps_monotone;
    Alcotest.test_case "span totals = journal dur_ns" `Quick test_span_totals_match_journal;
    Alcotest.test_case "phases from span totals" `Quick test_phases_from_span_totals;
    Alcotest.test_case "same spans traced or not" `Quick test_span_counts_traced_untraced;
    Alcotest.test_case "validators reject malformed journals" `Quick
      test_trace_lint_rejects_malformed;
    Alcotest.test_case "golden tuning trace" `Quick test_golden_tuning_trace;
    Alcotest.test_case "tracing is transparent" `Quick test_tracing_transparent;
    Alcotest.test_case "checkpoint span per iteration" `Quick test_checkpoint_span_per_iteration;
    Alcotest.test_case "nets checkpoint span per round" `Quick
      test_nets_checkpoint_span_per_round;
    Alcotest.test_case "generate span per tuned op" `Quick test_generate_span;
    Alcotest.test_case "counters jobs-independent" `Quick test_counters_jobs_independent;
    Alcotest.test_case "pool tasks are solver tasks" `Quick test_pool_tasks_are_solver_tasks;
    Alcotest.test_case "cache cap holds with evictions" `Quick test_cache_cap_holds;
    Alcotest.test_case "default cap never evicts" `Quick test_cache_cap_default_never_evicts;
    Alcotest.test_case "journal write fault drops one event" `Quick
      test_journal_write_fault_drops_event;
  ]
