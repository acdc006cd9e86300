module Trace = Heron_obs.Trace
module Json = Heron_obs.Json
module Timer = Perfbench.Timer
module Profile = Perfbench.Profile
module Catalogue = Perfbench.Catalogue

let fixture () =
  match Profile.read "fixtures/two_domains.jsonl" with
  | Ok p -> p
  | Error e -> Alcotest.failf "fixture: %s" e

(* Hand-computed from the fixture: [outer] (domain 0) holds two [inner]
   spans, the second holding a [leaf]; [work] runs at the same time on
   domain 1 with a [leaf] of its own and is nobody's child. *)
let test_self_times () =
  let p = fixture () in
  let check name count incl self =
    let s = Profile.span p name in
    Alcotest.(check (list int)) name [ count; incl; self ]
      [ s.Profile.count; s.Profile.incl_ns; s.Profile.self_ns ]
  in
  check "outer" 1 90 45;
  check "inner" 2 45 37;
  check "leaf" 2 23 23;
  check "work" 1 65 50;
  check "absent" 0 0 0;
  Alcotest.(check (list int)) "leaf instances" [ 8; 15 ] (Profile.span p "leaf").Profile.durs_ns;
  Alcotest.(check (list string)) "span names" [ "inner"; "leaf"; "outer"; "work" ]
    (List.map (fun s -> s.Profile.name) (Profile.spans p))

let test_counters () =
  let p = fixture () in
  Alcotest.(check int) "counter" 7 (Profile.counter p "solver.nodes");
  Alcotest.(check int) "absent counter" 0 (Profile.counter p "solver.fails")

let test_bad_nesting () =
  let events =
    List.map
      (fun l -> match Trace.parse_line l with Ok e -> e | Error e -> Alcotest.fail e)
      [
        {|{"v":1,"t_ns":0,"ev":"span_begin","span":"a","id":0,"parent":null,"domain":0}|};
        {|{"v":1,"t_ns":1,"ev":"span_begin","span":"b","id":1,"parent":0,"domain":0}|};
        {|{"v":1,"t_ns":2,"ev":"span_end","span":"a","id":0,"domain":0,"dur_ns":2}|};
      ]
  in
  Alcotest.(check bool) "rejected" true (Result.is_error (Profile.of_events events))

let test_clock_resolution () =
  let n = 1001 in
  let deltas =
    List.init n (fun _ ->
        let a = Timer.now_ns () in
        Timer.now_ns () - a)
  in
  Alcotest.(check bool) "monotonic" true (List.for_all (fun d -> d >= 0) deltas);
  let median = Timer.median (List.map float_of_int deltas) in
  if median >= 1000.0 then Alcotest.failf "median back-to-back delta %.0f ns" median

let test_percentile () =
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check (list int)) "nearest rank" [ 50; 99; 100; 1 ]
    [ Timer.percentile a 50.0; Timer.percentile a 99.0; Timer.percentile a 100.0; Timer.percentile a 0.5 ];
  Alcotest.(check int) "empty" 0 (Timer.percentile [||] 50.0)

(* BENCHMARK.json at the repository root must describe exactly the
   metrics the harness prints, in the same order. *)
let test_benchmark_json () =
  let json =
    match Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let listed key =
    match Json.member key json with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            let s k = Option.bind (Json.member k m) Json.to_string_opt |> Option.value ~default:"" in
            (s "name", s "unit", s "better"))
          l
    | _ -> Alcotest.failf "BENCHMARK.json: no %s" key
  in
  let expected l =
    List.map
      (fun (m : Catalogue.metric) ->
        (m.Catalogue.name, m.Catalogue.unit, Catalogue.better_to_string m.Catalogue.better))
      l
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (expected Catalogue.end_to_end) (listed "end_to_end");
  Alcotest.check triple "per_layer" (expected Catalogue.per_layer) (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "profile",
        [
          Alcotest.test_case "self time on two domains" `Quick test_self_times;
          Alcotest.test_case "counter deltas" `Quick test_counters;
          Alcotest.test_case "bad nesting rejected" `Quick test_bad_nesting;
        ] );
      ( "timer",
        [
          Alcotest.test_case "clock resolution under 1 us" `Quick test_clock_resolution;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json ]);
    ]
