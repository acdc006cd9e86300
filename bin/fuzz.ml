(* Open-ended property-based fuzzing campaigns over the whole stack:
   differential CSP-solver verification against the brute-force oracle,
   DLA validator/perf-model metamorphic properties, and search-level
   invariants. `dune runtest` runs the same properties at a small budget;
   this driver exists for big-budget campaigns and one-command replay of
   any failure it (or the test suite) reports. *)

open Cmdliner
module Replay = Heron_check.Replay
module Suite = Heron_check.Suite
module Obs = Heron_obs.Obs

let matches filter name =
  match filter with
  | None -> true
  | Some f ->
      let lower s = String.lowercase_ascii s in
      let f = lower f and name = lower name in
      let fl = String.length f and nl = String.length name in
      let rec at i = i + fl <= nl && (String.sub name i fl = f || at (i + 1)) in
      at 0

let collect ~budget ~filter =
  Suite.all ~budget
  |> List.concat_map (fun (group, tests) ->
         List.filter_map
           (fun t ->
             let name = Replay.test_name t in
             if matches filter name || matches filter group then Some (group, name, t)
             else None)
           tests)

let run budget seed filter list_only trace metrics faults io_faults =
  match Heron_dla.Faults.parse faults with
  | Error e ->
      prerr_endline e;
      2
  | Ok fault_spec ->
  match Heron_util.Io_faults.parse io_faults with
  | Error e ->
      prerr_endline e;
      2
  | Ok io_spec ->
  Heron_dla.Faults.set_default fault_spec;
  Heron_util.Io_faults.set_default (Option.map Heron_util.Io_faults.create io_spec);
  (* The crash property group installs and clears its own injector per
     scenario, independent of this process default. *)
  Heron_util.Io_faults.top_level @@ fun () ->
  let tests = collect ~budget ~filter in
  if list_only then begin
    List.iter (fun (group, name, _) -> Printf.printf "%-8s %s\n" group name) tests;
    0
  end
  else begin
    Printf.printf "fuzz: %d properties, budget %d, seed %d\n%!" (List.length tests) budget seed;
    let manifest = Obs.manifest ~tool:"fuzz" ~seed ~budget () in
    Obs.with_trace trace manifest @@ fun () ->
    Fun.protect ~finally:(fun () ->
        if metrics then print_string (Obs.metrics_report ()))
    @@ fun () ->
    let failures = ref 0 in
    List.iter
      (fun (group, name, t) ->
        let t0 = Obs.Clock.now_ns () in
        let elapsed () = float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9 in
        match Obs.with_span ("fuzz." ^ name) (fun () -> Replay.run_test ~seed t) with
        | () -> Printf.printf "PASS %-8s %s (%.1fs)\n%!" group name (elapsed ())
        | exception e ->
            incr failures;
            Printf.printf "FAIL %-8s %s (%.1fs)\n%s\n" group name (elapsed ())
              (Printexc.to_string e);
            Printf.printf
              "     replay: dune exec bin/fuzz.exe -- --budget %d --seed %d --filter %S\n%!"
              budget seed name)
      tests;
    if !failures = 0 then begin
      Printf.printf "fuzz: all %d properties passed\n" (List.length tests);
      0
    end
    else begin
      Printf.printf "fuzz: %d of %d properties FAILED\n" !failures (List.length tests);
      1
    end
  end

let () =
  let budget =
    Arg.(
      value & opt int 1000
      & info [ "budget"; "b" ] ~docv:"N"
          ~doc:"Generated cases per differential property (derived groups scale down).")
  in
  let seed =
    Arg.(
      value
      & opt int Replay.default_seed
      & info [ "seed"; "s" ] ~docv:"SEED"
          ~doc:
            "Campaign seed. Each property derives its generator state from \
             (seed, property name), so --filter never shifts another \
             property's stream and any reported failure replays \
             byte-identically.")
  in
  let filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter"; "f" ] ~docv:"SUBSTR"
          ~doc:"Only run properties whose name or group contains $(docv) (case-insensitive).")
  in
  let list_only =
    Arg.(value & flag & info [ "list"; "l" ] ~doc:"List matching properties and exit.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a structured JSONL event journal (one span per property, \
             solver counter totals) to $(docv). See OBSERVABILITY.md.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Print solver/search/pool counter totals when done.")
  in
  let faults =
    Arg.(
      value & opt string "off"
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic measurement-fault injection installed as the \
             process default for every search-level property: $(b,off), or \
             comma-separated key=value pairs over seed, timeout, crash, \
             hang, noise, persistent. See heron_tune --help.")
  in
  let io_faults =
    Arg.(
      value & opt string "off"
      & info [ "io-faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic storage-fault injection installed as the \
             process default for every property that writes files: \
             $(b,off), $(b,record), $(b,crash_at=N), or comma-separated \
             key=value pairs over seed, enospc, eio, torn, rename, crash, \
             persistent. See heron_tune --help.")
  in
  let term =
    Term.(const run $ budget $ seed $ filter $ list_only $ trace $ metrics $ faults $ io_faults)
  in
  let exits =
    List.map (fun (c, doc) -> Cmd.Exit.info c ~doc) Heron_util.Io_faults.exits @ Cmd.Exit.defaults
  in
  let info =
    Cmd.info "fuzz" ~exits
      ~doc:"Property-based fuzzing campaigns for the Heron CSP solver, DLA layer and search."
  in
  exit (Cmd.eval' (Cmd.v info term))
