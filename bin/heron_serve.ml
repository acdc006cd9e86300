(* The tuning-as-a-service driver: start (or resume) a schedule-library
   daemon for one DLA, replay a seeded Zipf-distributed request stream over
   an operator universe in waves (lookups enqueue misses; the queue drains
   between waves), and report lookup throughput, hit/miss/degraded counts
   and p50/p99 latency plus a race of the indexed hit path against the
   naive cold Library.load-and-scan. --gate-speedup turns the race into a
   gate: the process exits 1 when the hit path is not that much faster.

   All daemon state (versioned snapshots, manifest, queue checkpoint)
   lives in --dir, so killing this process at any instant (--kill-after
   simulates a crash right after the Nth publish, exiting 3) and rerunning
   the identical command drains to a byte-identical final library. *)

open Cmdliner
module Op = Heron_tensor.Op
module D = Heron_dla.Descriptor
module Pool = Heron_util.Pool
module Obs = Heron_obs.Obs
module Library = Heron.Library
module Serve = Heron_serving.Daemon
module Index = Heron_serving.Index
module Store = Heron_serving.Store
module Traffic = Heron_serving.Traffic
module Rng = Heron_util.Rng
module Io_faults = Heron_util.Io_faults

(* Serving universes. "quick" is a small intrinsic-friendly GEMM family
   whose spaces tune in well under a second each — the CI universe; the
   others are the paper's lib/nets suites. *)
let universe_of = function
  | "quick" ->
      Ok
        (List.map
           (fun (m, n, k) -> Op.gemm ~m ~n ~k ())
           [ (16, 16, 16); (32, 32, 32); (32, 32, 16); (64, 32, 32); (32, 64, 32); (64, 64, 64) ])
  | "table9-gemm" -> Ok (List.map snd Heron_nets.Suites.table9_gemm)
  | "table9-c2d" -> Ok (List.map snd Heron_nets.Suites.table9_c2d)
  | "tensorcore" -> Ok (List.concat_map snd Heron_nets.Suites.tensorcore_ops)
  | s -> Error (Printf.sprintf "unknown universe %S (quick|table9-gemm|table9-c2d|tensorcore)" s)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n /. 100.)) - 1 |> max 0))

(* The naive offline alternative the index replaces: load the published
   snapshot from disk and scan its entries for the key. *)
let cold_lookup path key =
  match Library.load_result path with
  | Error _ -> None
  | Ok (lib, _) ->
      List.find_opt (fun (e : Library.entry) -> e.Library.op_key ^ "@" ^ e.Library.dla = key)
        (Library.entries lib)

let run dla universe dir requests zipf waves budget family_max seed jobs kill_after dump gate
    trace metrics io_faults =
  match D.of_string dla with
  | Error e ->
      prerr_endline e;
      2
  | Ok desc -> (
      match universe_of universe with
      | Error e ->
          prerr_endline e;
          2
      | Ok ops ->
          match Io_faults.parse io_faults with
          | Error e ->
              prerr_endline e;
              2
          | Ok io_spec ->
          Io_faults.set_default (Option.map Io_faults.create io_spec);
          (match io_spec with
          | None -> ()
          | Some s -> Printf.printf "io-faults: %s\n%!" (Io_faults.to_string s));
          Io_faults.top_level @@ fun () ->
          let jobs = max 1 jobs in
          let manifest =
            Obs.manifest ~tool:"heron_serve" ~seed ~descriptor:desc.D.dname ~budget ~jobs ()
          in
          Obs.with_trace trace manifest @@ fun () ->
          Pool.with_jobs jobs @@ fun () ->
          let config =
            {
              (Serve.default_config ~dir ~resolve:(Serve.universe_resolve ops) desc) with
              Serve.budget;
              seed;
              family_max;
            }
          in
          let daemon = Serve.start config in
          List.iter
            (fun w -> Printf.eprintf "warning: %s\n%!" (Library.warning_to_string w))
            (Serve.load_warnings daemon);
          if Serve.recovered daemon then prerr_endline "store: recovered from snapshot scan";
          Printf.printf
            "serving %s on %s: %d ops, %d requests in %d waves (zipf %.2f, budget %d, seed %d, %d jobs)\n\
             start: library v%d (%d entries), queue %d\n\
             %!"
            universe desc.D.dname (List.length ops) requests waves zipf budget seed jobs
            (Serve.version daemon)
            (Library.size (Serve.library daemon))
            (Serve.queue_length daemon);
          let publishes = ref 0 in
          let on_publish _version =
            incr publishes;
            match kill_after with
            | Some n when !publishes >= n ->
                Printf.eprintf "kill-after: simulating crash after publish %d\n%!" !publishes;
                exit 3
            | _ -> ()
          in
          (* Every distinct operator's probe is resolved once; the measured
             hot path is strictly lookup work. *)
          let probes =
            Array.of_list (List.map (fun op -> Index.probe ~dla:desc.D.dname op) ops)
          in
          let traffic = Traffic.create ~rng:(Rng.create seed) ~n:(Array.length probes) ~s:zipf in
          let waves = max 1 waves in
          let per_wave = max 1 (requests / waves) in
          let lat = Array.make (per_wave * waves) 0 in
          let measured = ref 0 in
          let lookup_s = ref 0.0 in
          for wave = 1 to waves do
            Obs.with_span "serve.wave" (fun () ->
                let t0 = Obs.Clock.now_ns () in
                for _ = 1 to per_wave do
                  let p = probes.(Traffic.next traffic) in
                  let n0 = Obs.Clock.now_ns () in
                  let r = Serve.lookup daemon p in
                  let n1 = Obs.Clock.now_ns () in
                  ignore (r : Serve.served);
                  lat.(!measured) <- n1 - n0;
                  incr measured
                done;
                lookup_s := !lookup_s +. (float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9));
            let tuned = Serve.drain ~on_publish daemon in
            Printf.printf "wave %d: drained %d tasks, library v%d (%d entries)\n%!" wave tuned
              (Serve.version daemon)
              (Library.size (Serve.library daemon))
          done;
          let c v = Obs.Counter.value (Obs.Counter.make v) in
          let lookups = c "serve.lookups" in
          let hits = c "serve.hits" in
          let misses = c "serve.misses" in
          let degraded = c "serve.degraded" in
          let sorted = Array.sub lat 0 !measured in
          Array.sort compare sorted;
          let p50 = percentile sorted 50. and p99 = percentile sorted 99. in
          let req_s = float_of_int !measured /. Float.max !lookup_s 1e-9 in
          Printf.printf
            "lookups %d: %d hits, %d misses, %d degraded | %.0f req/s, p50 %d ns, p99 %d ns\n"
            lookups hits misses degraded req_s p50 p99;
          Printf.printf "counters: enqueued %d, deduped %d, publishes %d, tasks %d\n"
            (c "serve.enqueued") (c "serve.deduped") (c "serve.publishes") (c "serve.tasks");
          (* Hot-path race: the same hit stream against the cold
             load-and-scan a library-less client would pay per query. *)
          let final = Serve.library daemon in
          let snapshot = Store.snapshot_path (Store.open_ ~dir) (Serve.version daemon) in
          let hot_reps = 100_000 and cold_reps = 30 in
          let snap = Index.current (Serve.index daemon) in
          let hot_ns =
            if Array.length probes = 0 then 0.0
            else begin
              let t0 = Obs.Clock.now_ns () in
              for i = 0 to hot_reps - 1 do
                ignore (Index.query snap probes.(i mod Array.length probes))
              done;
              float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int hot_reps
            end
          in
          let cold_ns =
            if Library.size final = 0 || not (Sys.file_exists snapshot) then 0.0
            else begin
              let t0 = Obs.Clock.now_ns () in
              for i = 0 to cold_reps - 1 do
                ignore (cold_lookup snapshot probes.(i mod Array.length probes).Index.p_key)
              done;
              float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int cold_reps
            end
          in
          let speedup = if hot_ns > 0.0 && cold_ns > 0.0 then cold_ns /. hot_ns else 0.0 in
          Printf.printf "hit path: %.0f ns vs cold load-and-scan %.0f ns (%.0fx)\n%!" hot_ns
            cold_ns speedup;
          (match dump with
          | None -> ()
          | Some path -> Heron_util.Atomic_io.write_string ~path (Library.to_string final));
          if metrics then print_string (Obs.metrics_report ());
          if speedup < gate then begin
            Printf.eprintf "FATAL: hit path only %.0fx faster than cold load-and-scan (gate %.0fx)\n"
              speedup gate;
            1
          end
          else 0)

let () =
  let dla = Arg.(value & opt string "v100" & info [ "dla" ] ~docv:"DLA") in
  let universe =
    Arg.(
      value & opt string "quick"
      & info [ "universe"; "u" ] ~docv:"NAME"
          ~doc:
            "Operator universe the daemon serves: $(b,quick) (small GEMM \
             family), $(b,table9-gemm), $(b,table9-c2d) or $(b,tensorcore) \
             (the lib/nets suites).")
  in
  let dir =
    Arg.(
      value & opt string "_serve_store"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Store directory: versioned library snapshots, manifest and \
             queue checkpoint. Rerunning the same command on an existing \
             directory resumes the daemon's durable state.")
  in
  let requests =
    Arg.(
      value & opt int 50_000
      & info [ "requests"; "n" ] ~docv:"N" ~doc:"Total lookup requests across all waves.")
  in
  let zipf =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf exponent of the request distribution (0 = uniform).")
  in
  let waves =
    Arg.(
      value & opt int 2
      & info [ "waves" ] ~docv:"W"
          ~doc:
            "Traffic waves; the tuning queue drains fully between waves, \
             so later waves hit what earlier waves missed.")
  in
  let budget =
    Arg.(value & opt int 24 & info [ "budget"; "t" ] ~docv:"N" ~doc:"Tuning budget per task.")
  in
  let family_max =
    Arg.(
      value & opt int 4
      & info [ "family-max" ] ~docv:"N"
          ~doc:"Max similar-shape tasks tuned (with shared model warm-start) per publish.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let jobs =
    Arg.(
      value
      & opt int (Pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domain-pool parallelism for CSP solving in background tuning, the only parallel \
             phase. Results are identical for any value.")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Testing hook: exit with status 3 (simulating a crash) right \
             after the N-th publish, before the queue checkpoint.")
  in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-library" ] ~docv:"FILE"
          ~doc:"Write the final library's canonical text rendering to $(docv).")
  in
  let gate =
    Arg.(
      value & opt float 0.0
      & info [ "gate-speedup" ] ~docv:"X"
          ~doc:
            "Fail (exit 1) unless the indexed hit path is at least $(docv) \
             times faster than a cold Library load-and-scan per lookup.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a structured JSONL event journal to $(docv). Tracing never changes results.")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Print counter totals when done.")
  in
  let io_faults =
    Arg.(
      value & opt string "off"
      & info [ "io-faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic storage-fault injection on the write path \
             (store snapshots, queue checkpoints, journal writes): \
             $(b,off); $(b,record) (inject nothing, count I/O sites); \
             $(b,crash_at=N) (simulate process death at the N-th site, \
             exit 3); or comma-separated key=value pairs over seed, \
             enospc, eio, torn, rename, crash, persistent. Faults are a \
             pure function of the spec and the write history — zero RNG \
             state is consumed. A persistent rate flips the daemon into \
             degraded read-only serving.")
  in
  let term =
    Term.(
      const run $ dla $ universe $ dir $ requests $ zipf $ waves $ budget $ family_max $ seed
      $ jobs $ kill_after $ dump $ gate $ trace $ metrics $ io_faults)
  in
  let exits = List.map (fun (c, doc) -> Cmd.Exit.info c ~doc) Io_faults.exits @ Cmd.Exit.defaults in
  let info =
    Cmd.info "heron_serve" ~exits
      ~doc:"Serve a persistent tuned-schedule library with a background tuning queue."
  in
  exit (Cmd.eval' (Cmd.v info term))
