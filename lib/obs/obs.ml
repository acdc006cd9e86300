(* Structured run observability: monotonic-clock spans, named atomic
   counters/gauges, and a JSONL event journal with a versioned schema.

   Design constraints (see OBSERVABILITY.md):
   - counters/gauges and span totals are always live (metrics and phase
     times can be read without a journal) and never touch RNG or control
     flow, so instrumented code produces byte-identical results with or
     without a trace;
   - the journal sink is process-global and mutex-serialized; timestamps
     are read under the sink mutex, so [t_ns] is non-decreasing in file
     order — a validated invariant;
   - when no sink is installed [emit] is a single atomic load, and a span
     costs two clock reads and one update of its name's total. *)

let schema_version = 1

(* ---------- monotonic clock ---------- *)

module Clock = struct
  (* CLOCK_MONOTONIC through bechamel's C stub: nanosecond resolution,
     never steps backwards, one clock for every domain. *)
  let now_ns () = Int64.to_int (Monotonic_clock.now ())
end

(* ---------- counters and gauges ---------- *)

module Counter = struct
  type t = { name : string; cell : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64
  let registry_mutex = Mutex.create ()

  let make name =
    Mutex.lock registry_mutex;
    let c =
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let c = { name; cell = Atomic.make 0 } in
          Hashtbl.replace registry name c;
          c
    in
    Mutex.unlock registry_mutex;
    c

  let name c = c.name
  let incr c = Atomic.incr c.cell
  let add c n = ignore (Atomic.fetch_and_add c.cell n)
  let value c = Atomic.get c.cell

  let snapshot () =
    Mutex.lock registry_mutex;
    let all = Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc) registry [] in
    Mutex.unlock registry_mutex;
    List.sort compare all
end

module Gauge = struct
  type t = { name : string; cell : float Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16
  let registry_mutex = Mutex.create ()

  let make name =
    Mutex.lock registry_mutex;
    let g =
      match Hashtbl.find_opt registry name with
      | Some g -> g
      | None ->
          let g = { name; cell = Atomic.make 0.0 } in
          Hashtbl.replace registry name g;
          g
    in
    Mutex.unlock registry_mutex;
    g

  let name g = g.name
  let set g v = Atomic.set g.cell v
  let value g = Atomic.get g.cell

  let snapshot () =
    Mutex.lock registry_mutex;
    let all = Hashtbl.fold (fun name g acc -> (name, Atomic.get g.cell) :: acc) registry [] in
    Mutex.unlock registry_mutex;
    List.sort compare all
end

(* ---------- run manifest ---------- *)

type manifest = {
  tool : string;
  seed : int option;
  descriptor : string option;
  op : string option;
  budget : int option;
  jobs : int option;
  git_rev : string;
  argv : string list;
}

(* Best-effort: HERON_GIT_REV overrides, else walk up from the cwd looking
   for .git/HEAD (following one level of ref indirection). *)
let detect_git_rev () =
  match Sys.getenv_opt "HERON_GIT_REV" with
  | Some rev when rev <> "" -> rev
  | _ ->
      let read_first_line path =
        match open_in path with
        | exception Sys_error _ -> None
        | ic ->
            let line = try Some (input_line ic) with End_of_file -> None in
            close_in_noerr ic;
            line
      in
      let resolve dir =
        match read_first_line (Filename.concat dir ".git/HEAD") with
        | None -> None
        | Some head ->
            if String.length head > 5 && String.sub head 0 5 = "ref: " then
              let ref_path = String.sub head 5 (String.length head - 5) in
              read_first_line (Filename.concat dir (Filename.concat ".git" ref_path))
            else Some head
      in
      let rec up dir depth =
        if depth > 6 then None
        else
          match resolve dir with
          | Some rev -> Some rev
          | None ->
              let parent = Filename.dirname dir in
              if parent = dir then None else up parent (depth + 1)
      in
      let short rev = if String.length rev > 12 then String.sub rev 0 12 else rev in
      (match up (Sys.getcwd ()) 0 with
      | Some rev -> short (String.trim rev)
      | None -> "unknown")

let manifest ~tool ?seed ?descriptor ?op ?budget ?jobs () =
  {
    tool;
    seed;
    descriptor;
    op;
    budget;
    jobs;
    git_rev = detect_git_rev ();
    argv = Array.to_list Sys.argv;
  }

(* ---------- the journal sink ---------- *)

type sink = {
  oc : out_channel;
  path : string;
  mutex : Mutex.t;
  t0_ns : int;
  baseline : (string, int) Hashtbl.t;  (* counter values when the trace started *)
  span_ids : int Atomic.t;
  mutable events : int;
  mutable seq : int;  (* write attempts, including dropped ones *)
}

let current : sink option Atomic.t = Atomic.make None

let enabled () = Atomic.get current <> None

(* The journal is observability, not durability: a failed event write
   (real EIO, or a fault injected through the hook below) drops that one
   event and counts it, instead of aborting a tuning run over its own
   telemetry. The hook is keyed on [seq] — a counter of write *attempts*,
   not successes — so one dropped event never condemns the rest of the
   stream to the same hash decision. *)
let c_journal_write_failures = Counter.make "obs.journal_write_failures"
let c_journal_rename_failures = Counter.make "obs.journal_rename_failures"

let no_journal_fault ~path:_ ~seq:_ = false
let journal_write_fault = ref no_journal_fault

let set_journal_write_fault = function
  | None -> journal_write_fault := no_journal_fault
  | Some f -> journal_write_fault := f

let write_event s ev fields =
  Mutex.lock s.mutex;
  let t_ns = Clock.now_ns () - s.t0_ns in
  let line =
    Json.to_string
      (Json.Obj
         (("v", Json.Int schema_version)
          :: ("t_ns", Json.Int t_ns)
          :: ("ev", Json.String ev)
          :: fields))
  in
  let seq = s.seq in
  s.seq <- seq + 1;
  (match
     if !journal_write_fault ~path:s.path ~seq then
       raise (Sys_error (s.path ^ ": injected journal write fault"));
     output_string s.oc line;
     output_char s.oc '\n'
   with
  | () -> s.events <- s.events + 1
  | exception Sys_error _ -> Counter.incr c_journal_write_failures);
  Mutex.unlock s.mutex

let emit ev fields =
  match Atomic.get current with None -> () | Some s -> write_event s ev fields

let opt_field name to_json = function None -> (name, Json.Null) | Some v -> (name, to_json v)

let start ~path m =
  (match Atomic.get current with
  | Some _ -> invalid_arg "Obs.start: a trace is already active"
  | None -> ());
  (* The journal accumulates in [path ^ ".tmp"] and only lands at [path]
     when [stop] closes it, so a killed run never leaves a truncated
     journal where a reader expects a complete one. *)
  let oc = open_out (path ^ ".tmp") in
  let baseline = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace baseline name v) (Counter.snapshot ());
  let s =
    {
      oc;
      path;
      mutex = Mutex.create ();
      t0_ns = Clock.now_ns ();
      baseline;
      span_ids = Atomic.make 0;
      events = 0;
      seq = 0;
    }
  in
  Atomic.set current (Some s);
  write_event s "manifest"
    [
      ("schema", Json.Int schema_version);
      ("tool", Json.String m.tool);
      opt_field "seed" (fun i -> Json.Int i) m.seed;
      opt_field "descriptor" (fun d -> Json.String d) m.descriptor;
      opt_field "op" (fun o -> Json.String o) m.op;
      opt_field "budget" (fun b -> Json.Int b) m.budget;
      opt_field "jobs" (fun j -> Json.Int j) m.jobs;
      ("git_rev", Json.String m.git_rev);
      ("argv", Json.List (List.map (fun a -> Json.String a) m.argv));
    ]

(* Counter events report the delta since [start], so a journal's totals
   describe that run alone even though counters are process-global. *)
let counter_delta s (name, v) =
  let base = match Hashtbl.find_opt s.baseline name with Some b -> b | None -> 0 in
  (name, v - base)

let stop () =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      List.iter
        (fun (name, delta) ->
          if delta <> 0 then
            write_event s "counter" [ ("name", Json.String name); ("value", Json.Int delta) ])
        (List.map (counter_delta s) (Counter.snapshot ()));
      List.iter
        (fun (name, v) ->
          write_event s "gauge" [ ("name", Json.String name); ("value", Json.Float v) ])
        (Gauge.snapshot ());
      write_event s "trace_end" [ ("events", Json.Int (s.events + 1)) ];
      Atomic.set current None;
      close_out_noerr s.oc;
      (* A failed finalizing rename loses the whole journal; that must at
         least be visible — count it and say where the bytes still are. *)
      (try Unix.rename (s.path ^ ".tmp") s.path
       with Unix.Unix_error (err, _, _) ->
         Counter.incr c_journal_rename_failures;
         Printf.eprintf "warning: obs: could not finalize journal %s: %s (events remain in %s)\n%!"
           s.path (Unix.error_message err) (s.path ^ ".tmp"))

let with_trace path m f =
  match path with
  | None -> f ()
  | Some p ->
      start ~path:p m;
      Fun.protect ~finally:stop f

(* ---------- spans ---------- *)

(* Per-name span totals, kept with or without a journal: the one clock
   every phase figure is read from. *)
type span_total = { count : int; ns : int }

let totals : (string, span_total) Hashtbl.t = Hashtbl.create 32
let totals_mutex = Mutex.create ()

let add_total name dur =
  Mutex.lock totals_mutex;
  let t = Option.value (Hashtbl.find_opt totals name) ~default:{ count = 0; ns = 0 } in
  Hashtbl.replace totals name { count = t.count + 1; ns = t.ns + dur };
  Mutex.unlock totals_mutex

let span_totals () =
  Mutex.lock totals_mutex;
  let all = Hashtbl.fold (fun name t acc -> (name, t) :: acc) totals [] in
  Mutex.unlock totals_mutex;
  List.sort compare all

(* Per-domain span stack: spans opened on different pool domains nest
   independently, and the journal records which domain each belongs to so
   validators can check stack discipline per domain. *)
let span_stack : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let with_span name f =
  match Atomic.get current with
  | None ->
      let t_begin = Clock.now_ns () in
      Fun.protect ~finally:(fun () -> add_total name (Clock.now_ns () - t_begin)) f
  | Some s ->
      let id = Atomic.fetch_and_add s.span_ids 1 in
      let stack = Domain.DLS.get span_stack in
      let parent = match !stack with [] -> Json.Null | p :: _ -> Json.Int p in
      let dom = (Domain.self () :> int) in
      let t_begin = Clock.now_ns () in
      write_event s "span_begin"
        [
          ("span", Json.String name);
          ("id", Json.Int id);
          ("parent", parent);
          ("domain", Json.Int dom);
        ];
      stack := id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          (match !stack with top :: rest when top = id -> stack := rest | _ -> ());
          let dur = Clock.now_ns () - t_begin in
          add_total name dur;
          emit "span_end"
            [
              ("span", Json.String name);
              ("id", Json.Int id);
              ("domain", Json.Int dom);
              ("dur_ns", Json.Int dur);
            ])
        f

(* ---------- metrics report ---------- *)

let metrics_report () =
  let b = Buffer.create 512 in
  let counters = List.filter (fun (_, v) -> v <> 0) (Counter.snapshot ()) in
  let gauges = List.filter (fun (_, v) -> v <> 0.0) (Gauge.snapshot ()) in
  let width =
    List.fold_left
      (fun acc (name, _) -> max acc (String.length name))
      0
      (counters @ List.map (fun (n, _) -> (n, 0)) gauges)
  in
  Buffer.add_string b "-- metrics --\n";
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%-*s %d\n" width name v))
    counters;
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%-*s %g\n" width name v))
    gauges;
  Buffer.contents b
