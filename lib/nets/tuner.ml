module Op = Heron_tensor.Op
module Assignment = Heron_csp.Assignment
module Descriptor = Heron_dla.Descriptor
module Env = Heron_search.Env
module Cga = Heron_search.Cga
module Checkpoint = Heron_search.Checkpoint
module Generator = Heron.Generator
module Pipeline = Heron.Pipeline
module Library = Heron.Library
module Features = Heron_cost.Features
module Transfer = Heron_cost.Transfer
module Rng = Heron_util.Rng
module Hashing = Heron_util.Hashing
module Atomic_io = Heron_util.Atomic_io
module Obs = Heron_obs.Obs
module Json = Heron_obs.Json

type task_report = {
  tr_task : Tasks.task;
  tr_rounds : int;
  tr_alloc : int;
  tr_steps : int;
  tr_best : float option;
  tr_best_assignment : Assignment.t option;
  tr_trace : Env.point list;
  tr_transferred : bool;
}

type result = {
  r_network : Models.network;
  r_desc : Descriptor.t;
  r_reports : task_report list;
  r_allocations : (int * int) list;
  r_library : Library.t;
  r_latency_us : float option;
  r_measurements : int;
}

let c_rounds = Obs.Counter.make "nets.rounds"
let c_tasks = Obs.Counter.make "nets.tasks"
let c_transfer_attempts = Obs.Counter.make "nets.transfer_attempts"
let c_transfer_applied = Obs.Counter.make "nets.transfer_applied"
let c_transfer_samples = Obs.Counter.make "nets.transfer_samples"
let c_transfer_skipped = Obs.Counter.make "nets.transfer_skipped"
let c_lost_writes = Obs.Counter.make "checkpoint.lost_writes"

let policy_tag = function
  | Scheduler.Gradient -> "gradient"
  | Scheduler.Round_robin -> "round_robin"
  | Scheduler.Custom _ -> "custom"

let run_label desc net ~budget ~seed ~slice ~policy ~transfer =
  Printf.sprintf "net=%s|%s|budget=%d|seed=%d|slice=%d|policy=%s|transfer=%b"
    net.Models.net_name desc.Descriptor.dname budget seed slice (policy_tag policy) transfer

let task_seed ~seed key =
  seed lxor (Int64.to_int (Hashing.fnv1a key) land 0x3FFFFFFF)

(* Everything built lazily per task: the generated space, the measurer and
   the search env. Construction is a pure function of (descriptor, op,
   task seed), so it is safe to rebuild after a resume. *)
type runtime = {
  gen : Generator.t;
  measured : unit -> int;  (** measurer invocations so far *)
  env : Env.t;
  features : Features.t;
}

type tstate = {
  task : Tasks.task;
  seed : int;  (** per-task search seed *)
  mutable snapshot : Cga.snapshot option;  (** latest CGA loop state *)
  mutable cum_budget : int;  (** budget handed to this task so far *)
  mutable transferred : bool;
  mutable transfer_tried : bool;
  mutable best_assignment : Assignment.t option;
  mutable rt : runtime option;
}

let runtime_of desc st =
  match st.rt with
  | Some rt -> rt
  | None ->
      let gen = Generator.generate ~seed:st.seed desc st.task.Tasks.t_op in
      let measure, measured = Pipeline.make_measure desc gen in
      let env = { Env.problem = gen.Generator.problem; measure; rng = Rng.create st.seed } in
      let features = Features.of_problem gen.Generator.problem in
      let rt = { gen; measured; env; features } in
      st.rt <- Some rt;
      rt

let steps_of st =
  match st.snapshot with
  | None -> 0
  | Some s -> s.Cga.s_recorder.Env.Recorder.x_steps

let best_of st =
  match st.snapshot with None -> None | Some s -> s.Cga.s_recorder.Env.Recorder.x_best

let window_of st = match st.snapshot with None -> [] | Some s -> s.Cga.s_model

(* ---------- cross-task transfer ---------- *)

let transfer_min_samples = 8

(* Donor choice is a pure function of the per-task windows: most samples
   wins, lowest task id breaks ties — so the donor (hence the warmed
   model, hence the whole downstream stream) is identical whatever order
   earlier rounds interleaved in. *)
let pick_donor states ~target =
  let best = ref None in
  Array.iteri
    (fun i st ->
      if i <> target then
        let n = List.length (window_of st) in
        if n >= transfer_min_samples then
          match !best with
          | Some (_, bn) when bn >= n -> ()
          | _ -> best := Some (i, n))
    states;
  Option.map fst !best

let attempt_transfer desc states target =
  let st = states.(target) in
  st.transfer_tried <- true;
  match pick_donor states ~target with
  | None -> ()
  | Some d ->
      Obs.Counter.incr c_transfer_attempts;
      let donor = states.(d) in
      let drt = runtime_of desc donor in
      let trt = runtime_of desc st in
      let portable = Transfer.export drt.features (window_of donor) in
      (match Transfer.import trt.features portable with
      | None -> Obs.Counter.incr c_transfer_skipped
      | Some rows ->
          Obs.Counter.incr c_transfer_applied;
          Obs.Counter.add c_transfer_samples (List.length rows);
          st.transferred <- true;
          st.snapshot <- Some (Cga.warm_snapshot trt.env rows))

(* ---------- composite checkpoint ---------- *)

let checkpoint_version = 1

let checkpoint_json ~label sched allocations states =
  Json.Obj
    [
      ("heron_nets_checkpoint", Json.Int checkpoint_version);
      ("label", Json.String label);
      ("scheduler", Scheduler.export sched);
      ( "allocations",
        Json.List
          (List.rev_map (fun (i, a) -> Json.List [ Json.Int i; Json.Int a ]) allocations) );
      ( "tasks",
        Json.List
          (Array.to_list
             (Array.map
                (fun st ->
                  Json.Obj
                    [
                      ("key", Json.String st.task.Tasks.t_key);
                      ("cum_budget", Json.Int st.cum_budget);
                      ("transferred", Json.Bool st.transferred);
                      ("transfer_tried", Json.Bool st.transfer_tried);
                      ( "snapshot",
                        match st.snapshot with
                        | None -> Json.Null
                        | Some s ->
                            Checkpoint.snapshot_to_json ~label:st.task.Tasks.t_key s );
                    ])
                states)) );
    ]

let ( let* ) = Result.bind

let fail msg = Error (Printf.sprintf "nets checkpoint: %s" msg)

let restore_checkpoint ~path ~label states =
  let* content =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> fail (Printf.sprintf "cannot read %s: %s" path e)
    | c -> Ok c
  in
  let* v =
    match Json.parse (String.trim content) with
    | Error e -> fail (Printf.sprintf "%s: invalid JSON: %s" path e)
    | Ok v -> Ok v
  in
  let* () =
    match Json.member "heron_nets_checkpoint" v with
    | Some (Json.Int n) when n = checkpoint_version -> Ok ()
    | Some (Json.Int n) ->
        fail (Printf.sprintf "unsupported version %d (this build reads %d)" n checkpoint_version)
    | Some _ -> fail "heron_nets_checkpoint: expected an integer"
    | None -> fail "not a network-tuner checkpoint (missing \"heron_nets_checkpoint\")"
  in
  let* file_label =
    match Json.member "label" v with
    | Some (Json.String s) -> Ok s
    | _ -> fail "missing label"
  in
  let* () =
    if file_label = label then Ok ()
    else
      fail
        (Printf.sprintf "%s belongs to a different run (file label %S, this run %S)" path
           file_label label)
  in
  let* sched =
    match Json.member "scheduler" v with
    | None -> fail "missing scheduler"
    | Some s -> Scheduler.import s
  in
  let* allocations =
    match Json.member "allocations" v with
    | Some (Json.List l) ->
        let rec go acc = function
          | [] -> Ok acc (* stored oldest-first; keep newest-first internally *)
          | Json.List [ Json.Int i; Json.Int a ] :: rest -> go ((i, a) :: acc) rest
          | _ -> fail "allocations: expected [task, trials] pairs"
        in
        go [] l
    | _ -> fail "missing allocations"
  in
  let* tasks =
    match Json.member "tasks" v with
    | Some (Json.List l) -> Ok l
    | _ -> fail "missing tasks"
  in
  let* () =
    if List.length tasks = Array.length states then Ok ()
    else
      fail
        (Printf.sprintf "task count mismatch (file has %d, this network has %d)"
           (List.length tasks) (Array.length states))
  in
  let* () =
    List.fold_left
      (fun acc (i, tv) ->
        let* () = acc in
        let st = states.(i) in
        let* key =
          match Json.member "key" tv with
          | Some (Json.String s) -> Ok s
          | _ -> fail (Printf.sprintf "tasks[%d]: missing key" i)
        in
        let* () =
          if key = st.task.Tasks.t_key then Ok ()
          else
            fail
              (Printf.sprintf "tasks[%d]: key mismatch (file %S, this network %S)" i key
                 st.task.Tasks.t_key)
        in
        let* cum =
          match Json.member "cum_budget" tv with
          | Some (Json.Int n) -> Ok n
          | _ -> fail (Printf.sprintf "tasks[%d]: missing cum_budget" i)
        in
        let* transferred =
          match Json.member "transferred" tv with
          | Some (Json.Bool b) -> Ok b
          | _ -> fail (Printf.sprintf "tasks[%d]: missing transferred" i)
        in
        let* tried =
          match Json.member "transfer_tried" tv with
          | Some (Json.Bool b) -> Ok b
          | _ -> fail (Printf.sprintf "tasks[%d]: missing transfer_tried" i)
        in
        let* snap =
          match Json.member "snapshot" tv with
          | Some Json.Null -> Ok None
          | Some s -> (
              match Checkpoint.snapshot_of_json s with
              | Ok (_, snap) -> Ok (Some snap)
              | Error e -> fail (Printf.sprintf "tasks[%d]: %s" i e))
          | None -> fail (Printf.sprintf "tasks[%d]: missing snapshot" i)
        in
        st.cum_budget <- cum;
        st.transferred <- transferred;
        st.transfer_tried <- tried;
        st.snapshot <- snap;
        (* A restored task may never be scheduled again (done, or budget
           already spent): its winning assignment must come back from the
           snapshot, not wait on a further round. *)
        (match snap with
        | Some s -> st.best_assignment <- s.Cga.s_recorder.Env.Recorder.x_best_a
        | None -> ());
        Ok ())
      (Ok ())
      (List.mapi (fun i tv -> (i, tv)) tasks)
  in
  Ok (sched, allocations)

(* ---------- the driver ---------- *)

let tune ?(budget = 256) ?(seed = 42) ?(slice = 16) ?(policy = Scheduler.Gradient)
    ?(transfer = true) ?params ?pool ?checkpoint ?resume ?kill_after desc net =
  let tasks = Tasks.extract net in
  if tasks = [] then invalid_arg "Tuner.tune: network has no tasks";
  let label = run_label desc net ~budget ~seed ~slice ~policy ~transfer in
  let states =
    Array.of_list
      (List.map
         (fun t ->
           {
             task = t;
             seed = task_seed ~seed t.Tasks.t_key;
             snapshot = None;
             cum_budget = 0;
             transferred = false;
             transfer_tried = false;
             best_assignment = None;
             rt = None;
           })
         tasks)
  in
  let sched, allocations =
    match resume with
    | None -> (Scheduler.create ~policy ~slice ~budget (Tasks.weights tasks), [])
    | Some path -> (
        match restore_checkpoint ~path ~label states with
        | Ok (sched, allocations) -> (sched, allocations)
        | Error e -> invalid_arg e)
  in
  let allocations = ref allocations in
  let writes = ref 0 in
  let save_checkpoint () =
    match checkpoint with
    | None -> ()
    | Some path ->
        (* As in [Pipeline.tune]: a write torn on every retry is lost,
           and the file keeps the previous round's. *)
        Obs.with_span "nets.checkpoint" (fun () ->
            let doc = Json.to_string (checkpoint_json ~label sched !allocations states) ^ "\n" in
            try
              Atomic_io.with_retry ~what:"nets.checkpoint" (fun () -> Atomic_io.replace ~path doc)
            with Atomic_io.Torn_write _ -> Obs.Counter.incr c_lost_writes);
        incr writes;
        (* Crash simulation: die (uncleanly, as a crash would) after the
           Nth checkpoint write. *)
        (match kill_after with Some n when !writes >= n -> exit 3 | _ -> ())
  in
  Obs.with_span "nets.tune" (fun () ->
      Obs.Counter.add c_tasks (Array.length states);
      let round = ref (List.length !allocations) in
      let continue_ = ref true in
      while !continue_ do
        match Scheduler.next sched with
        | None -> continue_ := false
        | Some (i, alloc) ->
            let st = states.(i) in
            if transfer && (not st.transfer_tried) && st.snapshot = None then
              attempt_transfer desc states i;
            let rt = runtime_of desc st in
            let gain = Scheduler.gain sched i in
            let steps_before = steps_of st in
            st.cum_budget <- st.cum_budget + alloc;
            let last_snap = ref st.snapshot in
            let _outcome =
              Obs.with_span "nets.round" (fun () ->
                  Cga.run ?params ?pool ?resume:st.snapshot
                    ~on_snapshot:(fun s -> last_snap := Some s)
                    rt.env ~budget:st.cum_budget)
            in
            st.snapshot <- !last_snap;
            (match !last_snap with
            | Some s -> st.best_assignment <- s.Cga.s_recorder.Env.Recorder.x_best_a
            | None -> ());
            let steps_after = steps_of st in
            let best = best_of st in
            (* A round that consumed no measurement steps cannot make
               progress with more budget either (space enumerated or
               eval cap reached): retire the task. *)
            let done_ =
              (match !last_snap with Some s -> s.Cga.s_stopped | None -> true)
              || steps_after = steps_before
            in
            Scheduler.report sched ~task:i ~alloc ~best ~done_;
            allocations := (i, alloc) :: !allocations;
            Obs.Counter.incr c_rounds;
            Obs.emit "net_round"
              [
                ("round", Json.Int !round);
                ("task", Json.Int i);
                ("key", Json.String st.task.Tasks.t_key);
                ("alloc", Json.Int alloc);
                ("steps", Json.Int (steps_after - steps_before));
                ("best", match best with None -> Json.Null | Some b -> Json.Float b);
                ( "gain",
                  if Float.is_finite gain then Json.Float gain else Json.Null );
              ];
            incr round;
            save_checkpoint ()
      done;
      (* Assemble the library and the end-to-end latency. *)
      let library = ref Library.empty in
      let latency = ref (Some 0.0) in
      let measurements = ref 0 in
      let reports =
        Array.to_list
          (Array.map
             (fun st ->
               let best = best_of st in
               (match (best, st.best_assignment) with
               | Some latency_us, Some a ->
                   library := Library.add !library desc st.task.Tasks.t_op ~latency_us a
               | _ -> ());
               (match (best, !latency) with
               | Some b, Some acc ->
                   latency := Some (acc +. (float_of_int st.task.Tasks.t_weight *. b))
               | _ -> latency := None);
               (match st.rt with
               | Some rt -> measurements := !measurements + rt.measured ()
               | None -> ());
               let views = Scheduler.views sched in
               let v = views.(st.task.Tasks.t_id) in
               {
                 tr_task = st.task;
                 tr_rounds = v.Scheduler.v_rounds;
                 tr_alloc = v.Scheduler.v_alloc;
                 tr_steps = steps_of st;
                 tr_best = best;
                 tr_best_assignment = st.best_assignment;
                 tr_trace =
                   (match st.snapshot with
                   | None -> []
                   | Some s -> s.Cga.s_recorder.Env.Recorder.x_trace);
                 tr_transferred = st.transferred;
               })
             states)
      in
      {
        r_network = net;
        r_desc = desc;
        r_reports = reports;
        r_allocations = List.rev !allocations;
        r_library = !library;
        r_latency_us = !latency;
        r_measurements = !measurements;
      })
