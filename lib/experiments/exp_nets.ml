module D = Heron_dla.Descriptor
module Env = Heron_search.Env
module Models = Heron_nets.Models
module Tasks = Heron_nets.Tasks
module Scheduler = Heron_nets.Scheduler
module Tuner = Heron_nets.Tuner
module Pool = Heron_util.Pool

(* First step at which a run's incumbent best reaches [threshold] —
   the measurements-to-first-improvement metric of the transfer gate. *)
let steps_to threshold trace =
  let rec go = function
    | [] -> None
    | (p : Env.point) :: rest -> (
        match p.Env.best with
        | Some b when b <= threshold +. 1e-9 -> Some p.Env.step
        | _ -> go rest)
  in
  go trace

let fmt_opt = function None -> "-" | Some l -> Printf.sprintf "%.2f" l

(* Strip what only the driver process can see (measurement counts vary
   across kill/resume) down to what determinism promises: the allocation
   trace, per-task traces and the final latency. *)
let fingerprint (r : Tuner.result) =
  ( r.Tuner.r_allocations,
    r.Tuner.r_latency_us,
    List.map (fun tr -> (tr.Tuner.tr_best, tr.Tuner.tr_trace)) r.Tuner.r_reports )

let run ?(budget = 80) ?(seed = 42) ?(slice = 8) ?(net = "mini") ?(strict = true) () =
  let desc = D.v100 in
  let net =
    match Models.find net with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Exp_nets.run: unknown network %S" net)
  in
  let tune ~policy ~transfer =
    Tuner.tune ~budget ~seed ~slice ~policy ~transfer desc net
  in
  let grad = tune ~policy:Scheduler.Gradient ~transfer:true in
  let rr = tune ~policy:Scheduler.Round_robin ~transfer:true in
  let cold = tune ~policy:Scheduler.Gradient ~transfer:false in
  (* Jobs-identity: the same gradient run with no pool must produce the
     identical allocation trace and traces. *)
  let solo = Pool.with_jobs 1 (fun () -> tune ~policy:Scheduler.Gradient ~transfer:true) in
  let jobs_identical = fingerprint grad = fingerprint solo in
  (* Transfer gate rows: every task the gradient run warm-started,
     scored against the cold run on steps-to-threshold. *)
  let transfer_rows =
    List.filter_map
      (fun (tr, cr) ->
        if not tr.Tuner.tr_transferred then None
        else
          match (tr.Tuner.tr_best, cr.Tuner.tr_best) with
          | Some bt, Some bc ->
              let threshold = Float.max bt bc in
              Some
                ( tr.Tuner.tr_task,
                  steps_to threshold tr.Tuner.tr_trace,
                  steps_to threshold cr.Tuner.tr_trace )
          | _ -> None)
      (List.combine grad.Tuner.r_reports cold.Tuner.r_reports)
  in
  let gate_gradient =
    match (grad.Tuner.r_latency_us, rr.Tuner.r_latency_us) with
    | Some g, Some r -> if strict then g < r else g <= r
    | _ -> false
  in
  let gate_transfer =
    transfer_rows <> []
    && List.exists
         (fun (_, st, sc) ->
           match (st, sc) with Some st, Some sc -> st <= sc | _ -> false)
         transfer_rows
  in
  let ok = gate_gradient && gate_transfer && jobs_identical in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Whole-network tuning: %s on %s, budget %d (slice %d), seed %d\n\n"
       net.Models.net_name desc.D.dname budget slice seed);
  let policy_rows =
    List.map
      (fun (name, (r : Tuner.result)) ->
        [
          name;
          fmt_opt r.Tuner.r_latency_us;
          string_of_int (List.length r.Tuner.r_allocations);
          String.concat " "
            (List.map
               (fun tr -> Printf.sprintf "%d:%d" tr.Tuner.tr_task.Tasks.t_id tr.Tuner.tr_alloc)
               r.Tuner.r_reports);
        ])
      [ ("gradient", grad); ("round-robin", rr); ("gradient/cold", cold) ]
  in
  Buffer.add_string buf
    (Report.table
       ~header:[ "policy"; "end-to-end us"; "rounds"; "trials per task" ]
       policy_rows);
  Buffer.add_string buf "\n";
  if transfer_rows <> [] then begin
    Buffer.add_string buf
      (Report.table
         ~header:[ "transferred task"; "steps to threshold (warm)"; "(cold)" ]
         (List.map
            (fun (t, st, sc) ->
              [
                Tasks.to_string t;
                (match st with None -> "-" | Some n -> string_of_int n);
                (match sc with None -> "-" | Some n -> string_of_int n);
              ])
            transfer_rows));
    Buffer.add_string buf "\n"
  end;
  Buffer.add_string buf
    (Printf.sprintf "gates: gradient%sround-robin %b, transfer-helps %b, jobs-identical %b\n"
       (if strict then "<" else "<=")
       gate_gradient gate_transfer jobs_identical);
  (Buffer.contents buf, ok)
