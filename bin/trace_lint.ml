(* Validate observability journals against the versioned schema: JSON
   well-formedness, required fields per event type, monotone timestamps,
   manifest-first, and per-domain span nesting. Exit 0 iff every file is
   valid. The @trace-quick alias runs this on a freshly traced tuning run,
   so `dune runtest` always exercises --trace end to end.

   With --checkpoint, the files are validated as search checkpoint logs
   instead (record framing, versioned schema, field-by-field diagnostics,
   RNG state format), printing a one-line summary per valid file: the
   records replayed, the bytes of a torn tail dropped, and the state. *)

module Trace = Heron_obs.Trace
module Checkpoint = Heron_search.Checkpoint

let lint path =
  match Trace.read_file path with
  | Error msg ->
      Printf.printf "FAIL %s: %s\n" path msg;
      false
  | Ok events -> (
      match Trace.schema_errors events @ Trace.nesting_errors events with
      | [] ->
          Printf.printf "OK   %s: %s\n" path (Trace.summary events);
          true
      | errors ->
          Printf.printf "FAIL %s:\n" path;
          List.iter (fun e -> Printf.printf "     %s\n" e) errors;
          false)

let lint_checkpoint path =
  match Checkpoint.read ~path with
  | Error msg ->
      Printf.printf "FAIL %s: %s\n" path msg;
      false
  | Ok log -> (
      (* [read] already validated the schema; the RNG state additionally
         has to be restorable. *)
      let rng = Heron_util.Rng.create 0 in
      match
        Heron_util.Rng.set_state_hex rng log.Checkpoint.snapshot.Heron_search.Cga.s_rng_hex
      with
      | Error msg ->
          Printf.printf "FAIL %s: checkpoint: rng: %s\n" path msg;
          false
      | Ok () ->
          Printf.printf "OK   %s: %s\n" path (Checkpoint.describe log);
          true)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let checkpoint_mode = List.mem "--checkpoint" args in
  let files = List.filter (fun a -> a <> "--checkpoint") args in
  if files = [] then begin
    prerr_endline "usage: trace_lint [--checkpoint] FILE ...";
    exit 2
  end;
  let lint = if checkpoint_mode then lint_checkpoint else lint in
  let ok = List.fold_left (fun acc f -> lint f && acc) true files in
  exit (if ok then 0 else 1)
