module Assignment = Heron_csp.Assignment
module Json = Heron_obs.Json

let version = 1

(* ---------- encoding ---------- *)

let json_of_opt f = function None -> Json.Null | Some x -> f x
let json_of_float x = Json.Float x

let json_of_assignment a =
  Json.List
    (List.map (fun (v, x) -> Json.List [ Json.String v; Json.Int x ]) (Assignment.bindings a))

let json_of_point (p : Env.point) =
  Json.List
    [ Json.Int p.Env.step; json_of_opt json_of_float p.Env.latency; json_of_opt json_of_float p.Env.best ]

let json_of_cache_entry (k, l) = Json.List [ Json.String k; json_of_opt json_of_float l ]

let json_of_recorder ~trace ~cache (x : Env.Recorder.export) =
  Json.Obj
    [
      ("steps", Json.Int x.Env.Recorder.x_steps);
      ("evals", Json.Int x.Env.Recorder.x_evals);
      ("invalid", Json.Int x.Env.Recorder.x_invalid);
      ("best", json_of_opt json_of_float x.Env.Recorder.x_best);
      ("best_a", json_of_opt json_of_assignment x.Env.Recorder.x_best_a);
      ("trace", trace);
      ("cache", cache);
      ("quarantined", Json.List (List.map (fun k -> Json.String k) x.Env.Recorder.x_quarantined));
      ("degraded", Json.List (List.map (fun k -> Json.String k) x.Env.Recorder.x_degraded));
    ]

(* The checkpoint document, with the recorder's trace and cache lists
   given by the caller: rendered ones for [to_json], placeholders for the
   writer, which prints their entries from its memo. *)
let document ~label ~trace ~cache (s : Cga.snapshot) =
  Json.Obj
    [
      ("heron_checkpoint", Json.Int version);
      ("label", Json.String label);
      ("iter", Json.Int s.Cga.s_iter);
      ("dry", Json.Int s.Cga.s_dry);
      ("stopped", Json.Bool s.Cga.s_stopped);
      ("rng", Json.String s.Cga.s_rng_hex);
      ("recorder", json_of_recorder ~trace ~cache s.Cga.s_recorder);
      ( "survivors",
        Json.List
          (List.map
             (fun (a, l) -> Json.List [ json_of_assignment a; Json.Float l ])
             s.Cga.s_survivors) );
      ( "model",
        Json.List
          (List.map
             (fun (bins, score) ->
               Json.List
                 [ Json.List (Array.to_list (Array.map (fun b -> Json.Int b) bins)); Json.Float score ])
             s.Cga.s_model) );
    ]

let to_json ~label (s : Cga.snapshot) =
  let x = s.Cga.s_recorder in
  document ~label s
    ~trace:(Json.List (List.map json_of_point x.Env.Recorder.x_trace))
    ~cache:(Json.List (List.map json_of_cache_entry x.Env.Recorder.x_cache))

(* One file per run: successive checkpoints of a run repeat nearly every
   float of the previous one, so the printer's memo formats each once, and
   the one buffer is rewritten in place instead of reallocated. *)
type file = { path : string; what : string; printer : Json.printer; buf : Buffer.t }

let file ~path ~what = { path; what; printer = Json.printer (); buf = Buffer.create 4096 }

let output f write =
  Heron_util.Atomic_io.with_retry ~what:f.what (fun () ->
      Heron_util.Atomic_io.with_file_out ~path:f.path write)

let write_json f v =
  Buffer.clear f.buf;
  Json.print f.printer f.buf v;
  Buffer.add_char f.buf '\n';
  output f (fun oc -> Buffer.output_buffer oc f.buf)

(* The entries of one recorder list that a writer has written, in list
   order, with their rendered text joined by commas in one buffer.
   Successive snapshots of a run share their lists' leading entries: the
   recorder exports the same point records, and the same memoized key
   strings and latency options, every time. So an entry is recognized by
   physical equality, and since the values are immutable, an entry that
   is physically the same renders to the same text. *)
type 'a entries = {
  same : 'a -> 'a -> bool;
  json : 'a -> Json.t;
  mutable items : 'a array;
  mutable n : int;
  text : Buffer.t;
}

let entries ~same ~json = { same; json; items = [||]; n = 0; text = Buffer.create 4096 }

(* Make [e] hold exactly the entries of [xs]: when [xs] starts with the
   held entries, render only its tail; otherwise (another run's snapshot,
   a FIFO eviction, a shorter list) render every entry again. *)
let sync e printer xs =
  let rec held i xs =
    if i = e.n then Some xs
    else
      match xs with
      | x :: rest when e.same x e.items.(i) -> held (i + 1) rest
      | _ -> None
  in
  let tail =
    match held 0 xs with
    | Some tail -> tail
    | None ->
        e.n <- 0;
        Buffer.clear e.text;
        xs
  in
  List.iter
    (fun x ->
      if e.n > 0 then Buffer.add_char e.text ',';
      Json.print printer e.text (e.json x);
      if e.n = Array.length e.items then
        e.items <- Array.append e.items (Array.make (max 64 e.n) x);
      e.items.(e.n) <- x;
      e.n <- e.n + 1)
    tail

(* A writer prints the document in three parts, split at the trace and
   cache lists, and sends the parts and the held entries' text straight
   to the file, never joining them into one string. *)
type writer = {
  file : file;  (* its buffer holds the part before the trace entries *)
  label : string;
  trace : Env.point entries;
  cache : (string * float option) entries;
  mid : Buffer.t;  (* between the trace and the cache entries *)
  tail : Buffer.t;  (* after the cache entries *)
}

let writer ~path ~label =
  {
    file = file ~path ~what:"search.checkpoint";
    label;
    trace = entries ~same:( == ) ~json:json_of_point;
    cache = entries ~same:(fun (k, l) (k', l') -> k == k' && l == l') ~json:json_of_cache_entry;
    mid = Buffer.create 256;
    tail = Buffer.create 4096;
  }

(* The writer's placeholders for the two lists: blocks allocated here, so
   no value of a document is physically equal to either. *)
let trace_hole = Json.String (String.make 1 't')
let cache_hole = Json.String (String.make 1 'c')

(* Print [v] as [Json.print] does, except that a placeholder ends the
   current part with its opening bracket and starts the next with its
   closing one. Only objects are descended: the placeholders are fields
   of the recorder object. *)
let rec print_parts w part v =
  if v == trace_hole || v == cache_hole then begin
    Buffer.add_char !part '[';
    part := if v == trace_hole then w.mid else w.tail;
    Buffer.add_char !part ']'
  end
  else
    match v with
    | Json.Obj fields ->
        Buffer.add_char !part '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char !part ',';
            Json.print w.file.printer !part (Json.String k);
            Buffer.add_char !part ':';
            print_parts w part v)
          fields;
        Buffer.add_char !part '}'
    | v -> Json.print w.file.printer !part v

let write w s =
  let x = s.Cga.s_recorder in
  sync w.trace w.file.printer x.Env.Recorder.x_trace;
  sync w.cache w.file.printer x.Env.Recorder.x_cache;
  List.iter Buffer.clear [ w.file.buf; w.mid; w.tail ];
  print_parts w (ref w.file.buf) (document ~label:w.label ~trace:trace_hole ~cache:cache_hole s);
  Buffer.add_char w.tail '\n';
  output w.file (fun oc ->
      List.iter (Buffer.output_buffer oc) [ w.file.buf; w.trace.text; w.mid; w.cache.text; w.tail ])

let save ~path ~label s = write (writer ~path ~label) s

(* ---------- decoding ---------- *)

(* A tiny result-monad decoder: every failure names the path of the
   offending field, so a truncated or hand-edited checkpoint produces an
   actionable diagnostic instead of a stack trace. *)

let ( let* ) = Result.bind

let fail ctx msg =
  if ctx = "" then Error (Printf.sprintf "checkpoint: %s" msg)
  else Error (Printf.sprintf "checkpoint: %s: %s" ctx msg)

let field ctx name obj =
  match Json.member name obj with
  | Some v -> Ok v
  | None -> fail ctx (Printf.sprintf "missing field %S" name)

let as_int ctx = function
  | Json.Int n -> Ok n
  | _ -> fail ctx "expected an integer"

let as_bool ctx = function
  | Json.Bool b -> Ok b
  | _ -> fail ctx "expected a boolean"

let as_string ctx = function
  | Json.String s -> Ok s
  | _ -> fail ctx "expected a string"

let as_float ctx = function
  | Json.Float f -> Ok f
  | Json.Int n -> Ok (float_of_int n)
  | _ -> fail ctx "expected a number"

let as_list ctx = function
  | Json.List l -> Ok l
  | _ -> fail ctx "expected an array"

let as_opt f ctx = function Json.Null -> Ok None | v -> Result.map Option.some (f ctx v)

let map_listi ctx f l =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f (Printf.sprintf "%s[%d]" ctx i) x with
        | Ok y -> go (i + 1) (y :: acc) rest
        | Error _ as e -> e)
  in
  go 0 [] l

let dec_assignment ctx v =
  let* pairs = as_list ctx v in
  let* bindings =
    map_listi ctx
      (fun ctx -> function
        | Json.List [ Json.String var; Json.Int x ] -> Ok (var, x)
        | _ -> fail ctx "expected [variable, value]")
      pairs
  in
  Ok (Assignment.of_list bindings)

let dec_point ctx v =
  match v with
  | Json.List [ step; latency; best ] ->
      let* step = as_int (ctx ^ ".step") step in
      let* latency = as_opt as_float (ctx ^ ".latency") latency in
      let* best = as_opt as_float (ctx ^ ".best") best in
      Ok { Env.step; latency; best }
  | _ -> fail ctx "expected [step, latency, best]"

let dec_recorder ctx v =
  let* steps = Result.bind (field ctx "steps" v) (as_int (ctx ^ ".steps")) in
  let* evals = Result.bind (field ctx "evals" v) (as_int (ctx ^ ".evals")) in
  let* invalid = Result.bind (field ctx "invalid" v) (as_int (ctx ^ ".invalid")) in
  let* best = Result.bind (field ctx "best" v) (as_opt as_float (ctx ^ ".best")) in
  let* best_a = Result.bind (field ctx "best_a" v) (as_opt dec_assignment (ctx ^ ".best_a")) in
  let* trace = Result.bind (field ctx "trace" v) (as_list (ctx ^ ".trace")) in
  let* trace = map_listi (ctx ^ ".trace") dec_point trace in
  let* cache = Result.bind (field ctx "cache" v) (as_list (ctx ^ ".cache")) in
  let* cache =
    map_listi (ctx ^ ".cache")
      (fun ctx -> function
        | Json.List [ Json.String k; l ] ->
            let* l = as_opt as_float ctx l in
            Ok (k, l)
        | _ -> fail ctx "expected [key, latency]")
      cache
  in
  let dec_keys name =
    let* l = Result.bind (field ctx name v) (as_list (ctx ^ "." ^ name)) in
    map_listi (ctx ^ "." ^ name) as_string l
  in
  let* quarantined = dec_keys "quarantined" in
  let* degraded = dec_keys "degraded" in
  Ok
    {
      Env.Recorder.x_steps = steps;
      x_evals = evals;
      x_invalid = invalid;
      x_best = best;
      x_best_a = best_a;
      x_trace = trace;
      x_cache = cache;
      x_quarantined = quarantined;
      x_degraded = degraded;
    }

let of_json v =
  let ctx = "" in
  let* ver =
    match Json.member "heron_checkpoint" v with
    | Some (Json.Int n) -> Ok n
    | Some _ -> Error "checkpoint: heron_checkpoint: expected an integer"
    | None -> Error "checkpoint: not a Heron checkpoint (missing \"heron_checkpoint\")"
  in
  let* () =
    if ver = version then Ok ()
    else Error (Printf.sprintf "checkpoint: unsupported version %d (this build reads %d)" ver version)
  in
  let* label = Result.bind (field ctx "label" v) (as_string "label") in
  let* iter = Result.bind (field ctx "iter" v) (as_int "iter") in
  let* dry = Result.bind (field ctx "dry" v) (as_int "dry") in
  let* stopped = Result.bind (field ctx "stopped" v) (as_bool "stopped") in
  let* rng = Result.bind (field ctx "rng" v) (as_string "rng") in
  let* recorder = Result.bind (field ctx "recorder" v) (dec_recorder "recorder") in
  let* survivors = Result.bind (field ctx "survivors" v) (as_list "survivors") in
  let* survivors =
    map_listi "survivors"
      (fun ctx -> function
        | Json.List [ a; l ] ->
            let* a = dec_assignment ctx a in
            let* l = as_float ctx l in
            Ok (a, l)
        | _ -> fail ctx "expected [assignment, latency]")
      survivors
  in
  let* model = Result.bind (field ctx "model" v) (as_list "model") in
  let* model =
    map_listi "model"
      (fun ctx -> function
        | Json.List [ bins; score ] ->
            let* bins = as_list ctx bins in
            let* bins = map_listi ctx as_int bins in
            let* score = as_float ctx score in
            Ok (Array.of_list bins, score)
        | _ -> fail ctx "expected [bins, score]")
      model
  in
  Ok
    ( label,
      {
        Cga.s_iter = iter;
        s_dry = dry;
        s_stopped = stopped;
        s_rng_hex = rng;
        s_recorder = recorder;
        s_survivors = survivors;
        s_model = model;
      } )

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (Printf.sprintf "checkpoint: cannot read %s: %s" path e)
  | content -> (
      match Json.parse (String.trim content) with
      | Error e -> Error (Printf.sprintf "checkpoint: %s: invalid JSON: %s" path e)
      | Ok v -> of_json v)

let snapshot_to_json = to_json
let snapshot_of_json = of_json

let describe (label, s) =
  let r = s.Cga.s_recorder in
  Printf.sprintf
    "label=%S iterations=%d steps=%d evals=%d invalid=%d best=%s cached=%d quarantined=%d \
     degraded=%d survivors=%d model_samples=%d%s"
    label s.Cga.s_iter r.Env.Recorder.x_steps r.Env.Recorder.x_evals r.Env.Recorder.x_invalid
    (match r.Env.Recorder.x_best with
    | None -> "none"
    | Some b -> Printf.sprintf "%.3fus" b)
    (List.length r.Env.Recorder.x_cache)
    (List.length r.Env.Recorder.x_quarantined)
    (List.length r.Env.Recorder.x_degraded)
    (List.length s.Cga.s_survivors)
    (List.length s.Cga.s_model)
    (if s.Cga.s_stopped then " (stopped)" else "")
