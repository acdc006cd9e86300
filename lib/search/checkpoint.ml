module Assignment = Heron_csp.Assignment
module Json = Heron_obs.Json
module Atomic_io = Heron_util.Atomic_io
module Hashing = Heron_util.Hashing

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
let json_of_keys ks = Json.List (List.map (fun k -> Json.String k) ks)

let json_of_row (bins, score) =
  Json.List [ Json.List (Array.to_list (Array.map (fun b -> Json.Int b) bins)); Json.Float score ]

let to_json ~label (s : Cga.snapshot) =
  let x = s.Cga.s_recorder in
  Json.Obj
    [
      ("heron_checkpoint", Json.Int version);
      ("label", Json.String label);
      ("iter", Json.Int s.Cga.s_iter);
      ("dry", Json.Int s.Cga.s_dry);
      ("stopped", Json.Bool s.Cga.s_stopped);
      ("rng", Json.String s.Cga.s_rng_hex);
      ( "recorder",
        Json.Obj
          [
            ("steps", Json.Int x.Env.Recorder.x_steps);
            ("evals", Json.Int x.Env.Recorder.x_evals);
            ("invalid", Json.Int x.Env.Recorder.x_invalid);
            ("best", json_of_opt json_of_float x.Env.Recorder.x_best);
            ("best_a", json_of_opt json_of_assignment x.Env.Recorder.x_best_a);
            ("trace", Json.List (List.map json_of_point x.Env.Recorder.x_trace));
            ("cache", Json.List (List.map json_of_cache_entry x.Env.Recorder.x_cache));
            ("quarantined", json_of_keys x.Env.Recorder.x_quarantined);
            ("degraded", json_of_keys x.Env.Recorder.x_degraded);
          ] );
      ( "survivors",
        Json.List
          (List.map
             (fun (a, l) -> Json.List [ json_of_assignment a; Json.Float l ])
             s.Cga.s_survivors) );
      ("model", Json.List (List.map json_of_row s.Cga.s_model));
    ]

(* ---------- the log ---------- *)

(* Checkpoint writes retry a transient [Sys_error] or a torn write under
   this label. *)
let what = "search.checkpoint"

(* [v] as one record, a line: the payload's length in bytes, its FNV-1a
   checksum in the store sidecars' hex, and the payload. *)
let record v =
  let payload = Json.to_string v in
  Printf.sprintf "%d %016Lx %s\n" (String.length payload) (Hashing.fnv1a payload) payload

(* A one-record log holding [s], in place of whatever the file held. *)
let replace ~path ~label s =
  let r = record (to_json ~label s) in
  Atomic_io.with_retry ~what (fun () -> Atomic_io.replace ~path r)

(* The state the file holds, as the writer last wrote or read it. A cache
   entry's slot counts the entries the log added before it since [snap]'s
   first record; [first] is the slot of the cache's head, so an entry sits
   at position [slot - first] of the cache. [known] holds the slots of
   [snap]'s survivors and best assignment, which the next snapshot mostly
   repeats physically, so their keys need not be rendered again. *)
type held = {
  snap : Cga.snapshot;
  slots : (string, int) Hashtbl.t;
  first : int;
  next : int;
  known : (Assignment.t * int) list;
}

let hold (s : Cga.snapshot) =
  let cache = s.Cga.s_recorder.Env.Recorder.x_cache in
  let slots = Hashtbl.create 1024 in
  List.iteri (fun i (k, _) -> Hashtbl.replace slots k i) cache;
  { snap = s; slots; first = 0; next = List.length cache; known = [] }

type writer = { path : string; w_label : string; mutable held : held option }

let writer ~path ~label = { path; w_label = label; held = None }

(* [Some added] when [xs] is [old] followed by [added], entry for entry. *)
let rec added_after same old xs =
  match (old, xs) with
  | [], added -> Some added
  | o :: old, x :: xs when same o x -> added_after same old xs
  | _ -> None

let rec is_prefix same xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> same x y && is_prefix same xs ys
  | _ :: _, [] -> false

(* Successive exports of one recorder share their entries physically: the
   same point records, the same memoized key strings and latency options.
   A resumed run's exports share them with the snapshot it imported. *)
let same_entry (k, l) (k', l') = k == k' && l == l'

(* The cache is a FIFO: [xs] is [old] less [evicted] entries at its head,
   followed by the [added] ones. *)
let cache_delta old xs =
  let is_head o = match xs with x :: _ -> same_entry o x | [] -> false in
  let rec evict n = function
    | o :: rest when not (is_head o) -> evict (n + 1) rest
    | kept -> (n, kept)
  in
  let evicted, kept = evict 0 old in
  Option.map (fun added -> (evicted, added)) (added_after same_entry kept xs)

(* Model rows are copies, so they are matched by content; scores by their
   bits, which is what decides how they print. *)
let same_row ((b : int array), s) (b', s') =
  let rec same i = i < 0 || (b.(i) = b'.(i) && same (i - 1)) in
  Int64.equal (Int64.bits_of_float s) (Int64.bits_of_float s')
  && Array.length b = Array.length b'
  && same (Array.length b - 1)

(* The window, most recent row first, is [added] followed by the first
   rows of [old]; the rest of [old], [dropped] rows, left it. *)
let model_delta old rows =
  let rec go added rest =
    match rest with
    | r :: tl when not (is_prefix same_row rest old) -> go (r :: added) tl
    | _ -> (List.rev added, List.length old - List.length rest)
  in
  go [] rows

exception Unreferenced

(* The delta record that takes the file from [h] to [s], and the state it
   leaves; [None] when [s] does not extend [h]. Survivors and the best
   assignment are positions in the cache after the record, so one outside
   the cache makes the write a replacement. *)
let delta h (s : Cga.snapshot) =
  let o = h.snap.Cga.s_recorder and x = s.Cga.s_recorder in
  match
    ( added_after ( == ) o.Env.Recorder.x_trace x.Env.Recorder.x_trace,
      cache_delta o.Env.Recorder.x_cache x.Env.Recorder.x_cache )
  with
  | Some trace, Some (evicted, cache) -> (
      let first = h.first + evicted in
      List.iteri (fun i (k, _) -> Hashtbl.replace h.slots k (h.next + i)) cache;
      let known = ref [] in
      let position a =
        let slot =
          match List.find_opt (fun (a', _) -> a' == a) h.known with
          | Some (_, slot) when slot >= first -> slot
          | _ -> (
              match Hashtbl.find_opt h.slots (Assignment.key a) with
              | Some slot when slot >= first -> slot
              | _ -> raise Unreferenced)
        in
        known := (a, slot) :: !known;
        Json.Int (slot - first)
      in
      match
        ( List.map (fun (a, l) -> Json.List [ position a; Json.Float l ]) s.Cga.s_survivors,
          json_of_opt position x.Env.Recorder.x_best_a )
      with
      | exception Unreferenced -> None
      | survivors, best_a ->
          let model, dropped = model_delta h.snap.Cga.s_model s.Cga.s_model in
          let if_changed name old keys =
            if List.equal String.equal old keys then [] else [ (name, json_of_keys keys) ]
          in
          let record =
            Json.Obj
              ([
                 ("heron_delta", Json.Int version);
                 ("iter", Json.Int s.Cga.s_iter);
                 ("dry", Json.Int s.Cga.s_dry);
                 ("stopped", Json.Bool s.Cga.s_stopped);
                 ("rng", Json.String s.Cga.s_rng_hex);
                 ("steps", Json.Int x.Env.Recorder.x_steps);
                 ("evals", Json.Int x.Env.Recorder.x_evals);
                 ("invalid", Json.Int x.Env.Recorder.x_invalid);
                 ("best", json_of_opt json_of_float x.Env.Recorder.x_best);
                 ("trace", Json.List (List.map json_of_point trace));
                 ("evicted", Json.Int evicted);
                 ("cache", Json.List (List.map json_of_cache_entry cache));
                 ("survivors", Json.List survivors);
                 ("best_a", best_a);
                 ("model_dropped", Json.Int dropped);
                 ("model", Json.List (List.map json_of_row model));
               ]
              @ if_changed "quarantined" o.Env.Recorder.x_quarantined x.Env.Recorder.x_quarantined
              @ if_changed "degraded" o.Env.Recorder.x_degraded x.Env.Recorder.x_degraded)
          in
          let next = h.next + List.length cache in
          Some (record, { snap = s; slots = h.slots; first; next; known = !known }))
  | _ -> None

(* The writer forgets what the file holds while it writes, so a write that
   raises leaves it to replace the file next time. *)
let write w s =
  let next = Option.bind w.held (fun h -> delta h s) in
  w.held <- None;
  match next with
  | Some (v, h) ->
      let r = record v in
      Atomic_io.with_retry ~what (fun () -> Atomic_io.append ~path:w.path r);
      w.held <- Some h
  | None ->
      replace ~path:w.path ~label:w.w_label s;
      w.held <- Some (hold s)

let save = replace

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

(* A non-finite float prints as [null]; it reads back as NaN, which prints
   the same. *)
let as_float ctx = function
  | Json.Float f -> Ok f
  | Json.Int n -> Ok (float_of_int n)
  | Json.Null -> Ok Float.nan
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

let as_items f ctx v =
  let* l = as_list ctx v in
  map_listi ctx f l

let dec_assignment ctx v =
  let* bindings =
    as_items
      (fun ctx -> function
        | Json.List [ Json.String var; Json.Int x ] -> Ok (var, x)
        | _ -> fail ctx "expected [variable, value]")
      ctx v
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

let dec_cache_entry ctx = function
  | Json.List [ Json.String k; l ] ->
      let* l = as_opt as_float ctx l in
      Ok (k, l)
  | _ -> fail ctx "expected [key, latency]"

let dec_row ctx = function
  | Json.List [ bins; score ] ->
      let* bins = as_items as_int ctx bins in
      let* score = as_float ctx score in
      Ok (Array.of_list bins, score)
  | _ -> fail ctx "expected [bins, score]"

let get ctx name dec v =
  let ctx' = if ctx = "" then name else ctx ^ "." ^ name in
  let* x = field ctx name v in
  dec ctx' x

let dec_recorder ctx v =
  let* steps = get ctx "steps" as_int v in
  let* evals = get ctx "evals" as_int v in
  let* invalid = get ctx "invalid" as_int v in
  let* best = get ctx "best" (as_opt as_float) v in
  let* best_a = get ctx "best_a" (as_opt dec_assignment) v in
  let* trace = get ctx "trace" (as_items dec_point) v in
  let* cache = get ctx "cache" (as_items dec_cache_entry) v in
  let* quarantined = get ctx "quarantined" (as_items as_string) v in
  let* degraded = get ctx "degraded" (as_items as_string) v in
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
  let* label = get ctx "label" as_string v in
  let* iter = get ctx "iter" as_int v in
  let* dry = get ctx "dry" as_int v in
  let* stopped = get ctx "stopped" as_bool v in
  let* rng = get ctx "rng" as_string v in
  let* recorder = get ctx "recorder" dec_recorder v in
  let* survivors =
    get ctx "survivors"
      (as_items (fun ctx -> function
         | Json.List [ a; l ] ->
             let* a = dec_assignment ctx a in
             let* l = as_float ctx l in
             Ok (a, l)
         | _ -> fail ctx "expected [assignment, latency]"))
      v
  in
  let* model = get ctx "model" (as_items dec_row) v in
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

(* The length of [xs], when [n] of its entries can leave it. *)
let leaving ctx n xs =
  let len = List.length xs in
  if n < 0 || n > len then fail ctx (Printf.sprintf "%d of %d entries" n len) else Ok len

(* Replay one delta record over the state [s] the records before it left. *)
let apply_delta ctx (s : Cga.snapshot) v =
  let x = s.Cga.s_recorder in
  let* ver = get ctx "heron_delta" as_int v in
  let* () =
    if ver = version then Ok ()
    else fail ctx (Printf.sprintf "unsupported delta version %d (this build reads %d)" ver version)
  in
  let* iter = get ctx "iter" as_int v in
  let* dry = get ctx "dry" as_int v in
  let* stopped = get ctx "stopped" as_bool v in
  let* rng = get ctx "rng" as_string v in
  let* steps = get ctx "steps" as_int v in
  let* evals = get ctx "evals" as_int v in
  let* invalid = get ctx "invalid" as_int v in
  let* best = get ctx "best" (as_opt as_float) v in
  let* trace = get ctx "trace" (as_items dec_point) v in
  let* evicted = get ctx "evicted" as_int v in
  let* _ = leaving (ctx ^ ".evicted") evicted x.Env.Recorder.x_cache in
  let* added = get ctx "cache" (as_items dec_cache_entry) v in
  let cache = List.filteri (fun i _ -> i >= evicted) x.Env.Recorder.x_cache @ added in
  let entries = Array.of_list cache in
  let entry ctx = function
    | Json.Int i when i >= 0 && i < Array.length entries -> (
        match Assignment.of_key (fst entries.(i)) with
        | Ok a -> Ok a
        | Error e -> fail ctx e)
    | _ ->
        fail ctx
          (Printf.sprintf "expected a position in the %d cache entries" (Array.length entries))
  in
  let* survivors =
    get ctx "survivors"
      (as_items (fun ctx -> function
         | Json.List [ i; l ] ->
             let* a = entry ctx i in
             let* l = as_float ctx l in
             Ok (a, l)
         | _ -> fail ctx "expected [cache position, latency]"))
      v
  in
  let* best_a = get ctx "best_a" (as_opt entry) v in
  let* dropped = get ctx "model_dropped" as_int v in
  let* len = leaving (ctx ^ ".model_dropped") dropped s.Cga.s_model in
  let* rows = get ctx "model" (as_items dec_row) v in
  let keys name old =
    match Json.member name v with None -> Ok old | Some l -> as_items as_string (ctx ^ "." ^ name) l
  in
  let* quarantined = keys "quarantined" x.Env.Recorder.x_quarantined in
  let* degraded = keys "degraded" x.Env.Recorder.x_degraded in
  Ok
    {
      Cga.s_iter = iter;
      s_dry = dry;
      s_stopped = stopped;
      s_rng_hex = rng;
      s_recorder =
        {
          Env.Recorder.x_steps = steps;
          x_evals = evals;
          x_invalid = invalid;
          x_best = best;
          x_best_a = best_a;
          x_trace = x.Env.Recorder.x_trace @ trace;
          x_cache = cache;
          x_quarantined = quarantined;
          x_degraded = degraded;
        };
      s_survivors = survivors;
      s_model = rows @ List.filteri (fun i _ -> i < len - dropped) s.Cga.s_model;
    }

(* The payload of the whole record at [pos], and where the next record
   starts; [None] for a torn or damaged record. *)
let next_record content pos =
  let n = String.length content in
  let is_digit c = c >= '0' && c <= '9' in
  let rec digits i = if i < n && i - pos < 18 && is_digit content.[i] then digits (i + 1) else i in
  let sp = digits pos in
  if sp = pos || sp + 18 > n || content.[sp] <> ' ' || content.[sp + 17] <> ' ' then None
  else
    let len = int_of_string (String.sub content pos (sp - pos)) and start = sp + 18 in
    if len > n - start - 1 || content.[start + len] <> '\n' then None
    else
      let payload = String.sub content start len in
      if String.sub content (sp + 1) 16 = Printf.sprintf "%016Lx" (Hashing.fnv1a payload) then
        Some (payload, start + len + 1)
      else None

type log = { label : string; snapshot : Cga.snapshot; records : int; bytes : int; dropped : int }

let read ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (Printf.sprintf "checkpoint: cannot read %s: %s" path e)
  | content when String.length content > 0 && content.[0] = '{' ->
      Error
        (Printf.sprintf
           "checkpoint: %s is a whole-file JSON checkpoint, the format before checkpoint logs; \
            this build reads only logs of framed records"
           path)
  | content ->
      let rec replay state i pos =
        match next_record content pos with
        | Some (payload, next) -> (
            let record =
              match Json.parse payload with
              | Error e -> Error (Printf.sprintf "checkpoint: record %d: invalid JSON: %s" i e)
              | Ok v -> (
                  match (state, Json.member "heron_delta" v) with
                  | _, None -> of_json v
                  | Some (label, s), Some _ ->
                      let ctx = Printf.sprintf "record %d" i in
                      Result.map (fun s -> (label, s)) (apply_delta ctx s v)
                  | None, Some _ -> Error "checkpoint: record 0: a delta record, not a snapshot")
            in
            match record with Ok st -> replay (Some st) (i + 1) next | Error _ as e -> e)
        | None -> (
            match state with
            | Some (label, snapshot) ->
                let dropped = String.length content - pos in
                Ok { label; snapshot; records = i; bytes = pos; dropped }
            | None ->
                Error
                  (Printf.sprintf "checkpoint: %s holds no whole record (%d bytes)" path
                     (String.length content)))
      in
      replay None 0 0

let load ~path = Result.map (fun l -> (l.label, l.snapshot)) (read ~path)

let reopen ~path log =
  if log.dropped > 0 then Atomic_io.truncate ~path log.bytes;
  { (writer ~path ~label:log.label) with held = Some (hold log.snapshot) }

let snapshot_to_json = to_json
let snapshot_of_json = of_json

let describe log =
  let s = log.snapshot in
  let r = s.Cga.s_recorder in
  Printf.sprintf
    "label=%S records=%d dropped_bytes=%d iterations=%d steps=%d evals=%d invalid=%d best=%s \
     cached=%d quarantined=%d degraded=%d survivors=%d model_samples=%d%s"
    log.label log.records log.dropped s.Cga.s_iter r.Env.Recorder.x_steps r.Env.Recorder.x_evals
    r.Env.Recorder.x_invalid
    (match r.Env.Recorder.x_best with
    | None -> "none"
    | Some b -> Printf.sprintf "%.3fus" b)
    (List.length r.Env.Recorder.x_cache)
    (List.length r.Env.Recorder.x_quarantined)
    (List.length r.Env.Recorder.x_degraded)
    (List.length s.Cga.s_survivors)
    (List.length s.Cga.s_model)
    (if s.Cga.s_stopped then " (stopped)" else "")
