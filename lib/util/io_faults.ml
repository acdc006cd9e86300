module Obs = Heron_obs.Obs

type spec = {
  seed : int;
  enospc : float;
  eio : float;
  torn : float;
  rename_fail : float;
  crash : float;
  persistent : float;
  crash_at : int option;
  record : bool;
}

let zero =
  {
    seed = 0;
    enospc = 0.0;
    eio = 0.0;
    torn = 0.0;
    rename_fail = 0.0;
    crash = 0.0;
    persistent = 0.0;
    crash_at = None;
    record = false;
  }

type op = Write | Fsync | Rename

let op_tag = function Write -> "write" | Fsync -> "fsync" | Rename -> "rename"

exception Crashed of { path : string; op : op; site : int }

let () =
  Printexc.register_printer (function
    | Crashed { path; op; site } ->
        Some
          (Printf.sprintf "Io_faults.Crashed(path=%s, op=%s, site=%d)" path (op_tag op) site)
    | _ -> None)

let top_level f =
  try f () with
  | Crashed _ as e ->
      Printf.eprintf "io-faults: %s\n%!" (Printexc.to_string e);
      3
  | Sys_error msg ->
      Printf.eprintf "I/O error: %s\n%!" msg;
      4

let exits =
  [
    (3, "on a simulated process death (see --io-faults).");
    (4, "on an I/O error, such as a file in a missing directory or a disk that stays full.");
  ]

type action =
  | Proceed
  | Torn of int
  | Fail of string
  | Crash of int

type t = {
  spec : spec;
  sites : int Atomic.t;
  attempts : (string, int) Hashtbl.t;
  attempts_mutex : Mutex.t;
}

let create spec =
  { spec; sites = Atomic.make 0; attempts = Hashtbl.create 64; attempts_mutex = Mutex.create () }

let spec t = t.spec
let sites_seen t = Atomic.get t.sites

let c_injected = Obs.Counter.make "io.injected"

(* Per-(path, op) execution count: the [attempt] of the hash key, so a
   bounded retry of the same write re-rolls its fate instead of replaying
   the identical decision forever. *)
let attempt_of t ~path op =
  Mutex.lock t.attempts_mutex;
  let key = path ^ "\x00" ^ op_tag op in
  let n = match Hashtbl.find_opt t.attempts key with Some n -> n | None -> 0 in
  Hashtbl.replace t.attempts key (n + 1);
  Mutex.unlock t.attempts_mutex;
  n

(* Every decision is a threshold test on a stable hash of the full context
   plus a tag naming the draw — the same zero-RNG scheme as Dla.Faults, so
   a fault campaign is a pure function of (spec, write history). *)
let roll s ~path ~attempt op tag =
  Hashing.unit_float (Printf.sprintf "io:%d:%s:%s:%d:%s" s.seed path (op_tag op) attempt tag)

(* Bytes that survive a torn or crashed write: any prefix of the content,
   chosen deterministically from the same hash universe. *)
let keep_bytes s ~path ~attempt op ~len =
  if len <= 0 then 0
  else
    int_of_float (roll s ~path ~attempt op "keep" *. float_of_int (len + 1)) |> min len

let enospc_msg path = path ^ ": No space left on device (injected)"
let eio_msg path = path ^ ": Input/output error (injected)"

let at_site t ~path ?(len = 0) ?(durable = false) op =
  let site = Atomic.fetch_and_add t.sites 1 in
  let s = t.spec in
  if s.record then Proceed
  else
    match s.crash_at with
    | Some n -> if site = n then Crash (keep_bytes s ~path ~attempt:0 op ~len) else Proceed
    | None ->
        if
          s.enospc = 0.0 && s.eio = 0.0 && s.torn = 0.0 && s.rename_fail = 0.0 && s.crash = 0.0
          && s.persistent = 0.0
        then Proceed
        else begin
          let attempt = attempt_of t ~path op in
          let injected a =
            Obs.Counter.incr c_injected;
            a
          in
          (* Persistent faults model a full disk: keyed on the path alone,
             every attempt at every site of that path fails the same way. *)
          if
            s.persistent > 0.0
            && Hashing.unit_float (Printf.sprintf "io:%d:%s:persistent" s.seed path)
               < s.persistent
          then injected (Fail (enospc_msg path))
          else if s.crash > 0.0 && roll s ~path ~attempt op "crash" < s.crash then
            injected (Crash (keep_bytes s ~path ~attempt op ~len))
          else
            match op with
            | Write ->
                if s.enospc > 0.0 && roll s ~path ~attempt op "enospc" < s.enospc then
                  injected (Fail (enospc_msg path))
                else if s.eio > 0.0 && roll s ~path ~attempt op "eio" < s.eio then
                  injected (Fail (eio_msg path))
                else if
                  (* A torn write models page-cache loss behind a write that
                     was never fsynced; durable writes are immune, which is
                     exactly the contract [Atomic_io]'s [?fsync] documents. *)
                  (not durable) && s.torn > 0.0 && roll s ~path ~attempt op "torn" < s.torn
                then injected (Torn (keep_bytes s ~path ~attempt op ~len))
                else Proceed
            | Fsync ->
                if s.eio > 0.0 && roll s ~path ~attempt op "eio" < s.eio then
                  injected (Fail (eio_msg path))
                else Proceed
            | Rename ->
                if s.rename_fail > 0.0 && roll s ~path ~attempt op "rename" < s.rename_fail
                then injected (Fail (eio_msg path))
                else Proceed
        end

(* ---------- spec parsing ---------- *)

let to_string s =
  if s.record then "record"
  else
    match s.crash_at with
    | Some n -> Printf.sprintf "crash_at=%d" n
    | None ->
        Printf.sprintf "seed=%d,enospc=%g,eio=%g,torn=%g,rename=%g,crash=%g,persistent=%g"
          s.seed s.enospc s.eio s.torn s.rename_fail s.crash s.persistent

let parse str =
  let str = String.trim str in
  match String.lowercase_ascii str with
  | "" | "off" | "none" -> Ok None
  | "record" -> Ok (Some { zero with record = true })
  | _ -> (
      let parse_field acc part =
        match acc with
        | Error _ as e -> e
        | Ok s -> (
            match String.index_opt part '=' with
            | None -> Error (Printf.sprintf "io-fault spec: %S is not key=value" part)
            | Some i -> (
                let k = String.trim (String.sub part 0 i) in
                let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
                let rate set =
                  match float_of_string_opt v with
                  | Some f when Float.is_finite f && f >= 0.0 && f <= 1.0 -> Ok (set f)
                  | Some f when Float.is_finite f ->
                      Error (Printf.sprintf "io-fault spec: %s=%g out of [0, 1]" k f)
                  | _ -> Error (Printf.sprintf "io-fault spec: %s=%S is not a number" k v)
                in
                match k with
                | "seed" -> (
                    match int_of_string_opt v with
                    | Some n -> Ok { s with seed = n }
                    | None ->
                        Error (Printf.sprintf "io-fault spec: seed=%S is not an integer" v))
                | "crash_at" -> (
                    match int_of_string_opt v with
                    | Some n when n >= 0 -> Ok { s with crash_at = Some n }
                    | _ ->
                        Error
                          (Printf.sprintf
                             "io-fault spec: crash_at=%S is not a non-negative integer" v))
                | "enospc" -> rate (fun f -> { s with enospc = f })
                | "eio" -> rate (fun f -> { s with eio = f })
                | "torn" -> rate (fun f -> { s with torn = f })
                | "rename" -> rate (fun f -> { s with rename_fail = f })
                | "crash" -> rate (fun f -> { s with crash = f })
                | "persistent" -> rate (fun f -> { s with persistent = f })
                | _ ->
                    Error
                      (Printf.sprintf
                         "io-fault spec: unknown key %S \
                          (seed|enospc|eio|torn|rename|crash|persistent|crash_at)"
                         k)))
      in
      match List.fold_left parse_field (Ok zero) (String.split_on_char ',' str) with
      | Ok s -> Ok (Some s)
      | Error _ as e -> e)

(* ---------- process default ---------- *)

(* The journal is observability, not durability: under an injected write
   fault Obs drops the event and counts it, so the hook only needs a
   boolean. Keyed on a per-journal sequence number so one unlucky event
   never condemns the rest of the stream. *)
let journal_hook s =
  if s.record || s.crash_at <> None || s.eio = 0.0 then None
  else
    Some
      (fun ~path ~seq ->
        Hashing.unit_float (Printf.sprintf "io:%d:%s:journal:%d" s.seed path seq) < s.eio)

let default_injector = ref None

let set_default t =
  default_injector := t;
  Obs.set_journal_write_fault
    (match t with None -> None | Some t -> journal_hook t.spec)

let default () = !default_injector
