module Hashing = Heron_util.Hashing

type spec = {
  seed : int;
  timeout_rate : float;
  crash_rate : float;
  hang_rate : float;
  noise : float;
  persistent : float;
}

let zero =
  { seed = 0; timeout_rate = 0.0; crash_rate = 0.0; hang_rate = 0.0; noise = 0.0; persistent = 0.0 }

type decision = Noise of float | Timeout | Crash | Hang | Persistent

(* Every decision is a threshold test on a stable hash of the full context
   plus a tag naming the draw, so the draws are independent of each other
   and of everything the search's RNG does. *)
let roll spec ~key ~attempt tag =
  Hashing.unit_float (Printf.sprintf "fault:%d:%s:%d:%s" spec.seed key attempt tag)

let decide spec ~key ~attempt =
  if
    spec.persistent > 0.0
    && Hashing.unit_float (Printf.sprintf "fault:%d:%s:persistent" spec.seed key)
       < spec.persistent
  then Persistent
  else if spec.timeout_rate > 0.0 && roll spec ~key ~attempt "timeout" < spec.timeout_rate then
    Timeout
  else if spec.crash_rate > 0.0 && roll spec ~key ~attempt "crash" < spec.crash_rate then Crash
  else if spec.hang_rate > 0.0 && roll spec ~key ~attempt "hang" < spec.hang_rate then Hang
  else if spec.noise > 0.0 then
    Noise
      (1.0
      +. spec.noise
         *. Hashing.signed_unit (Printf.sprintf "fault:%d:%s:%d:noise" spec.seed key attempt))
  else Noise 1.0

let to_string s =
  Printf.sprintf "seed=%d,timeout=%g,crash=%g,hang=%g,noise=%g,persistent=%g" s.seed
    s.timeout_rate s.crash_rate s.hang_rate s.noise s.persistent

let parse str =
  let str = String.trim str in
  match String.lowercase_ascii str with
  | "" | "off" | "none" -> Ok None
  | _ -> (
      let parse_field acc part =
        match acc with
        | Error _ as e -> e
        | Ok s -> (
            match String.index_opt part '=' with
            | None -> Error (Printf.sprintf "fault spec: %S is not key=value" part)
            | Some i -> (
                let k = String.trim (String.sub part 0 i) in
                let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
                let float_v () =
                  match float_of_string_opt v with
                  | Some f when Float.is_finite f -> Ok f
                  | _ -> Error (Printf.sprintf "fault spec: %s=%S is not a number" k v)
                in
                let rate set =
                  Result.bind (float_v ()) (fun f ->
                      if f < 0.0 || f > 1.0 then
                        Error (Printf.sprintf "fault spec: %s=%g out of [0, 1]" k f)
                      else Ok (set f))
                in
                match k with
                | "seed" -> (
                    match int_of_string_opt v with
                    | Some n -> Ok { s with seed = n }
                    | None -> Error (Printf.sprintf "fault spec: seed=%S is not an integer" v))
                | "timeout" -> rate (fun f -> { s with timeout_rate = f })
                | "crash" -> rate (fun f -> { s with crash_rate = f })
                | "hang" -> rate (fun f -> { s with hang_rate = f })
                | "persistent" -> rate (fun f -> { s with persistent = f })
                | "noise" ->
                    Result.bind (float_v ()) (fun f ->
                        if f < 0.0 then Error (Printf.sprintf "fault spec: noise=%g negative" f)
                        else Ok { s with noise = f })
                | _ ->
                    Error
                      (Printf.sprintf
                         "fault spec: unknown key %S (seed|timeout|crash|hang|noise|persistent)" k)))
      in
      match List.fold_left parse_field (Ok zero) (String.split_on_char ',' str) with
      | Ok s -> Ok (Some s)
      | Error _ as e -> e)

let default_spec = ref None
let set_default s = default_spec := s
let default () = !default_spec
