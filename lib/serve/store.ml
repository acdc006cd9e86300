module Library = Heron.Library
module Json = Heron_obs.Json
module Obs = Heron_obs.Obs
module Atomic_io = Heron_util.Atomic_io
module Hashing = Heron_util.Hashing

let c_publishes = Obs.Counter.make "serve.publishes"
let c_recoveries = Obs.Counter.make "serve.store_recoveries"
let c_rejected = Obs.Counter.make "serve.snapshots_rejected"

let manifest_version = 1

type t = { dir : string }

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let open_ ~dir =
  mkdir_p dir;
  { dir }

let dir t = t.dir
let manifest_path t = Filename.concat t.dir "MANIFEST.json"
let snapshot_name version = Printf.sprintf "lib-%06d.heron" version
let snapshot_path t version = Filename.concat t.dir (snapshot_name version)
let sum_path t version = snapshot_path t version ^ ".sum"
let checksum body = Printf.sprintf "%016Lx" (Hashing.fnv1a body)

(* Snapshot files present on disk, by the version embedded in their name. *)
let versions t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map (fun name ->
         match Scanf.sscanf_opt name "lib-%06d.heron%!" (fun v -> v) with
         | Some v when snapshot_name v = name -> Some v
         | _ -> None)
  |> List.sort compare

type loaded = {
  version : int;
  library : Library.t;
  recovered : bool;
  warnings : Library.load_warning list;
}

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | body -> Some body
  | exception Sys_error _ -> None

(* The manifest's view of the latest snapshot, when it is internally
   consistent (readable, right schema, file present, checksum matches). *)
let manifest_latest t =
  match read_file (manifest_path t) with
  | None -> None
  | Some body -> (
      match Json.parse (String.trim body) with
      | Error _ -> None
      | Ok v -> (
          let int_field name = Option.bind (Json.member name v) Json.to_int_opt in
          let str_field name = Option.bind (Json.member name v) Json.to_string_opt in
          match (int_field "heron_store", int_field "version", str_field "file", str_field "checksum") with
          | Some mv, Some version, Some file, Some sum when mv = manifest_version -> (
              match read_file (Filename.concat t.dir file) with
              | Some snap when checksum snap = sum -> Some (version, snap)
              | _ -> None)
          | _ -> None))

let load_latest t =
  match manifest_latest t with
  | Some (version, body) ->
      let library, warnings = Library.of_string_lenient body in
      Some { version; library; recovered = false; warnings }
  | None -> (
      (* Recovery: newest snapshot that verifies. Each snapshot carries a
         [.sum] sidecar written (durably) before the manifest; a snapshot
         whose sidecar disagrees is torn — lost page-cache writes after a
         power cut — and must be rejected, not half-loaded. Legacy
         snapshots without a sidecar are accepted only when they parse
         without a single warning. *)
      let rec scan = function
        | [] -> None
        | version :: older -> (
            match read_file (snapshot_path t version) with
            | None -> scan older
            | Some body -> (
                let accept () =
                  let library, warnings = Library.of_string_lenient body in
                  Obs.Counter.incr c_recoveries;
                  Some { version; library; recovered = true; warnings }
                in
                match read_file (sum_path t version) with
                | Some sum when String.trim sum = checksum body -> accept ()
                | Some _ ->
                    Obs.Counter.incr c_rejected;
                    scan older
                | None -> (
                    match Library.of_string_lenient body with
                    | _, [] -> accept ()
                    | _ ->
                        Obs.Counter.incr c_rejected;
                        scan older)))
      in
      match scan (List.rev (versions t)) with
      | Some _ as r -> r
      | None -> None)

let current_version t =
  let manifest_v = match manifest_latest t with Some (v, _) -> v | None -> 0 in
  List.fold_left max manifest_v (versions t)

let keep = 4

let publish t lib =
  Obs.with_span "serve.publish" (fun () ->
      let version = current_version t + 1 in
      let body = Library.to_string lib in
      let sum = checksum body in
      (* Publish protocol, ordered so a crash at any syscall boundary leaves
         a recoverable store: snapshot first, then its checksum sidecar,
         then the manifest flip. All three are durable (fsync'd) and retried
         on transient errors; a crash between steps leaves at worst an
         orphan snapshot the recovery scan will verify or skip. *)
      Atomic_io.with_retry ~what:"store.snapshot" (fun () ->
          Atomic_io.write_string ~fsync:true ~path:(snapshot_path t version) body);
      Atomic_io.with_retry ~what:"store.sum" (fun () ->
          Atomic_io.write_string ~fsync:true ~path:(sum_path t version) (sum ^ "\n"));
      let manifest =
        Json.Obj
          [
            ("heron_store", Json.Int manifest_version);
            ("version", Json.Int version);
            ("file", Json.String (snapshot_name version));
            ("checksum", Json.String sum);
            ("entries", Json.Int (Library.size lib));
          ]
      in
      Atomic_io.with_retry ~what:"store.manifest" (fun () ->
          Atomic_io.write_string ~fsync:true ~path:(manifest_path t)
            (Json.to_string manifest ^ "\n"));
      Obs.Counter.incr c_publishes;
      (* Retention: the published snapshot plus at most [keep - 1] older
         ones. Pruning after the manifest rename keeps every crash window
         recoverable. *)
      List.iter
        (fun v ->
          if v <= version - keep then begin
            (try Sys.remove (snapshot_path t v) with Sys_error _ -> ());
            try Sys.remove (sum_path t v) with Sys_error _ -> ()
          end)
        (versions t);
      version)
