module Obs = Heron_obs.Obs

let c_retries = Obs.Counter.make "io.retries"

let fsync_path path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (err, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message err))
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try Unix.fsync fd
          with Unix.Unix_error (err, _, _) ->
            raise (Sys_error (path ^ ": " ^ Unix.error_message err)))

(* Directories cannot be fsynced on every platform/filesystem; durability
   of the rename is best-effort there, so failures are ignored. *)
let fsync_dir_noerr dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

(* Once [f] has returned, a failing finishing step — flush, fsync, close
   or rename — closes the channel without raising, removes the temp file
   and surfaces as [Sys_error], the one error [with_retry] retries. *)
let finish ~path ~tmp oc step =
  let abandon msg =
    close_out_noerr oc;
    remove_noerr tmp;
    raise (Sys_error (path ^ ": " ^ msg))
  in
  match step () with
  | () -> ()
  | exception Sys_error msg -> abandon msg
  | exception Unix.Unix_error (err, _, _) -> abandon (Unix.error_message err)

let write_contents ~tmp oc f =
  match f oc with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      remove_noerr tmp;
      raise e

(* The plain protocol (plus the optional fsync): no injector is
   consulted, let alone constructed. *)
let plain_with_file_out ~fsync ~path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  write_contents ~tmp oc f;
  finish ~path ~tmp oc (fun () ->
      if fsync then begin
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc)
      end;
      close_out oc;
      Unix.rename tmp path);
  if fsync then fsync_dir_noerr (Filename.dirname path)

exception Torn_write of string

(* What a checked write raises when fewer bytes landed than it wrote.
   Only an injected torn write (page-cache loss made visible at once)
   lands short. *)
let torn ~path ~written landed =
  Torn_write (Printf.sprintf "%s: torn write: %d of %d bytes landed" path landed written)

(* The instrumented protocol: the same syscall sequence, with the injector
   consulted at each boundary — content write, fsync (when requested),
   rename. A [Crash] raises [Io_faults.Crashed] with exactly the bytes
   that had persisted by that boundary left on disk; [Fail] mimics the
   plain error contract (temp file removed, target untouched, Sys_error);
   [Torn] silently truncates the temp file and lets the rename proceed —
   the un-fsynced-page-loss failure the checksummed readers must catch —
   unless [checked], when the short temp file is removed before the
   rename, as a failed write's is. *)
let injected_with_file_out inj ~fsync ~checked ~path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  write_contents ~tmp oc f;
  finish ~path ~tmp oc (fun () -> close_out oc);
  let len = (Unix.stat tmp).Unix.st_size in
  let crash op site ~keep =
    if keep < len then Unix.truncate tmp keep;
    raise (Io_faults.Crashed { path; op; site })
  in
  let site inj = Io_faults.sites_seen inj in
  (match Io_faults.at_site inj ~path ~len ~durable:fsync Io_faults.Write with
  | Io_faults.Proceed -> ()
  | Io_faults.Torn k -> if k < len then Unix.truncate tmp k
  | Io_faults.Fail msg ->
      remove_noerr tmp;
      raise (Sys_error msg)
  | Io_faults.Crash k -> crash Io_faults.Write (site inj - 1) ~keep:k);
  (if checked then
     let landed = (Unix.stat tmp).Unix.st_size in
     if landed <> len then begin
       remove_noerr tmp;
       raise (torn ~path ~written:len landed)
     end);
  if fsync then begin
    match Io_faults.at_site inj ~path ~len ~durable:true Io_faults.Fsync with
    | Io_faults.Proceed | Io_faults.Torn _ -> finish ~path ~tmp oc (fun () -> fsync_path tmp)
    | Io_faults.Fail msg ->
        remove_noerr tmp;
        raise (Sys_error msg)
    | Io_faults.Crash _ -> crash Io_faults.Fsync (site inj - 1) ~keep:len
  end;
  (match Io_faults.at_site inj ~path ~len ~durable:fsync Io_faults.Rename with
  | Io_faults.Proceed | Io_faults.Torn _ -> finish ~path ~tmp oc (fun () -> Unix.rename tmp path)
  | Io_faults.Fail msg ->
      remove_noerr tmp;
      raise (Sys_error msg)
  | Io_faults.Crash _ -> crash Io_faults.Rename (site inj - 1) ~keep:len);
  if fsync then fsync_dir_noerr (Filename.dirname path)

let with_file_out ?(fsync = false) ~path f =
  match Io_faults.default () with
  | None -> plain_with_file_out ~fsync ~path f
  | Some inj -> injected_with_file_out inj ~fsync ~checked:false ~path f

let write_string ?fsync ~path s = with_file_out ?fsync ~path (fun oc -> output_string oc s)

(* Without an injector a returned write has landed, so only the
   instrumented protocol needs the check. *)
let replace ~path s =
  let f oc = output_string oc s in
  match Io_faults.default () with
  | None -> plain_with_file_out ~fsync:false ~path f
  | Some inj -> injected_with_file_out inj ~fsync:false ~checked:true ~path f

let truncate ~path len =
  try Unix.truncate path len
  with Unix.Unix_error (err, _, _) -> raise (Sys_error (path ^ ": " ^ Unix.error_message err))

(* An append lands at the end of the file or not at all: a failure cuts
   the file back to its length before the append, so a retry starts from
   the same end. An injected [Fail] writes the whole record first, as a
   write whose error is only reported after it landed; [Torn] and [Crash]
   leave a prefix of it, as page-cache loss and process death would. The
   file's length then shows the tear, and a torn append is cut back too,
   and raised as [Torn_write]. *)
let append ~path s =
  let fd =
    try Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0
    with Unix.Unix_error (err, _, _) -> raise (Sys_error (path ^ ": " ^ Unix.error_message err))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let before = (Unix.fstat fd).Unix.st_size and len = String.length s in
      let undo e =
        (try Unix.ftruncate fd before with Unix.Unix_error _ -> ());
        raise e
      in
      let fail msg = undo (Sys_error msg) in
      (* Write the first [k] bytes of [s]. *)
      let write k =
        let rec go off = if off < k then go (off + Unix.write_substring fd s off (k - off)) in
        try go 0 with Unix.Unix_error (err, _, _) -> fail (path ^ ": " ^ Unix.error_message err)
      in
      match Io_faults.default () with
      | None -> write len
      | Some inj -> (
          (match Io_faults.at_site inj ~path ~len Io_faults.Write with
          | Io_faults.Proceed -> write len
          | Io_faults.Torn k -> write k
          | Io_faults.Fail msg ->
              write len;
              fail msg
          | Io_faults.Crash k ->
              write k;
              raise
                (Io_faults.Crashed
                   { path; op = Io_faults.Write; site = Io_faults.sites_seen inj - 1 }));
          let landed = (Unix.fstat fd).Unix.st_size - before in
          if landed <> len then undo (torn ~path ~written:len landed)))

(* Bounded retry with exponential backoff for the durability protocols
   (store publish, checkpoint writes): transient failures surface as
   [Sys_error], and a torn checkpoint write as [Torn_write]; both left
   the file as it was and are worth one more roll. A simulated crash
   ([Io_faults.Crashed]) is process death and must never be retried. The
   backoff sleeps are microseconds — enough to model the policy without
   slowing a test suite. *)
let with_retry ?(attempts = 3) ~what f =
  let attempts = max 1 attempts in
  let rec go n =
    match f () with
    | v -> v
    | exception ((Sys_error msg | Torn_write msg) as e) ->
        if n + 1 >= attempts then raise e
        else begin
          Obs.Counter.incr c_retries;
          Obs.emit "io_retry"
            [
              ("what", Heron_obs.Json.String what);
              ("attempt", Heron_obs.Json.Int (n + 1));
              ("error", Heron_obs.Json.String msg);
            ];
          Unix.sleepf (50e-6 *. float_of_int (1 lsl n));
          go (n + 1)
        end
  in
  go 0
