module Op = Heron_tensor.Op
module Library = Heron.Library
module Hashing = Heron_util.Hashing

(* ---------- shape buckets ---------- *)

let ceil_pow2 n =
  let rec up p = if p >= n then p else up (p * 2) in
  if n <= 1 then 1 else up 1

(* Bucket of an operator: kind, dtype and DLA exact; every iterator extent
   rounded up to the next power of two. *)
let bucket_key ~dla (op : Op.t) =
  let dt =
    Op.dtype_to_string (match op.Op.inputs with t :: _ -> t.Op.dt | [] -> op.Op.out.Op.dt)
  in
  Some
    (Printf.sprintf "%s/%s/%s@%s" op.Op.cname dt
       (String.concat ","
          (List.map
             (fun (it : Op.iter) -> Printf.sprintf "%s:%d" it.Op.iname (ceil_pow2 it.Op.extent))
             op.Op.iters))
       dla)

(* Same bucket, recomputed from a stored entry's textual op_key
   ("cname/dt/i:1024,j:512,..."), so entries loaded from disk bucket
   identically to live operators. Unparseable keys (corrupt store lines
   that still split into four fields) simply get no bucket. *)
let bucket_of_entry (e : Library.entry) =
  match String.split_on_char '/' e.Library.op_key with
  | [ cname; dt; iters ] -> (
      let parse_iter s =
        match String.index_opt s ':' with
        | None -> None
        | Some i -> (
            let name = String.sub s 0 i in
            match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
            | Some extent when extent >= 1 -> Some (name, extent)
            | _ -> None)
      in
      let rec parse_all acc = function
        | [] -> Some (List.rev acc)
        | s :: rest -> (
            match parse_iter s with Some it -> parse_all (it :: acc) rest | None -> None)
      in
      match parse_all [] (String.split_on_char ',' iters) with
      | None -> None
      | Some its ->
          Some
            (Printf.sprintf "%s/%s/%s@%s" cname dt
               (String.concat ","
                  (List.map (fun (n, e) -> Printf.sprintf "%s:%d" n (ceil_pow2 e)) its))
               e.Library.dla))
  | _ -> None

(* ---------- immutable snapshots ---------- *)

type outcome = Hit of Library.entry | Near of Library.entry | Miss

(* One flat sorted table: keys ordered by (hash, key), looked up with a
   binary search on the hash followed by a string-compare walk over the
   (almost always singleton) equal-hash range. [answers.(i)] is the
   outcome slot [i] serves, built once per snapshot so a query returns
   it without allocating. *)
type table = {
  hashes : int array;
  keys : string array;
  values : Library.entry array;
  answers : outcome array;
}

let hash_of s = Int64.to_int (Hashing.fnv1a s)

let table_of_pairs answer pairs =
  let a = Array.of_list (List.map (fun (k, v) -> (hash_of k, k, v)) pairs) in
  Array.sort
    (fun (h1, k1, _) (h2, k2, _) ->
      if (h1 : int) <> h2 then compare (h1 : int) h2 else compare (k1 : string) k2)
    a;
  let values = Array.map (fun (_, _, v) -> v) a in
  {
    hashes = Array.map (fun (h, _, _) -> h) a;
    keys = Array.map (fun (_, k, _) -> k) a;
    values;
    answers = Array.map answer values;
  }

(* The search loops are top-level functions over explicit arguments, so a
   query builds no closure, and their comparisons are typed [int] so they
   compile to machine compares rather than [caml_lessthan]. *)

(* First slot in [lo, hi) whose hash is not below [h]. *)
let rec lower_bound (hashes : int array) (h : int) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if (hashes.(mid) : int) < h then lower_bound hashes h (mid + 1) hi
    else lower_bound hashes h lo mid

(* From slot [i] on, the slot of [key] within the run of hash [h], or -1. *)
let rec walk t (h : int) key i =
  if i >= Array.length t.hashes || (t.hashes.(i) : int) <> h then -1
  else if String.equal t.keys.(i) key then i
  else walk t h key (i + 1)

let slot t h key = walk t h key (lower_bound t.hashes h 0 (Array.length t.hashes))

type snapshot = { version : int; size : int; exact : table; buckets : table }

let version s = s.version
let size s = s.size

let full_key (e : Library.entry) = e.Library.op_key ^ "@" ^ e.Library.dla

let build ~version lib =
  let entries = Library.entries lib in
  let exact = table_of_pairs (fun e -> Hit e) (List.map (fun e -> (full_key e, e)) entries) in
  (* Bucket representative: lowest latency, ties to the smallest op_key, so
     rebuilding from an identical library yields an identical snapshot. *)
  let best = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match bucket_of_entry e with
      | None -> ()
      | Some b -> (
          match Hashtbl.find_opt best b with
          | Some (old : Library.entry)
            when old.Library.latency_us < e.Library.latency_us
                 || (old.Library.latency_us = e.Library.latency_us
                    && old.Library.op_key <= e.Library.op_key) ->
              ()
          | _ -> Hashtbl.replace best b e))
    entries;
  let buckets =
    table_of_pairs (fun e -> Near e) (Hashtbl.fold (fun b e acc -> (b, e) :: acc) best [])
  in
  { version; size = List.length entries; exact; buckets }

(* ---------- probes and queries ---------- *)

type probe = { p_key : string; p_hash : int; p_bucket : string option; p_bucket_hash : int }

let probe ~dla op =
  let key = Library.op_key op ^ "@" ^ dla in
  let bucket = bucket_key ~dla op in
  {
    p_key = key;
    p_hash = hash_of key;
    p_bucket = bucket;
    p_bucket_hash = (match bucket with Some b -> hash_of b | None -> 0);
  }

let find s key =
  let i = slot s.exact (hash_of key) key in
  if i < 0 then None else Some s.exact.values.(i)

let query s p =
  let i = slot s.exact p.p_hash p.p_key in
  if i >= 0 then s.exact.answers.(i)
  else
    match p.p_bucket with
    | None -> Miss
    | Some b ->
        let j = slot s.buckets p.p_bucket_hash b in
        if j >= 0 then s.buckets.answers.(j) else Miss

let query_op s ~dla op = query s (probe ~dla op)

(* ---------- the published cell ---------- *)

type t = snapshot Atomic.t

let create s = Atomic.make s
let current t = Atomic.get t

let publish t s =
  (* Single-writer by design, but a CAS loop keeps the monotone-version
     guarantee even under a misbehaving concurrent publisher. *)
  let rec swap () =
    let cur = Atomic.get t in
    if s.version <= cur.version then
      invalid_arg
        (Printf.sprintf "Index.publish: version %d is not newer than %d" s.version cur.version)
    else if not (Atomic.compare_and_set t cur s) then swap ()
  in
  swap ()
