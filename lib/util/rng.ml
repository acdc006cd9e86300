type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let s = bits64 t in
  { state = s }

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  (* Explicit loop: the parent must advance in index order, so task i's
     stream is a function of (seed, i) alone — never of Array.init's
     unspecified evaluation order or of who executes the task. *)
  let out = Array.make n t in
  for i = 0 to n - 1 do
    out.(i) <- split t
  done;
  out

let copy t = { state = t.state }

(* The whole generator state is one int64; a fixed-width hex rendering
   round-trips it exactly, so checkpoints can freeze and restore a search's
   random stream mid-run. *)
let state_hex t = Printf.sprintf "%016Lx" t.state

let set_state_hex t s =
  if String.length s <> 16 then Error (Printf.sprintf "Rng state %S: expected 16 hex digits" s)
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v ->
        t.state <- v;
        Ok ()
    | None -> Error (Printf.sprintf "Rng state %S: not hexadecimal" s)

let split_at t i =
  if i < 0 then invalid_arg "Rng.split_at: negative index";
  (* Random access into the split_n sequence: advance a copy of the parent
     past the first [i] splits, then take the next one. The parent is not
     advanced, so tasks can derive their own generator from (parent, index)
     without materializing the whole array. *)
  let c = copy t in
  for _ = 1 to i do
    ignore (bits64 c)
  done;
  split c

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the conversion to OCaml's 63-bit int stays positive. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let float t =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0

let range t lo hi =
  if lo > hi then invalid_arg "Rng.range: lo > hi";
  lo + int t (hi - lo + 1)

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let choice_list t l =
  match l with
  | [] -> invalid_arg "Rng.choice_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  if n < 0 then invalid_arg "Rng.permutation: negative size";
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let sample t xs k =
  let a = Array.of_list xs in
  shuffle t a;
  let n = min k (Array.length a) in
  Array.to_list (Array.sub a 0 n)
