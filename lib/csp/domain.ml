type t = int array
(* Invariant: strictly increasing. *)

let of_list l = Array.of_list (List.sort_uniq Int.compare l)
let to_list = Array.to_list
let to_array = Array.copy

let of_sorted_array (a : int array) =
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then invalid_arg "Domain.of_sorted_array: not strictly ascending"
  done;
  a

let singleton v = [| v |]

let range lo hi =
  if lo > hi then [||] else Array.init (hi - lo + 1) (fun i -> lo + i)

let empty = [||]
let is_empty d = Array.length d = 0
let size = Array.length

let min_value d =
  if is_empty d then invalid_arg "Domain.min_value: empty domain";
  d.(0)

let max_value d =
  if is_empty d then invalid_arg "Domain.max_value: empty domain";
  d.(Array.length d - 1)

let mem v d =
  let rec bs lo hi =
    if lo > hi then false
    else
      let mid = (lo + hi) / 2 in
      if d.(mid) = v then true else if d.(mid) < v then bs (mid + 1) hi else bs lo (mid - 1)
  in
  bs 0 (Array.length d - 1)

let value d = if Array.length d = 1 then Some d.(0) else None

let filter p d =
  let kept = Array.to_list d |> List.filter p in
  Array.of_list kept

let inter a b =
  let out = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out := x :: !out;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  Array.of_list (List.rev !out)

(* Linear merge of the two sorted inputs — [union] runs on every CSel
   revise, so no sort and no intermediate lists. *)
let union a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x = y then begin
        out.(!k) <- x;
        incr i;
        incr j
      end
      else if x < y then begin
        out.(!k) <- x;
        incr i
      end
      else begin
        out.(!k) <- y;
        incr j
      end;
      incr k
    done;
    while !i < la do
      out.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    while !j < lb do
      out.(!k) <- b.(!j);
      incr j;
      incr k
    done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let equal a b = a = b

let iter f d = Array.iter f d

let fold f acc d = Array.fold_left f acc d

let random rng d =
  if is_empty d then invalid_arg "Domain.random: empty domain";
  d.(Heron_util.Rng.int rng (Array.length d))

let to_string d =
  if Array.length d > 12 then
    Printf.sprintf "{%d values in [%d, %d]}" (Array.length d) (min_value d) (max_value d)
  else
    "{" ^ String.concat ", " (List.map string_of_int (to_list d)) ^ "}"
