(* Candidate interning: the identity layer of the flat search engine.

   Every distinct candidate the loop touches gets a dense int id. A
   candidate is its values indexed by variable id (positions in the
   problem's variable array), the form the solver hands children out in,
   so interning a child hashes and compares int arrays — no name string is
   read. Its [Assignment.t] map is built only when something outside the
   loop asks for it (measurement, the incumbent, snapshots), and its
   canonical key string only for checkpoints; both are memoized per id.
   Dedupe, seen/cache/quarantine/degraded checks and the fault paths are
   O(1) int-keyed array reads.

   Ids are allocated contiguously from 0, so per-id side tables (cache
   flags, feature rows, dedupe stamps) are plain arrays indexed by id. *)

module Assignment = Heron_csp.Assignment
module Obs = Heron_obs.Obs

let c_interned = Obs.Counter.make "search.interned"
let c_intern_hits = Obs.Counter.make "search.intern_hits"

type t = {
  names : string array;
  order : int array;  (* variable ids by ascending name: an assignment's binding order *)
  mutable values : int array array;
  mutable assignments : Assignment.t option array;  (* built on first use *)
  mutable keys : string option array;  (* memoized [Assignment.key] per id *)
  mutable n : int;
  buckets : (int, int list) Hashtbl.t;  (* value hash -> ids, newest first *)
}

let create names =
  let order = Array.init (Array.length names) Fun.id in
  Array.sort (fun i j -> String.compare names.(i) names.(j)) order;
  {
    names;
    order;
    values = Array.make 256 [||];
    assignments = Array.make 256 None;
    keys = Array.make 256 None;
    n = 0;
    buckets = Hashtbl.create 256;
  }

let size t = t.n

(* FNV-1a-style mix over whole values: every bit of every value counts. *)
let hash vs =
  let h = ref 0x811C9DC5 in
  for i = 0 to Array.length vs - 1 do
    h := (!h lxor vs.(i)) * 0x100000001B3
  done;
  !h land max_int

let rec same_values a b i = i < 0 || (a.(i) = b.(i) && same_values a b (i - 1))

let rec find_id t vs = function
  | [] -> -1
  | id :: rest ->
      let w = t.values.(id) in
      if Array.length w = Array.length vs && same_values w vs (Array.length vs - 1) then id
      else find_id t vs rest

let grow t =
  let cap = Array.length t.values in
  if t.n >= cap then begin
    let cap' = 2 * cap in
    let values = Array.make cap' [||] in
    Array.blit t.values 0 values 0 t.n;
    t.values <- values;
    let assignments = Array.make cap' None in
    Array.blit t.assignments 0 assignments 0 t.n;
    t.assignments <- assignments;
    let keys = Array.make cap' None in
    Array.blit t.keys 0 keys 0 t.n;
    t.keys <- keys
  end

let intern_values t vs =
  if Array.length vs <> Array.length t.names then
    invalid_arg
      (Printf.sprintf "Intern.intern_values: %d values for %d variables" (Array.length vs)
         (Array.length t.names));
  let h = hash vs in
  let ids = match Hashtbl.find_opt t.buckets h with Some l -> l | None -> [] in
  match find_id t vs ids with
  | -1 ->
      grow t;
      let id = t.n in
      t.values.(id) <- vs;
      t.n <- id + 1;
      Hashtbl.replace t.buckets h (id :: ids);
      Obs.Counter.incr c_interned;
      id
  | id ->
      Obs.Counter.incr c_intern_hits;
      id

(* An assignment's values by variable id. Its bindings come in ascending
   name order, so one walk beside [order] places them and finds the first
   variable it misses or the first binding the problem lacks. *)
let values_of t a =
  let n = Array.length t.names in
  let vs = Array.make n 0 in
  let k =
    Assignment.fold
      (fun name x k ->
        if k < n && String.equal name t.names.(t.order.(k)) then begin
          vs.(t.order.(k)) <- x;
          k + 1
        end
        else if k < n && String.compare name t.names.(t.order.(k)) > 0 then
          invalid_arg
            (Printf.sprintf "Intern.intern: the assignment does not bind %S"
               t.names.(t.order.(k)))
        else
          invalid_arg
            (Printf.sprintf "Intern.intern: the assignment binds %S, which is not a variable"
               name))
      a 0
  in
  if k < n then
    invalid_arg
      (Printf.sprintf "Intern.intern: the assignment does not bind %S" t.names.(t.order.(k)));
  vs

(* A new id keeps the map it was interned from, as it would keep the
   first one seen. *)
let intern t a =
  let n = t.n in
  let id = intern_values t (values_of t a) in
  if id = n then t.assignments.(id) <- Some a;
  id

let intern_keyed t a key =
  let id = intern t a in
  if Option.is_none t.keys.(id) then t.keys.(id) <- Some key;
  id

let values t id = t.values.(id)

let assignment t id =
  match t.assignments.(id) with
  | Some a -> a
  | None ->
      let a = Assignment.of_values t.names t.values.(id) in
      t.assignments.(id) <- Some a;
      a

let key t id =
  match t.keys.(id) with
  | Some k -> k
  | None ->
      let k = Assignment.key (assignment t id) in
      t.keys.(id) <- Some k;
      k
