module Domain = Heron_csp.Domain
module Cons = Heron_csp.Cons
module Problem = Heron_csp.Problem
module Rng = Heron_util.Rng

type cons_spec =
  | SProd of int * int list
  | SSum of int * int list
  | SEq of int * int
  | SLe of int * int
  | SIn of int * int list
  | SSel of int * int * int list

type spec = { doms : int list array; cons : cons_spec list }

let var i = Printf.sprintf "v%d" i

let to_cons = function
  | SProd (v, vs) -> Cons.Prod (var v, List.map var vs)
  | SSum (v, vs) -> Cons.Sum (var v, List.map var vs)
  | SEq (a, b) -> Cons.Eq (var a, var b)
  | SLe (a, b) -> Cons.Le (var a, var b)
  | SIn (v, cs) -> Cons.In (var v, cs)
  | SSel (v, u, vs) -> Cons.Select (var v, var u, List.map var vs)

let to_problem sp =
  let b = Problem.builder () in
  Array.iteri (fun i d -> Problem.add_var b (var i) (Domain.of_list d)) sp.doms;
  List.iter (fun c -> Problem.add_cons b (to_cons c)) sp.cons;
  Problem.freeze b

let print sp =
  let dom i d =
    Printf.sprintf "%s in {%s}" (var i) (String.concat ", " (List.map string_of_int d))
  in
  let doms = Array.to_list (Array.mapi dom sp.doms) in
  let cons = List.map (fun c -> Cons.to_string (to_cons c)) sp.cons in
  String.concat "; " (doms @ cons)

(* ---------- generation ---------- *)

(* Repair pass: with high probability, widen the target's domain with one
   witness combination so the constraint is individually satisfiable. *)
let repair ~max_prod doms cons st =
  let open QCheck.Gen in
  let pick d st = List.nth d (int_range 0 (List.length d - 1) st) in
  let add i v = doms.(i) <- List.sort_uniq compare (v :: doms.(i)) in
  List.iter
    (fun c ->
      if float_bound_inclusive 1.0 st < 0.8 then
        match c with
        | SProd (v, vs) ->
            let p = List.fold_left (fun acc x -> acc * pick doms.(x) st) 1 vs in
            if p <= max_prod then add v p
        | SSum (v, vs) -> add v (List.fold_left (fun acc x -> acc + pick doms.(x) st) 0 vs)
        | SEq (a, b) -> add a (pick doms.(b) st)
        | SLe (_, _) -> ()
        | SIn (v, cs) -> if cs <> [] then add v (pick cs st)
        | SSel (v, u, vs) ->
            let i = int_range 0 (List.length vs - 1) st in
            add u i;
            add v (pick doms.(List.nth vs i) st))
    cons;
  { doms; cons }

let gen ~max_vars ~max_value ~max_dom ~max_cons st =
  let open QCheck.Gen in
  let n = int_range 2 max_vars st in
  let doms =
    Array.init n (fun _ ->
        let size = int_range 1 max_dom st in
        List.init size (fun _ -> int_range 0 max_value st) |> List.sort_uniq compare)
  in
  let any_var st = int_range 0 (n - 1) st in
  let operands st = list_repeat (int_range 1 3 st) any_var st in
  let one_cons st =
    match int_range 0 5 st with
    | 0 -> SProd (any_var st, operands st)
    | 1 -> SSum (any_var st, operands st)
    | 2 -> SEq (any_var st, any_var st)
    | 3 -> SLe (any_var st, any_var st)
    | 4 ->
        let v = any_var st in
        (* Mostly values the variable can actually take, plus one stray. *)
        let own = List.filter (fun _ -> bool st) doms.(v) in
        let cs = List.sort_uniq compare ((int_range 0 max_value st :: own) @ [ 0 ]) in
        SIn (v, cs)
    | _ -> SSel (any_var st, any_var st, operands st)
  in
  let cons = list_repeat (int_range 0 max_cons st) one_cons st in
  repair ~max_prod:4096 doms cons st

(* ---------- shrinking ---------- *)

let set_dom doms i d =
  let out = Array.copy doms in
  out.(i) <- d;
  out

(* Domains wider than this shrink by halves, not value by value: one
   candidate per value of a thousand-value universe makes shrinking a
   failing Heron-shaped case take hours. *)
let wide_dom = 16

let shrink sp yield =
  (* Drop one constraint at a time. *)
  List.iteri
    (fun i _ -> yield { sp with cons = List.filteri (fun j _ -> j <> i) sp.cons })
    sp.cons;
  (* Keep either half of a wide domain. *)
  Array.iteri
    (fun i d ->
      let n = List.length d in
      if n > wide_dom then begin
        yield { sp with doms = set_dom sp.doms i (List.filteri (fun k _ -> k < n / 2) d) };
        yield { sp with doms = set_dom sp.doms i (List.filteri (fun k _ -> k >= n / 2) d) }
      end)
    sp.doms;
  (* Remove one domain value at a time (domains stay non-empty). *)
  Array.iteri
    (fun i d ->
      if List.length d > 1 && List.length d <= wide_dom then
        List.iteri
          (fun j _ -> yield { sp with doms = set_dom sp.doms i (List.filteri (fun k _ -> k <> j) d) })
          d)
    sp.doms;
  (* Halve individual values toward 0. *)
  Array.iteri
    (fun i d ->
      if List.length d <= wide_dom then
        List.iteri
          (fun j v ->
            if v > 0 then
              let d' =
                List.mapi (fun k x -> if k = j then v / 2 else x) d |> List.sort_uniq compare
              in
              if d' <> d then yield { sp with doms = set_dom sp.doms i d' })
          d)
    sp.doms

let arbitrary ?(max_vars = 5) ?(max_value = 24) ?(max_dom = 6) ?(max_cons = 4) () =
  QCheck.make ~print ~shrink (gen ~max_vars ~max_value ~max_dom ~max_cons)

(* ---------- Heron-shaped profile ---------- *)

(* Wide universes are dense enough (a quarter of [0, 4 * size]) that sums
   and products of narrow values land in them often; narrow ones look
   like tile sizes. Variable 0 is always wide. *)
let heron_gen st =
  let open QCheck.Gen in
  let n = int_range 3 5 st in
  let wide st =
    let size = int_range 100 1500 st in
    List.init size (fun _ -> int_range 0 (4 * size) st)
  in
  let narrow st = List.init (int_range 1 12 st) (fun _ -> int_range 0 96 st) in
  let doms =
    Array.init n (fun i ->
        let d = if i = 0 || int_range 0 2 st = 0 then wide st else narrow st in
        List.sort_uniq Int.compare (if bool st then 0 :: d else d))
  in
  let any_var st = int_range 0 (n - 1) st in
  let binary st =
    let v = any_var st and a = any_var st in
    (* One in four aliases: v = a op a, or v = a op v. *)
    let b = match int_range 0 7 st with 0 -> a | 1 -> v | _ -> any_var st in
    if bool st then SProd (v, [ a; b ]) else SSum (v, [ a; b ])
  in
  let one_cons st =
    match int_range 0 7 st with
    | 0 -> SLe (any_var st, any_var st)
    | 1 ->
        let v = any_var st in
        SIn (v, 0 :: List.filter (fun _ -> int_range 0 3 st > 0) doms.(v))
    | _ -> binary st
  in
  let cons = list_repeat (int_range 1 4 st) one_cons st in
  repair ~max_prod:(1 lsl 20) doms cons st

let heron_arbitrary () = QCheck.make ~print ~shrink heron_gen

let permute_cons sp rng =
  let a = Array.of_list sp.cons in
  let perm = Rng.permutation rng (Array.length a) in
  { sp with cons = Array.to_list (Array.map (fun i -> a.(i)) perm) }
