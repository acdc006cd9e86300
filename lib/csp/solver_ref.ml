module Rng = Heron_util.Rng

(* The pre-overhaul solver engine, frozen verbatim (minus observability and
   pool plumbing, which never influenced results): sorted-array domains,
   full [compile] per problem, [Array.copy] of the whole domain array at
   every DFS node, O(k^2) n-ary revision. It exists as the executable
   specification the rebuilt engine in [Solver] is differentially tested
   against (lib/check/engine_diff.ml). Do not optimize this module. *)

type stats = { mutable nodes : int; mutable fails : int; mutable restarts : int }

let fresh_stats () = { nodes = 0; fails = 0; restarts = 0 }

type ic =
  | CProd of int * int array
  | CSum of int * int array
  | CEq of int * int
  | CLe of int * int
  | CIn of int * Domain.t
  | CSel of int * int * int array

let default_exact_limit = 10_000

type compiled = {
  names : string array;
  init_domains : Domain.t array;
  ics : ic array;
  watchers : int list array;
  exact_limit : int;
}

let compile ?(exact_limit = default_exact_limit) problem =
  let names = Problem.vars problem in
  let n = Array.length names in
  let ids = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace ids name i) names;
  let id name = Hashtbl.find ids name in
  let init_domains = Array.map (Problem.domain problem) names in
  let ics =
    Problem.constraints problem
    |> List.map (fun c ->
           match c with
           | Cons.Prod (v, vs) -> CProd (id v, Array.of_list (List.map id vs))
           | Cons.Sum (v, vs) -> CSum (id v, Array.of_list (List.map id vs))
           | Cons.Eq (a, b) -> CEq (id a, id b)
           | Cons.Le (a, b) -> CLe (id a, id b)
           | Cons.In (v, cs) -> CIn (id v, Domain.of_list cs)
           | Cons.Select (v, u, vs) -> CSel (id v, id u, Array.of_list (List.map id vs)))
    |> Array.of_list
  in
  let watchers = Array.make n [] in
  Array.iteri
    (fun ci ic ->
      let vars =
        match ic with
        | CProd (v, vs) | CSum (v, vs) -> v :: Array.to_list vs
        | CEq (a, b) | CLe (a, b) -> [ a; b ]
        | CIn (v, _) -> [ v ]
        | CSel (v, u, vs) -> v :: u :: Array.to_list vs
      in
      List.iter (fun vid -> watchers.(vid) <- ci :: watchers.(vid)) (List.sort_uniq compare vars))
    ics;
  { names; init_domains; ics; watchers; exact_limit }

exception Wipeout

let set_dom doms changed vid d =
  if Domain.is_empty d then raise Wipeout;
  if not (Domain.equal doms.(vid) d) then begin
    doms.(vid) <- d;
    changed := vid :: !changed
  end

let revise_nary doms changed v vs ~identity ~op ~inv_lo ~inv_hi =
  let lo_all = Array.fold_left (fun acc x -> op acc (Domain.min_value doms.(x))) identity vs in
  let hi_all = Array.fold_left (fun acc x -> op acc (Domain.max_value doms.(x))) identity vs in
  set_dom doms changed v (Domain.filter (fun x -> x >= lo_all && x <= hi_all) doms.(v));
  let v_lo = Domain.min_value doms.(v) and v_hi = Domain.max_value doms.(v) in
  Array.iteri
    (fun i x ->
      let others_lo = ref identity and others_hi = ref identity in
      Array.iteri
        (fun j y ->
          if i <> j then begin
            others_lo := op !others_lo (Domain.min_value doms.(y));
            others_hi := op !others_hi (Domain.max_value doms.(y))
          end)
        vs;
      let lo = inv_lo v_lo !others_hi and hi = inv_hi v_hi !others_lo in
      set_dom doms changed x (Domain.filter (fun a -> a >= lo && a <= hi) doms.(x)))
    vs

let revise_prod ~exact_limit doms changed v vs =
  match vs with
  | [| x |] ->
      let d = Domain.inter doms.(v) doms.(x) in
      set_dom doms changed v d;
      set_dom doms changed x d
  | [| a; b |] when Domain.size doms.(a) * Domain.size doms.(b) <= exact_limit ->
      let products = ref [] in
      Domain.iter
        (fun x -> Domain.iter (fun y -> products := (x * y) :: !products) doms.(b))
        doms.(a);
      set_dom doms changed v (Domain.inter doms.(v) (Domain.of_list !products));
      let keep_a x =
        Domain.fold (fun acc y -> acc || Domain.mem (x * y) doms.(v)) false doms.(b)
      in
      set_dom doms changed a (Domain.filter keep_a doms.(a));
      let keep_b y =
        Domain.fold (fun acc x -> acc || Domain.mem (x * y) doms.(v)) false doms.(a)
      in
      set_dom doms changed b (Domain.filter keep_b doms.(b))
  | _ ->
      revise_nary doms changed v vs ~identity:1 ~op:( * )
        ~inv_lo:(fun v_lo others_hi -> if others_hi = 0 then 0 else (v_lo + others_hi - 1) / others_hi)
        ~inv_hi:(fun v_hi others_lo -> if others_lo = 0 then max_int else v_hi / others_lo)

let revise_sum ~exact_limit doms changed v vs =
  match vs with
  | [| x |] ->
      let d = Domain.inter doms.(v) doms.(x) in
      set_dom doms changed v d;
      set_dom doms changed x d
  | [| a; b |] when Domain.size doms.(a) * Domain.size doms.(b) <= exact_limit ->
      let sums = ref [] in
      Domain.iter
        (fun x -> Domain.iter (fun y -> sums := (x + y) :: !sums) doms.(b))
        doms.(a);
      set_dom doms changed v (Domain.inter doms.(v) (Domain.of_list !sums));
      let keep_a x =
        Domain.fold (fun acc y -> acc || Domain.mem (x + y) doms.(v)) false doms.(b)
      in
      set_dom doms changed a (Domain.filter keep_a doms.(a));
      let keep_b y =
        Domain.fold (fun acc x -> acc || Domain.mem (x + y) doms.(v)) false doms.(a)
      in
      set_dom doms changed b (Domain.filter keep_b doms.(b))
  | _ ->
      revise_nary doms changed v vs ~identity:0 ~op:( + )
        ~inv_lo:(fun v_lo others_hi -> v_lo - others_hi)
        ~inv_hi:(fun v_hi others_lo -> v_hi - others_lo)

let revise_sel doms changed v u vs =
  let n = Array.length vs in
  let du =
    Domain.filter
      (fun i -> i >= 0 && i < n && not (Domain.is_empty (Domain.inter doms.(v) doms.(vs.(i)))))
      doms.(u)
  in
  set_dom doms changed u du;
  let union =
    Domain.fold (fun acc i -> Domain.union acc doms.(vs.(i))) Domain.empty doms.(u)
  in
  set_dom doms changed v (Domain.inter doms.(v) union);
  match Domain.value doms.(u) with
  | Some i ->
      let d = Domain.inter doms.(v) doms.(vs.(i)) in
      set_dom doms changed v d;
      set_dom doms changed vs.(i) d
  | None -> ()

let revise ~exact_limit doms changed = function
  | CProd (v, vs) -> revise_prod ~exact_limit doms changed v vs
  | CSum (v, vs) -> revise_sum ~exact_limit doms changed v vs
  | CEq (a, b) ->
      let d = Domain.inter doms.(a) doms.(b) in
      set_dom doms changed a d;
      set_dom doms changed b d
  | CLe (a, b) ->
      let hi = Domain.max_value doms.(b) in
      set_dom doms changed a (Domain.filter (fun x -> x <= hi) doms.(a));
      let lo = Domain.min_value doms.(a) in
      set_dom doms changed b (Domain.filter (fun x -> x >= lo) doms.(b))
  | CIn (v, cs) -> set_dom doms changed v (Domain.inter doms.(v) cs)
  | CSel (v, u, vs) -> revise_sel doms changed v u vs

let propagate compiled doms seed =
  let nc = Array.length compiled.ics in
  let in_queue = Array.make nc false in
  let queue = Queue.create () in
  let push ci =
    if not in_queue.(ci) then begin
      in_queue.(ci) <- true;
      Queue.push ci queue
    end
  in
  List.iter push seed;
  try
    while not (Queue.is_empty queue) do
      let ci = Queue.pop queue in
      in_queue.(ci) <- false;
      let changed = ref [] in
      revise ~exact_limit:compiled.exact_limit doms changed compiled.ics.(ci);
      List.iter (fun vid -> List.iter push compiled.watchers.(vid)) !changed
    done;
    true
  with Wipeout -> false

let all_cons compiled = List.init (Array.length compiled.ics) (fun i -> i)

let extract compiled doms =
  let bindings = ref [] in
  Array.iteri
    (fun i name ->
      match Domain.value doms.(i) with
      | Some v -> bindings := (name, v) :: !bindings
      | None -> invalid_arg "Solver_ref.extract: non-singleton domain")
    compiled.names;
  Assignment.of_list !bindings

exception Give_up

let search ?(max_fails = 4000) ~stats rng compiled doms0 =
  let fails = ref 0 in
  let pick_var doms =
    let best = ref (-1) and best_size = ref max_int and ties = ref 0 in
    Array.iteri
      (fun i d ->
        let s = Domain.size d in
        if s > 1 then
          if s < !best_size then begin
            best := i;
            best_size := s;
            ties := 1
          end
          else if s = !best_size then begin
            incr ties;
            if Rng.int rng !ties = 0 then best := i
          end)
      doms;
    if !best < 0 then None else Some !best
  in
  let rec dfs doms =
    stats.nodes <- stats.nodes + 1;
    match pick_var doms with
    | None -> Some (extract compiled doms)
    | Some vid ->
        let values = Array.of_list (Domain.to_list doms.(vid)) in
        Rng.shuffle rng values;
        let rec try_values i =
          if i >= Array.length values then None
          else begin
            let doms' = Array.copy doms in
            doms'.(vid) <- Domain.singleton values.(i);
            let ok = propagate compiled doms' compiled.watchers.(vid) in
            let result = if ok then dfs doms' else None in
            match result with
            | Some _ as r -> r
            | None ->
                stats.fails <- stats.fails + 1;
                incr fails;
                if !fails > max_fails then raise Give_up;
                try_values (i + 1)
          end
        in
        try_values 0
  in
  try dfs doms0 with Give_up -> None

let solve ?(max_fails = 4000) ?(max_restarts = 8) ?exact_limit ?stats rng problem =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let compiled = compile ?exact_limit problem in
  let root = Array.copy compiled.init_domains in
  if not (propagate compiled root (all_cons compiled)) then None
  else
    let rec attempt k =
      if k > max_restarts then None
      else begin
        if k > 0 then stats.restarts <- stats.restarts + 1;
        match search ~max_fails ~stats rng compiled (Array.copy root) with
        | Some a -> Some a
        | None -> attempt (k + 1)
      end
    in
    attempt 0

let rand_sat ?(max_fails = 4000) ?exact_limit ?stats rng problem n =
  let compiled = compile ?exact_limit problem in
  let root = Array.copy compiled.init_domains in
  if n <= 0 || not (propagate compiled root (all_cons compiled)) then []
  else begin
    let stats = match stats with Some s -> s | None -> fresh_stats () in
    let rngs = Rng.split_n rng n in
    let draw task_rng =
      let rec go attempt =
        if attempt >= 3 then None
        else
          match search ~max_fails ~stats task_rng compiled (Array.copy root) with
          | Some _ as a -> a
          | None -> go (attempt + 1)
      in
      go 0
    in
    Array.map draw rngs |> Array.to_list |> List.filter_map Fun.id
  end

let solve_all ?(max_fails = 4000) ?(max_restarts = 8) ?exact_limit ?stats rng problems =
  let arr = Array.of_list problems in
  let rngs = Rng.split_n rng (Array.length arr) in
  Array.to_list
    (Array.init (Array.length arr) (fun i ->
         solve ~max_fails ~max_restarts ?exact_limit ?stats rngs.(i) arr.(i)))

let propagate_domains problem =
  let compiled = compile problem in
  let doms = Array.copy compiled.init_domains in
  if propagate compiled doms (all_cons compiled) then
    Some (Array.to_list (Array.mapi (fun i name -> (name, doms.(i))) compiled.names))
  else None

let enumerate ?(limit = 10_000) problem =
  let compiled = compile problem in
  let doms0 = Array.copy compiled.init_domains in
  if not (propagate compiled doms0 (all_cons compiled)) then []
  else begin
    let out = ref [] and count = ref 0 in
    let rec dfs doms =
      if !count >= limit then ()
      else begin
        let open_var = ref (-1) in
        (try
           Array.iteri
             (fun i d ->
               if Domain.size d > 1 then begin
                 open_var := i;
                 raise Exit
               end)
             doms
         with Exit -> ());
        if !open_var < 0 then begin
          out := extract compiled doms :: !out;
          incr count
        end
        else
          let vid = !open_var in
          Domain.iter
            (fun v ->
              let doms' = Array.copy doms in
              doms'.(vid) <- Domain.singleton v;
              if propagate compiled doms' compiled.watchers.(vid) then dfs doms')
            doms.(vid)
      end
    in
    dfs doms0;
    List.rev !out
  end

let search_biased ?(max_fails = 4000) ~stats rng compiled doms0 bias =
  let fails = ref 0 in
  let pick_var doms =
    let best = ref (-1) and best_size = ref max_int and ties = ref 0 in
    Array.iteri
      (fun i d ->
        let s = Domain.size d in
        if s > 1 then
          if s < !best_size then begin
            best := i;
            best_size := s;
            ties := 1
          end
          else if s = !best_size then begin
            incr ties;
            if Rng.int rng !ties = 0 then best := i
          end)
      doms;
    if !best < 0 then None else Some !best
  in
  let rec dfs doms =
    stats.nodes <- stats.nodes + 1;
    match pick_var doms with
    | None -> Some (extract compiled doms)
    | Some vid ->
        let dom_values = Array.of_list (Domain.to_list doms.(vid)) in
        Rng.shuffle rng dom_values;
        let values =
          match Assignment.find_opt bias compiled.names.(vid) with
          | Some v when Domain.mem v doms.(vid) ->
              Array.of_list (v :: List.filter (fun x -> x <> v) (Array.to_list dom_values))
          | _ -> dom_values
        in
        let rec try_values i =
          if i >= Array.length values then None
          else begin
            let doms' = Array.copy doms in
            doms'.(vid) <- Domain.singleton values.(i);
            let ok = propagate compiled doms' compiled.watchers.(vid) in
            let result = if ok then dfs doms' else None in
            match result with
            | Some _ as r -> r
            | None ->
                stats.fails <- stats.fails + 1;
                incr fails;
                if !fails > max_fails then raise Give_up;
                try_values (i + 1)
          end
        in
        try_values 0
  in
  try dfs doms0 with Give_up -> None

let solve_biased ?(max_fails = 4000) rng problem bias =
  let stats = fresh_stats () in
  let compiled = compile problem in
  let root = Array.copy compiled.init_domains in
  if not (propagate compiled root (all_cons compiled)) then None
  else search_biased ~max_fails ~stats rng compiled root bias
