(* The frozen pre-overhaul cost-model engine, kept verbatim as the
   differential oracle for the flat-array rebuild (the PR-4 playbook:
   the production engine must stay byte-identical to this reference —
   fitted trees, gains and predictions alike). Operates on boxed
   [int array array] feature matrices and pointer-linked tree nodes.
   Do not optimize this file. *)

module Tree = struct
  type params = { max_depth : int; min_samples : int; min_gain : float }

  let default_params = { max_depth = 4; min_samples = 4; min_gain = 1e-9 }

  type node =
    | Leaf of float
    | Split of { feat : int; bin : int; gain : float; left : node; right : node }
        (** samples with [x.(feat) <= bin] go left *)

  type t = { root : node; n_features : int }

  let mean ys idx =
    let sum = Array.fold_left (fun acc i -> acc +. ys.(i)) 0.0 idx in
    sum /. float_of_int (Array.length idx)

  (* Best split of [idx] on [feat]: scan bins left to right accumulating
     sums, maximizing  sum_l^2/n_l + sum_r^2/n_r  (equivalent to variance
     reduction). Returns (bin, gain) or None. *)
  let best_split_on xs ys idx feat bins min_samples =
    let counts = Array.make bins 0 and sums = Array.make bins 0.0 in
    Array.iter
      (fun i ->
        let b = xs.(i).(feat) in
        counts.(b) <- counts.(b) + 1;
        sums.(b) <- sums.(b) +. ys.(i))
      idx;
    let total_n = Array.length idx in
    let total_sum = Array.fold_left ( +. ) 0.0 sums in
    let base = total_sum *. total_sum /. float_of_int total_n in
    let best = ref None in
    let acc_n = ref 0 and acc_sum = ref 0.0 in
    for b = 0 to bins - 2 do
      acc_n := !acc_n + counts.(b);
      acc_sum := !acc_sum +. sums.(b);
      let nl = !acc_n and nr = total_n - !acc_n in
      if nl >= min_samples && nr >= min_samples then begin
        let sl = !acc_sum and sr = total_sum -. !acc_sum in
        let score = (sl *. sl /. float_of_int nl) +. (sr *. sr /. float_of_int nr) -. base in
        match !best with
        | Some (_, g) when g >= score -> ()
        | _ -> best := Some (b, score)
      end
    done;
    !best

  let fit ?(params = default_params) ~n_bins xs ys =
    let n = Array.length xs in
    if n = 0 then invalid_arg "Gbt_ref.Tree.fit: empty data";
    if Array.length ys <> n then invalid_arg "Gbt_ref.Tree.fit: xs/ys length mismatch";
    let n_features = Array.length xs.(0) in
    let rec grow idx d =
      if d >= params.max_depth || Array.length idx < 2 * params.min_samples then
        Leaf (mean ys idx)
      else begin
        let best = ref None in
        for feat = 0 to n_features - 1 do
          match best_split_on xs ys idx feat n_bins.(feat) params.min_samples with
          | Some (bin, gain) -> (
              match !best with
              | Some (_, _, g) when g >= gain -> ()
              | _ -> best := Some (feat, bin, gain))
          | None -> ()
        done;
        match !best with
        | Some (feat, bin, gain) when gain > params.min_gain ->
            let left_idx =
              Array.of_list (List.filter (fun i -> xs.(i).(feat) <= bin) (Array.to_list idx))
            and right_idx =
              Array.of_list (List.filter (fun i -> xs.(i).(feat) > bin) (Array.to_list idx))
            in
            Split { feat; bin; gain; left = grow left_idx (d + 1); right = grow right_idx (d + 1) }
        | _ -> Leaf (mean ys idx)
      end
    in
    { root = grow (Array.init n (fun i -> i)) 0; n_features }

  let rec predict_node node x =
    match node with
    | Leaf v -> v
    | Split { feat; bin; left; right; _ } ->
        if x.(feat) <= bin then predict_node left x else predict_node right x

  let predict t x = predict_node t.root x

  let gains t =
    let acc = Array.make t.n_features 0.0 in
    let rec walk = function
      | Leaf _ -> ()
      | Split { feat; gain; left; right; _ } ->
          acc.(feat) <- acc.(feat) +. gain;
          walk left;
          walk right
    in
    walk t.root;
    acc
end

type params = { n_trees : int; learning_rate : float; tree : Tree.params }

let default_params = { n_trees = 24; learning_rate = 0.3; tree = Tree.default_params }

type t = {
  base : float;
  trees : Tree.t list;
  rate : float;
  n_features : int;
}

let fit ?(params = default_params) ~n_bins xs ys =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Gbt_ref.fit: empty data";
  let base = Array.fold_left ( +. ) 0.0 ys /. float_of_int n in
  let preds = Array.make n base in
  let trees = ref [] in
  for _round = 1 to params.n_trees do
    (* Squared loss: the negative gradient is the residual. *)
    let residuals = Array.init n (fun i -> ys.(i) -. preds.(i)) in
    let tree = Tree.fit ~params:params.tree ~n_bins xs residuals in
    trees := tree :: !trees;
    let contrib = Array.init n (fun i -> Tree.predict tree xs.(i)) in
    Array.iteri
      (fun i c -> preds.(i) <- preds.(i) +. (params.learning_rate *. c))
      contrib
  done;
  { base; trees = List.rev !trees; rate = params.learning_rate; n_features = Array.length xs.(0) }

let predict t x =
  List.fold_left (fun acc tree -> acc +. (t.rate *. Tree.predict tree x)) t.base t.trees

let feature_gains t =
  let acc = Array.make t.n_features 0.0 in
  List.iter
    (fun tree ->
      let g = Tree.gains tree in
      Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) g)
    t.trees;
  acc

let n_trees t = List.length t.trees

(* Canonical ensemble serialization shared with the production engine
   ([Heron_cost.Gbt.dump]): byte-equal dumps mean byte-identical fitted models.
   Floats print as hex ("%h"), so the equality is exact. *)
let dump t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "base=%h rate=%h nf=%d\n" t.base t.rate t.n_features);
  List.iteri
    (fun ti tree ->
      Buffer.add_string buf (Printf.sprintf "tree %d: " ti);
      let rec walk = function
        | Tree.Leaf v -> Buffer.add_string buf (Printf.sprintf "L%h" v)
        | Tree.Split { feat; bin; gain; left; right } ->
            Buffer.add_string buf (Printf.sprintf "S%d:%d:%h(" feat bin gain);
            walk left;
            Buffer.add_char buf ',';
            walk right;
            Buffer.add_char buf ')'
      in
      walk tree.Tree.root;
      Buffer.add_char buf '\n')
    t.trees;
  Buffer.contents buf
