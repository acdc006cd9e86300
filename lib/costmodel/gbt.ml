(* Gradient boosting over {!Tree}, with the fitted ensemble compiled into
   one flat struct-of-arrays: every tree's pre-order nodes concatenated
   into shared [feat]/[bin]/[left]/[right]/[value]/[gain] arrays with
   per-tree root offsets. Batch prediction walks those few contiguous
   kilobytes for a whole population, writing into one caller-owned buffer
   that is reused across CGA generations. Fitting and prediction are
   byte-identical to the frozen {!Gbt_ref} oracle. *)

type params = { n_trees : int; learning_rate : float; tree : Tree.params }

let default_params = { n_trees = 24; learning_rate = 0.3; tree = Tree.default_params }

type t = {
  base : float;
  rate : float;
  n_features : int;
  tree_off : int array;  (* root node index of each tree; length n_trees + 1 *)
  feat : int array;  (* >= 0: split on feature; -1: leaf *)
  bin : int array;
  left : int array;  (* absolute node indices *)
  right : int array;
  value : float array;  (* leaf predictions *)
  gain : float array;  (* split gains, for feature importance *)
}

(* Concatenate per-tree SoAs, shifting child links by each tree's offset. *)
let compile ~base ~rate ~n_features (trees : Tree.t array) =
  let total = Array.fold_left (fun acc (tr : Tree.t) -> acc + Array.length tr.Tree.feat) 0 trees in
  let nt = Array.length trees in
  let tree_off = Array.make (nt + 1) 0 in
  let feat = Array.make (max 1 total) (-1)
  and bin = Array.make (max 1 total) 0
  and left = Array.make (max 1 total) (-1)
  and right = Array.make (max 1 total) (-1)
  and value = Array.make (max 1 total) 0.0
  and gain = Array.make (max 1 total) 0.0 in
  let off = ref 0 in
  Array.iteri
    (fun ti (tr : Tree.t) ->
      let o = !off in
      tree_off.(ti) <- o;
      let n = Array.length tr.Tree.feat in
      for i = 0 to n - 1 do
        feat.(o + i) <- tr.Tree.feat.(i);
        bin.(o + i) <- tr.Tree.bin.(i);
        left.(o + i) <- (if tr.Tree.left.(i) < 0 then -1 else o + tr.Tree.left.(i));
        right.(o + i) <- (if tr.Tree.right.(i) < 0 then -1 else o + tr.Tree.right.(i));
        value.(o + i) <- tr.Tree.value.(i);
        gain.(o + i) <- tr.Tree.gain.(i)
      done;
      off := o + n)
    trees;
  tree_off.(nt) <- !off;
  { base; rate; n_features; tree_off; feat; bin; left; right; value; gain }

let fit ?(params = default_params) ~n_bins (m : Fmat.t) ys =
  let n = Fmat.n_rows m in
  if n = 0 then invalid_arg "Gbt.fit: empty data";
  if Array.length ys < n then invalid_arg "Gbt.fit: ys shorter than the matrix";
  (* Base and residuals accumulate exactly as the reference does. *)
  let base = ref 0.0 in
  for i = 0 to n - 1 do
    base := !base +. ys.(i)
  done;
  let base = !base /. float_of_int n in
  let preds = Array.make n base in
  let residuals = Array.make n 0.0 in
  let trees = Array.make params.n_trees None in
  let scratch = Tree.scratch () in
  (* Every round fits the same rows, so a column that is constant on them
     is constant for every tree: find those once. Leaving them out is
     exact (see {!Tree.active_columns}). *)
  let active = Tree.active_columns m in
  for round = 0 to params.n_trees - 1 do
    (* Squared loss: the negative gradient is the residual. *)
    for i = 0 to n - 1 do
      residuals.(i) <- ys.(i) -. preds.(i)
    done;
    let tree = Tree.fit ~params:params.tree ~scratch ~active ~n_bins m residuals in
    trees.(round) <- Some tree;
    for i = 0 to n - 1 do
      preds.(i) <- preds.(i) +. (params.learning_rate *. Tree.predict_row tree m i)
    done
  done;
  let trees = Array.map (function Some t -> t | None -> assert false) trees in
  compile ~base ~rate:params.learning_rate ~n_features:(Fmat.n_features m) trees

let n_trees t = Array.length t.tree_off - 1

(* Tree walks accumulate in ensemble order with the same float expression
   as the reference's fold: acc +. (rate *. leaf). Pre-order storage means
   a split's left child is always the next node, so walks never load the
   [left] array. *)
let predict t x =
  let acc = ref t.base in
  for ti = 0 to n_trees t - 1 do
    let i = ref (Array.unsafe_get t.tree_off ti) in
    while Array.unsafe_get t.feat !i >= 0 do
      i :=
        if Array.unsafe_get x (Array.unsafe_get t.feat !i) <= Array.unsafe_get t.bin !i
        then !i + 1
        else Array.unsafe_get t.right !i
    done;
    acc := !acc +. (t.rate *. Array.unsafe_get t.value !i)
  done;
  !acc

(* Walk the ensemble over the row starting at byte [base] of [rows]. *)
let predict_bytes t rows base =
  let acc = ref t.base in
  for ti = 0 to n_trees t - 1 do
    let i = ref (Array.unsafe_get t.tree_off ti) in
    while Array.unsafe_get t.feat !i >= 0 do
      let b = Char.code (Bytes.unsafe_get rows (base + Array.unsafe_get t.feat !i)) in
      i := if b <= Array.unsafe_get t.bin !i then !i + 1 else Array.unsafe_get t.right !i
    done;
    acc := !acc +. (t.rate *. Array.unsafe_get t.value !i)
  done;
  !acc

let predict_row t m r = predict_bytes t (Fmat.data m) (r * Fmat.n_features m)

let predict_batch_into t m out =
  let n = Fmat.n_rows m in
  if Array.length out < n then invalid_arg "Gbt.predict_batch_into: output buffer too small";
  let rows = Fmat.data m and nf = Fmat.n_features m in
  for r = 0 to n - 1 do
    out.(r) <- predict_bytes t rows (r * nf)
  done

let feature_gains t =
  let acc = Array.make t.n_features 0.0 in
  let tmp = Array.make t.n_features 0.0 in
  (* Per-tree subtotal first, then one elementwise add into the ensemble
     accumulator — the reference's exact float addition order. *)
  for ti = 0 to n_trees t - 1 do
    Array.fill tmp 0 t.n_features 0.0;
    for i = t.tree_off.(ti) to t.tree_off.(ti + 1) - 1 do
      let f = t.feat.(i) in
      if f >= 0 then tmp.(f) <- tmp.(f) +. t.gain.(i)
    done;
    for f = 0 to t.n_features - 1 do
      acc.(f) <- acc.(f) +. tmp.(f)
    done
  done;
  acc

(* Canonical serialization, format shared with [Gbt_ref.dump]. *)
let dump t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "base=%h rate=%h nf=%d\n" t.base t.rate t.n_features);
  for ti = 0 to n_trees t - 1 do
    Buffer.add_string buf (Printf.sprintf "tree %d: " ti);
    let rec walk i =
      if t.feat.(i) < 0 then Buffer.add_string buf (Printf.sprintf "L%h" t.value.(i))
      else begin
        Buffer.add_string buf (Printf.sprintf "S%d:%d:%h(" t.feat.(i) t.bin.(i) t.gain.(i));
        walk t.left.(i);
        Buffer.add_char buf ',';
        walk t.right.(i);
        Buffer.add_char buf ')'
      end
    in
    walk t.tree_off.(ti);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
