(* Histogram-based regression trees over a flat byte matrix ({!Fmat}),
   stored as a struct-of-arrays in pre-order. The fit is byte-identical to
   the frozen {!Gbt_ref.Tree} oracle — same splits, same gains, same leaf
   means — but with very different constants:

   - one pass per node over its samples builds the (feature x bin)
     count/sum histograms for ALL features at once, streaming contiguous
     byte rows, instead of one boxed-array rescan per feature;
   - partitioning is a single count+fill pass instead of two
     Array->List->filter->Array round trips;
   - all inner-loop comparisons are monomorphic float/int operations.

   Byte-identity constrains the histogram work: per-(feature, bin) float
   sums accumulate in sample order, exactly as the reference's per-feature
   scans do (each accumulator sees the same addends in the same order, so
   every float is bit-equal). The LightGBM build-child-by-subtraction
   trick is deliberately NOT applied to the float sums — subtraction
   changes rounding and would break the differential oracle; children
   rebuild their histograms directly, which the flat single-pass layout
   makes cheap.

   Constant columns are left out of every histogram. A column whose
   cells all hold one bin [c] on the training rows holds [c] on every
   node's rows too, so each candidate split of it leaves all the node's
   rows on one side: below [c] the left side is empty, from [c] on the
   right side is. [fit] demands [min_samples >= 1], so no such
   candidate is ever admitted, the column never sets a best split, and
   leaving it out changes no split, gain or leaf. The columns that remain
   are scanned in ascending order, so the earlier feature still wins
   ties.
   Constant columns are also the slowest to fill: every add of a node
   goes to the same accumulator and waits on the one before it. *)

type params = { max_depth : int; min_samples : int; min_gain : float }

let default_params = { max_depth = 4; min_samples = 4; min_gain = 1e-9 }

(* Nodes in pre-order: [feat.(i) >= 0] marks a split (children at
   [left.(i)]/[right.(i)], samples with [x.(feat) <= bin] go left);
   [feat.(i) = -1] marks a leaf carrying [value.(i)]. *)
type t = {
  feat : int array;
  bin : int array;
  left : int array;
  right : int array;
  value : float array;
  gain : float array;
  n_features : int;
}

(* Reusable fit workspace: grown on demand, never shrunk, so repeated
   fits (boosting rounds) run allocation-free. Contents are meaningless
   between calls. *)
type scratch = {
  mutable s_offs : int array;
  mutable s_hist_n : int array;
  mutable s_hist_s : float array;
  mutable s_idx : int array;
  mutable s_tmp : int array;
}

let scratch () = { s_offs = [||]; s_hist_n = [||]; s_hist_s = [||]; s_idx = [||]; s_tmp = [||] }

let active_columns (m : Fmat.t) =
  let nf = Fmat.n_features m in
  let rows = Fmat.data m in
  let varies = Array.make nf false in
  for i = 1 to Fmat.n_rows m - 1 do
    let base = i * nf in
    for f = 0 to nf - 1 do
      if Bytes.unsafe_get rows (base + f) <> Bytes.unsafe_get rows f then
        Array.unsafe_set varies f true
    done
  done;
  Array.of_list (List.filter (Array.get varies) (List.init nf Fun.id))

(* One streaming pass over the samples [idx.(lo .. hi-1)]: every (active
   column, bin) accumulator receives its ys addends in sample order, as
   the per-feature reference scans do. Rows are read as raw consecutive
   bytes. A top-level function, so the loop holds its arrays in registers
   instead of reloading them from [grow]'s closure at every add. *)
let fill rows nf (active : int array) (offs : int array) (hist_n : int array)
    (hist_s : float array) (idx : int array) (ys : float array) lo hi =
  let na = Array.length active in
  for k = lo to hi - 1 do
    let i = Array.unsafe_get idx k in
    let y = Array.unsafe_get ys i in
    let base = i * nf in
    for a = 0 to na - 1 do
      let b = Char.code (Bytes.unsafe_get rows (base + Array.unsafe_get active a)) in
      let off = Array.unsafe_get offs a + b in
      Array.unsafe_set hist_n off (Array.unsafe_get hist_n off + 1);
      Array.unsafe_set hist_s off (Array.unsafe_get hist_s off +. y)
    done
  done

let fit ?(params = default_params) ?scratch:sc ?active ~n_bins (m : Fmat.t) ys =
  let n = Fmat.n_rows m in
  if n = 0 then invalid_arg "Tree.fit: empty data";
  if Array.length ys < n then invalid_arg "Tree.fit: ys shorter than the matrix";
  let nf = Fmat.n_features m in
  if Array.length n_bins <> nf then invalid_arg "Tree.fit: n_bins/width mismatch";
  if params.min_samples < 1 then invalid_arg "Tree.fit: min_samples below 1";
  let sc = match sc with Some sc -> sc | None -> scratch () in
  let active = match active with Some a -> a | None -> active_columns m in
  let na = Array.length active in
  (* Per-column histogram offsets over the active columns, prefix-summed:
     active column [a] (feature [active.(a)]) has its bins at
     [offs.(a) .. offs.(a) + n_bins.(active.(a)) - 1]. Denser than a
     uniform max-bins stride, so clears are shorter and the
     randomly-addressed accumulators stay cache-resident. *)
  if Array.length sc.s_offs < na then sc.s_offs <- Array.make na 0;
  let offs = sc.s_offs in
  let hist_len = ref 0 in
  for a = 0 to na - 1 do
    offs.(a) <- !hist_len;
    hist_len := !hist_len + max 1 n_bins.(active.(a))
  done;
  let hist_len = !hist_len in
  (* A tree has at most 2n-1 nodes (every leaf holds >= 1 sample) and at
     most 2^(depth+1)-1; allocate the smaller bound up front. *)
  let cap =
    let by_depth =
      if params.max_depth < 30 then (1 lsl (params.max_depth + 1)) - 1 else max_int
    in
    max 1 (min by_depth ((2 * n) - 1))
  in
  let feat = Array.make cap (-1)
  and bin = Array.make cap 0
  and left = Array.make cap (-1)
  and right = Array.make cap (-1)
  and value = Array.make cap 0.0
  and gain = Array.make cap 0.0 in
  let len = ref 0 in
  let push () =
    let i = !len in
    incr len;
    i
  in
  (* Shared scratch, refilled per node (never live across the recursive
     calls): the (feature x bin) histograms, plus one permutation array
     [idx] holding each node's samples as the contiguous slice
     [lo, hi) — partitioning rearranges in place (with [tmp] buffering the
     right side to stay stable), so growing the tree allocates nothing. *)
  if Array.length sc.s_hist_n < hist_len then begin
    sc.s_hist_n <- Array.make hist_len 0;
    sc.s_hist_s <- Array.make hist_len 0.0
  end;
  if Array.length sc.s_idx < n then begin
    sc.s_idx <- Array.make n 0;
    sc.s_tmp <- Array.make n 0
  end;
  let hist_n = sc.s_hist_n and hist_s = sc.s_hist_s in
  let idx = sc.s_idx and tmp = sc.s_tmp in
  for i = 0 to n - 1 do
    idx.(i) <- i
  done;
  let rows = Fmat.data m in
  let mean lo hi =
    (* Same accumulation order as the reference: sample order. *)
    let sum = ref 0.0 in
    for k = lo to hi - 1 do
      sum := !sum +. Array.unsafe_get ys (Array.unsafe_get idx k)
    done;
    !sum /. float_of_int (hi - lo)
  in
  let rec grow lo hi d =
    let card = hi - lo in
    if d >= params.max_depth || card < 2 * params.min_samples then begin
      let i = push () in
      value.(i) <- mean lo hi;
      i
    end
    else begin
      Array.fill hist_n 0 hist_len 0;
      Array.fill hist_s 0 hist_len 0.0;
      fill rows nf active offs hist_n hist_s idx ys lo hi;
      (* Best split per feature, then argmax in feature order (earlier
         feature wins ties, matching the reference's reduction). *)
      let best_feat = ref (-1) and best_bin = ref 0 and best_gain = ref 0.0 in
      let have_best = ref false in
      for a = 0 to na - 1 do
        let f = active.(a) in
        let bins = n_bins.(f) and base_off = offs.(a) in
        let total_sum = ref 0.0 in
        for b = 0 to bins - 1 do
          total_sum := !total_sum +. Array.unsafe_get hist_s (base_off + b)
        done;
        let total_sum = !total_sum in
        let base = total_sum *. total_sum /. float_of_int card in
        let f_bin = ref 0 and f_gain = ref 0.0 in
        let f_have = ref false in
        let acc_n = ref 0 and acc_sum = ref 0.0 in
        for b = 0 to bins - 2 do
          acc_n := !acc_n + Array.unsafe_get hist_n (base_off + b);
          acc_sum := !acc_sum +. Array.unsafe_get hist_s (base_off + b);
          let nl = !acc_n and nr = card - !acc_n in
          if nl >= params.min_samples && nr >= params.min_samples then begin
            let sl = !acc_sum and sr = total_sum -. !acc_sum in
            let score =
              (sl *. sl /. float_of_int nl) +. (sr *. sr /. float_of_int nr) -. base
            in
            if (not !f_have) || Float.compare !f_gain score < 0 then begin
              f_have := true;
              f_bin := b;
              f_gain := score
            end
          end
        done;
        if !f_have && ((not !have_best) || Float.compare !best_gain !f_gain < 0) then begin
          have_best := true;
          best_feat := f;
          best_bin := !f_bin;
          best_gain := !f_gain
        end
      done;
      if !have_best && !best_gain > params.min_gain then begin
        let sf = !best_feat and sb = !best_bin and sg = !best_gain in
        (* Stable in-place partition: left-goers compact down within the
           slice (writes never outrun reads), right-goers stage in [tmp]
           and blit back above them — sample order preserved on both
           sides, no per-node allocation. *)
        let li = ref lo and ti = ref 0 in
        for k = lo to hi - 1 do
          let i = Array.unsafe_get idx k in
          if Char.code (Bytes.unsafe_get rows ((i * nf) + sf)) <= sb then begin
            Array.unsafe_set idx !li i;
            incr li
          end
          else begin
            Array.unsafe_set tmp !ti i;
            incr ti
          end
        done;
        let mid = !li in
        Array.blit tmp 0 idx mid !ti;
        let me = push () in
        let l = grow lo mid (d + 1) in
        let r = grow mid hi (d + 1) in
        feat.(me) <- sf;
        bin.(me) <- sb;
        gain.(me) <- sg;
        left.(me) <- l;
        right.(me) <- r;
        me
      end
      else begin
        let i = push () in
        value.(i) <- mean lo hi;
        i
      end
    end
  in
  ignore (grow 0 n 0);
  let n_nodes = !len in
  {
    feat = Array.sub feat 0 n_nodes;
    bin = Array.sub bin 0 n_nodes;
    left = Array.sub left 0 n_nodes;
    right = Array.sub right 0 n_nodes;
    value = Array.sub value 0 n_nodes;
    gain = Array.sub gain 0 n_nodes;
    n_features = nf;
  }

(* Pre-order storage: a split's left child is always the next node, so the
   walks only ever load the [right] link. *)
let predict t x =
  let i = ref 0 in
  while Array.unsafe_get t.feat !i >= 0 do
    i :=
      if Array.unsafe_get x (Array.unsafe_get t.feat !i) <= Array.unsafe_get t.bin !i then
        !i + 1
      else Array.unsafe_get t.right !i
  done;
  Array.unsafe_get t.value !i

let predict_row t m r =
  let rows = Fmat.data m in
  let base = r * Fmat.n_features m in
  let i = ref 0 in
  while Array.unsafe_get t.feat !i >= 0 do
    let b = Char.code (Bytes.unsafe_get rows (base + Array.unsafe_get t.feat !i)) in
    i := if b <= Array.unsafe_get t.bin !i then !i + 1 else Array.unsafe_get t.right !i
  done;
  Array.unsafe_get t.value !i

(* Pre-order node storage makes index order the reference's walk order, so
   gain accumulation is float-for-float identical to [Gbt_ref.Tree.gains]. *)
let gains t =
  let acc = Array.make t.n_features 0.0 in
  Array.iteri (fun i f -> if f >= 0 then acc.(f) <- acc.(f) +. t.gain.(i)) t.feat;
  acc

let depth t =
  let rec d i = if t.feat.(i) < 0 then 0 else 1 + max (d t.left.(i)) (d t.right.(i)) in
  d 0

let n_nodes t = Array.length t.feat
