module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Obs = Heron_obs.Obs

let c_fit_calls = Obs.Counter.make "costmodel.fit_calls"
let c_predict_calls = Obs.Counter.make "costmodel.predict_calls"
let c_record_calls = Obs.Counter.make "costmodel.record_calls"
let c_predict_rows = Obs.Counter.make "costmodel.predict_rows"

(* The training window lives in a fixed ring: [window] flat byte rows plus
   a float target per slot. [next] is the slot the next [record] writes;
   the most recent sample sits at [next - 1] (mod window). Inserting is
   O(n_features) regardless of how full the window is — the pre-overhaul
   list window paid an O(window) [List.filteri] rebuild per insert once
   full. *)
type t = {
  features : Features.t;
  gbt_params : Gbt.params;
  window : int;
  nf : int;
  n_bins : int array;  (* bin count per feature, fixed by the problem *)
  ring : Fmat.t;  (* always [window] rows *)
  ring_y : float array;
  mutable next : int;
  mutable count : int;  (* samples currently held: min(total recorded, window) *)
  mutable ensemble : Gbt.t option;
  fit_m : Fmat.t;  (* refit scratch, rows ordered most recent first *)
  fit_y : float array;
  pred_m : Fmat.t;  (* batch-prediction scratch, reused across generations *)
  mutable pred_out : float array;  (* reused prediction output buffer *)
}

let create ?(gbt_params = Gbt.default_params) ?(window = 512) problem =
  let features = Features.of_problem problem in
  let window = max 1 window in
  let nf = Features.n_features features in
  let ring = Fmat.create ~capacity:window ~n_features:nf () in
  Fmat.set_rows ring window;
  {
    features;
    gbt_params;
    window;
    nf;
    n_bins = Features.n_bins features;
    ring;
    ring_y = Array.make window 0.0;
    next = 0;
    count = 0;
    ensemble = None;
    fit_m = Fmat.create ~capacity:window ~n_features:nf ();
    fit_y = Array.make window 0.0;
    pred_m = Fmat.create ~n_features:nf ();
    pred_out = [||];
  }

let record_row t src r score =
  Obs.Counter.incr c_record_calls;
  Fmat.blit_row src r t.ring t.next;
  t.ring_y.(t.next) <- score;
  t.next <- (t.next + 1) mod t.window;
  if t.count < t.window then t.count <- t.count + 1

let record t a score =
  Obs.Counter.incr c_record_calls;
  Features.bin_row t.features a t.ring t.next;
  t.ring_y.(t.next) <- score;
  t.next <- (t.next + 1) mod t.window;
  if t.count < t.window then t.count <- t.count + 1

let featurize_values t values m r = Features.bin_values t.features values m r

(* Slot of the k-th most recent sample (k = 0 is the newest). *)
let slot t k = ((t.next - 1 - k) mod t.window + t.window) mod t.window

let refit t =
  if t.count >= 8 then
    Obs.with_span "costmodel.fit" (fun () ->
        Obs.Counter.incr c_fit_calls;
        (* Fit on most-recent-first rows — the exact sample order the
           pre-overhaul list window trained in. *)
        Fmat.set_rows t.fit_m t.count;
        for k = 0 to t.count - 1 do
          let s = slot t k in
          Fmat.blit_row t.ring s t.fit_m k;
          t.fit_y.(k) <- t.ring_y.(s)
        done;
        t.ensemble <- Some (Gbt.fit ~params:t.gbt_params ~n_bins:t.n_bins t.fit_m t.fit_y))

let trained t = t.ensemble <> None

let predict t a =
  match t.ensemble with
  | None -> 0.0
  | Some g -> Gbt.predict g (Features.binned t.features a)

let predict_batch t assignments =
  (* The untrained path counts too, so traces distinguish "cheap because
     untrained" from "never called". *)
  Obs.with_span "costmodel.predict" (fun () ->
      Obs.Counter.incr c_predict_calls;
      Obs.Counter.add c_predict_rows (List.length assignments);
      match t.ensemble with
      | None -> List.map (fun _ -> 0.0) assignments
      | Some g ->
          (* Batch-bin into the reused flat matrix, then walk the compiled
             ensemble over all rows into the reused output buffer. *)
          let n = List.length assignments in
          Fmat.set_rows t.pred_m n;
          List.iteri (fun r a -> Features.bin_row t.features a t.pred_m r) assignments;
          if Array.length t.pred_out < n then t.pred_out <- Array.make n 0.0;
          Gbt.predict_batch_into g t.pred_m t.pred_out;
          List.init n (fun r -> t.pred_out.(r)))

let predict_gather t src rows n out =
  (* Zero-copy ranking entry: [rows.(0 .. n-1)] index pre-binned feature
     rows of [src] (built once per candidate with {!featurize_values}), so
     scoring a population is row blits plus the compiled ensemble — no
     per-candidate binning, lists or result allocation. Same counters and
     untrained semantics as {!predict_batch}. *)
  Obs.with_span "costmodel.predict" (fun () ->
      Obs.Counter.incr c_predict_calls;
      Obs.Counter.add c_predict_rows n;
      match t.ensemble with
      | None -> Array.fill out 0 n 0.0
      | Some g ->
          Fmat.set_rows t.pred_m n;
          for r = 0 to n - 1 do
            Fmat.blit_row src rows.(r) t.pred_m r
          done;
          Gbt.predict_batch_into g t.pred_m out)

(* Feature ids by decreasing total gain, ties in id order (the sort is
   stable), with their gains. *)
let ranked t =
  match t.ensemble with
  | None -> []
  | Some g ->
      let gains = Gbt.feature_gains g in
      List.init t.nf (fun i -> (i, gains.(i)))
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let importance t =
  let names = Features.names t.features in
  List.map (fun (i, g) -> (names.(i), g)) (ranked t)

let key_ids t k =
  let positive = List.filter (fun (_, g) -> g > 0.0) (ranked t) in
  let chosen = List.filteri (fun i _ -> i < k) positive |> List.map fst in
  if chosen <> [] then chosen
  else
    (* Untrained model: deterministic fallback. *)
    List.filteri (fun i _ -> i < k) (List.init t.nf Fun.id)

let key_variables t k =
  let names = Features.names t.features in
  List.map (fun i -> names.(i)) (key_ids t k)

let n_samples t = t.count

let n_features t = t.nf

(* Top level, so a check allocates no closure. *)
let rec bins_fit nb bins i =
  i = Array.length nb || (bins.(i) >= 0 && bins.(i) < nb.(i) && bins_fit nb bins (i + 1))

let layout_ok t bins = Array.length bins = t.nf && bins_fit t.n_bins bins 0

let samples t = List.init t.count (fun k -> (Fmat.row t.ring (slot t k), t.ring_y.(slot t k)))

let restore t data =
  (* Keep the [window] most recent entries ([data] is most recent first),
     placing them so the ring's recency order reproduces the list's. *)
  let data = List.filteri (fun i _ -> i < t.window) data in
  let n = List.length data in
  t.count <- n;
  t.next <- n mod t.window;
  List.iteri
    (fun k (bins, y) ->
      let s = slot t k in
      Array.iteri (fun f v -> Fmat.set t.ring s f v) bins;
      t.ring_y.(s) <- y)
    data;
  t.ensemble <- None
