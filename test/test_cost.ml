(* Tests for the cost model: feature binning, regression trees, gradient
   boosting and feature importance. *)

module Domain = Heron_csp.Domain
module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Features = Heron_cost.Features
module Fmat = Heron_cost.Fmat
module Tree = Heron_cost.Tree
module Gbt = Heron_cost.Gbt
module Gbt_ref = Heron_check.Gbt_ref
module Model = Heron_cost.Model
module Rng = Heron_util.Rng
module Obs = Heron_obs.Obs

let toy_problem () =
  let b = Problem.builder () in
  Problem.add_var b "x" (Domain.of_list [ 1; 2; 4; 8; 16 ]);
  Problem.add_var b "y" (Domain.of_list [ 1; 3; 5 ]);
  Problem.add_var b "noise" (Domain.of_list (List.init 10 (fun i -> i)));
  Problem.freeze b

let test_features_shape () =
  let f = Features.of_problem (toy_problem ()) in
  Alcotest.(check int) "three features" 3 (Features.n_features f);
  Alcotest.(check (array string)) "names" [| "x"; "y"; "noise" |] (Features.names f)

let test_binning () =
  let f = Features.of_problem (toy_problem ()) in
  let a = Assignment.of_list [ ("x", 4); ("y", 5); ("noise", 0) ] in
  let bins = Features.binned f a in
  Alcotest.(check int) "x bin" 2 bins.(0);
  Alcotest.(check int) "y bin" 2 bins.(1);
  Alcotest.(check int) "noise bin" 0 bins.(2);
  (* Values below the smallest boundary clamp to bin 0. *)
  let low = Assignment.of_list [ ("x", 0); ("y", 1); ("noise", 9) ] in
  Alcotest.(check int) "clamped" 0 (Features.binned f low).(0)

let test_vector_unbound_zero () =
  let f = Features.of_problem (toy_problem ()) in
  let v = Features.vector f (Assignment.of_list [ ("x", 8) ]) in
  Alcotest.(check (float 0.0)) "bound" 8.0 v.(0);
  Alcotest.(check (float 0.0)) "unbound is 0" 0.0 v.(1)

(* Synthetic regression data over binned features. *)
let synth_data ~n ~bins f =
  let rng = Rng.create 7 in
  let xs = Array.init n (fun _ -> Array.init (Array.length bins) (fun j -> Rng.int rng bins.(j))) in
  let ys = Array.map f xs in
  (xs, ys)

let variance ys =
  let n = float_of_int (Array.length ys) in
  let mean = Array.fold_left ( +. ) 0.0 ys /. n in
  Array.fold_left (fun acc y -> acc +. ((y -. mean) ** 2.0)) 0.0 ys /. n

let mse predict xs ys =
  let n = float_of_int (Array.length xs) in
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. ((predict x -. ys.(i)) ** 2.0)) xs;
  !acc /. n

let test_tree_reduces_error () =
  let bins = [| 8; 8 |] in
  let xs, ys = synth_data ~n:200 ~bins (fun x -> float_of_int ((2 * x.(0)) - x.(1))) in
  let tree = Tree.fit ~n_bins:bins (Fmat.of_rows xs) ys in
  Alcotest.(check bool) "below half the variance" true
    (mse (Tree.predict tree) xs ys < 0.5 *. variance ys)

let test_tree_constant_target () =
  let bins = [| 4 |] in
  let xs, ys = synth_data ~n:50 ~bins (fun _ -> 3.5) in
  let tree = Tree.fit ~n_bins:bins (Fmat.of_rows xs) ys in
  Alcotest.(check (float 1e-9)) "constant" 3.5 (Tree.predict tree [| 2 |]);
  Alcotest.(check int) "single leaf" 1 (Tree.n_nodes tree)

let test_tree_respects_depth () =
  let bins = [| 16; 16; 16 |] in
  let xs, ys =
    synth_data ~n:400 ~bins (fun x -> float_of_int (x.(0) * x.(1)) +. float_of_int x.(2))
  in
  let tree =
    Tree.fit ~params:{ Tree.default_params with Tree.max_depth = 2 } ~n_bins:bins
      (Fmat.of_rows xs) ys
  in
  Alcotest.(check bool) "depth bounded" true (Tree.depth tree <= 2)

let test_gbt_beats_single_tree () =
  let bins = [| 8; 8; 8 |] in
  let f x = float_of_int (x.(0) * x.(1)) -. (2.0 *. float_of_int x.(2)) in
  let xs, ys = synth_data ~n:300 ~bins f in
  let tree = Tree.fit ~n_bins:bins (Fmat.of_rows xs) ys in
  let gbt = Gbt.fit ~n_bins:bins (Fmat.of_rows xs) ys in
  Alcotest.(check bool) "boosting helps" true
    (mse (Gbt.predict gbt) xs ys < mse (Tree.predict tree) xs ys)

let test_gbt_importance_finds_signal () =
  let bins = [| 8; 8; 8; 8 |] in
  (* Only feature 1 matters. *)
  let xs, ys = synth_data ~n:300 ~bins (fun x -> 10.0 *. float_of_int x.(1)) in
  let gbt = Gbt.fit ~n_bins:bins (Fmat.of_rows xs) ys in
  let gains = Gbt.feature_gains gbt in
  let best = ref 0 in
  Array.iteri (fun i g -> if g > gains.(!best) then best := i) gains;
  Alcotest.(check int) "feature 1 dominates" 1 !best

let test_model_lifecycle () =
  let p = toy_problem () in
  let m = Model.create p in
  Alcotest.(check bool) "untrained" false (Model.trained m);
  Alcotest.(check (float 0.0)) "prior" 0.0
    (Model.predict m (Assignment.of_list [ ("x", 2); ("y", 3); ("noise", 1) ]));
  (* Score = x, independent of y/noise. *)
  let rng = Rng.create 3 in
  for _ = 1 to 64 do
    let x = [| 1; 2; 4; 8; 16 |].(Rng.int rng 5) in
    let a = Assignment.of_list [ ("x", x); ("y", 1 + (2 * Rng.int rng 3)); ("noise", Rng.int rng 10) ] in
    Model.record m a (float_of_int x)
  done;
  Model.refit m;
  Alcotest.(check bool) "trained" true (Model.trained m);
  let pred x = Model.predict m (Assignment.of_list [ ("x", x); ("y", 3); ("noise", 5) ]) in
  Alcotest.(check bool) "monotone in x" true (pred 16 > pred 1);
  (match Model.key_variables m 1 with
  | [ "x" ] -> ()
  | other -> Alcotest.failf "expected x as key variable, got [%s]" (String.concat ";" other));
  Alcotest.(check int) "sample count" 64 (Model.n_samples m)

let test_model_window () =
  let p = toy_problem () in
  let m = Model.create ~window:10 p in
  for i = 1 to 25 do
    Model.record m (Assignment.of_list [ ("x", 1); ("y", 1); ("noise", i mod 10) ]) 1.0
  done;
  Alcotest.(check int) "window capped" 10 (Model.n_samples m)

let test_key_variables_fallback () =
  let p = toy_problem () in
  let m = Model.create p in
  Alcotest.(check (list string)) "untrained fallback" [ "x"; "y" ] (Model.key_variables m 2)

(* The flat engine must reproduce the frozen reference bit for bit:
   identical fitted ensembles (canonical dumps) and identical predictions. *)
let test_gbt_matches_reference () =
  let bins = [| 8; 6; 8; 4 |] in
  let f x = float_of_int (x.(0) * x.(1)) -. (2.0 *. float_of_int x.(2)) +. 0.3 in
  let xs, ys = synth_data ~n:150 ~bins f in
  let gbt = Gbt.fit ~n_bins:bins (Fmat.of_rows xs) ys in
  let ref_gbt = Gbt_ref.fit ~n_bins:bins xs ys in
  Alcotest.(check string) "identical dumps" (Gbt_ref.dump ref_gbt) (Gbt.dump gbt);
  Array.iter
    (fun x ->
      Alcotest.(check (float 0.0)) "identical prediction" (Gbt_ref.predict ref_gbt x)
        (Gbt.predict gbt x))
    xs;
  let gains = Gbt.feature_gains gbt and ref_gains = Gbt_ref.feature_gains ref_gbt in
  Array.iteri
    (fun i g -> Alcotest.(check (float 0.0)) "identical gains" ref_gains.(i) g)
    gains

(* A split must leave at least one sample on each side: below
   min_samples = 1 an empty side scores 0/0, where the flat engine and
   Gbt_ref rank the NaN differently, so both fits refuse such params. *)
let test_min_samples_below_one_rejected () =
  let bins = [| 8; 6 |] in
  let xs, ys = synth_data ~n:40 ~bins (fun x -> float_of_int (x.(0) * x.(1))) in
  let m = Fmat.of_rows xs in
  let rejected = Invalid_argument "Tree.fit: min_samples below 1" in
  List.iter
    (fun min_samples ->
      let tree = { Tree.default_params with Tree.min_samples } in
      Alcotest.check_raises "Tree.fit" rejected (fun () ->
          ignore (Tree.fit ~params:tree ~n_bins:bins m ys));
      Alcotest.check_raises "Gbt.fit" rejected (fun () ->
          ignore (Gbt.fit ~params:{ Gbt.default_params with Gbt.tree } ~n_bins:bins m ys)))
    [ 0; -1 ];
  let tree = Tree.fit ~params:{ Tree.default_params with Tree.min_samples = 1 } ~n_bins:bins m ys in
  Alcotest.(check bool) "min_samples = 1 splits" true (Tree.n_nodes tree > 1)

(* Recording into a full window must not allocate proportionally to the
   window: minor-heap words per record should match between a tiny and a
   large window (the old list window rebuilt O(window) cells per insert). *)
let test_record_constant_allocation () =
  let p = toy_problem () in
  let a = Assignment.of_list [ ("x", 4); ("y", 3); ("noise", 7) ] in
  let words_per_record window =
    let m = Model.create ~window p in
    for _ = 1 to window do Model.record m a 1.0 done;
    (* Window now full: measure steady-state insert cost. *)
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do Model.record m a 1.0 done;
    (Gc.minor_words () -. w0) /. 10_000.0
  in
  let small = words_per_record 16 and large = words_per_record 2048 in
  Alcotest.(check bool)
    (Printf.sprintf "O(1) record (small %.1f vs large %.1f words)" small large)
    true
    (large < small +. 16.0)

let test_untrained_predict_batch_counts () =
  let p = toy_problem () in
  let m = Model.create p in
  (* Counter.make is idempotent by name: this is the model's counter. *)
  let c_calls = Obs.Counter.make "costmodel.predict_calls" in
  let calls0 = Obs.Counter.value c_calls in
  let out = Model.predict_batch m [ Assignment.of_list [ ("x", 2); ("y", 3); ("noise", 0) ] ] in
  Alcotest.(check (list (float 0.0))) "untrained zeros" [ 0.0 ] out;
  let calls1 = Obs.Counter.value c_calls in
  Alcotest.(check int) "untrained path counted" (calls0 + 1) calls1

let values_of p a = Array.map (Assignment.get a) (Problem.vars p)

(* The batched/pre-binned entry points of the interned search engine must
   be observably identical to the scalar paths they replace: same ring
   bytes ([samples]), same ensemble after refit, same predictions. *)
let batch_observations n =
  let rng = Rng.create 23 in
  List.init n (fun i ->
      let a =
        Assignment.of_list
          [
            ("x", [| 1; 2; 4; 8; 16 |].(Rng.int rng 5));
            ("y", [| 1; 3; 5 |].(Rng.int rng 3));
            ("noise", Rng.int rng 10);
          ]
      in
      (a, float_of_int (i + 1)))

let same_samples msg a b =
  let sa = Model.samples a and sb = Model.samples b in
  Alcotest.(check int) (msg ^ ": window length") (List.length sa) (List.length sb);
  List.iter2
    (fun (b1, y1) (b2, y2) ->
      Alcotest.(check (array int)) (msg ^ ": bins") b1 b2;
      Alcotest.(check (float 0.0)) (msg ^ ": score") y1 y2)
    sa sb

(* record_row through a matrix binned from the candidate's values is the
   same observation as record on the assignment, across ring wrap-around. *)
let test_record_row_matches_record () =
  let p = toy_problem () in
  let obs = batch_observations 40 in
  let scalar = Model.create ~window:24 p in
  List.iter (fun (a, y) -> Model.record scalar a y) obs;
  let rowed = Model.create ~window:24 p in
  let m = Fmat.create ~capacity:1 ~n_features:(Model.n_features rowed) () in
  Fmat.set_rows m 1;
  List.iter
    (fun (a, y) ->
      Model.featurize_values rowed (values_of p a) m 0;
      Model.record_row rowed m 0 y)
    obs;
  same_samples "record_row" scalar rowed

let test_predict_gather_matches_predict_batch () =
  let p = toy_problem () in
  let obs = batch_observations 60 in
  let m = Model.create p in
  List.iter (fun (a, y) -> Model.record m a y) obs;
  Model.refit m;
  Alcotest.(check bool) "trained" true (Model.trained m);
  let probes = List.map fst (batch_observations 17) in
  let n = List.length probes in
  (* Bin each probe once into a scratch matrix, scattered over rows. *)
  let src = Fmat.create ~capacity:(2 * n) ~n_features:(Model.n_features m) () in
  Fmat.set_rows src (2 * n);
  let rows = Array.init n (fun i -> (2 * i) + 1) in
  List.iteri (fun i a -> Model.featurize_values m (values_of p a) src rows.(i)) probes;
  let out = Array.make n nan in
  Model.predict_gather m src rows n out;
  let expect = Array.of_list (Model.predict_batch m probes) in
  Alcotest.(check (array (float 0.0))) "gather = batch" expect out;
  (* Untrained: both paths yield zeros. *)
  let fresh = Model.create p in
  let out0 = Array.make n nan in
  List.iteri (fun i a -> Model.featurize_values fresh (values_of p a) src rows.(i)) probes;
  Model.predict_gather fresh src rows n out0;
  Alcotest.(check (array (float 0.0)))
    "untrained zeros"
    (Array.of_list (Model.predict_batch fresh probes))
    out0

let test_samples_restore_roundtrip () =
  let p = toy_problem () in
  let m = Model.create ~window:10 p in
  let rng = Rng.create 11 in
  for i = 1 to 25 do
    let a =
      Assignment.of_list
        [ ("x", [| 1; 2; 4; 8; 16 |].(Rng.int rng 5)); ("y", 3); ("noise", i mod 10) ]
    in
    Model.record m a (float_of_int i)
  done;
  let snap = Model.samples m in
  Alcotest.(check int) "snapshot capped" 10 (List.length snap);
  Alcotest.(check (float 0.0)) "most recent first" 25.0 (snd (List.hd snap));
  let m2 = Model.create ~window:10 p in
  Model.restore m2 snap;
  Alcotest.(check bool) "restore drops ensemble" false (Model.trained m2);
  let snap2 = Model.samples m2 in
  Alcotest.(check int) "round-trip length" (List.length snap) (List.length snap2);
  List.iter2
    (fun (b1, y1) (b2, y2) ->
      Alcotest.(check (array int)) "bins round-trip" b1 b2;
      Alcotest.(check (float 0.0)) "score round-trip" y1 y2)
    snap snap2;
  (* Refit after restore reproduces the exact ensemble of the original. *)
  Model.refit m;
  Model.refit m2;
  let probe = Assignment.of_list [ ("x", 8); ("y", 3); ("noise", 4) ] in
  Alcotest.(check (float 0.0)) "same prediction" (Model.predict m probe) (Model.predict m2 probe)

(* [layout_ok] guards every resumed window row and every donor row a
   warm start receives. It reads bin counts fixed at [Model.create]:
   checking a row allocates nothing. *)
let test_layout_ok_allocates_nothing () =
  let m = Model.create (toy_problem ()) in
  (* Bin counts 5, 3 and 10. *)
  Alcotest.(check bool) "valid row" true (Model.layout_ok m [| 4; 2; 9 |]);
  Alcotest.(check bool) "bin past its feature" false (Model.layout_ok m [| 4; 3; 9 |]);
  Alcotest.(check bool) "negative bin" false (Model.layout_ok m [| 0; -1; 0 |]);
  Alcotest.(check bool) "short row" false (Model.layout_ok m [| 4; 2 |]);
  Alcotest.(check bool) "long row" false (Model.layout_ok m [| 4; 2; 9; 0 |]);
  let row = [| 4; 2; 9 |] and reps = 512 in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Model.layout_ok m row))
  done;
  let w2 = Gc.minor_words () in
  let words = w2 -. w1 -. (w1 -. w0) in
  Alcotest.(check bool)
    (Printf.sprintf "%d checks allocate %.0f words (none)" reps words)
    true (words <= 0.0)

(* The search loop bins candidates as value arrays and picks key
   variables as ids; both must agree with the assignment and name paths. *)
let test_values_and_ids_match_names () =
  let p = toy_problem () in
  let f = Features.of_problem p and m = Model.create p in
  let rows = Fmat.create ~capacity:2 ~n_features:(Features.n_features f) () in
  Fmat.set_rows rows 2;
  List.iter
    (fun (x, y, noise) ->
      Features.bin_row f (Assignment.of_list [ ("x", x); ("y", y); ("noise", noise) ]) rows 0;
      Features.bin_values f [| x; y; noise |] rows 1;
      Alcotest.(check (array int)) "same row" (Fmat.row rows 0) (Fmat.row rows 1))
    [ (1, 1, 0); (4, 3, 7); (16, 5, 9); (3, 2, 100); (0, 0, -1) ];
  let names = Problem.vars p in
  let by_id k = List.map (fun i -> names.(i)) (Model.key_ids m k) in
  Alcotest.(check (list string)) "untrained" (Model.key_variables m 2) (by_id 2);
  let rng = Rng.create 5 in
  for _ = 1 to 64 do
    let a =
      Assignment.of_list
        [ ("x", [| 1; 2; 4; 8; 16 |].(Rng.int rng 5)); ("y", 1 + (2 * Rng.int rng 3));
          ("noise", Rng.int rng 10) ]
    in
    Model.record m a (float_of_int (Assignment.get a "x" + Assignment.get a "y"))
  done;
  Model.refit m;
  List.iter
    (fun k -> Alcotest.(check (list string)) "trained" (Model.key_variables m k) (by_id k))
    [ 1; 2; 3; 5 ]

let suite =
  [
    Alcotest.test_case "feature shape" `Quick test_features_shape;
    Alcotest.test_case "binning" `Quick test_binning;
    Alcotest.test_case "vector unbound" `Quick test_vector_unbound_zero;
    Alcotest.test_case "tree reduces error" `Quick test_tree_reduces_error;
    Alcotest.test_case "tree constant" `Quick test_tree_constant_target;
    Alcotest.test_case "tree depth bound" `Quick test_tree_respects_depth;
    Alcotest.test_case "gbt beats tree" `Quick test_gbt_beats_single_tree;
    Alcotest.test_case "importance finds signal" `Quick test_gbt_importance_finds_signal;
    Alcotest.test_case "model lifecycle" `Quick test_model_lifecycle;
    Alcotest.test_case "model window" `Quick test_model_window;
    Alcotest.test_case "key variable fallback" `Quick test_key_variables_fallback;
    Alcotest.test_case "gbt matches reference" `Quick test_gbt_matches_reference;
    Alcotest.test_case "min_samples below one rejected" `Quick
      test_min_samples_below_one_rejected;
    Alcotest.test_case "O(1) record" `Quick test_record_constant_allocation;
    Alcotest.test_case "record_row = record" `Quick test_record_row_matches_record;
    Alcotest.test_case "predict_gather = predict_batch" `Quick
      test_predict_gather_matches_predict_batch;
    Alcotest.test_case "untrained predict_batch counts" `Quick test_untrained_predict_batch_counts;
    Alcotest.test_case "samples/restore round-trip" `Quick test_samples_restore_roundtrip;
    Alcotest.test_case "layout_ok allocates nothing" `Quick test_layout_ok_allocates_nothing;
    Alcotest.test_case "values and ids = assignments and names" `Quick
      test_values_and_ids_match_names;
  ]
