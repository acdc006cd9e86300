(* Tests for the experiment harness: table rendering and the fast
   experiments end-to-end (the heavyweight figure runs are left to
   bin/experiments). *)

module E = Heron_experiments

let test_table_render () =
  let s = E.Report.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "has separator" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && l.[0] = '-'));
  Alcotest.(check int) "four lines + trailing" 5 (List.length (String.split_on_char '\n' s))

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (E.Report.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (E.Report.geomean [])

let test_csv () =
  let s = E.Report.csv ~header:[ "x"; "y" ] [ [ "1"; "2" ] ] in
  Alcotest.(check string) "csv" "x,y\n1,2\n" s

let test_table4 () =
  let s = E.Exp_space.table4 () in
  Alcotest.(check bool) "mentions categories" true
    (String.length s > 0
    && List.exists (fun w -> String.length w > 0) (String.split_on_char ' ' s))

let test_table5_rows () =
  let s = E.Exp_space.table5 () in
  List.iter
    (fun op ->
      Alcotest.(check bool) (op ^ " present") true
        (String.split_on_char '\n' s
        |> List.exists (fun l -> String.length l >= String.length op
                                 && String.sub l 0 (String.length op) = op)))
    [ "GEMM"; "BMM"; "C1D"; "C2D"; "C3D" ]

let test_table9 () =
  let s = E.Exp_ops.table9 () in
  Alcotest.(check bool) "has G1 and C5" true
    (String.split_on_char '\n' s
     |> List.exists (fun l -> String.length l >= 2 && String.sub l 0 2 = "G1")
    && String.split_on_char '\n' s
       |> List.exists (fun l -> String.length l >= 2 && String.sub l 0 2 = "C5"))

let test_trace_rows () =
  let trace =
    [
      { Heron_search.Env.step = 1; latency = Some 100.0; best = Some 100.0 };
      { Heron_search.Env.step = 2; latency = Some 50.0; best = Some 50.0 };
    ]
  in
  let rows = E.Exp_search.trace_rows ~checkpoints:[ 1; 2; 5 ] [ ("M", trace) ] in
  Alcotest.(check (list (list string))) "rows" [ [ "M"; "10.0"; "20.0"; "20.0" ] ] rows

let test_fig2_small () =
  let s = E.Exp_search.fig2 ~budget:30 ~seed:1 () in
  Alcotest.(check bool) "has all methods" true
    (List.for_all
       (fun m ->
         String.split_on_char '\n' s
         |> List.exists (fun l -> String.length l >= String.length m
                                  && String.sub l 0 (String.length m) = m))
       [ "RAND"; "SA"; "GA" ])

(* The propagation ablation's solved, nodes and fails columns at seed
   42. Nodes and fails are how far the solver's counters move across a
   row's 20 solves, so a reading that also took in the spaces' own
   generation, or another row's solves, would move them. *)
let test_ablation_propagation () =
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  let rows = List.map words (String.split_on_char '\n' (E.Exp_ablation.propagation ~seed:42 ())) in
  let columns space mode =
    let key = words (space ^ " " ^ mode) in
    let n = List.length key in
    match List.find_opt (fun r -> List.filteri (fun i _ -> i < n) r = key) rows with
    | Some r -> List.filteri (fun i _ -> i >= n && i < n + 3) r
    | None -> Alcotest.failf "no %s / %s row" space mode
  in
  List.iter
    (fun (space, mode, expected) ->
      Alcotest.(check (list string)) (space ^ ", " ^ mode) expected (columns space mode))
    [
      ("GEMM G1", "exact binary pruning", [ "20"; "342"; "3" ]);
      ("GEMM G1", "bounds only", [ "20"; "338"; "1" ]);
      ("C2D", "exact binary pruning", [ "20"; "348"; "1" ]);
      ("C2D", "bounds only", [ "20"; "351"; "13" ]);
    ]

let suite =
  [
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "csv" `Quick test_csv;
    Alcotest.test_case "table4 output" `Quick test_table4;
    Alcotest.test_case "table5 output" `Quick test_table5_rows;
    Alcotest.test_case "table9 output" `Quick test_table9;
    Alcotest.test_case "trace rows" `Quick test_trace_rows;
    Alcotest.test_case "fig2 small" `Slow test_fig2_small;
    Alcotest.test_case "propagation ablation at seed 42" `Quick test_ablation_propagation;
  ]
