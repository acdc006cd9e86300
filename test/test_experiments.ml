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
  ]
