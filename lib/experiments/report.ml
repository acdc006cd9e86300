let table ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width i =
    List.fold_left
      (fun acc row -> match List.nth_opt row i with Some c -> max acc (String.length c) | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let render row =
    List.mapi
      (fun i w ->
        let cell = match List.nth_opt row i with Some c -> c | None -> "" in
        cell ^ String.make (w - String.length cell) ' ')
      widths
    |> String.concat "  "
  in
  let sep = List.map (fun w -> String.make w '-') widths |> String.concat "  " in
  String.concat "\n" ((render header :: sep :: List.map render rows) @ [ "" ])

let geomean = function
  | [] -> 0.0
  | xs ->
      let logs = List.map log xs in
      exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length xs))

let csv ~header rows =
  let line cells = String.concat "," cells in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"
