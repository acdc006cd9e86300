(* Shape-invariant window transfer: donor bins -> normalized named values
   -> target bins. Both directions go through the same Features bin
   geometry, so a same-task export/import round-trip is the identity on
   bins and the cross-task path is a pure, deterministic rescaling. *)

type portable = {
  p_names : string array;
  p_rows : (float array * float) list;
}

let export features window =
  let nf = Features.n_features features in
  let scale = Array.init nf (fun i -> float_of_int (Features.max_value features i)) in
  let lift bins =
    Array.init nf (fun i ->
        let b = if i < Array.length bins then bins.(i) else 0 in
        float_of_int (Features.bin_value features i b) /. scale.(i))
  in
  {
    p_names = Array.copy (Features.names features);
    p_rows = List.map (fun (bins, score) -> (lift bins, score)) window;
  }

let donor_index p =
  let table = Hashtbl.create (Array.length p.p_names) in
  Array.iteri (fun i name -> if not (Hashtbl.mem table name) then Hashtbl.add table name i) p.p_names;
  table

let coverage target p =
  let names = Features.names target in
  let nf = Array.length names in
  if nf = 0 then 0.0
  else begin
    let table = donor_index p in
    let matched = Array.fold_left (fun acc n -> if Hashtbl.mem table n then acc + 1 else acc) 0 names in
    float_of_int matched /. float_of_int nf
  end

let import target p =
  if p.p_rows = [] || coverage target p < 0.5 then None
  else begin
    let names = Features.names target in
    let nf = Array.length names in
    let table = donor_index p in
    (* Donor column feeding each target feature; -1 reads 0 (the unbound-
       variable convention of Features.vector). *)
    let src = Array.map (fun n -> match Hashtbl.find_opt table n with Some i -> i | None -> -1) names in
    let rebin (row, score) =
      ( Array.init nf (fun j ->
            if src.(j) < 0 then Features.bin_of_value target j 0
            else
              let v =
                row.(src.(j)) *. float_of_int (Features.max_value target j)
              in
              Features.bin_of_value target j (int_of_float (Float.round v))),
        score )
    in
    Some (List.map rebin p.p_rows)
  end
