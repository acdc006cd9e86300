module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Domain = Heron_csp.Domain

type t = {
  feat_names : string array;
  boundaries : int array array;  (** sorted bin boundary values per feature *)
}

let of_problem ?(max_bins = 32) problem =
  (* Bin indices must fit the one-byte cells of {!Fmat}. *)
  let max_bins = min max_bins (Fmat.max_bin + 1) in
  let feat_names = Array.copy (Problem.vars problem) in
  let boundaries =
    Array.map
      (fun name ->
        let values = Domain.to_array (Problem.domain problem name) in
        let n = Array.length values in
        if n <= max_bins then values
        else
          (* Evenly subsample the sorted domain values as boundaries. *)
          Array.init max_bins (fun i -> values.(i * n / max_bins)))
      feat_names
  in
  { feat_names; boundaries }

let n_features t = Array.length t.feat_names
let names t = t.feat_names
let n_bins t = Array.map (fun b -> max 1 (Array.length b)) t.boundaries

let value_of a name = match Assignment.find_opt a name with Some v -> v | None -> 0

let vector t a = Array.map (fun name -> float_of_int (value_of a name)) t.feat_names

let bin_of boundaries v =
  (* Highest index i with boundaries.(i) <= v, else 0. *)
  let n = Array.length boundaries in
  if n = 0 then 0
  else
    let rec bs lo hi acc =
      if lo > hi then acc
      else
        let mid = (lo + hi) / 2 in
        if boundaries.(mid) <= v then bs (mid + 1) hi mid else bs lo (mid - 1) acc
    in
    bs 0 (n - 1) 0

let binned t a =
  Array.mapi (fun i name -> bin_of t.boundaries.(i) (value_of a name)) t.feat_names

let bin_value t i b =
  let bounds = t.boundaries.(i) in
  let n = Array.length bounds in
  if n = 0 then 0 else bounds.(max 0 (min b (n - 1)))

let max_value t i =
  let bounds = t.boundaries.(i) in
  let n = Array.length bounds in
  if n = 0 then 1 else max 1 bounds.(n - 1)

let bin_of_value t i v = bin_of t.boundaries.(i) v

let bin_values t values m r =
  for i = 0 to Array.length t.feat_names - 1 do
    Fmat.set m r i (bin_of t.boundaries.(i) values.(i))
  done

let bin_row t a m r =
  for i = 0 to Array.length t.feat_names - 1 do
    Fmat.set m r i (bin_of t.boundaries.(i) (value_of a t.feat_names.(i)))
  done
