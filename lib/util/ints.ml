let divisors n =
  if n < 1 then invalid_arg "Ints.divisors";
  let rec loop d acc =
    if d * d > n then acc
    else if n mod d = 0 then
      let acc = d :: acc in
      let q = n / d in
      let acc = if q <> d then q :: acc else acc in
      loop (d + 1) acc
    else loop (d + 1) acc
  in
  List.sort_uniq compare (loop 1 [])

let pow2s_upto n =
  if n < 1 then invalid_arg "Ints.pow2s_upto";
  let rec loop p acc = if p > n then List.rev acc else loop (p * 2) (p :: acc) in
  loop 1 []

let ceil_div a b = (a + b - 1) / b

let round_up a m = ceil_div a m * m

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2_floor n =
  if n < 1 then invalid_arg "Ints.log2_floor";
  let rec loop k p = if p * 2 > n then k else loop (k + 1) (p * 2) in
  loop 0 1
