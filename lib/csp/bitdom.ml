(* 62 bits per word keeps every word a non-negative OCaml int: masks can
   be built with [lsl] without overflowing into the sign bit, and word
   comparisons are plain integer comparisons. *)
let bits_per_word = 62

let nwords n = (n + bits_per_word - 1) / bits_per_word

(* The [int] annotations matter: without them this infers ['a array] and
   every probe of the hot binary search goes through polymorphic
   [compare] — ~2x whole-solver slowdown under profiling. *)
let index_of (values : int array) (v : int) =
  let rec bs lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      if values.(mid) = v then mid
      else if values.(mid) < v then bs (mid + 1) hi
      else bs lo (mid - 1)
  in
  bs 0 (Array.length values - 1)

let full_word = (1 lsl bits_per_word) - 1

let fill store ~off ~n =
  let nw = nwords n in
  for wi = 0 to nw - 1 do
    let bits_here = Int.min bits_per_word (n - (wi * bits_per_word)) in
    store.(off + wi) <- (if bits_here = bits_per_word then full_word else (1 lsl bits_here) - 1)
  done

let popcount store ~off ~nw =
  let c = ref 0 in
  for wi = 0 to nw - 1 do
    let w = ref store.(off + wi) in
    while !w <> 0 do
      w := !w land (!w - 1);
      incr c
    done
  done;
  !c

let is_empty_slice store ~off ~nw =
  let rec go wi = wi >= nw || (store.(off + wi) = 0 && go (wi + 1)) in
  go 0

let mem_bit store ~off i =
  store.(off + (i / bits_per_word)) land (1 lsl (i mod bits_per_word)) <> 0

let min_bit store ~off ~nw =
  let rec word wi =
    if wi >= nw then -1
    else
      let w = store.(off + wi) in
      if w = 0 then word (wi + 1)
      else begin
        let b = ref 0 and x = ref w in
        while !x land 1 = 0 do
          x := !x lsr 1;
          incr b
        done;
        (wi * bits_per_word) + !b
      end
  in
  word 0

let max_bit store ~off ~nw =
  let rec word wi =
    if wi < 0 then -1
    else
      let w = store.(off + wi) in
      if w = 0 then word (wi - 1)
      else begin
        let b = ref (-1) and x = ref w in
        while !x <> 0 do
          x := !x lsr 1;
          incr b
        done;
        (wi * bits_per_word) + !b
      end
  in
  word (nw - 1)

let iter_bits f store ~off ~nw =
  for wi = 0 to nw - 1 do
    let w = ref store.(off + wi) in
    let b = ref (wi * bits_per_word) in
    while !w <> 0 do
      if !w land 1 = 1 then f !b;
      w := !w lsr 1;
      incr b
    done
  done

let equal_slices (a : int array) aoff (b : int array) boff ~nw =
  let rec go wi = wi >= nw || (a.(aoff + wi) = b.(boff + wi) && go (wi + 1)) in
  go 0

type t = { values : int array; words : int array }

let of_domain d =
  let values = Array.of_list (Domain.to_list d) in
  let n = Array.length values in
  let words = Array.make (nwords n) 0 in
  fill words ~off:0 ~n;
  { values; words }

let size t = popcount t.words ~off:0 ~nw:(Array.length t.words)
let is_empty t = is_empty_slice t.words ~off:0 ~nw:(Array.length t.words)

let mem v t =
  let i = index_of t.values v in
  i >= 0 && mem_bit t.words ~off:0 i

let min_value t =
  match min_bit t.words ~off:0 ~nw:(Array.length t.words) with
  | -1 -> invalid_arg "Bitdom.min_value: empty domain"
  | b -> t.values.(b)

let max_value t =
  match max_bit t.words ~off:0 ~nw:(Array.length t.words) with
  | -1 -> invalid_arg "Bitdom.max_value: empty domain"
  | b -> t.values.(b)

let value t = if size t = 1 then Some (min_value t) else None

let iter f t = iter_bits (fun b -> f t.values.(b)) t.words ~off:0 ~nw:(Array.length t.words)

let fold f acc t =
  let acc = ref acc in
  iter (fun v -> acc := f !acc v) t;
  !acc

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)
let to_domain t = Domain.of_list (to_list t)

let restrict p t =
  let words = Array.copy t.words in
  iter_bits
    (fun b ->
      if not (p t.values.(b)) then
        words.(b / bits_per_word) <-
          words.(b / bits_per_word) land lnot (1 lsl (b mod bits_per_word)))
    t.words ~off:0 ~nw:(Array.length t.words);
  { t with words }

let inter a b =
  if a.values != b.values && a.values <> b.values then
    invalid_arg "Bitdom.inter: distinct universes";
  { a with words = Array.map2 ( land ) a.words b.words }
