(* 62 bits per word keeps every word a non-negative OCaml int: masks can
   be built with [lsl] without overflowing into the sign bit, and word
   comparisons are plain integer comparisons. *)
let bits_per_word = 62

let nwords n = (n + bits_per_word - 1) / bits_per_word

(* The [int] annotations matter: without them these infer ['a array] and
   every probe goes through polymorphic [compare] — ~2x whole-solver
   slowdown under profiling. *)
let count_lt (values : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length values) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if values.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let count_le (values : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length values) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if values.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Bucket [k] holds the values [v] with [(v - lo) lsr shift = k], at
   positions [start k, start (k + 1)). [shift] is the least one that
   leaves at most [n] buckets, so a bucket holds about one value. The
   starts are 32-bit: an index costs as much memory as half its
   universe, and compiled templates keep one per variable. *)
type index = { values : int array; lo : int; hi : int; shift : int; starts : Bytes.t }

let start ix k = Int32.to_int (Bytes.get_int32_le ix.starts (4 * k))

let index (values : int array) =
  let n = Array.length values in
  if n = 0 then { values; lo = 0; hi = -1; shift = 0; starts = Bytes.make 4 '\000' }
  else begin
    let lo = values.(0) and hi = values.(n - 1) in
    let shift = ref 0 in
    while (hi - lo) lsr !shift >= n do
      incr shift
    done;
    let nb = ((hi - lo) lsr !shift) + 1 in
    let starts = Bytes.create (4 * (nb + 1)) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let b = (values.(i) - lo) lsr !shift in
      while !k <= b do
        Bytes.set_int32_le starts (4 * !k) (Int32.of_int i);
        incr k
      done
    done;
    Bytes.set_int32_le starts (4 * nb) (Int32.of_int n);
    { values; lo; hi; shift = !shift; starts }
  end

let position ix (x : int) =
  if x < ix.lo || x > ix.hi then -1
  else begin
    let k = (x - ix.lo) lsr ix.shift in
    let stop = start ix (k + 1) in
    let i = ref (start ix k) in
    while !i < stop && ix.values.(!i) < x do
      incr i
    done;
    if !i < stop && ix.values.(!i) = x then !i else -1
  end

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

let mask_range store ~off ~nw ilo ihi (dst : int array) =
  for wi = 0 to nw - 1 do
    let base = wi * bits_per_word in
    let lo = Int.max 0 (ilo - base) and hi = Int.min bits_per_word (ihi - base) in
    dst.(wi) <- (if lo >= hi then 0 else store.(off + wi) land (((1 lsl (hi - lo)) - 1) lsl lo))
  done

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
  let i = count_lt t.values v in
  i < Array.length t.values && t.values.(i) = v && mem_bit t.words ~off:0 i

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
