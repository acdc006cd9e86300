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

let[@inline] start ix k = Int32.to_int (Bytes.get_int32_le ix.starts (4 * k))

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

let[@inline] position ix (x : int) =
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

(* Word primitives. Every word is a non-negative 62-bit [int], so the
   SWAR masks fit in an OCaml [int] and the byte sums of [popcount_word]
   (at most 62) stay below the sign bit when the multiply gathers them
   into the top byte. *)
let[@inline] popcount_word w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (w * 0x0101_0101_0101_0101) lsr 56

(* The bits below the lowest set bit, counted. *)
let[@inline] lowest_bit_word w = popcount_word ((w land -w) - 1)

(* Smear the highest set bit into every bit below it, then count. *)
let[@inline] highest_bit_word w =
  let w = w lor (w lsr 1) in
  let w = w lor (w lsr 2) in
  let w = w lor (w lsr 4) in
  let w = w lor (w lsr 8) in
  let w = w lor (w lsr 16) in
  let w = w lor (w lsr 32) in
  popcount_word w - 1

let fill store ~off ~n =
  let nw = nwords n in
  for wi = 0 to nw - 1 do
    let bits_here = Int.min bits_per_word (n - (wi * bits_per_word)) in
    store.(off + wi) <- (if bits_here = bits_per_word then full_word else (1 lsl bits_here) - 1)
  done

let popcount store ~off ~nw =
  let c = ref 0 in
  for wi = 0 to nw - 1 do
    c := !c + popcount_word store.(off + wi)
  done;
  !c

(* The slice scans below are loops over a [ref], not local recursive
   functions: a local function that captures the slice is a closure,
   allocated at every call (5 to 13 words each in this compiler). *)
let is_empty_slice store ~off ~nw =
  let wi = ref 0 in
  while !wi < nw && store.(off + !wi) = 0 do
    incr wi
  done;
  !wi >= nw

let[@inline] mem_bit store ~off i =
  store.(off + (i / bits_per_word)) land (1 lsl (i mod bits_per_word)) <> 0

let[@inline] set_bit (m : int array) i =
  m.(i / bits_per_word) <- m.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let min_bit store ~off ~nw =
  let wi = ref 0 in
  while !wi < nw && store.(off + !wi) = 0 do
    incr wi
  done;
  if !wi >= nw then -1 else (!wi * bits_per_word) + lowest_bit_word store.(off + !wi)

let max_bit store ~off ~nw =
  let wi = ref (nw - 1) in
  while !wi >= 0 && store.(off + !wi) = 0 do
    decr wi
  done;
  if !wi < 0 then -1 else (!wi * bits_per_word) + highest_bit_word store.(off + !wi)

(* Set-bit loops clear the lowest set bit ([w land (w - 1)]) each step,
   so they cost one step per live value, not one per bit. *)
let iter_bits f store ~off ~nw =
  for wi = 0 to nw - 1 do
    let w = ref store.(off + wi) and base = wi * bits_per_word in
    while !w <> 0 do
      f (base + lowest_bit_word !w);
      w := !w land (!w - 1)
    done
  done

let gather store ~off ~nw (values : int array) (vals : int array) (idx : int array) at =
  let n = ref at in
  for wi = 0 to nw - 1 do
    let w = ref store.(off + wi) and base = wi * bits_per_word in
    while !w <> 0 do
      let i = base + lowest_bit_word !w in
      vals.(!n) <- values.(i);
      idx.(!n) <- i;
      incr n;
      w := !w land (!w - 1)
    done
  done

let filter p store ~off ~nw (values : int array) (dst : int array) =
  for wi = 0 to nw - 1 do
    let w = ref store.(off + wi) and out = ref 0 and base = wi * bits_per_word in
    while !w <> 0 do
      let low = !w land - !w in
      if p values.(base + lowest_bit_word !w) then out := !out lor low;
      w := !w lxor low
    done;
    dst.(wi) <- !out
  done

let singleton (dst : int array) ~nw i =
  Array.fill dst 0 nw 0;
  dst.(i / bits_per_word) <- 1 lsl (i mod bits_per_word)

(* One [x]'s walk over [vals.(from .. stop-1)]. A hit's position is split
   into word and bit once, and the gathered arrays, which the caller
   sized, are read unchecked. With a pair table ([tab] non-empty),
   [tab.(row + yi)] is the position of [x op y] for the [y] at bit [yi]
   of its universe; otherwise the index finds it. The test is
   loop-invariant, so its branch is always predicted. *)
let[@inline] walk ~prod ix (tab : int array) row store ~off ~vmax (vals : int array)
    (idx : int array) ~x ~xi ~from ~stop sup_v sup_a sup_b =
  let hit = ref false and j = ref from and probes = ref 0 in
  let tabbed = Array.length tab > 0 in
  while !j < stop do
    let y = Array.unsafe_get vals !j in
    incr probes;
    let t = if prod then x * y else x + y in
    if t > vmax then j := stop
    else begin
      let yi = Array.unsafe_get idx !j in
      let i = if tabbed then Array.unsafe_get tab (row + yi) else position ix t in
      if i >= 0 then begin
        let wi = i / bits_per_word and m = 1 lsl (i mod bits_per_word) in
        if store.(off + wi) land m <> 0 then begin
          hit := true;
          set_bit sup_b yi;
          sup_v.(wi) <- sup_v.(wi) lor m
        end
      end;
      incr j
    end
  done;
  if !hit then set_bit sup_a xi;
  !probes

let supports ~prod ix tab ~stride store ~off ~nw (vals : int array) (idx : int array) ~nb ~na ~boff
    ~bnw sup_v sup_a sup_b =
  let imin = min_bit store ~off ~nw in
  let vmin = ix.values.(imin) and vmax = ix.values.(max_bit store ~off ~nw) in
  let probes = ref 0 and j0 = ref nb in
  for j = nb to nb + na - 1 do
    let x = Array.unsafe_get vals j and xi = Array.unsafe_get idx j in
    if prod && x = 0 then begin
      (* 0 is live in v iff it is v's least live value. *)
      incr probes;
      if vmin = 0 then begin
        set_bit sup_v imin;
        Array.blit store boff sup_b 0 bnw;
        set_bit sup_a xi
      end
    end
    else begin
      let y0 = if prod then (vmin + x - 1) / x else vmin - x in
      while !j0 > 0 && Array.unsafe_get vals (!j0 - 1) >= y0 do
        decr j0
      done;
      probes :=
        !probes
        + walk ~prod ix tab (xi * stride) store ~off ~vmax vals idx ~x ~xi ~from:!j0 ~stop:nb
            sup_v sup_a sup_b
    end
  done;
  !probes

let pair_table ~prod ix (a : int array) (b : int array) =
  let nb = Array.length b in
  Array.init (Array.length a * nb) (fun k ->
      let x = a.(k / nb) and y = b.(k mod nb) in
      position ix (if prod then x * y else x + y))

let unwind store ~(owner : int array) ~(sizes : int array) (tr_idx : int array)
    (tr_old : int array) ~from ~mark =
  for i = from - 1 downto mark do
    let fi = tr_idx.(i) and w = tr_old.(i) in
    let v = owner.(fi) in
    sizes.(v) <- sizes.(v) + popcount_word w - popcount_word store.(fi);
    store.(fi) <- w
  done

let mark_values ix (values : int array) (dst : int array) =
  for k = 0 to Array.length values - 1 do
    let i = position ix values.(k) in
    if i >= 0 then set_bit dst i
  done

let filter_members ix store ~src (values : int array) ~off ~nw (dst : int array) =
  for wi = 0 to nw - 1 do
    let w = ref store.(off + wi) and out = ref 0 and base = wi * bits_per_word in
    while !w <> 0 do
      let low = !w land - !w in
      let p = position ix values.(base + lowest_bit_word !w) in
      if p >= 0 && mem_bit store ~off:src p then out := !out lor low;
      w := !w lxor low
    done;
    dst.(wi) <- !out
  done

let meets ix store ~src (values : int array) ~off ~nw =
  let found = ref false and wi = ref 0 in
  while (not !found) && !wi < nw do
    let w = ref store.(off + !wi) and base = !wi * bits_per_word in
    while (not !found) && !w <> 0 do
      let p = position ix values.(base + lowest_bit_word !w) in
      if p >= 0 && mem_bit store ~off:src p then found := true;
      w := !w land (!w - 1)
    done;
    incr wi
  done;
  !found

let equal_slices (a : int array) aoff (b : int array) boff ~nw =
  let wi = ref 0 in
  while !wi < nw && a.(aoff + !wi) = b.(boff + !wi) do
    incr wi
  done;
  !wi >= nw

let mask_range store ~off ~nw ilo ihi (dst : int array) =
  for wi = 0 to nw - 1 do
    let base = wi * bits_per_word in
    let lo = Int.max 0 (ilo - base) and hi = Int.min bits_per_word (ihi - base) in
    dst.(wi) <- (if lo >= hi then 0 else store.(off + wi) land (((1 lsl (hi - lo)) - 1) lsl lo))
  done

(* Pairwise domains. Both operands are sorted and non-negative, and [+]
   and [*] are monotone there, so with [x] fixed the results ascend with
   [y]: the [y] that keep [x op y <= bound] are a prefix of [b], found by
   one binary search per [x], and the prefixes only shrink as [x]
   ascends. Each [x] gives one ascending row of results, all in
   [[a0 op b0, bound]]. Marking them in a bitset over that range costs a
   word per 62 values plus a step per pair, and reads back sorted. When
   the bitset would have more words than there are pairs, the rows are
   merged instead, pairwise in a balanced tree ([Domain.union] drops the
   duplicates), O(p log rows): a bitset-only kernel cleared 1,000- to
   4,000-word masks for the 81-100 pairs of a DL Boost or VTA domain and
   made their generation twice as slow. Both operations commute, so the
   rows run over the smaller operand. *)
let combine ?cap ~prod d1 d2 =
  let a, b = if Domain.size d1 <= Domain.size d2 then (d1, d2) else (d2, d1) in
  let a = Domain.to_array a and b = Domain.to_array b in
  let na = Array.length a and nb = Array.length b in
  if (na > 0 && a.(0) < 0) || (nb > 0 && b.(0) < 0) then
    invalid_arg "Bitdom.combine: negative value";
  let[@inline] op x y = if prod then x * y else x + y in
  if na = 0 then Domain.empty
  else begin
    let lo = op a.(0) b.(0) and top = op a.(na - 1) b.(nb - 1) in
    let bound = match cap with Some c -> Int.min c top | None -> top in
    if bound < lo then Domain.empty
    else begin
      (* [rows.(i)] is the length of [a.(i)]'s prefix of [b]; the first
         empty prefix ends the walk after [ra] rows. *)
      let rows = Array.make na 0 in
      let rec scan i pairs =
        let len =
          if i = na then 0
          else if not prod then count_le b (bound - a.(i))
          else if a.(i) = 0 then nb
          else count_le b (bound / a.(i))
        in
        if len = 0 then (i, pairs)
        else begin
          rows.(i) <- len;
          scan (i + 1) (pairs + len)
        end
      in
      let ra, pairs = scan 0 0 in
      let nw = nwords (bound - lo + 1) in
      if nw <= pairs then begin
        let mask = Array.make nw 0 in
        for i = 0 to ra - 1 do
          let x = a.(i) in
          for j = 0 to rows.(i) - 1 do
            set_bit mask (op x b.(j) - lo)
          done
        done;
        let out = Array.make (popcount mask ~off:0 ~nw) 0 and n = ref 0 in
        iter_bits
          (fun i ->
            out.(!n) <- lo + i;
            incr n)
          mask ~off:0 ~nw;
        Domain.of_sorted_array out
      end
      else begin
        (* A product row of [x = 0] is all zeros; every other row is
           strictly ascending. *)
        let row i =
          let x = a.(i) in
          if prod && x = 0 then Domain.singleton 0
          else Domain.of_sorted_array (Array.init rows.(i) (fun j -> op x b.(j)))
        in
        let rec merge = function [] -> Domain.empty | [ d ] -> d | ds -> merge (halve ds)
        and halve = function d1 :: d2 :: ds -> Domain.union d1 d2 :: halve ds | ds -> ds in
        merge (List.init ra row)
      end
    end
  end

type t = { values : int array; words : int array }

let of_domain d =
  let values = Domain.to_array d in
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
  let nw = Array.length t.words in
  let words = Array.make nw 0 in
  filter p t.words ~off:0 ~nw t.values words;
  { t with words }

let inter a b =
  if a.values != b.values && a.values <> b.values then
    invalid_arg "Bitdom.inter: distinct universes";
  { a with words = Array.map2 ( land ) a.words b.words }
