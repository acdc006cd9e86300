(* An index loop over a local [Int64] ref: the native compiler keeps the
   accumulator unboxed, so a call allocates only its boxed result. A
   [String.iter] closure would capture the ref and box two [Int64]s per
   byte. *)
let fnv1a s =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h c) 0x100000001B3L
  done;
  !h

let unit_float s =
  let h = fnv1a s in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let signed_unit s = (2.0 *. unit_float s) -. 1.0
