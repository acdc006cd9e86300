let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time f =
  let t0 = now_ns () in
  let x = f () in
  (x, now_ns () - t0)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p *. float_of_int n /. 100.)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
