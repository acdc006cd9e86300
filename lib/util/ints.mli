(** Small integer utilities shared across the code base. *)

val divisors : int -> int list
(** Sorted list of the positive divisors of [n]. Requires [n >= 1]. *)

val pow2s_upto : int -> int list
(** Powers of two [1; 2; ...] not exceeding [n]. Requires [n >= 1]. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] rounds the quotient up. Requires [b > 0]. *)

val round_up : int -> int -> int
(** [round_up a m] is the least multiple of [m] that is [>= a]. *)

val is_pow2 : int -> bool

val log2_floor : int -> int
(** Floor of the base-2 logarithm. Requires the argument [>= 1]. *)
