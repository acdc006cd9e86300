(** Operator-level comparisons: Figures 6 (V100), 7 (T4/A100 with Table 9
    shapes), 8 (DL Boost) and 9 (VTA). *)

val fig6 : ?budget:int -> ?seed:int -> unit -> string
(** TensorCore V100, 9 operator classes: geometric-mean performance of each
    method relative to Heron. *)

val fig7 : ?budget:int -> ?seed:int -> unit -> string
(** T4 and A100 absolute TFLOPS on the Table 9 GEMM/C2D shapes. *)

val fig8 : ?budget:int -> ?seed:int -> unit -> string
(** DL Boost operator suite. *)

val fig9 : ?budget:int -> ?seed:int -> unit -> string
(** VTA: GEMM / C2D / BMM vs AutoTVM. *)

val table9 : unit -> string
(** The evaluated shape configurations. *)
