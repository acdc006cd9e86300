(** DLA descriptors: the architectural parameters and constraints of each
    simulated accelerator.

    A descriptor is both the configuration of the analytic performance
    model and the source of truth the validator enforces; the Heron Space
    Generator reads the same fields when emitting constraints (Rule C5/C6),
    which is exactly the paper's customization story. *)

type family = Tensorcore | Dlboost | Vta

type t = {
  dname : string;
  family : family;
  units : int;  (** SMs / cores / compute units *)
  max_warps_per_unit : int;  (** resident warp (or thread) limit *)
  clock_ghz : float;
  intrin_name : string;
  intrin_shapes : (int * int * int) list;  (** allowed intrinsic (m, n, k) *)
  intrin_mnk_product : int option;  (** e.g. m*n*k = 4096 on TensorCore *)
  intrin_flops_per_cycle : float;  (** per unit, using the intrinsic *)
  fallback_flops_per_cycle : float;  (** per unit, scalar/SIMT fallback; 0 if none *)
  spm_capacity : (string * int) list;  (** scope name -> bytes *)
  mem_bw_gbs : float;  (** off-chip bandwidth *)
  spm_bw_factor : float;  (** on-chip bandwidth as a multiple of off-chip *)
  vector_lengths : int list;  (** legal vectorized access widths *)
  max_threads_per_block : int;
  launch_overhead_us : float;
  noise : float;  (** relative amplitude of deterministic measurement jitter *)
}

val scope_capacity : t -> string -> int option
val has_intrinsic : t -> bool
val peak_tflops : t -> float
(** Peak intrinsic throughput implied by the descriptor. *)

val v100 : t
val t4 : t
val a100 : t
val dlboost : t
val vta : t

val tpu : t
(** TPU-v1-flavored systolic accelerator (paper Table 3: fixed
    (1, 256, 256) tiles, unified-buffer capacity constraints). *)

val cambricon : t
(** Cambricon-flavored accelerator (paper Table 3: flexible matrix tile
    shapes, dual buffer-capacity constraints). *)

val of_string : string -> (t, string) result
(** The descriptor a command line names: [v100], [t4], [a100], [dlboost],
    [vta], [tpu] or [cambricon]. *)

val to_string : t -> string
