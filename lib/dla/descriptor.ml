type family = Tensorcore | Dlboost | Vta

type t = {
  dname : string;
  family : family;
  units : int;
  max_warps_per_unit : int;
  clock_ghz : float;
  intrin_name : string;
  intrin_shapes : (int * int * int) list;
  intrin_mnk_product : int option;
  intrin_flops_per_cycle : float;
  fallback_flops_per_cycle : float;
  spm_capacity : (string * int) list;
  mem_bw_gbs : float;
  spm_bw_factor : float;
  vector_lengths : int list;
  max_threads_per_block : int;
  launch_overhead_us : float;
  noise : float;
}

let scope_capacity t scope = List.assoc_opt scope t.spm_capacity

let has_intrinsic t = t.intrin_shapes <> []

let peak_tflops t =
  t.intrin_flops_per_cycle *. float_of_int t.units *. t.clock_ghz /. 1000.0

(* All wmma shapes with m, n, k in {8, 16, 32} and m*n*k = 4096. *)
let wmma_shapes =
  let candidates = [ 8; 16; 32 ] in
  List.concat_map
    (fun m ->
      List.concat_map
        (fun n ->
          List.filter_map
            (fun k -> if m * n * k = 4096 then Some (m, n, k) else None)
            candidates)
        candidates)
    candidates

let tensorcore ~dname ~units ~clock_ghz ~tc_tflops ~cuda_tflops ~smem ~bw =
  {
    dname;
    family = Tensorcore;
    units;
    max_warps_per_unit = 64;
    clock_ghz;
    intrin_name = "wmma::mma_sync";
    intrin_shapes = wmma_shapes;
    intrin_mnk_product = Some 4096;
    intrin_flops_per_cycle = tc_tflops *. 1000.0 /. (float_of_int units *. clock_ghz);
    fallback_flops_per_cycle = cuda_tflops *. 1000.0 /. (float_of_int units *. clock_ghz);
    spm_capacity =
      [ ("shared", smem); ("wmma.a", 64 * 1024); ("wmma.b", 64 * 1024); ("wmma.acc", 64 * 1024) ];
    mem_bw_gbs = bw;
    spm_bw_factor = 12.0;
    vector_lengths = [ 1; 2; 4; 8 ];
    max_threads_per_block = 1024;
    launch_overhead_us = 4.0;
    noise = 0.04;
  }

let v100 =
  tensorcore ~dname:"tensorcore-v100" ~units:80 ~clock_ghz:1.53 ~tc_tflops:112.0
    ~cuda_tflops:31.4 ~smem:(48 * 1024) ~bw:900.0

let t4 =
  tensorcore ~dname:"tensorcore-t4" ~units:40 ~clock_ghz:1.59 ~tc_tflops:65.0 ~cuda_tflops:16.3
    ~smem:(48 * 1024) ~bw:320.0

let a100 =
  tensorcore ~dname:"tensorcore-a100" ~units:108 ~clock_ghz:1.41 ~tc_tflops:312.0
    ~cuda_tflops:78.0 ~smem:(164 * 1024) ~bw:1555.0

let dlboost =
  {
    dname = "dlboost-gold6240";
    family = Dlboost;
    units = 18;
    max_warps_per_unit = 2;
    clock_ghz = 2.6;
    intrin_name = "avx512.vnni.vpdpbusd";
    intrin_shapes = [ (1, 16, 4) ];
    intrin_mnk_product = None;
    intrin_flops_per_cycle = 23_000.0 /. (18.0 *. 2.6);
    fallback_flops_per_cycle = 64.0;
    spm_capacity = [ ("l1", 32 * 1024); ("l2", 1024 * 1024) ];
    mem_bw_gbs = 120.0;
    spm_bw_factor = 8.0;
    vector_lengths = [ 1; 4; 16; 64 ];
    max_threads_per_block = 1;
    launch_overhead_us = 1.0;
    noise = 0.05;
  }

let vta =
  {
    dname = "vta-pynq";
    family = Vta;
    units = 1;
    max_warps_per_unit = 1;
    clock_ghz = 0.1;
    intrin_name = "vta.gemm";
    intrin_shapes = [ (1, 16, 16) ];
    intrin_mnk_product = None;
    intrin_flops_per_cycle = 512.0;
    fallback_flops_per_cycle = 0.0;
    spm_capacity = [ ("vta.inp", 32 * 1024); ("vta.wgt", 256 * 1024); ("vta.acc", 128 * 1024) ];
    mem_bw_gbs = 1.0;
    spm_bw_factor = 16.0;
    vector_lengths = [ 1; 16 ];
    max_threads_per_block = 1;
    launch_overhead_us = 20.0;
    noise = 0.03;
  }

(* Google TPU (v1-flavored): a 256x256 systolic array fed from a unified
   buffer; the Table 3 constraints (fixed (1,256,256) tiles, per-operand
   buffer capacity) map onto the single-scope staging rules. *)
let tpu =
  {
    dname = "tpu-v1";
    family = Dlboost;
    units = 1;
    max_warps_per_unit = 1;
    clock_ghz = 0.7;
    intrin_name = "tpu.matmul256";
    intrin_shapes = [ (1, 256, 256) ];
    intrin_mnk_product = None;
    intrin_flops_per_cycle = 131072.0;
    fallback_flops_per_cycle = 0.0;
    spm_capacity = [ ("l1", 4 * 1024 * 1024); ("l2", 24 * 1024 * 1024) ];
    mem_bw_gbs = 34.0;
    spm_bw_factor = 20.0;
    vector_lengths = [ 1; 256 ];
    max_threads_per_block = 1;
    launch_overhead_us = 50.0;
    noise = 0.02;
  }

(* Cambricon-flavored accelerator: flexible matrix-unit tile shapes and the
   Table 3 buffer constraints (Vout*3 <= 64K; Vout + Vout*Vin + Vin <= 768K
   approximated by the per-scope capacities below). *)
let cambricon =
  {
    dname = "cambricon-mlu";
    family = Dlboost;
    units = 4;
    max_warps_per_unit = 1;
    clock_ghz = 1.0;
    intrin_name = "mlu.conv_mm";
    intrin_shapes = [ (1, 16, 16); (1, 32, 32); (1, 64, 64) ];
    intrin_mnk_product = None;
    intrin_flops_per_cycle = 4096.0;
    fallback_flops_per_cycle = 128.0;
    spm_capacity = [ ("l1", 64 * 1024 / 3); ("l2", 768 * 1024) ];
    mem_bw_gbs = 100.0;
    spm_bw_factor = 12.0;
    vector_lengths = [ 1; 16; 32; 64 ];
    max_threads_per_block = 1;
    launch_overhead_us = 8.0;
    noise = 0.04;
  }

let names =
  [
    ("v100", v100);
    ("t4", t4);
    ("a100", a100);
    ("dlboost", dlboost);
    ("vta", vta);
    ("tpu", tpu);
    ("cambricon", cambricon);
  ]

let of_string s =
  match List.assoc_opt s names with
  | Some d -> Ok d
  | None ->
      Error (Printf.sprintf "unknown DLA %S (%s)" s (String.concat "|" (List.map fst names)))

let family_to_string = function
  | Tensorcore -> "tensorcore"
  | Dlboost -> "dlboost"
  | Vta -> "vta"

let to_string t =
  Printf.sprintf "%s (%s): %d units @ %.2f GHz, %.1f TFLOPS peak, %.0f GB/s" t.dname
    (family_to_string t.family) t.units t.clock_ghz (peak_tflops t) t.mem_bw_gbs
