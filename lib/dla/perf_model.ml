module Concrete = Heron_sched.Concrete
module Template = Heron_sched.Template
module Prim = Heron_sched.Prim
module Op = Heron_tensor.Op
module Hashing = Heron_util.Hashing
module Obs = Heron_obs.Obs

let c_ctx_builds = Obs.Counter.make "perf_model.ctx_builds"
let c_evals = Obs.Counter.make "perf_model.evals"

type breakdown = {
  compute_us : float;
  mem_us : float;
  spm_us : float;
  latency_us : float;
  blocks : int;
  warps : int;
  waves : int;
  blocks_per_unit : int;
  utilization : float;
}

let total_points (prog : Concrete.t) =
  List.fold_left (fun acc (it : Op.iter) -> acc *. float_of_int it.extent) 1.0 prog.op.iters

let clamp01 x = max 0.0 (min 1.0 x)

(* Unroll pragma efficiency: deeper unrolling hides issue latency up to a
   point, then spills the instruction buffer. *)
let unroll_eff (prog : Concrete.t) =
  let stage = Concrete.compute_stage prog in
  let u =
    Concrete.loop_path prog stage
    |> List.fold_left
         (fun acc (l : Concrete.cloop) ->
           match l.ann with Concrete.Unrolled n -> max acc n | _ -> acc)
         1
  in
  let log2 x = log (float_of_int x) /. log 2.0 in
  let base = 0.78 +. (0.22 *. clamp01 (log2 (max u 1) /. 4.0)) in
  if u > 128 then base -. 0.06 else base

(* Intrinsic shape efficiency: square wmma fragments balance the register
   pressure of the A/B fragments; skewed shapes lose a little. *)
let shape_eff = function
  | None -> 1.0
  | Some (m, n, _k) ->
      let skew = abs_float (log (float_of_int m /. float_of_int n) /. log 2.0) in
      1.0 -. (0.03 *. skew)

let vectorized_width (s : Concrete.cstage) =
  List.fold_left
    (fun acc (l : Concrete.cloop) ->
      match l.ann with Concrete.Vectorized v -> max acc v | _ -> acc)
    1 s.loops

(* Everything the model derives from the (descriptor, operator) pair alone
   — scope lists, dtype sizes, bandwidth denominators, peak rates — hoisted
   out of the per-assignment path. Each cached float is produced by the
   exact expression the scalar path used, so [analyze_ctx] is
   value-identical to [analyze]. *)
type ctx = {
  desc : Descriptor.t;
  op : Op.t;  (* the operator the ctx was built for; compare with [==] *)
  dt_by_tensor : (string * int) list;  (* input tensor name -> dtype bytes *)
  out_bytes : float;
  input_bytes : float;
  offchip_scopes : string list;
  onchip_scopes : string list;
  smem_cap : int;
  peak_intrin_per_us : float;
  peak_fallback_per_us : float;
  mem_denom : float;
  spm_denom : float;
  key_prefix : string;
}

let make_ctx (desc : Descriptor.t) (op : Op.t) =
  Obs.Counter.incr c_ctx_builds;
  {
    desc;
    op;
    dt_by_tensor = List.map (fun (t : Op.tensor) -> (t.tname, Op.dtype_bytes t.dt)) op.inputs;
    out_bytes = float_of_int (Op.tensor_bytes op.out);
    input_bytes =
      List.fold_left (fun acc t -> acc +. float_of_int (Op.tensor_bytes t)) 0.0 op.inputs;
    offchip_scopes =
      (match desc.family with
      | Descriptor.Tensorcore -> [ "shared" ]
      | Descriptor.Dlboost -> [ "l2" ]
      | Descriptor.Vta -> [ "vta.inp"; "vta.wgt" ]);
    onchip_scopes =
      (match desc.family with
      | Descriptor.Tensorcore -> [ "wmma.a"; "wmma.b"; "wmma.acc" ]
      | Descriptor.Dlboost -> [ "l1" ]
      | Descriptor.Vta -> [ "vta.acc" ]);
    smem_cap =
      (match desc.family with
      | Descriptor.Tensorcore -> (
          match Descriptor.scope_capacity desc "shared" with Some c -> c | None -> max_int)
      | _ -> max_int);
    peak_intrin_per_us =
      desc.intrin_flops_per_cycle *. float_of_int desc.units *. desc.clock_ghz *. 1000.0;
    peak_fallback_per_us =
      max desc.fallback_flops_per_cycle 1.0
      *. float_of_int desc.units *. desc.clock_ghz *. 1000.0;
    mem_denom = desc.mem_bw_gbs *. 1000.0;
    spm_denom = desc.mem_bw_gbs *. desc.spm_bw_factor *. 1000.0;
    key_prefix = desc.dname ^ "|";
  }

let op_of ctx = ctx.op

(* Dtype bytes behind a cache stage: first matching input tensor, 4 for
   everything else — same first-match semantics as a [List.find_opt] over
   [op.inputs]. *)
let stage_dt_bytes ctx (s : Concrete.cstage) =
  match s.role with
  | Template.Load tensor -> (
      match List.assoc_opt tensor ctx.dt_by_tensor with Some b -> b | None -> 4)
  | _ -> 4

(* Fraction of a 16-byte transaction a vectorized access fills. *)
let vec_eff ctx (s : Concrete.cstage) =
  let bytes = vectorized_width s * stage_dt_bytes ctx s in
  0.3 +. (0.7 *. clamp01 (float_of_int bytes /. 16.0))

(* Shared-memory bank conflict factor from the padded row length. A row
   stride that is a multiple of the full bank set serializes accesses;
   storage_align padding breaks the pattern. *)
let conflict_factor ctx (s : Concrete.cstage) =
  match List.rev s.loops with
  | [] -> 1.0
  | inner :: _ ->
      let dt_bytes = stage_dt_bytes ctx s in
      let row_bytes = (inner.extent + s.align_pad) * dt_bytes in
      let words = row_bytes / 4 in
      if words = 0 then 1.0
      else if words mod 32 = 0 then 8.0
      else if words mod 16 = 0 then 4.0
      else if words mod 8 = 0 then 2.0
      else 1.0

(* How many times a cache stage's tile is loaded within one block: the
   extents of the enclosing loops above the stage body, not counting
   grid/thread decomposition (threads cooperate on one copy). *)
let trips_in_block prog (s : Concrete.cstage) =
  let path = Concrete.loop_path prog s in
  let own = List.length s.loops in
  let above = List.filteri (fun i _ -> i < List.length path - own) path in
  List.fold_left
    (fun acc (l : Concrete.cloop) ->
      match l.ann with
      | Concrete.Bound _ -> acc
      | _ -> acc *. float_of_int l.extent)
    1.0 above

let grid_blocks prog =
  max 1 (Concrete.axis_extent prog Prim.Block_x)
  * max 1 (Concrete.axis_extent prog Prim.Block_y)
  * max 1 (Concrete.axis_extent prog Prim.Core)

let block_warps prog = max 1 (Concrete.axis_extent prog Prim.Thread_y)

let smem_block (desc : Descriptor.t) prog =
  let main_scope =
    match desc.family with
    | Descriptor.Tensorcore -> "shared"
    | Descriptor.Dlboost -> "l2"
    | Descriptor.Vta -> "vta.acc"
  in
  Concrete.stages_in_scope prog main_scope
  |> List.fold_left (fun acc s -> acc + Concrete.footprint_bytes prog s) 0

(* Off-chip and on-chip traffic in bytes for one full kernel. *)
let traffic ctx prog =
  let blocks = float_of_int (grid_blocks prog) in
  let stage_traffic scopes weight_conflicts =
    prog.Concrete.stages
    |> List.filter (fun (s : Concrete.cstage) -> List.mem s.scope scopes)
    |> List.fold_left
         (fun acc (s : Concrete.cstage) ->
           let tile = float_of_int (Concrete.footprint_bytes prog s) in
           let eff = vec_eff ctx s in
           let conflict = if weight_conflicts then conflict_factor ctx s else 1.0 in
           acc +. (blocks *. trips_in_block prog s *. tile *. conflict /. eff))
         0.0
  in
  let staged = stage_traffic ctx.offchip_scopes false in
  (* Programs without explicit cache stages still stream their inputs. *)
  let offchip = (if staged > 0.0 then staged else ctx.input_bytes) +. ctx.out_bytes in
  (* DL Boost: a cache-friendly packed weight layout (e.g. OhwI16o4i)
     reduces effective traffic, as the paper reports (~30%). *)
  let offchip =
    match (ctx.desc.family, Concrete.var_opt prog "packed_layout") with
    | Descriptor.Dlboost, Some 1 -> offchip *. 0.72
    | _ -> offchip
  in
  (* On-chip traffic pays bank conflicts; untensorized programs stream from
     shared directly, modeled by the same stages. *)
  let onchip = stage_traffic ctx.onchip_scopes true in
  let onchip =
    if onchip > 0.0 then onchip
    else
      (* No explicit inner-scope stages: charge the shared-level tiles once
         more for the register streaming, conflicts included. *)
      stage_traffic ctx.offchip_scopes true
  in
  (offchip, onchip)

let analyze_ctx ctx prog =
  Obs.Counter.incr c_evals;
  let desc = ctx.desc in
  let points = total_points prog in
  let mnk = Concrete.tensorize_mnk prog in
  let flops = 2.0 *. points in
  let blocks = grid_blocks prog in
  let warps = block_warps prog in
  (* Resident blocks per unit: limited by scratchpad capacity and warp slots. *)
  let smem = smem_block desc prog in
  let by_smem = if smem <= 0 then 8 else max 1 (ctx.smem_cap / max smem 1) in
  let by_warps = max 1 (desc.max_warps_per_unit / max warps 1) in
  let blocks_per_unit = min 8 (min by_smem by_warps) in
  let concurrency = desc.units * blocks_per_unit in
  let waves = (blocks + concurrency - 1) / concurrency in
  let tail_eff = float_of_int blocks /. float_of_int (waves * concurrency) in
  let occupancy_eff =
    match desc.family with
    | Descriptor.Tensorcore ->
        clamp01 (float_of_int (warps * blocks_per_unit) /. 8.0)
    | Descriptor.Dlboost | Descriptor.Vta -> 1.0
  in
  let util = shape_eff mnk *. unroll_eff prog *. occupancy_eff *. tail_eff in
  let util = max util 1e-3 in
  let peak_per_us =
    match mnk with Some _ -> ctx.peak_intrin_per_us | None -> ctx.peak_fallback_per_us
  in
  let compute_us = flops /. (peak_per_us *. util) in
  let offchip, onchip = traffic ctx prog in
  let mem_us = offchip /. ctx.mem_denom in
  let spm_us = onchip /. ctx.spm_denom in
  let dominant = max compute_us (max mem_us spm_us) in
  let rest = compute_us +. mem_us +. spm_us -. dominant in
  let raw = dominant +. (0.2 *. rest) +. desc.launch_overhead_us in
  let key = ctx.key_prefix ^ Heron_csp.Assignment.key prog.Concrete.assignment in
  let jitter = 1.0 +. (desc.noise *. Hashing.signed_unit key) in
  {
    compute_us;
    mem_us;
    spm_us;
    latency_us = raw *. jitter;
    blocks;
    warps;
    waves;
    blocks_per_unit;
    utilization = util;
  }

let analyze (desc : Descriptor.t) (prog : Concrete.t) = analyze_ctx (make_ctx desc prog.op) prog

let latency_us desc prog = (analyze desc prog).latency_us

let latency_us_ctx ctx prog = (analyze_ctx ctx prog).latency_us

let achieved_tflops (op : Op.t) latency_us = op.flops /. latency_us /. 1e6
