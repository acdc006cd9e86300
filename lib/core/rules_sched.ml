module Problem = Heron_csp.Problem
module Domain = Heron_csp.Domain
module Op = Heron_tensor.Op
module Template = Heron_sched.Template
module Prim = Heron_sched.Prim
module Descriptor = Heron_dla.Descriptor
module Ints = Heron_util.Ints

let divisors_dom e = Domain.of_list (Ints.divisors e)

let loop name var origin kind ann =
  { Template.lname = name; extent_var = var; origin; kind; ann }

let iter_extent (ctx : Gen_ctx.t) name = (Op.find_iter ctx.op name).Op.extent


let has_batch (ctx : Gen_ctx.t) =
  List.exists (fun (it : Op.iter) -> it.iname = "b") ctx.op.iters

(* A three-level split chain for iterator [dim]:
   extent = outer0 * (outer1 * (outer2 * leaf)). Declares the tunables (with
   divisor domains), the auxiliary suffix variables, and the split facts
   (C1). [leaf] must already be declared. Returns (aux1, aux2): the
   extents remaining below level 0 and level 1. *)
let chain3 (ctx : Gen_ctx.t) ~dim ~names:(n0, n1, n2) ~leaf =
  let extent = iter_extent ctx dim in
  let dom = divisors_dom extent in
  let len = Gen_ctx.const_var ctx ~category:Problem.Loop_length ("len_" ^ dim) extent in
  let t0 = Gen_ctx.add_var ctx n0 dom in
  let t1 = Gen_ctx.add_var ctx n1 dom in
  let t2 = Gen_ctx.add_var ctx n2 dom in
  let aux1 = Gen_ctx.add_var ctx ~category:Problem.Auxiliary ("aux_" ^ dim ^ "_1") dom in
  let aux2 = Gen_ctx.add_var ctx ~category:Problem.Auxiliary ("aux_" ^ dim ^ "_2") dom in
  Gen_ctx.split ctx ~stage:"C" ~loop:dim { parent_var = len; outer_var = t0; inner_var = aux1 };
  Gen_ctx.split ctx ~stage:"C" ~loop:(dim ^ ".1")
    { parent_var = aux1; outer_var = t1; inner_var = aux2 };
  Gen_ctx.split ctx ~stage:"C" ~loop:(dim ^ ".2")
    { parent_var = aux2; outer_var = t2; inner_var = leaf };
  (aux1, aux2)

(* A two-level chain: extent = outer0 * (outer1 * leaf). Returns aux1. *)
let chain2 (ctx : Gen_ctx.t) ~dim ~names:(n0, n1) ~leaf =
  let extent = iter_extent ctx dim in
  let dom = divisors_dom extent in
  let len = Gen_ctx.const_var ctx ~category:Problem.Loop_length ("len_" ^ dim) extent in
  let t0 = Gen_ctx.add_var ctx n0 dom in
  let t1 = Gen_ctx.add_var ctx n1 dom in
  let aux1 = Gen_ctx.add_var ctx ~category:Problem.Auxiliary ("aux_" ^ dim ^ "_1") dom in
  Gen_ctx.split ctx ~stage:"C" ~loop:dim { parent_var = len; outer_var = t0; inner_var = aux1 };
  Gen_ctx.split ctx ~stage:"C" ~loop:(dim ^ ".1")
    { parent_var = aux1; outer_var = t1; inner_var = leaf };
  aux1

(* Declare an intrinsic-shape variable (Rule S1's tensorize parameters). *)
let intrin_var (ctx : Gen_ctx.t) name candidates =
  let v =
    Gen_ctx.add_var ctx ~category:Problem.Architectural name (Domain.of_list candidates)
  in
  Gen_ctx.candidate ctx v candidates;
  v

let tunable_candidates (ctx : Gen_ctx.t) name candidates =
  let v = Gen_ctx.add_var ctx name (Domain.of_list candidates) in
  Gen_ctx.candidate ctx v candidates;
  v

let unroll_candidates = [ 1; 16; 64; 512 ]

let batch_loop (ctx : Gen_ctx.t) ~bind =
  if has_batch ctx then begin
    let extent = iter_extent ctx "b" in
    let v = Gen_ctx.const_var ctx ~category:Problem.Loop_length "len_b" extent in
    [ loop "b.all" v "b" Op.Spatial bind ]
  end
  else []

let cache_read_prim ctx ~tensor ~scope ~reader ~new_stage =
  Gen_ctx.prim ctx (Prim.Cache_read { tensor; scope; reader; new_stage })

let compute_at_prim ctx ~stage ~parent ~location =
  Gen_ctx.prim ctx (Prim.Compute_at { stage; parent; location })

(* -------------------------------------------------------------------- *)
(* TensorCore (and its CUDA-core fallback)                                *)
(* -------------------------------------------------------------------- *)

let tensorcore_contraction (ctx : Gen_ctx.t) ~tensorize =
  let desc = ctx.desc in
  let in_bytes = Op.dtype_bytes (List.hd ctx.op.inputs).Op.dt in
  (* Rule S1: tensorize — intrinsic shape variables and their coupling. *)
  let shape_candidates =
    let ms = List.map (fun (m, _, _) -> m) desc.Descriptor.intrin_shapes in
    let ns = List.map (fun (_, n, _) -> n) desc.Descriptor.intrin_shapes in
    let ks = List.map (fun (_, _, k) -> k) desc.Descriptor.intrin_shapes in
    (List.sort_uniq compare ms, List.sort_uniq compare ns, List.sort_uniq compare ks)
  in
  let leaf_m, leaf_n, leaf_k =
    if tensorize then begin
      let cm, cn, ck = shape_candidates in
      let m = intrin_var ctx "intrin_m" cm in
      let n = intrin_var ctx "intrin_n" cn in
      let k = intrin_var ctx "intrin_k" ck in
      Gen_ctx.prim ctx
        (Prim.Tensorize { stage = "C"; intrin = desc.Descriptor.intrin_name; m; n; k });
      (match desc.Descriptor.intrin_mnk_product with
      | Some p ->
          let cm, cn, _ = shape_candidates in
          let mn_values =
            List.concat_map (fun a -> List.map (fun b -> a * b) cn) cm
            |> List.sort_uniq compare
          in
          let mn =
            Gen_ctx.add_var ctx ~category:Problem.Auxiliary "aux_intrin_mn"
              (Domain.of_list mn_values)
          in
          let mnk = Gen_ctx.const_var ctx ~category:Problem.Architectural "arch_intrin_mnk" p in
          Gen_ctx.prod ctx mn [ m; n ];
          Gen_ctx.prod ctx mnk [ mn; k ]
      | None -> ());
      (m, n, k)
    end
    else
      ( tunable_candidates ctx "tile_i_inner" [ 1; 2; 4; 8 ],
        tunable_candidates ctx "tile_j_inner" [ 1; 2; 4; 8 ],
        tunable_candidates ctx "tile_r_inner" [ 1; 2; 4; 8 ] )
  in
  (* Multi-level tiling chains. *)
  let aux_i_1, aux_i_2 =
    chain3 ctx ~dim:"i" ~names:("tile_i_block", "tile_i_warp", "tile_i_tile") ~leaf:leaf_m
  in
  let aux_j_1, aux_j_2 =
    chain3 ctx ~dim:"j" ~names:("tile_j_block", "tile_j_warp", "tile_j_tile") ~leaf:leaf_n
  in
  let aux_r_1 = chain2 ctx ~dim:"r" ~names:("tile_r_out", "tile_r_in") ~leaf:leaf_k in
  (* Thread limit (C6): warps per block bounded by the hardware. *)
  let warps =
    Gen_ctx.add_var ctx ~category:Problem.Auxiliary "aux_warps"
      (Domain.of_list (List.concat_map (fun a -> List.map (fun b -> a * b) (Ints.divisors 32))
          (Ints.divisors 32)))
  in
  Gen_ctx.prod ctx warps [ "tile_i_warp"; "tile_j_warp" ];
  let max_warps = Gen_ctx.const_var ctx ~category:Problem.Architectural "arch_max_warps" 32 in
  Gen_ctx.le ctx warps max_warps;
  (* Tunables for memory access and pipelining. *)
  let vec_a = tunable_candidates ctx "vec_a" desc.Descriptor.vector_lengths in
  let vec_b = tunable_candidates ctx "vec_b" desc.Descriptor.vector_lengths in
  let vec_c = tunable_candidates ctx "vec_c" desc.Descriptor.vector_lengths in
  let pad_a = tunable_candidates ctx "pad_a" [ 0; 8 ] in
  let pad_b = tunable_candidates ctx "pad_b" [ 0; 8 ] in
  let pad_c = tunable_candidates ctx "pad_c" [ 0; 8 ] in
  let unroll_c = tunable_candidates ctx "unroll_c" unroll_candidates in
  Gen_ctx.prim ctx (Prim.Vectorize { stage = "A.shared"; loop = "as.col"; length = vec_a });
  Gen_ctx.prim ctx (Prim.Vectorize { stage = "B.shared"; loop = "bs.col"; length = vec_b });
  Gen_ctx.prim ctx (Prim.Vectorize { stage = "C.store"; loop = "j.st"; length = vec_c });
  Gen_ctx.prim ctx (Prim.Storage_align { stage = "A.shared"; pad = pad_a });
  Gen_ctx.prim ctx (Prim.Storage_align { stage = "B.shared"; pad = pad_b });
  Gen_ctx.prim ctx (Prim.Storage_align { stage = "C.shared"; pad = pad_c });
  Gen_ctx.prim ctx (Prim.Unroll { stage = "C"; loop = "r.i"; length = unroll_c });
  (* Store stage (root nest with the grid/warp decomposition). *)
  let base = if has_batch ctx then 1 else 0 in
  let store_loops =
    batch_loop ctx ~bind:(Template.Bound Prim.Block_x)
    @ [
        loop "i.blk" "tile_i_block" "i" Op.Spatial (Template.Bound Prim.Block_y);
        loop "j.blk" "tile_j_block" "j" Op.Spatial (Template.Bound Prim.Block_x);
        loop "i.wrp" "tile_i_warp" "i" Op.Spatial (Template.Bound Prim.Thread_y);
        loop "j.wrp" "tile_j_warp" "j" Op.Spatial (Template.Bound Prim.Thread_y);
        loop "i.st" aux_i_2 "i" Op.Spatial Template.Plain;
        loop "j.st" aux_j_2 "j" Op.Spatial (Template.Vectorized vec_c);
      ]
  in
  Gen_ctx.stage ctx
    {
      Template.sname = "C.store";
      scope = "global";
      loops = store_loops;
      attach = Template.Root;
      role = Template.Store;
      align_pad = None;
    };
  (* Rule S2/S3: shared-memory stage for the output tile, with a tunable
     compute location (after the block loops or after the warp loops). *)
  let loc_c =
    Gen_ctx.add_var ctx "loc_c" (Domain.of_list [ base + 1; base + 3 ])
  in
  let row_dom = divisors_dom (iter_extent ctx "i") in
  let col_dom = divisors_dom (iter_extent ctx "j") in
  let len_cs_row = Gen_ctx.add_var ctx ~category:Problem.Loop_length "len_Cs_row" row_dom in
  let len_cs_col = Gen_ctx.add_var ctx ~category:Problem.Loop_length "len_Cs_col" col_dom in
  let entries level1 level2 =
    List.init (base + 4) (fun idx -> if idx < base + 3 then level1 else level2)
  in
  Gen_ctx.select ctx { sel_var = len_cs_row; loc_var = loc_c; entries = entries aux_i_1 aux_i_2 };
  Gen_ctx.select ctx { sel_var = len_cs_col; loc_var = loc_c; entries = entries aux_j_1 aux_j_2 };
  Gen_ctx.prim ctx
    (Prim.Cache_write { tensor = "C"; scope = "shared"; new_stage = "C.shared" });
  compute_at_prim ctx ~stage:"C.shared" ~parent:"C.store" ~location:loc_c;
  Gen_ctx.stage ctx
    {
      Template.sname = "C.shared";
      scope = "shared";
      loops =
        [
          loop "cs.i" len_cs_row "i" Op.Spatial Template.Plain;
          loop "cs.j" len_cs_col "j" Op.Spatial Template.Plain;
        ];
      attach = Template.At { parent = "C.store"; location_var = loc_c };
      role = Template.Store;
      align_pad = Some pad_c;
    };
  Gen_ctx.cache ctx
    {
      cf_stage = "C.shared";
      cf_scope = "shared";
      cf_loop_vars = [ len_cs_row; len_cs_col ];
      cf_pad = Some pad_c;
      cf_dtype_bytes = 4;
    };
  (* Compute stage, attached after the warp loops. *)
  let loc_compute =
    Gen_ctx.add_var ctx ~category:Problem.Auxiliary "loc_compute"
      (Domain.singleton (base + 3))
  in
  compute_at_prim ctx ~stage:"C" ~parent:"C.store" ~location:loc_compute;
  let leaf_ann = if tensorize then Template.Tensorized else Template.Plain in
  Gen_ctx.stage ctx
    {
      Template.sname = "C";
      scope = "local";
      loops =
        [
          loop "r.o" "tile_r_out" "r" Op.Reduction Template.Plain;
          loop "i.t" "tile_i_tile" "i" Op.Spatial Template.Plain;
          loop "j.t" "tile_j_tile" "j" Op.Spatial Template.Plain;
          loop "r.i" "tile_r_in" "r" Op.Reduction (Template.Unrolled unroll_c);
          loop "wm" leaf_m "i" Op.Spatial leaf_ann;
          loop "wn" leaf_n "j" Op.Spatial leaf_ann;
          loop "wk" leaf_k "r" Op.Reduction leaf_ann;
        ];
      attach = Template.At { parent = "C.store"; location_var = loc_compute };
      role = Template.Compute;
      align_pad = None;
    };
  (* Rule S2: shared-memory input stages with tunable compute locations. *)
  let k_dom = divisors_dom (iter_extent ctx "r") in
  let loc_a = Gen_ctx.add_var ctx "loc_a" (Domain.of_list [ 0; 1; 2; 3 ]) in
  let loc_b = Gen_ctx.add_var ctx "loc_b" (Domain.of_list [ 0; 1; 2; 3 ]) in
  let len_as_col = Gen_ctx.add_var ctx ~category:Problem.Loop_length "len_As_col" k_dom in
  let len_bs_row = Gen_ctx.add_var ctx ~category:Problem.Loop_length "len_Bs_row" k_dom in
  let k_entries = [ aux_r_1; aux_r_1; aux_r_1; leaf_k ] in
  Gen_ctx.select ctx { sel_var = len_as_col; loc_var = loc_a; entries = k_entries };
  Gen_ctx.select ctx { sel_var = len_bs_row; loc_var = loc_b; entries = k_entries };
  cache_read_prim ctx ~tensor:"A" ~scope:"shared" ~reader:"C" ~new_stage:"A.shared";
  cache_read_prim ctx ~tensor:"B" ~scope:"shared" ~reader:"C" ~new_stage:"B.shared";
  compute_at_prim ctx ~stage:"A.shared" ~parent:"C" ~location:loc_a;
  compute_at_prim ctx ~stage:"B.shared" ~parent:"C" ~location:loc_b;
  Gen_ctx.stage ctx
    {
      Template.sname = "A.shared";
      scope = "shared";
      loops =
        [
          loop "as.row" aux_i_1 "i" Op.Spatial Template.Plain;
          loop "as.col" len_as_col "r" Op.Reduction (Template.Vectorized vec_a);
        ];
      attach = Template.At { parent = "C"; location_var = loc_a };
      role = Template.Load "A";
      align_pad = Some pad_a;
    };
  Gen_ctx.stage ctx
    {
      Template.sname = "B.shared";
      scope = "shared";
      loops =
        [
          loop "bs.row" len_bs_row "r" Op.Reduction Template.Plain;
          loop "bs.col" aux_j_1 "j" Op.Spatial (Template.Vectorized vec_b);
        ];
      attach = Template.At { parent = "C"; location_var = loc_b };
      role = Template.Load "B";
      align_pad = Some pad_b;
    };
  Gen_ctx.cache ctx
    {
      cf_stage = "A.shared";
      cf_scope = "shared";
      cf_loop_vars = [ aux_i_1; len_as_col ];
      cf_pad = Some pad_a;
      cf_dtype_bytes = in_bytes;
    };
  Gen_ctx.cache ctx
    {
      cf_stage = "B.shared";
      cf_scope = "shared";
      cf_loop_vars = [ len_bs_row; aux_j_1 ];
      cf_pad = Some pad_b;
      cf_dtype_bytes = in_bytes;
    };
  Gen_ctx.le ctx vec_a len_as_col;
  Gen_ctx.le ctx vec_b aux_j_1;
  Gen_ctx.le ctx vec_c aux_j_2;
  (* Rule S3: fragment stages (wmma.a / wmma.b / accumulator). *)
  if tensorize then begin
    let loc_frag =
      Gen_ctx.add_var ctx ~category:Problem.Auxiliary "loc_frag" (Domain.singleton 3)
    in
    cache_read_prim ctx ~tensor:"A" ~scope:"wmma.a" ~reader:"C" ~new_stage:"A.wmma";
    cache_read_prim ctx ~tensor:"B" ~scope:"wmma.b" ~reader:"C" ~new_stage:"B.wmma";
    compute_at_prim ctx ~stage:"A.wmma" ~parent:"C" ~location:loc_frag;
    compute_at_prim ctx ~stage:"B.wmma" ~parent:"C" ~location:loc_frag;
    Gen_ctx.stage ctx
      {
        Template.sname = "A.wmma";
        scope = "wmma.a";
        loops =
          [
            loop "aw.m" leaf_m "i" Op.Spatial Template.Plain;
            loop "aw.k" leaf_k "r" Op.Reduction Template.Plain;
          ];
        attach = Template.At { parent = "C"; location_var = loc_frag };
        role = Template.Load "A";
        align_pad = None;
      };
    Gen_ctx.stage ctx
      {
        Template.sname = "B.wmma";
        scope = "wmma.b";
        loops =
          [
            loop "bw.k" leaf_k "r" Op.Reduction Template.Plain;
            loop "bw.n" leaf_n "j" Op.Spatial Template.Plain;
          ];
        attach = Template.At { parent = "C"; location_var = loc_frag };
        role = Template.Load "B";
        align_pad = None;
      };
    Gen_ctx.cache ctx
      { cf_stage = "A.wmma"; cf_scope = "wmma.a"; cf_loop_vars = [ leaf_m; leaf_k ];
        cf_pad = None; cf_dtype_bytes = in_bytes };
    Gen_ctx.cache ctx
      { cf_stage = "B.wmma"; cf_scope = "wmma.b"; cf_loop_vars = [ leaf_k; leaf_n ];
        cf_pad = None; cf_dtype_bytes = in_bytes };
    let loc_acc =
      Gen_ctx.add_var ctx ~category:Problem.Auxiliary "loc_acc"
        (Domain.singleton (base + 3))
    in
    Gen_ctx.prim ctx
      (Prim.Cache_write { tensor = "C"; scope = "wmma.acc"; new_stage = "C.acc" });
    compute_at_prim ctx ~stage:"C.acc" ~parent:"C.store" ~location:loc_acc;
    Gen_ctx.stage ctx
      {
        Template.sname = "C.acc";
        scope = "wmma.acc";
        loops =
          [
            loop "ca.i" aux_i_2 "i" Op.Spatial Template.Plain;
            loop "ca.j" aux_j_2 "j" Op.Spatial Template.Plain;
          ];
        attach = Template.At { parent = "C.store"; location_var = loc_acc };
        role = Template.Store;
        align_pad = None;
      };
    Gen_ctx.cache ctx
      { cf_stage = "C.acc"; cf_scope = "wmma.acc"; cf_loop_vars = [ aux_i_2; aux_j_2 ];
        cf_pad = None; cf_dtype_bytes = 4 }
  end

(* -------------------------------------------------------------------- *)
(* Intel DL Boost                                                         *)
(* -------------------------------------------------------------------- *)

let dlboost_contraction (ctx : Gen_ctx.t) ~tensorize =
  let desc = ctx.desc in
  let leaf_m, leaf_n, leaf_k =
    if tensorize then begin
      let cand f =
        List.sort_uniq compare (List.map f desc.Descriptor.intrin_shapes)
      in
      let m = intrin_var ctx "intrin_m" (cand (fun (m, _, _) -> m)) in
      let n = intrin_var ctx "intrin_n" (cand (fun (_, n, _) -> n)) in
      let k = intrin_var ctx "intrin_k" (cand (fun (_, _, k) -> k)) in
      Gen_ctx.prim ctx
        (Prim.Tensorize { stage = "C"; intrin = desc.Descriptor.intrin_name; m; n; k });
      (* When the functional unit offers several distinct shapes (e.g.
         Cambricon's flexible matrix tiles), the three dimensions must be
         chosen together: one shape-index tunable selects all three (C6). *)
      let shapes = desc.Descriptor.intrin_shapes in
      if List.length shapes > 1 then begin
        let sel =
          Gen_ctx.add_var ctx "intrin_shape_sel"
            (Domain.of_list (List.init (List.length shapes) (fun i -> i)))
        in
        let entry dim i value =
          Gen_ctx.const_var ctx ~category:Problem.Architectural
            (Printf.sprintf "arch_shape_%s_%d" dim i) value
        in
        let select dim var proj =
          let entries = List.mapi (fun i s -> entry dim i (proj s)) shapes in
          Gen_ctx.select ctx { sel_var = var; loc_var = sel; entries }
        in
        select "m" m (fun (x, _, _) -> x);
        select "n" n (fun (_, x, _) -> x);
        select "k" k (fun (_, _, x) -> x)
      end;
      (m, n, k)
    end
    else
      ( tunable_candidates ctx "tile_i_inner" [ 1; 2; 4 ],
        tunable_candidates ctx "tile_j_inner" [ 1; 4; 8; 16 ],
        tunable_candidates ctx "tile_r_inner" [ 1; 2; 4 ] )
  in
  let aux_i_1 = chain2 ctx ~dim:"i" ~names:("tile_i_core", "tile_i_tile") ~leaf:leaf_m in
  let aux_j_1 = chain2 ctx ~dim:"j" ~names:("tile_j_out", "tile_j_tile") ~leaf:leaf_n in
  let aux_r_1 = chain2 ctx ~dim:"r" ~names:("tile_r_out", "tile_r_in") ~leaf:leaf_k in
  let vec_b = tunable_candidates ctx "vec_b" desc.Descriptor.vector_lengths in
  let vec_c = tunable_candidates ctx "vec_c" desc.Descriptor.vector_lengths in
  let unroll_c = tunable_candidates ctx "unroll_c" unroll_candidates in
  let packed = tunable_candidates ctx "packed_layout" [ 0; 1 ] in
  ignore packed;
  Gen_ctx.prim ctx (Prim.Vectorize { stage = "B.l1"; loop = "bl.col"; length = vec_b });
  Gen_ctx.prim ctx (Prim.Unroll { stage = "C"; loop = "r.i"; length = unroll_c });
  Gen_ctx.prim ctx (Prim.Parallel { stage = "C.store"; loop = "i.core" });
  let base = if has_batch ctx then 1 else 0 in
  let store_loops =
    batch_loop ctx ~bind:(Template.Bound Prim.Core)
    @ [
        loop "i.core" "tile_i_core" "i" Op.Spatial (Template.Bound Prim.Core);
        loop "j.out" "tile_j_out" "j" Op.Spatial Template.Plain;
        loop "i.st" aux_i_1 "i" Op.Spatial Template.Plain;
        loop "j.st" aux_j_1 "j" Op.Spatial (Template.Vectorized vec_c);
      ]
  in
  Gen_ctx.stage ctx
    {
      Template.sname = "C.store";
      scope = "global";
      loops = store_loops;
      attach = Template.Root;
      role = Template.Store;
      align_pad = None;
    };
  let loc_compute =
    Gen_ctx.add_var ctx ~category:Problem.Auxiliary "loc_compute"
      (Domain.singleton (base + 1))
  in
  compute_at_prim ctx ~stage:"C" ~parent:"C.store" ~location:loc_compute;
  let leaf_ann = if tensorize then Template.Tensorized else Template.Plain in
  Gen_ctx.stage ctx
    {
      Template.sname = "C";
      scope = "local";
      loops =
        [
          loop "r.o" "tile_r_out" "r" Op.Reduction Template.Plain;
          loop "i.t" "tile_i_tile" "i" Op.Spatial Template.Plain;
          loop "j.t" "tile_j_tile" "j" Op.Spatial Template.Plain;
          loop "r.i" "tile_r_in" "r" Op.Reduction (Template.Unrolled unroll_c);
          loop "m" leaf_m "i" Op.Spatial leaf_ann;
          loop "n" leaf_n "j" Op.Spatial leaf_ann;
          loop "k" leaf_k "r" Op.Reduction leaf_ann;
        ];
      attach = Template.At { parent = "C.store"; location_var = loc_compute };
      role = Template.Compute;
      align_pad = None;
    };
  (* Cache staging: A tiles resident in L2, packed B tiles in L1. *)
  let k_dom = divisors_dom (iter_extent ctx "r") in
  let loc_a = Gen_ctx.add_var ctx "loc_a" (Domain.of_list [ 0; 1; 2; 3 ]) in
  let loc_b = Gen_ctx.add_var ctx "loc_b" (Domain.of_list [ 0; 1; 2; 3 ]) in
  let len_al_col = Gen_ctx.add_var ctx ~category:Problem.Loop_length "len_Al_col" k_dom in
  let len_bl_row = Gen_ctx.add_var ctx ~category:Problem.Loop_length "len_Bl_row" k_dom in
  let k_entries = [ aux_r_1; aux_r_1; aux_r_1; leaf_k ] in
  Gen_ctx.select ctx { sel_var = len_al_col; loc_var = loc_a; entries = k_entries };
  Gen_ctx.select ctx { sel_var = len_bl_row; loc_var = loc_b; entries = k_entries };
  cache_read_prim ctx ~tensor:"A" ~scope:"l2" ~reader:"C" ~new_stage:"A.l2";
  cache_read_prim ctx ~tensor:"B" ~scope:"l1" ~reader:"C" ~new_stage:"B.l1";
  compute_at_prim ctx ~stage:"A.l2" ~parent:"C" ~location:loc_a;
  compute_at_prim ctx ~stage:"B.l1" ~parent:"C" ~location:loc_b;
  Gen_ctx.stage ctx
    {
      Template.sname = "A.l2";
      scope = "l2";
      loops =
        [
          loop "al.row" aux_i_1 "i" Op.Spatial Template.Plain;
          loop "al.col" len_al_col "r" Op.Reduction Template.Plain;
        ];
      attach = Template.At { parent = "C"; location_var = loc_a };
      role = Template.Load "A";
      align_pad = None;
    };
  Gen_ctx.stage ctx
    {
      Template.sname = "B.l1";
      scope = "l1";
      loops =
        [
          loop "bl.row" len_bl_row "r" Op.Reduction Template.Plain;
          loop "bl.col" aux_j_1 "j" Op.Spatial (Template.Vectorized vec_b);
        ];
      attach = Template.At { parent = "C"; location_var = loc_b };
      role = Template.Load "B";
      align_pad = None;
    };
  Gen_ctx.cache ctx
    { cf_stage = "A.l2"; cf_scope = "l2"; cf_loop_vars = [ aux_i_1; len_al_col ];
      cf_pad = None; cf_dtype_bytes = 1 };
  Gen_ctx.cache ctx
    { cf_stage = "B.l1"; cf_scope = "l1"; cf_loop_vars = [ len_bl_row; aux_j_1 ];
      cf_pad = None; cf_dtype_bytes = 1 };
  Gen_ctx.le ctx vec_b aux_j_1;
  Gen_ctx.le ctx vec_c aux_j_1

(* -------------------------------------------------------------------- *)
(* TVM VTA                                                                *)
(* -------------------------------------------------------------------- *)

let vta_contraction (ctx : Gen_ctx.t) =
  let desc = ctx.desc in
  let m = intrin_var ctx "intrin_m" [ 1 ] in
  let n = intrin_var ctx "intrin_n" [ 16 ] in
  let intrin_k = 16 in
  let k = intrin_var ctx "intrin_k" [ intrin_k ] in
  Gen_ctx.prim ctx
    (Prim.Tensorize { stage = "C"; intrin = desc.Descriptor.intrin_name; m; n; k });
  let aux_i_1 = chain2 ctx ~dim:"i" ~names:("tile_i_out", "tile_i_tile") ~leaf:m in
  let aux_j_1 = chain2 ctx ~dim:"j" ~names:("tile_j_out", "tile_j_tile") ~leaf:n in
  let aux_r_1 = chain2 ctx ~dim:"r" ~names:("tile_r_out", "tile_r_in") ~leaf:k in
  let vec_a = tunable_candidates ctx "vec_a" desc.Descriptor.vector_lengths in
  let vec_b = tunable_candidates ctx "vec_b" desc.Descriptor.vector_lengths in
  let unroll_c = tunable_candidates ctx "unroll_c" unroll_candidates in
  Gen_ctx.prim ctx (Prim.Vectorize { stage = "A.inp"; loop = "ai.col"; length = vec_a });
  Gen_ctx.prim ctx (Prim.Vectorize { stage = "B.wgt"; loop = "bw.col"; length = vec_b });
  Gen_ctx.prim ctx (Prim.Unroll { stage = "C"; loop = "r.i"; length = unroll_c });
  (* C6: write timing. VTA cannot write one accumulator address on
     consecutive cycles, which can only happen while a reduction loop
     remains above the gemm tile, i.e. when r's extent exceeds the
     intrinsic's k. Then the spatial loop right above the tile must iterate
     at least twice. *)
  if iter_extent ctx "r" > intrin_k then begin
    let two = Gen_ctx.const_var ctx ~category:Problem.Architectural "arch_min_access" 2 in
    Gen_ctx.le ctx two "tile_j_tile"
  end;
  Gen_ctx.prim ctx (Prim.Reorder { stage = "C"; order = [ "r.o"; "i.t"; "r.i"; "j.t" ] });
  let base = if has_batch ctx then 1 else 0 in
  let store_loops =
    batch_loop ctx ~bind:Template.Plain
    @ [
        loop "i.out" "tile_i_out" "i" Op.Spatial Template.Plain;
        loop "j.out" "tile_j_out" "j" Op.Spatial Template.Plain;
        loop "i.st" aux_i_1 "i" Op.Spatial Template.Plain;
        loop "j.st" aux_j_1 "j" Op.Spatial Template.Plain;
      ]
  in
  Gen_ctx.stage ctx
    {
      Template.sname = "C.store";
      scope = "global";
      loops = store_loops;
      attach = Template.Root;
      role = Template.Store;
      align_pad = None;
    };
  let loc_compute =
    Gen_ctx.add_var ctx ~category:Problem.Auxiliary "loc_compute"
      (Domain.singleton (base + 1))
  in
  compute_at_prim ctx ~stage:"C" ~parent:"C.store" ~location:loc_compute;
  Gen_ctx.stage ctx
    {
      Template.sname = "C";
      scope = "local";
      loops =
        [
          loop "r.o" "tile_r_out" "r" Op.Reduction Template.Plain;
          loop "i.t" "tile_i_tile" "i" Op.Spatial Template.Plain;
          loop "r.i" "tile_r_in" "r" Op.Reduction (Template.Unrolled unroll_c);
          loop "j.t" "tile_j_tile" "j" Op.Spatial Template.Plain;
          loop "m" m "i" Op.Spatial Template.Tensorized;
          loop "n" n "j" Op.Spatial Template.Tensorized;
          loop "k" k "r" Op.Reduction Template.Tensorized;
        ];
      attach = Template.At { parent = "C.store"; location_var = loc_compute };
      role = Template.Compute;
      align_pad = None;
    };
  (* Rule S3: distinct input/weight/accumulator buffers. *)
  let k_dom = divisors_dom (iter_extent ctx "r") in
  let loc_a = Gen_ctx.add_var ctx "loc_a" (Domain.of_list [ 0; 1; 2; 3 ]) in
  let loc_b = Gen_ctx.add_var ctx "loc_b" (Domain.of_list [ 0; 1; 2; 3 ]) in
  let len_ai_col = Gen_ctx.add_var ctx ~category:Problem.Loop_length "len_Ai_col" k_dom in
  let len_bw_row = Gen_ctx.add_var ctx ~category:Problem.Loop_length "len_Bw_row" k_dom in
  let k_entries = [ aux_r_1; aux_r_1; aux_r_1; k ] in
  Gen_ctx.select ctx { sel_var = len_ai_col; loc_var = loc_a; entries = k_entries };
  Gen_ctx.select ctx { sel_var = len_bw_row; loc_var = loc_b; entries = k_entries };
  cache_read_prim ctx ~tensor:"A" ~scope:"vta.inp" ~reader:"C" ~new_stage:"A.inp";
  cache_read_prim ctx ~tensor:"B" ~scope:"vta.wgt" ~reader:"C" ~new_stage:"B.wgt";
  compute_at_prim ctx ~stage:"A.inp" ~parent:"C" ~location:loc_a;
  compute_at_prim ctx ~stage:"B.wgt" ~parent:"C" ~location:loc_b;
  Gen_ctx.stage ctx
    {
      Template.sname = "A.inp";
      scope = "vta.inp";
      loops =
        [
          loop "ai.row" aux_i_1 "i" Op.Spatial Template.Plain;
          loop "ai.col" len_ai_col "r" Op.Reduction (Template.Vectorized vec_a);
        ];
      attach = Template.At { parent = "C"; location_var = loc_a };
      role = Template.Load "A";
      align_pad = None;
    };
  Gen_ctx.stage ctx
    {
      Template.sname = "B.wgt";
      scope = "vta.wgt";
      loops =
        [
          loop "bw.row" len_bw_row "r" Op.Reduction Template.Plain;
          loop "bw.col" aux_j_1 "j" Op.Spatial (Template.Vectorized vec_b);
        ];
      attach = Template.At { parent = "C"; location_var = loc_b };
      role = Template.Load "B";
      align_pad = None;
    };
  let loc_acc =
    Gen_ctx.add_var ctx ~category:Problem.Auxiliary "loc_acc"
      (Domain.singleton (base + 1))
  in
  Gen_ctx.prim ctx
    (Prim.Cache_write { tensor = "C"; scope = "vta.acc"; new_stage = "C.accbuf" });
  compute_at_prim ctx ~stage:"C.accbuf" ~parent:"C.store" ~location:loc_acc;
  Gen_ctx.stage ctx
    {
      Template.sname = "C.accbuf";
      scope = "vta.acc";
      loops =
        [
          loop "cb.i" aux_i_1 "i" Op.Spatial Template.Plain;
          loop "cb.j" aux_j_1 "j" Op.Spatial Template.Plain;
        ];
      attach = Template.At { parent = "C.store"; location_var = loc_acc };
      role = Template.Store;
      align_pad = None;
    };
  Gen_ctx.cache ctx
    { cf_stage = "A.inp"; cf_scope = "vta.inp"; cf_loop_vars = [ aux_i_1; len_ai_col ];
      cf_pad = None; cf_dtype_bytes = 1 };
  Gen_ctx.cache ctx
    { cf_stage = "B.wgt"; cf_scope = "vta.wgt"; cf_loop_vars = [ len_bw_row; aux_j_1 ];
      cf_pad = None; cf_dtype_bytes = 1 };
  Gen_ctx.cache ctx
    { cf_stage = "C.accbuf"; cf_scope = "vta.acc"; cf_loop_vars = [ aux_i_1; aux_j_1 ];
      cf_pad = None; cf_dtype_bytes = 4 };
  Gen_ctx.le ctx vec_a len_ai_col;
  Gen_ctx.le ctx vec_b aux_j_1

(* -------------------------------------------------------------------- *)
(* Non-contraction fallback (scan and friends)                            *)
(* -------------------------------------------------------------------- *)

let simple_spatial (ctx : Gen_ctx.t) =
  let desc = ctx.desc in
  let spatial = Op.spatial_iters ctx.op in
  let first, rest =
    match spatial with
    | f :: r -> (f, r)
    | [] -> invalid_arg "Rules_sched.simple_spatial: operator without spatial iterators"
  in
  let dom = divisors_dom first.Op.extent in
  let len =
    Gen_ctx.const_var ctx ~category:Problem.Loop_length ("len_" ^ first.Op.iname)
      first.Op.extent
  in
  let blk = Gen_ctx.add_var ctx "tile_s_block" dom in
  let aux1 =
    Gen_ctx.add_var ctx ~category:Problem.Auxiliary ("aux_" ^ first.Op.iname ^ "_1") dom
  in
  let thr = Gen_ctx.add_var ctx "tile_s_thread" dom in
  let aux2 =
    Gen_ctx.add_var ctx ~category:Problem.Auxiliary ("aux_" ^ first.Op.iname ^ "_2") dom
  in
  Gen_ctx.split ctx ~stage:"Y" ~loop:first.Op.iname
    { parent_var = len; outer_var = blk; inner_var = aux1 };
  Gen_ctx.split ctx ~stage:"Y" ~loop:(first.Op.iname ^ ".1")
    { parent_var = aux1; outer_var = thr; inner_var = aux2 };
  (* Keep per-thread work and thread counts in hardware range. *)
  let max_thr =
    Gen_ctx.const_var ctx ~category:Problem.Architectural "arch_max_threads"
      (max 1 (desc.Descriptor.max_threads_per_block / 32))
  in
  Gen_ctx.le ctx thr max_thr;
  (* VTA has no scalar path: it runs only tensorized GEMM tiles, so no
     program of this template is valid there. With zero scalar lanes the
     innermost loop (extent >= 1) has no admissible value, and
     propagation empties the space at the root. *)
  if desc.Descriptor.family = Descriptor.Vta then
    Gen_ctx.le ctx aux2
      (Gen_ctx.const_var ctx ~category:Problem.Architectural "arch_scalar_lanes" 0);
  let unroll_y = tunable_candidates ctx "unroll_y" unroll_candidates in
  Gen_ctx.prim ctx (Prim.Unroll { stage = "Y"; loop = "inner"; length = unroll_y });
  let bind_blk, bind_thr =
    match desc.Descriptor.family with
    | Descriptor.Tensorcore ->
        (Template.Bound Prim.Block_x, Template.Bound Prim.Thread_y)
    | Descriptor.Dlboost | Descriptor.Vta -> (Template.Bound Prim.Core, Template.Plain)
  in
  let rest_loops =
    List.map
      (fun (it : Op.iter) ->
        let v =
          Gen_ctx.const_var ctx ~category:Problem.Loop_length ("len_" ^ it.Op.iname)
            it.Op.extent
        in
        loop (it.Op.iname ^ ".all") v it.Op.iname it.Op.kind Template.Plain)
      (rest @ Op.reduction_iters ctx.op)
  in
  let inner_ann = Template.Unrolled unroll_y in
  let loops =
    [
      loop (first.Op.iname ^ ".blk") blk first.Op.iname Op.Spatial bind_blk;
      loop (first.Op.iname ^ ".thr") thr first.Op.iname Op.Spatial bind_thr;
    ]
    @ rest_loops
    @ [ loop (first.Op.iname ^ ".in") aux2 first.Op.iname Op.Spatial inner_ann ]
  in
  Gen_ctx.stage ctx
    {
      Template.sname = "Y";
      scope = "local";
      loops;
      attach = Template.Root;
      role = Template.Compute;
      align_pad = None;
    }
