module Concrete = Heron_sched.Concrete
module Template = Heron_sched.Template
module Prim = Heron_sched.Prim

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let check_coverage prog =
  match Concrete.coverage_errors prog with
  | [] -> Ok ()
  | e :: _ -> Error (Violation.Coverage e)

let check_intrinsic (desc : Descriptor.t) prog =
  match (Concrete.tensorize_mnk prog, desc.family) with
  | None, Descriptor.Vta -> Error Violation.Missing_tensorize
  | None, _ -> Ok ()
  | Some (m, n, k), _ ->
      let shape_ok = List.mem (m, n, k) desc.intrin_shapes in
      let product_ok =
        match desc.intrin_mnk_product with None -> true | Some p -> m * n * k = p
      in
      if shape_ok && product_ok then Ok ()
      else Error (Violation.Bad_intrinsic_shape (m, n, k))

let check_spm (desc : Descriptor.t) prog =
  let failure =
    List.find_map
      (fun (scope, cap) ->
        let used =
          Concrete.stages_in_scope prog scope
          |> List.fold_left (fun acc s -> acc + Concrete.footprint_bytes prog s) 0
        in
        if used > cap then Some (Violation.Spm_overflow { scope; used; cap }) else None)
      desc.spm_capacity
  in
  match failure with Some v -> Error v | None -> Ok ()

let check_vectors (desc : Descriptor.t) prog =
  let bad =
    prog.Concrete.stages
    |> List.concat_map (fun (s : Concrete.cstage) -> s.loops)
    |> List.find_map (fun (l : Concrete.cloop) ->
           match l.ann with
           | Concrete.Vectorized v when not (List.mem v desc.vector_lengths) ->
               Some (Violation.Bad_vector_length v)
           | _ -> None)
  in
  match bad with Some v -> Error v | None -> Ok ()

(* On the TensorCore family every [threadIdx.y] iteration is a whole warp
   of at least 32 lanes, as codegen launches [dim3(32, warps)]. *)
let check_threads (desc : Descriptor.t) prog =
  let warps = Concrete.axis_extent prog Prim.Thread_y in
  let lanes = Concrete.axis_extent prog Prim.Thread_x in
  let lanes =
    match desc.family with
    | Descriptor.Tensorcore -> max 32 lanes
    | Descriptor.Dlboost | Descriptor.Vta -> lanes
  in
  let threads = warps * lanes in
  if threads > desc.max_threads_per_block then Error (Violation.Too_many_threads threads)
  else Ok ()

(* VTA cannot write the same accumulator address on consecutive cycles:
   the loop immediately enclosing the tensorized tile must be a spatial
   loop of extent >= 2 (or no reduction loop remains above the tile). *)
let check_loop_order (desc : Descriptor.t) prog =
  match desc.family with
  | Descriptor.Tensorcore | Descriptor.Dlboost -> Ok ()
  | Descriptor.Vta -> (
      let stage = Concrete.compute_stage prog in
      let non_tile =
        Concrete.loop_path prog stage
        |> List.filter (fun (l : Concrete.cloop) -> l.ann <> Concrete.Tensorized)
      in
      let has_reduction =
        List.exists
          (fun (l : Concrete.cloop) -> l.kind = Heron_tensor.Op.Reduction && l.extent > 1)
          non_tile
      in
      if not has_reduction then Ok ()
      else
        match List.rev non_tile with
        | [] -> Ok ()
        | inner :: _ ->
            if inner.kind = Heron_tensor.Op.Spatial && inner.extent >= 2 then Ok ()
            else
              Error
                (Violation.Bad_loop_order
                   (Printf.sprintf
                      "innermost loop %s above the gemm tile is %s with extent %d" inner.name
                      (if inner.kind = Heron_tensor.Op.Reduction then "a reduction" else "spatial")
                      inner.extent)))

(* Each staging (load/store cache) tile must cover the data its consumer
   reads: for every original iterator appearing in the stage's loops, the
   tile extent times the enclosing loops' extents must reach the full
   iterator extent. Under-sized staging buffers would compute garbage on
   real hardware, so they are invalid (over-fetch is allowed). *)
let check_cache_coverage prog =
  let failure =
    prog.Concrete.stages
    |> List.find_map (fun (s : Concrete.cstage) ->
           match (s.Concrete.role, s.Concrete.attach) with
           | (Template.Load _ | Template.Store), Some _ when s.Concrete.scope <> "global" ->
               let path = Concrete.loop_path prog s in
               let own = List.length s.Concrete.loops in
               let above = List.filteri (fun i _ -> i < List.length path - own) path in
               let origins =
                 List.map (fun (l : Concrete.cloop) -> l.Concrete.origin) s.Concrete.loops
                 |> List.sort_uniq compare
               in
               List.find_map
                 (fun origin ->
                   match
                     List.find_opt
                       (fun (it : Heron_tensor.Op.iter) -> it.Heron_tensor.Op.iname = origin)
                       prog.Concrete.op.Heron_tensor.Op.iters
                   with
                   | None -> None
                   | Some it ->
                       let prod loops =
                         List.fold_left
                           (fun acc (l : Concrete.cloop) ->
                             if l.Concrete.origin = origin then acc * l.Concrete.extent
                             else acc)
                           1 loops
                       in
                       let covered = prod s.Concrete.loops * prod above in
                       if covered < it.Heron_tensor.Op.extent then
                         Some
                           (Violation.Coverage
                              (Printf.sprintf
                                 "stage %s stages %d of iterator %s's %d elements"
                                 s.Concrete.name covered origin it.Heron_tensor.Op.extent))
                       else None)
                 origins
           | _ -> None)
  in
  match failure with Some v -> Error v | None -> Ok ()

let check_assignment problem a =
  match Heron_csp.Problem.check problem a with
  | Ok () -> Ok ()
  | Error c -> Error (Violation.Unsatisfied_constraint (Heron_csp.Cons.to_string c))

let check desc prog =
  let* () = check_coverage prog in
  let* () = check_cache_coverage prog in
  let* () = check_intrinsic desc prog in
  let* () = check_spm desc prog in
  let* () = check_vectors desc prog in
  let* () = check_threads desc prog in
  check_loop_order desc prog

let is_valid desc prog = match check desc prog with Ok () -> true | Error _ -> false
