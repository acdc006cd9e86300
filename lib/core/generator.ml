module Op = Heron_tensor.Op
module Gemm_view = Heron_tensor.Gemm_view
module Problem = Heron_csp.Problem
module Solver = Heron_csp.Solver
module Template = Heron_sched.Template
module Descriptor = Heron_dla.Descriptor
module Rng = Heron_util.Rng
module Obs = Heron_obs.Obs

type t = {
  template : Template.t;
  problem : Problem.t;
  tensorized : bool;
  original_op : Op.t;
}

let is_contraction (op : Op.t) =
  match op.body with Op.Contract _ -> true | Op.Copy _ | Op.Scan _ -> false

(* Record the im2col mapping between the original operator's iterators and
   the fused GEMM dimensions: one loop-length variable per original
   iterator, chained by PROD constraints into the fused lengths the
   template tiles. More complex operators therefore describe their spaces
   with more variables and constraints (paper Table 5). *)
let im2col_bookkeeping (ctx : Gen_ctx.t) (orig : Op.t) (view : Heron_tensor.Gemm_view.t) =
  let module Problem = Heron_csp.Problem in
  let orig_var (name : string) =
    let it = Op.find_iter orig name in
    Gen_ctx.const_var ctx ~category:Problem.Loop_length ("orig_len_" ^ name) it.Op.extent
  in
  let bind fused_dim iters =
    match iters with
    | [] -> ()
    | names ->
        let vars = List.map orig_var names in
        let fused = "len_" ^ fused_dim in
        (* Binary product chain: len_dim = o1 * (o2 * (...)). *)
        let rec chain = function
          | [] -> assert false
          | [ v ] -> v
          | v :: rest ->
              let tail = chain rest in
              let dom_product =
                Heron_csp.Domain.of_list
                  [ List.fold_left (fun acc v ->
                        let n = String.sub v (String.length "orig_len_")
                            (String.length v - String.length "orig_len_") in
                        acc * (Op.find_iter orig n).Op.extent)
                      1 (v :: rest) ]
              in
              let aux =
                Gen_ctx.add_var ctx ~category:Problem.Auxiliary
                  ("aux_im2col_" ^ fused_dim ^ "_" ^ string_of_int (List.length rest))
                  dom_product
              in
              Gen_ctx.prod ctx aux [ v; tail ];
              aux
        in
        let top = chain vars in
        Gen_ctx.prod ctx fused [ top ]
  in
  bind "b" view.Heron_tensor.Gemm_view.batch_iters;
  bind "i" view.Heron_tensor.Gemm_view.m_iters;
  bind "j" view.Heron_tensor.Gemm_view.n_iters;
  bind "r" view.Heron_tensor.Gemm_view.k_iters

let build ?orig desc op ~tensorize =
  let ctx = Gen_ctx.create desc op in
  let tensorized =
    if not (is_contraction op) then begin
      Rules_sched.simple_spatial ctx;
      false
    end
    else begin
      (match desc.Descriptor.family with
      | Descriptor.Tensorcore -> Rules_sched.tensorcore_contraction ctx ~tensorize
      | Descriptor.Dlboost -> Rules_sched.dlboost_contraction ctx ~tensorize
      | Descriptor.Vta -> Rules_sched.vta_contraction ctx);
      (match orig with
      | Some (orig_op, view) when orig_op != op -> im2col_bookkeeping ctx orig_op view
      | _ -> ());
      tensorize || desc.Descriptor.family = Descriptor.Vta
    end
  in
  Rules_cons.apply_all ctx;
  let intrin = if tensorized then Some desc.Descriptor.intrin_name else None in
  {
    template = Gen_ctx.finish ctx ~intrin;
    problem = Problem.freeze ctx.b;
    tensorized;
    original_op = op;
  }

let satisfiable ?(seed = 17) problem =
  match Solver.solve ~max_fails:2000 ~max_restarts:1 (Rng.create seed) problem with
  | Some _ -> true
  | None -> false

let generate ?(seed = 17) desc op =
  Obs.with_span "generator.generate" (fun () ->
      match Gemm_view.infer op with
      | None -> build desc op ~tensorize:false
      | Some view -> (
          let derived = Gemm_view.derived_op op view in
          let with_original g = { g with original_op = op } in
          if Descriptor.has_intrinsic desc then begin
            let g = build ~orig:(op, view) desc derived ~tensorize:true in
            if satisfiable ~seed g.problem then with_original g
            else
              match desc.Descriptor.family with
              | Descriptor.Vta ->
                  (* VTA has no scalar path; an unsatisfiable space means the
                     shape cannot run — surfaced as-is. *)
                  with_original g
              | Descriptor.Tensorcore | Descriptor.Dlboost ->
                  with_original (build ~orig:(op, view) desc derived ~tensorize:false)
          end
          else with_original (build ~orig:(op, view) desc derived ~tensorize:false)))
