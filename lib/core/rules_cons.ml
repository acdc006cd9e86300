module Problem = Heron_csp.Problem
module Domain = Heron_csp.Domain
module Cons = Heron_csp.Cons
module Bitdom = Heron_csp.Bitdom
module Descriptor = Heron_dla.Descriptor

(* C1/C2: splits (and fuses, which record the same product shape). *)
let apply_c1 (ctx : Gen_ctx.t) =
  List.iter
    (fun (f : Gen_ctx.split_fact) ->
      Problem.add_cons ctx.b (Cons.Prod (f.parent_var, [ f.outer_var; f.inner_var ])))
    (List.rev ctx.splits)

(* C3: candidate sets. *)
let apply_c3 (ctx : Gen_ctx.t) =
  List.iter
    (fun (v, cs) -> Problem.add_cons ctx.b (Cons.In (v, cs)))
    (List.rev ctx.candidates)

(* C4: stage fusion — the dependent length selects among per-location
   sources. *)
let apply_c4 (ctx : Gen_ctx.t) =
  List.iter
    (fun (f : Gen_ctx.select_fact) ->
      Problem.add_cons ctx.b (Cons.Select (f.sel_var, f.loc_var, f.entries)))
    (List.rev ctx.selects)

(* C5: scratchpad capacity. For every scope with a declared capacity, the
   byte footprint of each cache stage is the product of its loop lengths
   (innermost padded by storage_align) times the element size; footprints
   are summed per scope and bounded by the capacity. *)
let apply_c5 (ctx : Gen_ctx.t) =
  (* Auxiliary names are numbered per invocation, not from a global
     counter: variable names (and thus solver sampling, which hashes
     them) must be a pure function of the context, or two generations in
     one process would diverge. *)
  let aux_counter = ref 0 in
  let fresh_aux prefix =
    incr aux_counter;
    Printf.sprintf "%s#%d" prefix !aux_counter
  in
  let cap_of scope = Descriptor.scope_capacity ctx.desc scope in
  let scopes =
    List.fold_left
      (fun acc c -> if List.mem c.Gen_ctx.cf_scope acc then acc else c.Gen_ctx.cf_scope :: acc)
      [] ctx.caches
    |> List.sort String.compare
  in
  List.iter
    (fun scope ->
      match cap_of scope with
      | None -> ()
      | Some cap ->
          let stages =
            List.filter (fun c -> c.Gen_ctx.cf_scope = scope) (List.rev ctx.caches)
          in
          let byte_vars =
            List.map
              (fun (c : Gen_ctx.cache_fact) ->
                (* Innermost length, padded if storage_align applies. *)
                let rev_loops = List.rev c.cf_loop_vars in
                let inner, outers =
                  match rev_loops with
                  | i :: o -> (i, List.rev o)
                  | [] -> invalid_arg "Rules_cons.apply_c5: cache stage without loops"
                in
                let padded_inner =
                  match c.cf_pad with
                  | None -> inner
                  | Some pad ->
                      let dom =
                        Bitdom.combine ~prod:false (Problem.domain_of ctx.b inner)
                          (Problem.domain_of ctx.b pad)
                      in
                      let v = fresh_aux (Printf.sprintf "aux_%s_padded" c.cf_stage) in
                      Problem.add_var ctx.b ~category:Problem.Auxiliary v dom;
                      Problem.add_cons ctx.b (Cons.Sum (v, [ inner; pad ]));
                      v
                in
                (* Element count: binary product chain over the loops. *)
                let elems =
                  List.fold_left
                    (fun acc l ->
                      let dom =
                        Bitdom.combine ~prod:true ~cap:(cap * 4)
                          (Problem.domain_of ctx.b acc) (Problem.domain_of ctx.b l)
                      in
                      let v = fresh_aux (Printf.sprintf "mem_%s_elems" c.cf_stage) in
                      Problem.add_var ctx.b ~category:Problem.Auxiliary v dom;
                      Problem.add_cons ctx.b (Cons.Prod (v, [ acc; l ]));
                      v)
                    padded_inner outers
                in
                let bytes = fresh_aux (Printf.sprintf "mem_%s_bytes" c.cf_stage) in
                let dtv = fresh_aux (Printf.sprintf "aux_%s_dtbytes" c.cf_stage) in
                Problem.add_var ctx.b ~category:Problem.Auxiliary dtv
                  (Domain.singleton c.cf_dtype_bytes);
                Problem.add_var ctx.b ~category:Problem.Auxiliary bytes
                  (Bitdom.combine ~prod:true ~cap:(cap * 4)
                     (Problem.domain_of ctx.b elems)
                     (Domain.singleton c.cf_dtype_bytes));
                Problem.add_cons ctx.b (Cons.Prod (bytes, [ elems; dtv ]));
                bytes)
              stages
          in
          (* Total per scope, bounded by the capacity. *)
          let total =
            match byte_vars with
            | [] -> None
            | [ only ] -> Some only
            | first :: rest ->
                Some
                  (List.fold_left
                     (fun acc v ->
                       let dom =
                         Bitdom.combine ~prod:false ~cap
                           (Problem.domain_of ctx.b acc) (Problem.domain_of ctx.b v)
                       in
                       let s = fresh_aux (Printf.sprintf "mem_%s_total" scope) in
                       Problem.add_var ctx.b ~category:Problem.Auxiliary s dom;
                       Problem.add_cons ctx.b (Cons.Sum (s, [ acc; v ]));
                       s)
                     first rest)
          in
          match total with
          | None -> ()
          | Some total ->
              let cap_var = fresh_aux (Printf.sprintf "arch_%s_capacity" scope) in
              Problem.add_var ctx.b ~category:Problem.Architectural cap_var
                (Domain.singleton cap);
              Problem.add_cons ctx.b (Cons.Le (total, cap_var)))
    scopes

(* C6: DLA-specific facts recorded by the schedule rules. *)
let apply_c6 (ctx : Gen_ctx.t) =
  List.iter (fun (a, b) -> Problem.add_cons ctx.b (Cons.Le (a, b))) (List.rev ctx.les);
  List.iter (fun (v, vs) -> Problem.add_cons ctx.b (Cons.Prod (v, vs))) (List.rev ctx.prods)

let apply_all ctx =
  apply_c1 ctx;
  apply_c3 ctx;
  apply_c4 ctx;
  apply_c5 ctx;
  apply_c6 ctx
