module Problem = Heron_csp.Problem
module Domain = Heron_csp.Domain
module Cons = Heron_csp.Cons

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let is_memory_var v =
  starts_with "mem_" v || starts_with "aux_" v && (
    let contains sub =
      let n = String.length sub and m = String.length v in
      let rec go i = i + n <= m && (String.sub v i n = sub || go (i + 1)) in
      go 0
    in
    contains "padded" || contains "dtbytes")
  || (starts_with "arch_" v &&
      let contains sub =
        let n = String.length sub and m = String.length v in
        let rec go i = i + n <= m && (String.sub v i n = sub || go (i + 1)) in
        go 0
      in
      contains "capacity" || contains "min_access")

let rebuild ?(domain_map = fun _ d -> d) ?(keep_cons = fun _ -> true) p =
  let b = Problem.builder () in
  Array.iter
    (fun name ->
      Problem.add_var b ~category:(Problem.category p name) name
        (domain_map name (Problem.domain p name)))
    (Problem.vars p);
  List.iter (fun c -> if keep_cons c then Problem.add_cons b c) (Problem.constraints p);
  Problem.freeze b

let drop_memory_limits p =
  rebuild p ~keep_cons:(fun c -> not (List.exists is_memory_var (Cons.vars c)))

let fix_vars pins p =
  rebuild p ~domain_map:(fun name d ->
      match List.assoc_opt name pins with
      | None -> d
      | Some v ->
          if Domain.mem v d then Domain.singleton v
          else Domain.singleton (Domain.min_value d))
