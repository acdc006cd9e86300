(* Space golden fixture: the generated problem of every (descriptor, op)
   below, printed as one line each — the variable count, the constraint
   count and an MD5 of the canonical rendering. The rendering lists each
   variable as "name category domain" (every value, not the abridged
   [Domain.to_string]) in declaration order, then each [Cons.to_string]
   in order, so any change to a name, category, domain or constraint, or
   to their order, moves the digest. `dune runtest` diffs the output
   against space.expected; an intentional change is re-baselined with
   `dune promote` and reviewed in the diff.

   The scaled descriptors divide every scratchpad capacity by 64, so the
   C5 caps bind on ordinary shapes: about 40% of the auxiliary domains
   here are cut by their cap. (None comes out empty, even at a 4,096th
   of the capacities; the kernel's unit tests cover that case.) *)

module Op = Heron_tensor.Op
module D = Heron_dla.Descriptor
module Problem = Heron_csp.Problem
module Domain = Heron_csp.Domain
module Cons = Heron_csp.Cons
module Suites = Heron_nets.Suites
module Models = Heron_nets.Models
module Tasks = Heron_nets.Tasks

let render p =
  let b = Buffer.create 4096 in
  Array.iter
    (fun v ->
      Printf.bprintf b "%s %s {" v (Problem.category_to_string (Problem.category p v));
      Domain.iter
        (fun x ->
          Buffer.add_string b (string_of_int x);
          Buffer.add_char b ',')
        (Problem.domain p v);
      Buffer.add_string b "}\n")
    (Problem.vars p);
  List.iter (fun c -> Printf.bprintf b "%s\n" (Cons.to_string c)) (Problem.constraints p);
  Buffer.contents b

let line desc (label, op) =
  let p = (Heron.Generator.generate desc op).Heron.Generator.problem in
  Printf.printf "%s %s: vars %d cons %d md5 %s\n" desc.D.dname label (Problem.n_vars p)
    (Problem.n_cons p)
    (Digest.to_hex (Digest.string (render p)))

let table9 = Suites.table9_gemm @ Suites.table9_c2d
let i8_gemm n = (Printf.sprintf "gemm %d^3 i8" n, Op.gemm ~dt:Op.I8 ~m:n ~n ~k:n ())

(* The int8 GEMMs of the DL Boost and VTA workloads, on the int8
   accelerators. *)
let i8_gemms = List.map i8_gemm [ 512; 256; 500; 48 ]

(* Four of the serve-zipf workload's arriving shapes: extents that are
   odd multiples of 16. *)
let arrivals =
  List.map
    (fun (m, n, k) -> (Printf.sprintf "gemm %dx%dx%d" m n k, Op.gemm ~m ~n ~k ()))
    [ (16, 48, 80); (112, 112, 112); (48, 16, 112); (80, 80, 16) ]

let bert =
  List.map (fun t -> ("bert " ^ t.Tasks.t_key, t.Tasks.t_op)) (Tasks.extract Models.bert)

let scaled (d : D.t) =
  {
    d with
    D.dname = d.D.dname ^ "/64";
    spm_capacity = List.map (fun (s, c) -> (s, c / 64)) d.D.spm_capacity;
  }

let small = List.map i8_gemm [ 16; 32; 64; 128 ]

let () =
  List.iter
    (fun d -> List.iter (line d) table9)
    [ D.v100; D.t4; D.a100; D.dlboost; D.vta; D.tpu; D.cambricon ];
  List.iter (line D.v100) (bert @ arrivals);
  List.iter (fun d -> List.iter (line d) i8_gemms) [ D.dlboost; D.vta; D.tpu; D.cambricon ];
  List.iter
    (fun d -> List.iter (line (scaled d)) (table9 @ i8_gemms @ small))
    [ D.v100; D.dlboost; D.vta ]
