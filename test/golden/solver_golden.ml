(* Solver golden fixture: fixed-seed RandSAT draws and crossover-offspring
   solves over three real spaces, printed as one line per batch — an MD5
   of the solutions' keys plus the search counters a propagation or
   search change would move. `dune runtest` diffs the output against
   solver.expected; an intentional behaviour change is re-baselined with
   `dune promote` and reviewed in the diff.

   Pinned: solutions, solver.nodes, fails, restarts, propagate_rounds and
   wipeouts. Not pinned: solver.revise, support_checks and trail_pushes,
   which count engine work and move with any cheaper propagation that
   reaches the same fixpoints. *)

module Op = Heron_tensor.Op
module D = Heron_dla.Descriptor
module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Solver = Heron_csp.Solver
module Rng = Heron_util.Rng
module Obs = Heron_obs.Obs

let pinned =
  [ "solver.nodes"; "solver.fails"; "solver.restarts"; "solver.propagate_rounds"; "solver.wipeouts" ]

let counters () = List.map (fun n -> Obs.Counter.value (Obs.Counter.make n)) pinned

let spaces =
  [
    ("v100 gemm 1024x1024x1024 f16", D.v100, Op.gemm ~m:1024 ~n:1024 ~k:1024 ());
    ("dlboost gemm 512x512x512 i8", D.dlboost, Op.gemm ~dt:Op.I8 ~m:512 ~n:512 ~k:512 ());
    ("vta gemm 256x256x256 i8", D.vta, Op.gemm ~dt:Op.I8 ~m:256 ~n:256 ~k:256 ());
  ]

(* Print one batch: how many problems were solved, the MD5 of the
   solution keys in order ("-" for an unsolved problem) and the counter
   deltas over [f]. *)
let batch label f =
  let c0 = counters () in
  let sols = f () in
  let deltas = List.map2 ( - ) (counters ()) c0 in
  let keys = List.map (function Some a -> Assignment.key a | None -> "-") sols in
  Printf.printf "  %s: solved %d/%d md5 %s" label
    (List.length (List.filter Option.is_some sols))
    (List.length sols)
    (Digest.to_hex (Digest.string (String.concat "\n" keys)));
  List.iter2 (fun name d -> Printf.printf " %s %d" name d) pinned deltas;
  print_newline ();
  List.filter_map Fun.id sols

let () =
  List.iteri
    (fun i (name, desc, op) ->
      let generated = (Heron.Generator.generate desc op).Heron.Generator.problem in
      (* A physically fresh copy, so the compiled-template cache starts
         cold and the root propagation is counted here. *)
      let p =
        Problem.of_parts
          (List.map (fun v -> (v, Problem.domain generated v)) (Array.to_list (Problem.vars generated)))
          (Problem.constraints generated)
      in
      let keys = List.filteri (fun j _ -> j < 4) (Problem.vars_of_category generated Tunable) in
      print_endline name;
      let draws =
        batch "rand_sat 16" (fun () ->
            List.map Option.some (Solver.rand_sat (Rng.create (10 + i)) p 16))
      in
      let offspring =
        Heron_search.Cga.crossover_csps (Rng.create (20 + i)) p ~keys
          ~parents:(Array.of_list draws) ~n:32
      in
      ignore (batch "solve_all 32" (fun () -> Solver.solve_all (Rng.create (30 + i)) offspring)))
    spaces
