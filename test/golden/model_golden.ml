(* Model and checkpoint golden fixture: three fixed-seed tuning runs, each
   writing a checkpoint at every iteration, as `Pipeline.tune ~checkpoint`
   does. For each run it prints the number of writes, an MD5 of every
   checkpoint's bytes in write order, the best latency and the final cost
   model's feature importance (floats as %h). `dune runtest` diffs the
   output against model.expected; an intentional change is re-baselined
   with `dune promote` and reviewed in the diff.

   The cost model is refitted after every measured batch and ranks every
   offspring, so a fit that moves one split moves the search and with it
   the checkpoints; the importance pins the gains of the last fit. The
   int8 runs measure 600 configurations, which fills the model's 512-row
   training window, so the last fits run on full windows.

   [Pipeline.tune] writes its checkpoints from inside the run, so the
   fixture runs the same steps itself — the generated space,
   [Pipeline.make_env], [Cga.run] and one [Checkpoint.writer] labelled
   with [Pipeline.run_label] — and reads the file back after each write.
   The last line checks that [Pipeline.tune ~checkpoint] leaves the same
   final file on the V100 run. *)

module Op = Heron_tensor.Op
module D = Heron_dla.Descriptor
module Cga = Heron_search.Cga
module Checkpoint = Heron_search.Checkpoint
module Model = Heron_cost.Model
module Pipeline = Heron.Pipeline
module Generator = Heron.Generator

let seed = 42
let read path = In_channel.with_open_bin path In_channel.input_all

let tune ~path desc op ~budget =
  let gen = Generator.generate ~seed desc op in
  let env = Pipeline.make_env ~seed desc gen in
  let w =
    Checkpoint.writer ~path ~label:(Pipeline.run_label desc op ~budget ~seed ~faults:None)
  in
  let writes = ref 0 and bytes = Buffer.create (1 lsl 20) in
  let outcome =
    Cga.run
      ~on_snapshot:(fun s ->
        Checkpoint.write w s;
        incr writes;
        Buffer.add_string bytes (read path))
      env ~budget
  in
  (outcome, !writes, Digest.to_hex (Digest.string (Buffer.contents bytes)))

let run path (name, desc, op, budget) =
  let outcome, writes, md5 = tune ~path desc op ~budget in
  Printf.printf "%s budget %d: writes %d md5 %s best %s\n" name budget writes md5
    (match outcome.Cga.result.Heron_search.Env.best_latency with
    | None -> "none"
    | Some l -> Printf.sprintf "%h" l);
  List.iter (fun (v, g) -> Printf.printf "  %s %h\n" v g) (Model.importance outcome.Cga.model)

let g1 = Op.gemm ~m:1024 ~n:1024 ~k:1024 ()

let () =
  let path = Filename.temp_file "heron_model_golden" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter (run path)
        [
          ("dlboost gemm 512x512x512 i8", D.dlboost, Op.gemm ~dt:Op.I8 ~m:512 ~n:512 ~k:512 (), 600);
          ("vta gemm 256x256x256 i8", D.vta, Op.gemm ~dt:Op.I8 ~m:256 ~n:256 ~k:256 (), 600);
          ("v100 gemm 1024x1024x1024 f16", D.v100, g1, 64);
        ];
      let last = read path in
      ignore (Pipeline.tune ~budget:64 ~seed ~checkpoint:path D.v100 g1);
      Printf.printf "Pipeline.tune final checkpoint equals the last write: %b\n" (read path = last))
