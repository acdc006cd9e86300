module Concrete = Heron_sched.Concrete
module Hashing = Heron_util.Hashing
module Obs = Heron_obs.Obs

let c_runs = Obs.Counter.make "measure.runs"
let c_invalid = Obs.Counter.make "measure.invalid"

type t = {
  desc : Descriptor.t;
  reps : int;
  count : int Atomic.t;
  ctx : Perf_model.ctx option;
}

let create ?(reps = 3) ?op desc =
  { desc; reps; count = Atomic.make 0; ctx = Option.map (Perf_model.make_ctx desc) op }

let count t = Atomic.get t.count

(* The cached context applies only to programs of the operator it was built
   for; physical equality is the cheap sufficient check (generators reuse
   one [Op.t]). Either path produces the identical latency. *)
let model_latency t (prog : Heron_sched.Concrete.t) =
  match t.ctx with
  | Some ctx when Perf_model.op_of ctx == prog.Concrete.op -> Perf_model.latency_us_ctx ctx prog
  | _ -> Perf_model.latency_us t.desc prog

let run t prog =
  Atomic.incr t.count;
  Obs.Counter.incr c_runs;
  match Validate.check t.desc prog with
  | Error v ->
      Obs.Counter.incr c_invalid;
      Error v
  | Ok () ->
      let base = model_latency t prog in
      let key = Heron_csp.Assignment.key prog.Concrete.assignment in
      let total = ref 0.0 in
      for rep = 1 to t.reps do
        (* Per-repetition run-to-run noise, smaller than the configuration
           jitter already inside the model. *)
        let eps = Hashing.signed_unit (Printf.sprintf "%s#%d" key rep) in
        total := !total +. (base *. (1.0 +. (0.01 *. eps)))
      done;
      Ok (!total /. float_of_int t.reps)
