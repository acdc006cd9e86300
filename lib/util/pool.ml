module Obs = Heron_obs.Obs

(* Batch/task counters: totals are deterministic for any pool size (a batch
   of n tasks always counts n), while the caller/worker chunk split is
   scheduling-dependent and only describes utilization. *)
let c_batches = Obs.Counter.make "pool.batches"
let c_tasks = Obs.Counter.make "pool.tasks"
let c_chunks_caller = Obs.Counter.make "pool.chunks.caller"
let c_chunks_worker = Obs.Counter.make "pool.chunks.worker"
let g_jobs = Obs.Gauge.make "pool.jobs"

type t = {
  mutex : Mutex.t;
  cond : Condition.t;  (* new task queued, or shutdown requested *)
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  jobs : int;
}

let jobs t = t.jobs

(* Workers drain the queue even when a shutdown is pending, so in-flight
   batches always complete. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec get () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.stop then None
    else begin
      Condition.wait t.cond t.mutex;
      get ()
    end
  in
  let task = get () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
      (* Batches catch their own exceptions; a stray one must not kill the
         worker. *)
      (try task () with _ -> ());
      worker_loop t

let create ~domains =
  let jobs = max 1 domains in
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
      jobs;
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [body 0 .. body (n-1)] across the pool. Work is split into chunks a
   few times smaller than a fair share so stragglers rebalance; chunks are
   claimed from a shared atomic cursor by the caller and by one helper
   ticket per worker, so the caller always makes progress itself (this is
   what makes nested batches deadlock-free). Completion and failure state
   live in a per-batch mutex/condition, never in the pool-wide one. *)
let parallel_run t n body =
  if n > 0 then begin
    Obs.Counter.incr c_batches;
    Obs.Counter.add c_tasks n;
    if t.workers = [] then begin
      Obs.Counter.incr c_chunks_caller;
      for i = 0 to n - 1 do
        body i
      done
    end
    else begin
      let chunks = min n (t.jobs * 4) in
      let chunk_size = (n + chunks - 1) / chunks in
      let chunks = (n + chunk_size - 1) / chunk_size in
      let cursor = Atomic.make 0 in
      let bm = Mutex.create () and bc = Condition.create () in
      let completed = ref 0 in
      let failure = ref None in
      let run_chunk c =
        let lo = c * chunk_size in
        let hi = min (n - 1) (lo + chunk_size - 1) in
        let i = ref lo in
        (try
           while !i <= hi do
             body !i;
             incr i
           done
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock bm;
           (match !failure with
           | Some (j, _, _) when j <= !i -> ()
           | _ -> failure := Some (!i, e, bt));
           Mutex.unlock bm);
        Mutex.lock bm;
        incr completed;
        if !completed = chunks then Condition.broadcast bc;
        Mutex.unlock bm
      in
      let rec claim chunk_counter =
        let c = Atomic.fetch_and_add cursor 1 in
        if c < chunks then begin
          Obs.Counter.incr chunk_counter;
          run_chunk c;
          claim chunk_counter
        end
      in
      Mutex.lock t.mutex;
      List.iter (fun _ -> Queue.push (fun () -> claim c_chunks_worker) t.queue) t.workers;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      claim c_chunks_caller;
      Mutex.lock bm;
      while !completed < chunks do
        Condition.wait bc bm
      done;
      Mutex.unlock bm;
      match !failure with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let parallel_map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_run t n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_init t n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_run t n (fun i -> out.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) out
  end

let map ?pool f xs =
  match pool with None -> Array.map f xs | Some t -> parallel_map t f xs

let init ?pool n f =
  match pool with
  | None ->
      if n = 0 then [||]
      else begin
        let out = Array.make n (f 0) in
        for i = 1 to n - 1 do
          out.(i) <- f i
        done;
        out
      end
  | Some t -> parallel_init t n f

let default_pool = ref None

let set_default p =
  default_pool := p;
  Obs.Gauge.set g_jobs (match p with Some t -> float_of_int t.jobs | None -> 1.0)
let default () = !default_pool
let resolve = function Some _ as p -> p | None -> default ()

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let with_jobs jobs f =
  let jobs = max 1 jobs in
  if jobs = 1 then f None
  else
    with_pool ~domains:jobs (fun pool ->
        set_default (Some pool);
        Fun.protect ~finally:(fun () -> set_default None) (fun () -> f (Some pool)))
