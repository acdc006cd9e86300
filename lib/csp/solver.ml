module Rng = Heron_util.Rng
module Obs = Heron_obs.Obs

(* Global observability counters, alongside the per-search [stats] record:
   [stats] feeds experiment tables, counters feed --metrics/--trace.
   Atomic increments only — totals are deterministic for any pool size
   because the work itself is (per-task split generators) and compile-cache
   lookups happen only in sequential caller code. *)
let c_revise = Obs.Counter.make "solver.revise"
let c_propagate = Obs.Counter.make "solver.propagate_rounds"
let c_wipeouts = Obs.Counter.make "solver.wipeouts"
let c_nodes = Obs.Counter.make "solver.nodes"
let c_fails = Obs.Counter.make "solver.fails"
let c_restarts = Obs.Counter.make "solver.restarts"
let c_solve = Obs.Counter.make "solver.solve_calls"
let c_draws = Obs.Counter.make "solver.rand_sat_draws"
let c_compiles = Obs.Counter.make "solver.compiles"
let c_cache_hits = Obs.Counter.make "solver.compile_cache_hits"
let c_trail = Obs.Counter.make "solver.trail_pushes"
let c_support = Obs.Counter.make "solver.support_checks"

type stats = { mutable nodes : int; mutable fails : int; mutable restarts : int }

let fresh_stats () = { nodes = 0; fails = 0; restarts = 0 }

(* Compiled, id-based constraint form. *)
type ic =
  | CProd of int * int array
  | CSum of int * int array
  | CEq of int * int
  | CLe of int * int
  | CIn of int * Domain.t
  | CSel of int * int * int array * bool  (* v, u, sources, idempotent *)

(* Binary exact-support threshold: domains in our templates are small, so
   exact pruning of v = a*b / v = a+b is affordable and much stronger than
   bounds reasoning. Set to 0 to fall back to pure bounds reasoning (the
   propagation-strength ablation). *)
let default_exact_limit = 10_000

(* Where variable [i]'s live domain lives: a slice of [nw] words at word
   offset [off] of the engine's flat store, bit b meaning [values.(b)] is
   still live. [values] is the frozen initial domain — search only ever
   removes values, so it is a universe for the whole search tree — and
   [ix] maps a value to its position in it. *)
type layout = { values : int array; ix : Bitdom.index; off : int; nw : int }

type compiled = {
  names : string array;
  ids : (string, int) Hashtbl.t;
  ics : ic array;
  watchers : int array array;  (* var id -> constraint ids *)
  cls : int array;  (* constraint id -> cost class, cheapest 0 *)
  seg : int array;  (* class -> first queue slot; seg.(ncls) = nc *)
  exact_limit : int;  (* binary exact-support threshold for PROD/SUM *)
  layouts : layout array;
  total_words : int;
  max_nw : int;  (* widest single-variable slice, sizes filter scratch *)
  max_arity : int;
  nvars : int;
  nc : int;
  (* Root fixpoint, computed once at compile time: the initial domains
     propagated to quiescence under the problem's own constraints. Every
     search and every incremental extension starts from a blit of this.
     Mutable only because it is produced by running the engine right
     after the record is built. *)
  mutable root_words : int array;
  mutable root_ok : bool;
}

(* One backtracking engine: flat live-domain store, an undo trail of
   (flat word index, old word) pairs, and reusable propagation scratch.
   Allocated once per solve/draw and reused across every node of that
   search — the per-node [Array.copy doms] of the old engine is gone. *)
type engine = {
  cp : compiled;
  store : int array;
  mutable tr_idx : int array;
  mutable tr_old : int array;
  mutable tr_len : int;
  mutable trailing : bool;  (* root/extras propagation runs untrailed *)
  mutable trail_pushed : int;  (* local tally, flushed to c_trail once *)
  in_queue : bool array;
  queue : int array;  (* nc slots, one FIFO ring segment per class *)
  q_head : int array;  (* class -> slot of its oldest entry *)
  q_len : int array;  (* class -> entries queued *)
  mutable q_mask : int;  (* bit r set iff class r is non-empty *)
  scratch : int array;  (* filter build area, committed after the scan *)
  scratch2 : int array;  (* exact-support masks: a's (distinct) or v's (aliased) *)
  scratch3 : int array;  (* exact-support mask over b's universe *)
  mutable support_checks : int;  (* local tally, flushed to c_support once *)
  mutable changed : int array;  (* vars changed by the current revise *)
  mutable n_changed : int;
  lo_buf : int array;  (* n-ary operand bound snapshots *)
  hi_buf : int array;
  suf_lo : int array;
  suf_hi : int array;
}

let make_engine cp start =
  let store = Array.make cp.total_words 0 in
  Array.blit start 0 store 0 cp.total_words;
  {
    cp;
    store;
    tr_idx = Array.make 64 0;
    tr_old = Array.make 64 0;
    tr_len = 0;
    trailing = false;
    trail_pushed = 0;
    in_queue = Array.make (Int.max cp.nc 1) false;
    queue = Array.make (Int.max cp.nc 1) 0;
    q_head = Array.sub cp.seg 0 (Array.length cp.seg - 1);
    q_len = Array.make (Array.length cp.seg - 1) 0;
    q_mask = 0;
    scratch = Array.make (Int.max cp.max_nw 1) 0;
    scratch2 = Array.make (Int.max cp.max_nw 1) 0;
    scratch3 = Array.make (Int.max cp.max_nw 1) 0;
    support_checks = 0;
    changed = Array.make 16 0;
    n_changed = 0;
    lo_buf = Array.make (cp.max_arity + 1) 0;
    hi_buf = Array.make (cp.max_arity + 1) 0;
    suf_lo = Array.make (cp.max_arity + 2) 0;
    suf_hi = Array.make (cp.max_arity + 2) 0;
  }

let finish_engine e =
  Obs.Counter.add c_trail e.trail_pushed;
  Obs.Counter.add c_support e.support_checks;
  e.trail_pushed <- 0;
  e.support_checks <- 0

let write_word e fi w =
  if e.store.(fi) <> w then begin
    if e.trailing then begin
      if e.tr_len = Array.length e.tr_idx then begin
        let cap = 2 * Array.length e.tr_idx in
        let idx = Array.make cap 0 and old = Array.make cap 0 in
        Array.blit e.tr_idx 0 idx 0 e.tr_len;
        Array.blit e.tr_old 0 old 0 e.tr_len;
        e.tr_idx <- idx;
        e.tr_old <- old
      end;
      e.tr_idx.(e.tr_len) <- fi;
      e.tr_old.(e.tr_len) <- e.store.(fi);
      e.tr_len <- e.tr_len + 1;
      e.trail_pushed <- e.trail_pushed + 1
    end;
    e.store.(fi) <- w
  end

let undo_to e mark =
  for i = e.tr_len - 1 downto mark do
    e.store.(e.tr_idx.(i)) <- e.tr_old.(i)
  done;
  e.tr_len <- mark

let push_changed e v =
  if e.n_changed = Array.length e.changed then begin
    let bigger = Array.make (2 * Array.length e.changed) 0 in
    Array.blit e.changed 0 bigger 0 e.n_changed;
    e.changed <- bigger
  end;
  e.changed.(e.n_changed) <- v;
  e.n_changed <- e.n_changed + 1

(* Live-domain reads. All mirror the sorted-array semantics exactly:
   ascending order, [Invalid_argument] on empty bounds. *)

let d_size e v =
  let l = e.cp.layouts.(v) in
  Bitdom.popcount e.store ~off:l.off ~nw:l.nw

let d_min e v =
  let l = e.cp.layouts.(v) in
  match Bitdom.min_bit e.store ~off:l.off ~nw:l.nw with
  | -1 -> invalid_arg "Solver.d_min: empty domain"
  | b -> l.values.(b)

let d_max e v =
  let l = e.cp.layouts.(v) in
  match Bitdom.max_bit e.store ~off:l.off ~nw:l.nw with
  | -1 -> invalid_arg "Solver.d_max: empty domain"
  | b -> l.values.(b)

let d_mem e v x =
  let l = e.cp.layouts.(v) in
  let i = Bitdom.position l.ix x in
  i >= 0 && Bitdom.mem_bit e.store ~off:l.off i

let d_iter e v f =
  let l = e.cp.layouts.(v) in
  Bitdom.iter_bits (fun b -> f l.values.(b)) e.store ~off:l.off ~nw:l.nw

let d_exists e v p =
  let l = e.cp.layouts.(v) in
  let found = ref false in
  (try
     Bitdom.iter_bits
       (fun b -> if p l.values.(b) then begin
          found := true;
          raise Exit
        end)
       e.store ~off:l.off ~nw:l.nw
   with Exit -> ());
  !found

let d_value e v = if d_size e v = 1 then Some (d_min e v) else None

let live_values e v =
  let l = e.cp.layouts.(v) in
  let n = Bitdom.popcount e.store ~off:l.off ~nw:l.nw in
  let out = Array.make n 0 in
  let k = ref 0 in
  Bitdom.iter_bits
    (fun b ->
      out.(!k) <- l.values.(b);
      incr k)
    e.store ~off:l.off ~nw:l.nw;
  out

exception Wipeout

(* Commit discipline: every revise builds a variable's new live set in
   scratch while reading only committed state, then commits in one pass.
   This reproduces the old [Domain.filter] + [set_dom] live-read
   sequencing exactly, which the aliasing regression tests (v = x * v)
   depend on. Raises [Wipeout] before writing anything if the result is
   empty, like [set_dom] did.

   No revise ever sees an empty domain: a template with an empty universe
   is refuted at compile time, and a commit never writes an empty set.

   Every revise returns whether it is idempotent on the branch it took —
   whether it reached its own fixpoint in one pass, so that running it
   again at once would change nothing. [run_queue] then skips its own
   re-queue. *)
let commit_from_scratch e v buf =
  let l = e.cp.layouts.(v) in
  if Bitdom.is_empty_slice buf ~off:0 ~nw:l.nw then raise Wipeout;
  let any = ref false in
  for wi = 0 to l.nw - 1 do
    let fi = l.off + wi in
    if e.store.(fi) <> buf.(wi) then begin
      any := true;
      write_word e fi buf.(wi)
    end
  done;
  if !any then push_changed e v

let commit_filter e v p =
  let l = e.cp.layouts.(v) in
  Bitdom.filter p e.store ~off:l.off ~nw:l.nw l.values e.scratch;
  commit_from_scratch e v e.scratch

(* Keep v's live values in [lo, hi]. The universe is sorted, so they are
   the live bits of one position range: one AND per word commits exactly
   what a per-value filter would. *)
let commit_range e v lo hi =
  let l = e.cp.layouts.(v) in
  Bitdom.mask_range e.store ~off:l.off ~nw:l.nw (Bitdom.count_lt l.values lo)
    (Bitdom.count_le l.values hi) e.scratch;
  commit_from_scratch e v e.scratch

(* v = x (unary PROD/SUM and CEq): intersect both with the other. The
   second filter reads the already-narrowed first, so both end at the
   intersection, exactly like the old shared [Domain.inter]. Idempotent:
   both sides already equal the intersection. *)
let revise_eq e a b =
  commit_filter e a (fun x -> d_mem e b x);
  commit_filter e b (fun x -> d_mem e a x);
  true

(* a <= b. A side whose bound already holds is left alone. Idempotent:
   [max b] survives the second filter, because [b >= min a] keeps it once
   the first has made [min a <= max b]. *)
let revise_le e a b =
  let hi = d_max e b in
  if d_max e a > hi then commit_range e a min_int hi;
  let lo = d_min e a in
  if d_min e b < lo then commit_range e b lo max_int;
  true

(* Idempotent: an intersection with a constant set. *)
let revise_in e v cs =
  commit_filter e v (fun x -> Domain.mem x cs);
  true

(* Idempotent when [v <> u] and neither is a source ([idem], decided at
   compile time): every kept index still meets the narrowed [v], and the
   singleton step leaves [v] and its source equal. Otherwise narrowing
   one occurrence changes what another supports, so a second pass can
   narrow [u] again. *)
let revise_sel e v u vs idem =
  let n = Array.length vs in
  (* Index domain: valid positions whose source still intersects v. *)
  commit_filter e u (fun i -> i >= 0 && i < n && d_exists e v (fun x -> d_mem e vs.(i) x));
  (* v must lie in the union of the still-selectable sources. *)
  commit_filter e v (fun x -> d_exists e u (fun i -> d_mem e vs.(i) x));
  (match d_value e u with
  | Some i ->
      commit_filter e v (fun x -> d_mem e vs.(i) x);
      commit_filter e vs.(i) (fun x -> d_mem e v x)
  | None -> ());
  idem

(* Generic bounds propagation for v = fold op over vs, with op monotone
   and all domains non-negative. [inv_lo]/[inv_hi] compute the bounds of
   one operand given bounds of v and the aggregate of the others.

   Operand bounds are snapshotted once and combined through prefix/suffix
   aggregates, making the revise O(k) instead of the old O(k^2) rescan.
   The snapshot can be stale for operands narrowed earlier in this same
   revise; that only weakens individual prunings (still sound), and the
   constraint re-enters the queue whenever one of its variables changes,
   so the propagation fixpoint — where snapshot and live bounds agree —
   is identical to the old engine's. The same staleness makes it not
   idempotent, so it keeps its own re-queue. *)
let revise_nary e v vs ~identity ~op ~inv_lo ~inv_hi =
  let k = Array.length vs in
  for i = 0 to k - 1 do
    e.lo_buf.(i) <- d_min e vs.(i);
    e.hi_buf.(i) <- d_max e vs.(i)
  done;
  let lo_all = ref identity and hi_all = ref identity in
  for i = 0 to k - 1 do
    lo_all := op !lo_all e.lo_buf.(i);
    hi_all := op !hi_all e.hi_buf.(i)
  done;
  commit_range e v !lo_all !hi_all;
  let v_lo = d_min e v and v_hi = d_max e v in
  e.suf_lo.(k) <- identity;
  e.suf_hi.(k) <- identity;
  for i = k - 1 downto 0 do
    e.suf_lo.(i) <- op e.lo_buf.(i) e.suf_lo.(i + 1);
    e.suf_hi.(i) <- op e.hi_buf.(i) e.suf_hi.(i + 1)
  done;
  let pre_lo = ref identity and pre_hi = ref identity in
  for i = 0 to k - 1 do
    let others_lo = op !pre_lo e.suf_lo.(i + 1) in
    let others_hi = op !pre_hi e.suf_hi.(i + 1) in
    commit_range e vs.(i) (inv_lo v_lo others_hi) (inv_hi v_hi others_lo);
    pre_lo := op !pre_lo e.lo_buf.(i);
    pre_hi := op !pre_hi e.hi_buf.(i)
  done;
  false

(* Exact binary support pruning for v = a op b, where op is [*] or [+].
   Domains are non-negative (an engine-wide assumption, see
   [revise_nary]), so for a fixed [x] the results [x op y] ascend with
   [y]. Each result is looked up in v's universe index, O(1), and then
   tested against v's live bits. *)

(* Aliased operands (v = x * x, v = x + v): mark which of v's universe
   values are a product (resp. sum) of live (a, b) pairs into scratch2,
   AND it into v, then keep only supported values of a and b. Every step
   reads the live store — filtering a stale snapshot can resurrect values
   pruned moments earlier, making the fixpoint oscillate forever (e.g.
   v = x * v with 0 in both domains). Not idempotent: committing one
   occurrence of a variable changes what the other occurrence supports. *)
let revise_exact_aliased e v a b combine =
  let lv = e.cp.layouts.(v) in
  Array.fill e.scratch2 0 lv.nw 0;
  d_iter e a (fun x ->
      d_iter e b (fun y ->
          e.support_checks <- e.support_checks + 1;
          let i = Bitdom.position lv.ix (combine x y) in
          if i >= 0 then Bitdom.set_bit e.scratch2 i));
  for wi = 0 to lv.nw - 1 do
    e.scratch.(wi) <- e.store.(lv.off + wi) land e.scratch2.(wi)
  done;
  commit_from_scratch e v e.scratch;
  let supported x y =
    e.support_checks <- e.support_checks + 1;
    d_mem e v (combine x y)
  in
  commit_filter e a (fun x -> d_exists e b (fun y -> supported x y));
  commit_filter e b (fun y -> d_exists e a (fun x -> supported x y));
  false

(* Live values (ascending) and their universe indices, gathered by exact
   revises. A revise runs to completion on one domain, so one pair of
   buffers per domain, grown on demand, serves every engine: a pair per
   engine would be thousands of words of major-heap garbage per solve. *)
type live = { mutable vals : int array; mutable idx : int array }

let live_key = Stdlib.Domain.DLS.new_key (fun () -> { vals = [||]; idx = [||] })

(* Three distinct variables: gather the live values of b and a once,
   then one pass over the live x of a fills the support masks of v
   (scratch), a (scratch2) and b (scratch3) together, and v, a and b are
   committed in that order. This equals the aliased path's three
   live-read passes: a pair whose result is live in v before v is
   narrowed is still live after (the narrowing keeps exactly the
   supported results), and any x that supports some y is itself kept —
   so support against the pre-commit domains is what the live reads
   would see. Same masks, same commit order, same wipeout points.

   For each x, [Bitdom.walk] visits the live y of b from [ceil(vmin / x)]
   (resp. [vmin - x]) up to the first y whose result passes [vmax]. That
   start only moves down as x ascends, so one cursor finds it. A product
   with x = 0 needs no walk: 0 * y = 0 for every y.

   Idempotent: every kept value keeps the witness pair that kept it. *)
let revise_exact_distinct e v a b ~prod =
  let cp = e.cp in
  let lv = cp.layouts.(v) and la = cp.layouts.(a) and lb = cp.layouts.(b) in
  let st = e.store in
  let nb = Bitdom.popcount st ~off:lb.off ~nw:lb.nw
  and na = Bitdom.popcount st ~off:la.off ~nw:la.nw in
  let live = Stdlib.Domain.DLS.get live_key in
  if nb + na > Array.length live.vals then begin
    let cap = Int.max (nb + na) (2 * Array.length live.vals) in
    live.vals <- Array.make cap 0;
    live.idx <- Array.make cap 0
  end;
  let vals = live.vals and idx = live.idx in
  (* b at [0, nb), a at [nb, nb + na) *)
  Bitdom.gather st ~off:lb.off ~nw:lb.nw lb.values vals idx 0;
  Bitdom.gather st ~off:la.off ~nw:la.nw la.values vals idx nb;
  let sup_v = e.scratch and sup_a = e.scratch2 and sup_b = e.scratch3 in
  Array.fill sup_v 0 lv.nw 0;
  Array.fill sup_a 0 la.nw 0;
  Array.fill sup_b 0 lb.nw 0;
  let imin = Bitdom.min_bit st ~off:lv.off ~nw:lv.nw in
  let vmin = lv.values.(imin) and vmax = lv.values.(Bitdom.max_bit st ~off:lv.off ~nw:lv.nw) in
  let j0 = ref nb in
  for j = nb to nb + na - 1 do
    let x = vals.(j) in
    if prod && x = 0 then begin
      (* 0 is live in v iff it is v's least live value. *)
      e.support_checks <- e.support_checks + 1;
      if vmin = 0 then begin
        Bitdom.set_bit sup_v imin;
        Array.blit st lb.off sup_b 0 lb.nw;
        Bitdom.set_bit sup_a idx.(j)
      end
    end
    else begin
      let y0 = if prod then (vmin + x - 1) / x else vmin - x in
      while !j0 > 0 && vals.(!j0 - 1) >= y0 do
        decr j0
      done;
      e.support_checks <-
        e.support_checks
        + Bitdom.walk ~prod lv.ix st ~off:lv.off ~vmax vals idx ~x ~xi:idx.(j) ~from:!j0 ~stop:nb
            sup_v sup_a sup_b
    end
  done;
  commit_from_scratch e v sup_v;
  commit_from_scratch e a sup_a;
  commit_from_scratch e b sup_b;
  true

let revise_exact_binary e v a b ~prod =
  if v <> a && v <> b && a <> b then revise_exact_distinct e v a b ~prod
  else revise_exact_aliased e v a b (if prod then ( * ) else ( + ))

(* The exact path is chosen per revise, on the live sizes, so a bounds
   revise can be followed by an exact one on the narrowed domains: the
   bounds branch never reports itself idempotent. *)
let revise_prod e v vs =
  match vs with
  | [| x |] -> revise_eq e v x
  | [| a; b |] when d_size e a * d_size e b <= e.cp.exact_limit ->
      revise_exact_binary e v a b ~prod:true
  | _ ->
      revise_nary e v vs ~identity:1 ~op:( * )
        ~inv_lo:(fun v_lo others_hi -> if others_hi = 0 then 0 else (v_lo + others_hi - 1) / others_hi)
        ~inv_hi:(fun v_hi others_lo -> if others_lo = 0 then max_int else v_hi / others_lo)

let revise_sum e v vs =
  match vs with
  | [| x |] -> revise_eq e v x
  | [| a; b |] when d_size e a * d_size e b <= e.cp.exact_limit ->
      revise_exact_binary e v a b ~prod:false
  | _ ->
      revise_nary e v vs ~identity:0 ~op:( + )
        ~inv_lo:(fun v_lo others_hi -> v_lo - others_hi)
        ~inv_hi:(fun v_hi others_lo -> v_hi - others_lo)

let revise e = function
  | CProd (v, vs) -> revise_prod e v vs
  | CSum (v, vs) -> revise_sum e v vs
  | CEq (a, b) -> revise_eq e a b
  | CLe (a, b) -> revise_le e a b
  | CIn (v, cs) -> revise_in e v cs
  | CSel (v, u, vs, idem) -> revise_sel e v u vs idem

(* The queue pops the cheapest non-empty cost class first, FIFO inside a
   class. Class r's ring is the segment [seg.(r), seg.(r + 1)) of
   [queue], one slot per constraint of the class, so [in_queue] keeps it
   from overflowing. *)
let q_push e ci =
  if not e.in_queue.(ci) then begin
    e.in_queue.(ci) <- true;
    let seg = e.cp.seg and r = e.cp.cls.(ci) in
    let slot = e.q_head.(r) + e.q_len.(r) in
    e.queue.(if slot >= seg.(r + 1) then slot - seg.(r + 1) + seg.(r) else slot) <- ci;
    e.q_len.(r) <- e.q_len.(r) + 1;
    e.q_mask <- e.q_mask lor (1 lsl r)
  end

let q_pop e =
  let seg = e.cp.seg and r = Bitdom.lowest_bit_word e.q_mask in
  let h = e.q_head.(r) in
  let ci = e.queue.(h) in
  e.q_head.(r) <- (if h + 1 = seg.(r + 1) then seg.(r) else h + 1);
  e.q_len.(r) <- e.q_len.(r) - 1;
  if e.q_len.(r) = 0 then e.q_mask <- e.q_mask lxor (1 lsl r);
  e.in_queue.(ci) <- false;
  ci

let q_clear e =
  while e.q_mask <> 0 do
    ignore (q_pop e)
  done

(* Queue the constraints watching [v], except [skip] (a constraint id,
   or -1 for none). *)
let push_watchers e v skip =
  let ws = e.cp.watchers.(v) in
  for j = 0 to Array.length ws - 1 do
    if ws.(j) <> skip then q_push e ws.(j)
  done

(* Fixpoint propagation over whatever the caller queued. Returns [false]
   on wipeout, leaving the queue empty either way; partially committed
   words are the caller's to undo (trail) or discard.

   A revise that reports itself idempotent is not re-queued by its own
   writes: running it again would change nothing. Every other watcher of
   a changed variable is queued as before. Propagators are monotone, so
   the fixpoint reached does not depend on the queue order, and neither
   does anything search reads; only the intermediate writes, and so the
   trail, can differ. *)
let run_queue e =
  try
    while e.q_mask <> 0 do
      Obs.Counter.incr c_revise;
      let ci = q_pop e in
      e.n_changed <- 0;
      let skip = if revise e e.cp.ics.(ci) then ci else -1 in
      for k = 0 to e.n_changed - 1 do
        push_watchers e e.changed.(k) skip
      done
    done;
    Obs.Counter.incr c_propagate;
    true
  with Wipeout ->
    Obs.Counter.incr c_wipeouts;
    q_clear e;
    false

let compile ?(exact_limit = default_exact_limit) problem =
  Obs.Counter.incr c_compiles;
  let names = Problem.vars problem in
  let n = Array.length names in
  let ids = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace ids name i) names;
  let id name = Hashtbl.find ids name in
  let ics =
    Problem.constraints problem
    |> List.map (fun c ->
           match c with
           | Cons.Prod (v, vs) -> CProd (id v, Array.of_list (List.map id vs))
           | Cons.Sum (v, vs) -> CSum (id v, Array.of_list (List.map id vs))
           | Cons.Eq (a, b) -> CEq (id a, id b)
           | Cons.Le (a, b) -> CLe (id a, id b)
           | Cons.In (v, cs) -> CIn (id v, Domain.of_list cs)
           | Cons.Select (v, u, vs) ->
               let v = id v and u = id u and vs = Array.of_list (List.map id vs) in
               CSel (v, u, vs, v <> u && not (Array.mem v vs || Array.mem u vs)))
    |> Array.of_list
  in
  let cvars =
    Array.map
      (fun ic ->
        List.sort_uniq Int.compare
          (match ic with
          | CProd (v, vs) | CSum (v, vs) -> v :: Array.to_list vs
          | CEq (a, b) | CLe (a, b) -> [ a; b ]
          | CIn (v, _) -> [ v ]
          | CSel (v, u, vs, _) -> v :: u :: Array.to_list vs))
      ics
  in
  let watcher_lists = Array.make n [] in
  Array.iteri
    (fun ci vars -> List.iter (fun vid -> watcher_lists.(vid) <- ci :: watcher_lists.(vid)) vars)
    cvars;
  let layouts = Array.make n { values = [||]; ix = Bitdom.index [||]; off = 0; nw = 0 } in
  let off = ref 0 and max_nw = ref 1 in
  Array.iteri
    (fun i name ->
      let values = Domain.to_array (Problem.domain problem name) in
      let nw = Bitdom.nwords (Array.length values) in
      layouts.(i) <- { values; ix = Bitdom.index values; off = !off; nw };
      off := !off + nw;
      if nw > !max_nw then max_nw := nw)
    names;
  let max_arity =
    Array.fold_left
      (fun acc ic ->
        match ic with
        | CProd (_, vs) | CSum (_, vs) | CSel (_, _, vs, _) -> Int.max acc (Array.length vs)
        | _ -> acc)
      1 ics
  in
  (* Cost class: ceil(log2) of the total universe size of a constraint's
     variables, ranked densely so the cheapest class present is 0. The
     totals are far below 2^61, so every rank is a bit of one 62-bit
     queue mask. *)
  let cost =
    Array.map
      (fun vars ->
        let total = List.fold_left (fun acc v -> acc + Array.length layouts.(v).values) 0 vars in
        let k = ref 0 in
        while 1 lsl !k < total do
          incr k
        done;
        !k)
      cvars
  in
  let ranks = List.sort_uniq Int.compare (Array.to_list cost) in
  let cls = Array.map (fun c -> List.length (List.filter (fun r -> r < c) ranks)) cost in
  let seg = Array.make (List.length ranks + 1) 0 in
  Array.iter (fun r -> seg.(r + 1) <- seg.(r + 1) + 1) cls;
  for r = 1 to List.length ranks do
    seg.(r) <- seg.(r) + seg.(r - 1)
  done;
  let cp =
    {
      names;
      ids;
      ics;
      watchers = Array.map (fun l -> Array.of_list l) watcher_lists;
      cls;
      seg;
      exact_limit;
      layouts;
      total_words = !off;
      max_nw = !max_nw;
      max_arity;
      nvars = n;
      nc = Array.length ics;
      root_words = [||];
      root_ok = false;
    }
  in
  let start = Array.make cp.total_words 0 in
  Array.iter
    (fun l -> Bitdom.fill start ~off:l.off ~n:(Array.length l.values))
    layouts;
  let e = make_engine cp start in
  (* An empty universe refutes the template before any revise: no revise
     ever reads an empty domain. *)
  if Array.exists (fun l -> Array.length l.values = 0) layouts then Obs.Counter.incr c_wipeouts
  else begin
    for ci = 0 to cp.nc - 1 do
      q_push e ci
    done;
    cp.root_ok <- run_queue e
  end;
  finish_engine e;
  cp.root_words <- e.store;
  cp

(* Compiled-template cache, keyed by problem physical identity and exact
   limit. CGA offspring all decompose to the same base problem, so one
   compile (and one root propagation) serves a whole tuning run. The
   mutex makes concurrent access safe, but for deterministic
   [solver.compile_cache_hits] totals all our entry points consult the
   cache from sequential caller code only — never inside pool tasks. *)
let cache_cap = 8
let cache : (Problem.t * int * compiled) list ref = ref []
let cache_mutex = Mutex.create ()

let compile_cached ~exact_limit problem =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) @@ fun () ->
  let rec find acc = function
    | [] -> None
    | ((p, el, cp) as entry) :: rest ->
        if p == problem && el = exact_limit then Some (entry, cp, List.rev_append acc rest)
        else find (entry :: acc) rest
  in
  match find [] !cache with
  | Some (entry, cp, rest) ->
      Obs.Counter.incr c_cache_hits;
      cache := entry :: rest;
      cp
  | None ->
      let cp = compile ~exact_limit problem in
      cache := List.filteri (fun i _ -> i < cache_cap) ((problem, exact_limit, cp) :: !cache);
      cp

let is_in_cons = function Cons.In _ -> true | _ -> false

type restriction = int * int array

(* Narrow a fresh engine's store by [rs], in list order: each restriction
   is a word mask over its variable's universe (the [Bitdom.position] of
   each value), ANDed into the live words and committed like any filter.
   Then the constraints watching a changed variable propagate. An [In]
   filter is a one-shot intersection — once applied it stays satisfied
   as domains shrink — so restrictions never join the watcher graph.
   Runs untrailed: the narrowed store is the start of every search in
   this engine. [false] on wipeout. *)
let restrict e rs =
  try
    e.n_changed <- 0;
    List.iter
      (fun (v, values) ->
        let l = e.cp.layouts.(v) and mask = e.scratch in
        Array.fill mask 0 l.nw 0;
        for k = 0 to Array.length values - 1 do
          let i = Bitdom.position l.ix values.(k) in
          if i >= 0 then Bitdom.set_bit mask i
        done;
        for wi = 0 to l.nw - 1 do
          mask.(wi) <- mask.(wi) land e.store.(l.off + wi)
        done;
        commit_from_scratch e v mask)
      rs;
    for k = 0 to e.n_changed - 1 do
      push_watchers e e.changed.(k) (-1)
    done;
    run_queue e
  with Wipeout ->
    Obs.Counter.incr c_wipeouts;
    q_clear e;
    false

(* A fresh engine at [cp]'s root fixpoint narrowed by [rs], or [None]
   when propagation refutes the root or the restrictions. *)
let restricted_engine cp rs =
  if not cp.root_ok then None
  else begin
    let e = make_engine cp cp.root_words in
    if rs = [] || restrict e rs then Some e
    else begin
      finish_engine e;
      None
    end
  end

(* Callers pass [In] extras only. *)
let restriction_of cp = function
  | Cons.In (v, cs) -> (Hashtbl.find cp.ids v, Domain.to_array (Domain.of_list cs))
  | _ -> assert false

(* [root]'s cached template, narrowed by [extras] (all [In] constraints)
   in application order and then by [rs]. *)
let plan_in ~exact_limit root extras rs =
  let cp = compile_cached ~exact_limit root in
  (cp, List.map (restriction_of cp) extras @ rs)

(* What a search of [problem] starts from: a compiled template and the
   restrictions that narrow its root fixpoint. [Problem.with_extra]
   offspring whose extras are all [In] constraints share their base's
   cached template, the extras becoming restrictions in application
   order; the result is the fixpoint a full compile would reach. Other
   extended problems are compiled outright and, being one-shot, do not
   enter the cache. *)
let plan ~exact_limit problem =
  let root, extras = Problem.decompose problem in
  if List.for_all is_in_cons extras then plan_in ~exact_limit root extras []
  else (compile ~exact_limit problem, [])

(* Resolve a problem to (compiled template, start words), or [None] when
   propagation alone refutes it: the shared start of several searches. *)
let prepare ?(exact_limit = default_exact_limit) problem =
  match plan ~exact_limit problem with
  | cp, [] -> if cp.root_ok then Some (cp, cp.root_words) else None
  | cp, rs -> (
      match restricted_engine cp rs with
      | None -> None
      | Some e ->
          finish_engine e;
          Some (cp, e.store))

let extract_values e =
  let out = Array.make e.cp.nvars 0 in
  for i = 0 to e.cp.nvars - 1 do
    if d_size e i <> 1 then invalid_arg "Solver.extract: non-singleton domain";
    out.(i) <- d_min e i
  done;
  out

let extract e = Assignment.of_values e.cp.names (extract_values e)

exception Give_up

(* Branching: make [x] the only live value of [vid], trailed. *)
let assign e vid x =
  let l = e.cp.layouts.(vid) in
  Bitdom.singleton e.scratch ~nw:l.nw (Bitdom.position l.ix x);
  for wi = 0 to l.nw - 1 do
    write_word e (l.off + wi) e.scratch.(wi)
  done

(* Stable move-to-front: same ordering as consing the bias value onto the
   shuffled list with the old engine. *)
let move_to_front values x =
  let j = ref (-1) in
  Array.iteri (fun i v -> if !j < 0 && v = x then j := i) values;
  let j = !j in
  if j > 0 then begin
    for i = j downto 1 do
      values.(i) <- values.(i - 1)
    done;
    values.(0) <- x
  end

(* Unified randomized DFS: [search_biased] of the old engine is the
   [?bias] case. Branching singletons and every propagation write are
   trail-recorded; a failed branch is undone by rewinding to its mark.
   [true] when a solution was found: it is left in the engine, every
   domain a singleton, for [extract] or [extract_values] to read. *)
let search ?(max_fails = 4000) ?bias ~stats rng e =
  let cp = e.cp in
  let fails = ref 0 in
  let pick_var () =
    (* Smallest open domain, random tie-break. *)
    let best = ref (-1) and best_size = ref max_int and ties = ref 0 in
    for i = 0 to cp.nvars - 1 do
      let s = d_size e i in
      if s > 1 then
        if s < !best_size then begin
          best := i;
          best_size := s;
          ties := 1
        end
        else if s = !best_size then begin
          incr ties;
          if Rng.int rng !ties = 0 then best := i
        end
    done;
    if !best < 0 then None else Some !best
  in
  let rec dfs () =
    stats.nodes <- stats.nodes + 1;
    Obs.Counter.incr c_nodes;
    match pick_var () with
    | None -> true
    | Some vid ->
        let values = live_values e vid in
        Rng.shuffle rng values;
        (match bias with
        | Some b -> (
            match Assignment.find_opt b cp.names.(vid) with
            | Some v when d_mem e vid v -> move_to_front values v
            | _ -> ())
        | None -> ());
        let rec try_values i =
          if i >= Array.length values then false
          else begin
            let mark = e.tr_len in
            assign e vid values.(i);
            push_watchers e vid (-1);
            if run_queue e && dfs () then true
            else begin
              undo_to e mark;
              stats.fails <- stats.fails + 1;
              Obs.Counter.incr c_fails;
              incr fails;
              if !fails > max_fails then raise Give_up;
              try_values (i + 1)
            end
          end
        in
        try_values 0
  in
  try dfs () with Give_up -> false

(* Prepare and search in one engine: narrow [cp]'s root fixpoint by [rs]
   untrailed, then search it trailed. A restart rewinds the whole trail,
   which restores the narrowed start exactly. [out] reads the solution. *)
let solve_restricted ~max_fails ~max_restarts ~stats rng cp rs out =
  match restricted_engine cp rs with
  | None -> None
  | Some e ->
      e.trailing <- true;
      let rec attempt k =
        if k > max_restarts then None
        else begin
          if k > 0 then begin
            stats.restarts <- stats.restarts + 1;
            Obs.Counter.incr c_restarts;
            undo_to e 0
          end;
          if search ~max_fails ~stats rng e then Some (out e) else attempt (k + 1)
        end
      in
      let r = attempt 0 in
      finish_engine e;
      r

let solve ?(max_fails = 4000) ?(max_restarts = 8) ?(exact_limit = default_exact_limit) ?stats rng
    problem =
  Obs.Counter.incr c_solve;
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let cp, rs = plan ~exact_limit problem in
  solve_restricted ~max_fails ~max_restarts ~stats rng cp rs extract

(* Each draw runs on its own generator, split from the parent in index
   order before any search starts. Draw i is therefore a pure function of
   (parent state, i): executing the draws on a domain pool of any size —
   or sequentially — yields byte-identical solution lists. The template
   is prepared once here; each task only allocates its own engine, trailed
   from the start, so a failed attempt rewinds the whole trail. *)
let rand_sat_with out ?(max_fails = 4000) ?exact_limit ?pool rng problem n =
  if n <= 0 then []
  else
    match prepare ?exact_limit problem with
    | None -> []
    | Some (cp, start) ->
        let rngs = Rng.split_n rng n in
        let draw task_rng =
          Obs.Counter.incr c_draws;
          let stats = fresh_stats () in
          let e = make_engine cp start in
          e.trailing <- true;
          let rec go attempt =
            if attempt >= 3 then None
            else if search ~max_fails ~stats task_rng e then Some (out e)
            else begin
              undo_to e 0;
              go (attempt + 1)
            end
          in
          let r = go 0 in
          finish_engine e;
          r
        in
        Heron_util.Pool.map ?pool draw rngs |> Array.to_list |> List.filter_map Fun.id

let rand_sat ?max_fails ?exact_limit ?pool rng problem n =
  rand_sat_with extract ?max_fails ?exact_limit ?pool rng problem n

let rand_sat_values ?max_fails ?pool rng problem n =
  rand_sat_with extract_values ?max_fails ?pool rng problem n

(* Search a batch of plans on the pool, one engine per task, task [i] on
   [rngs.(i)]. The plans were made sequentially in the caller (one compile
   and root propagation per distinct base, cache hits for the rest). *)
let search_plans ~max_fails ~max_restarts ?pool rngs plans out =
  Heron_util.Pool.init ?pool (Array.length plans) (fun i ->
      let cp, rs = plans.(i) in
      solve_restricted ~max_fails ~max_restarts ~stats:(fresh_stats ()) rngs.(i) cp rs out)
  |> Array.to_list

(* Solve a batch of independent problems with per-task split generators;
   same determinism contract as {!rand_sat}. *)
let solve_all ?(max_fails = 4000) ?(max_restarts = 8) ?(exact_limit = default_exact_limit) ?pool
    rng problems =
  let arr = Array.of_list problems in
  let rngs = Rng.split_n rng (Array.length arr) in
  let plans =
    Array.map
      (fun p ->
        Obs.Counter.incr c_solve;
        plan ~exact_limit p)
      arr
  in
  search_plans ~max_fails ~max_restarts ?pool rngs plans extract

(* [solve_all] on the [with_extra] renderings of [children], without
   building them: each child's plan is the one [plan] makes for its
   rendering — the base's cached template narrowed by the base's own [In]
   extras, then by the child's restrictions. *)
let solve_children ~max_fails ~max_restarts ?pool rng problem children =
  let root, extras = Problem.decompose problem in
  if not (List.for_all is_in_cons extras) then
    invalid_arg "Solver.solve_children: the base carries an extra that is not an In constraint";
  let arr = Array.of_list children in
  let rngs = Rng.split_n rng (Array.length arr) in
  let plans =
    Array.map
      (fun rs ->
        Obs.Counter.incr c_solve;
        plan_in ~exact_limit:default_exact_limit root extras rs)
      arr
  in
  search_plans ~max_fails ~max_restarts ?pool rngs plans extract_values

let propagate_domains problem =
  match prepare problem with
  | None -> None
  | Some (cp, start) ->
      Some
        (Array.to_list
           (Array.mapi
              (fun i name ->
                let l = cp.layouts.(i) in
                let vals = ref [] in
                Bitdom.iter_bits
                  (fun b -> vals := l.values.(b) :: !vals)
                  start ~off:l.off ~nw:l.nw;
                (name, Domain.of_list (List.rev !vals)))
              cp.names))

let enumerate ?(limit = 10_000) problem =
  match prepare problem with
  | None -> []
  | Some (cp, start) ->
      let e = make_engine cp start in
      e.trailing <- true;
      let out = ref [] and count = ref 0 in
      let rec dfs () =
        if !count >= limit then ()
        else begin
          let open_var = ref (-1) in
          (try
             for i = 0 to cp.nvars - 1 do
               if d_size e i > 1 then begin
                 open_var := i;
                 raise Exit
               end
             done
           with Exit -> ());
          if !open_var < 0 then begin
            out := extract e :: !out;
            incr count
          end
          else begin
            let vid = !open_var in
            Array.iter
              (fun v ->
                let mark = e.tr_len in
                assign e vid v;
                push_watchers e vid (-1);
                if run_queue e then dfs ();
                undo_to e mark)
              (live_values e vid)
          end
        end
      in
      dfs ();
      finish_engine e;
      List.rev !out

let solve_biased ?(max_fails = 4000) rng problem bias =
  let stats = fresh_stats () in
  match prepare problem with
  | None -> None
  | Some (cp, start) ->
      let e = make_engine cp start in
      e.trailing <- true;
      let r = if search ~max_fails ~bias ~stats rng e then Some (extract e) else None in
      finish_engine e;
      r
