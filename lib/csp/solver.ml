module Rng = Heron_util.Rng
module Obs = Heron_obs.Obs

(* Global observability counters, alongside the per-search [stats] record:
   [stats] feeds experiment tables, counters feed --metrics/--trace.
   Totals are deterministic for any pool size because the work itself is
   (per-task split generators) and compile-cache lookups happen only in
   sequential caller code. The per-event counters (revises, propagation
   rounds, wipeouts, nodes, fails, trail pushes and support probes) are
   tallied in the engine and flushed once per search by [finish_engine],
   so the propagation and search loops make no atomic increment. *)
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
  | CIn of int * int array  (* v, the mask of v's universe values the set keeps *)
  | CSel of sel

(* v = vs.(u). The distinct sources [srcs], in order of first use, each
   with the mask over u's universe of the positions whose index value
   selects it: positions with no source (out of range) are in no mask. *)
and sel = {
  v : int;
  u : int;
  vs : int array;
  idem : bool;
  srcs : int array;
  picks : int array array;
}

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

(* A search's starting point: the live words and, per variable, the
   number of live values they hold. *)
type start = { words : int array; sizes : int array }

type compiled = {
  names : string array;
  ids : (string, int) Hashtbl.t;
  ics : ic array;
  watchers : int array array;  (* var id -> constraint ids *)
  cls : int array;  (* constraint id -> cost class, cheapest 0 *)
  seg : int array;  (* class -> first queue slot; seg.(ncls) = nc *)
  exact_limit : int;  (* binary exact-support threshold for PROD/SUM *)
  layouts : layout array;
  owner : int array;  (* flat word index -> the variable whose slice holds it *)
  total_words : int;
  max_nw : int;  (* widest single-variable slice, sizes filter scratch *)
  max_arity : int;
  nvars : int;
  nc : int;
  (* Constraint id -> its pair table, or [[||]]: see [tabulate]. Filled
     when the template is first reused, in sequential caller code. *)
  tabs : int array array;
  mutable tabulated : bool;
  (* Root fixpoint, computed once at compile time: the initial domains
     propagated to quiescence under the problem's own constraints. Every
     search and every incremental extension starts from a blit of this.
     Mutable only because it is produced by running the engine right
     after the record is built. *)
  mutable root : start;
  mutable root_ok : bool;
}

(* Buffers that one search at a time uses: the live values (ascending)
   and universe positions gathered by exact revises, and the DFS's stack
   of candidate values and their positions, node after node.
   A domain runs one search at a time, so one record per domain, grown on
   demand, serves every engine it makes: a set per engine would be
   thousands of words of major-heap garbage per template. *)
type bufs = {
  mutable vals : int array;
  mutable idx : int array;
  mutable cand : int array;
  mutable cand_bits : int array;
}

let bufs_key =
  Stdlib.Domain.DLS.new_key (fun () -> { vals = [||]; idx = [||]; cand = [||]; cand_bits = [||] })

(* One backtracking engine: flat live-domain store, the live count of
   each variable, an undo trail of (flat word index, old word) pairs, and
   reusable propagation scratch. A domain keeps its last engine and
   reuses it for the next search of the same template (see
   [engine_at]). *)
type engine = {
  cp : compiled;
  store : int array;
  sizes : int array;  (* var id -> live values in its slice *)
  mutable tr_idx : int array;
  mutable tr_old : int array;
  mutable tr_len : int;
  mutable trailing : bool;  (* root/extras propagation runs untrailed *)
  (* Local tallies of the per-event counters, flushed by [finish_engine]. *)
  mutable trail_pushed : int;
  mutable support_checks : int;
  mutable revises : int;
  mutable rounds : int;
  mutable wipeouts : int;
  mutable nodes : int;
  mutable fails : int;
  mutable search_fails : int;  (* fails of the current search, for [max_fails] *)
  in_queue : bool array;
  queue : int array;  (* nc slots, one FIFO ring segment per class *)
  q_head : int array;  (* class -> slot of its oldest entry *)
  q_len : int array;  (* class -> entries queued *)
  mutable q_mask : int;  (* bit r set iff class r is non-empty *)
  scratch : int array;  (* filter build area, committed after the scan *)
  scratch2 : int array;  (* exact-support masks: a's (distinct) or v's (aliased) *)
  scratch3 : int array;  (* exact-support mask over b's universe *)
  mutable changed : int array;  (* vars changed by the current revise *)
  mutable n_changed : int;
  lo_buf : int array;  (* n-ary operand bound snapshots *)
  hi_buf : int array;
  suf_lo : int array;
  suf_hi : int array;
  bufs : bufs;
}

let make_engine cp =
  {
    cp;
    store = Array.make cp.total_words 0;
    sizes = Array.make cp.nvars 0;
    tr_idx = Array.make 64 0;
    tr_old = Array.make 64 0;
    tr_len = 0;
    trailing = false;
    trail_pushed = 0;
    support_checks = 0;
    revises = 0;
    rounds = 0;
    wipeouts = 0;
    nodes = 0;
    fails = 0;
    search_fails = 0;
    in_queue = Array.make (Int.max cp.nc 1) false;
    queue = Array.make (Int.max cp.nc 1) 0;
    q_head = Array.sub cp.seg 0 (Array.length cp.seg - 1);
    q_len = Array.make (Array.length cp.seg - 1) 0;
    q_mask = 0;
    scratch = Array.make (Int.max cp.max_nw 1) 0;
    scratch2 = Array.make (Int.max cp.max_nw 1) 0;
    scratch3 = Array.make (Int.max cp.max_nw 1) 0;
    changed = Array.make 16 0;
    n_changed = 0;
    lo_buf = Array.make (cp.max_arity + 1) 0;
    hi_buf = Array.make (cp.max_arity + 1) 0;
    suf_lo = Array.make (cp.max_arity + 2) 0;
    suf_hi = Array.make (cp.max_arity + 2) 0;
    bufs = Stdlib.Domain.DLS.get bufs_key;
  }

let flush c n = if n <> 0 then Obs.Counter.add c n

let finish_engine e =
  flush c_trail e.trail_pushed;
  flush c_support e.support_checks;
  flush c_revise e.revises;
  flush c_propagate e.rounds;
  flush c_wipeouts e.wipeouts;
  flush c_nodes e.nodes;
  flush c_fails e.fails;
  e.trail_pushed <- 0;
  e.support_checks <- 0;
  e.revises <- 0;
  e.rounds <- 0;
  e.wipeouts <- 0;
  e.nodes <- 0;
  e.fails <- 0

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

(* Rewinding a word also moves its variable's live count back. *)
let undo_to e mark =
  Bitdom.unwind e.store ~owner:e.cp.owner ~sizes:e.sizes e.tr_idx e.tr_old ~from:e.tr_len ~mark;
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

let d_size e v = e.sizes.(v)

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

(* Gather [v]'s live values and positions into [vals]/[idx] from [at]. *)
let gather e v vals idx at =
  let l = e.cp.layouts.(v) in
  Bitdom.gather e.store ~off:l.off ~nw:l.nw l.values vals idx at

exception Wipeout

(* Commit discipline: every revise builds a variable's new live set in
   scratch while reading only committed state, then commits in one pass.
   This reproduces the old [Domain.filter] + [set_dom] live-read
   sequencing exactly, which the aliasing regression tests (v = x * v)
   depend on. Raises [Wipeout] before writing anything if the result is
   empty, like [set_dom] did.

   Every new live set is a subset of the committed one (a filter, a range
   mask, a support mask or a restriction, each taken over live bits), so
   it differs from it exactly when it holds fewer values: one popcount
   decides whether anything changes, and gives the new live count.

   No revise ever sees an empty domain: a template with an empty universe
   is refuted at compile time, and a commit never writes an empty set.

   Every revise returns whether it is idempotent on the branch it took —
   whether it reached its own fixpoint in one pass, so that running it
   again at once would change nothing. [run_queue] then skips its own
   re-queue. *)
let commit_from_scratch e v buf =
  let l = e.cp.layouts.(v) in
  let n = Bitdom.popcount buf ~off:0 ~nw:l.nw in
  if n = 0 then raise Wipeout;
  if n <> e.sizes.(v) then begin
    for wi = 0 to l.nw - 1 do
      write_word e (l.off + wi) buf.(wi)
    done;
    e.sizes.(v) <- n;
    push_changed e v
  end

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

(* Keep v's live values that are live in [w]: what a filter by [d_mem e w]
   keeps, in one kernel call. *)
let commit_members e v w =
  let lv = e.cp.layouts.(v) and lw = e.cp.layouts.(w) in
  Bitdom.filter_members lw.ix e.store ~src:lw.off lv.values ~off:lv.off ~nw:lv.nw e.scratch;
  commit_from_scratch e v e.scratch

(* Whether [v] and [w] share a live value. The question is symmetric, so
   the smaller domain is the one walked. *)
let share e v w =
  let v, w = if e.sizes.(v) <= e.sizes.(w) then (v, w) else (w, v) in
  let lv = e.cp.layouts.(v) and lw = e.cp.layouts.(w) in
  Bitdom.meets lw.ix e.store ~src:lw.off lv.values ~off:lv.off ~nw:lv.nw

(* v = x (unary PROD/SUM and CEq): intersect both with the other. The
   second filter reads the already-narrowed first, so both end at the
   intersection, exactly like the old shared [Domain.inter]. Idempotent:
   both sides already equal the intersection. *)
let revise_eq e a b =
  commit_members e a b;
  commit_members e b a;
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

(* Idempotent: an intersection with a constant set, held as a mask over
   v's universe since compile time. *)
let revise_in e v mask =
  let l = e.cp.layouts.(v) in
  for wi = 0 to l.nw - 1 do
    e.scratch.(wi) <- e.store.(l.off + wi) land mask.(wi)
  done;
  commit_from_scratch e v e.scratch;
  true

(* Whether some live position of u is in [mask]. *)
let selects e lu (mask : int array) =
  let wi = ref 0 in
  while !wi < lu.nw && mask.(!wi) land e.store.(lu.off + !wi) = 0 do
    incr wi
  done;
  !wi < lu.nw

let or_into (dst : int array) (src : int array) nw =
  for wi = 0 to nw - 1 do
    dst.(wi) <- dst.(wi) lor src.(wi)
  done

(* v = vs.(u). Three filters, each the set the old per-value predicates
   kept, built per distinct source rather than per index value and
   without a closure: (1) u keeps its live positions whose source still
   shares a value with v; (2) v keeps the values some still-selectable
   source holds, the union of [v ∩ w] over the sources w with a live
   position; (3) once u is a singleton i, v and vs.(i) are intersected.
   Heron's SELECTs repeat sources (six of seven entries can be the same
   variable), so (1) and (2) look at each source once.

   Idempotent when [v <> u] and neither is a source ([idem], decided at
   compile time): every kept index still meets the narrowed [v], and the
   singleton step leaves [v] and its source equal. Otherwise narrowing
   one occurrence changes what another supports, so a second pass can
   narrow [u] again. *)
let revise_sel e s =
  let lu = e.cp.layouts.(s.u) and lv = e.cp.layouts.(s.v) in
  let keep = e.scratch2 in
  Array.fill keep 0 lu.nw 0;
  for g = 0 to Array.length s.srcs - 1 do
    if selects e lu s.picks.(g) && share e s.v s.srcs.(g) then or_into keep s.picks.(g) lu.nw
  done;
  for wi = 0 to lu.nw - 1 do
    keep.(wi) <- keep.(wi) land e.store.(lu.off + wi)
  done;
  commit_from_scratch e s.u keep;
  let union = e.scratch2 in
  Array.fill union 0 lv.nw 0;
  for g = 0 to Array.length s.srcs - 1 do
    if selects e lu s.picks.(g) then begin
      let lw = e.cp.layouts.(s.srcs.(g)) in
      Bitdom.filter_members lw.ix e.store ~src:lw.off lv.values ~off:lv.off ~nw:lv.nw e.scratch3;
      or_into union e.scratch3 lv.nw
    end
  done;
  commit_from_scratch e s.v union;
  if e.sizes.(s.u) = 1 then begin
    let w = s.vs.(d_min e s.u) in
    commit_members e s.v w;
    commit_members e w s.v
  end;
  s.idem

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
   [y]. Each result is looked up in v's universe index, O(1), or read
   from the constraint's pair table, and then tested against v's live
   bits. *)

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

(* Three distinct variables: gather the live values of b and a once,
   then one pass over the live x of a ([Bitdom.supports]) fills the
   support masks of v (scratch), a (scratch2) and b (scratch3) together,
   and v, a and b are committed in that order. This equals the aliased
   path's three live-read passes: a pair whose result is live in v before
   v is narrowed is still live after (the narrowing keeps exactly the
   supported results), and any x that supports some y is itself kept —
   so support against the pre-commit domains is what the live reads
   would see. Same masks, same commit order, same wipeout points.

   Idempotent: every kept value keeps the witness pair that kept it. *)
let revise_exact_distinct e ci v a b ~prod =
  let cp = e.cp in
  let lv = cp.layouts.(v) and la = cp.layouts.(a) and lb = cp.layouts.(b) in
  let nb = e.sizes.(b) and na = e.sizes.(a) in
  let bf = e.bufs in
  if nb + na > Array.length bf.vals then begin
    let cap = Int.max (nb + na) (2 * Array.length bf.vals) in
    bf.vals <- Array.make cap 0;
    bf.idx <- Array.make cap 0
  end;
  (* b at [0, nb), a at [nb, nb + na) *)
  gather e b bf.vals bf.idx 0;
  gather e a bf.vals bf.idx nb;
  let sup_v = e.scratch and sup_a = e.scratch2 and sup_b = e.scratch3 in
  Array.fill sup_v 0 lv.nw 0;
  Array.fill sup_a 0 la.nw 0;
  Array.fill sup_b 0 lb.nw 0;
  e.support_checks <-
    e.support_checks
    + Bitdom.supports ~prod lv.ix cp.tabs.(ci) ~stride:(Array.length lb.values) e.store ~off:lv.off
        ~nw:lv.nw bf.vals bf.idx ~nb ~na ~boff:lb.off ~bnw:lb.nw sup_v sup_a sup_b;
  commit_from_scratch e v sup_v;
  commit_from_scratch e a sup_a;
  commit_from_scratch e b sup_b;
  true

let revise_exact_binary e ci v a b ~prod =
  if v <> a && v <> b && a <> b then revise_exact_distinct e ci v a b ~prod
  else revise_exact_aliased e v a b (if prod then ( * ) else ( + ))

(* The exact path is chosen per revise, on the live sizes, so a bounds
   revise can be followed by an exact one on the narrowed domains: the
   bounds branch never reports itself idempotent. *)
let revise_prod e ci v vs =
  match vs with
  | [| x |] -> revise_eq e v x
  | [| a; b |] when e.sizes.(a) * e.sizes.(b) <= e.cp.exact_limit ->
      revise_exact_binary e ci v a b ~prod:true
  | _ ->
      revise_nary e v vs ~identity:1 ~op:( * )
        ~inv_lo:(fun v_lo others_hi -> if others_hi = 0 then 0 else (v_lo + others_hi - 1) / others_hi)
        ~inv_hi:(fun v_hi others_lo -> if others_lo = 0 then max_int else v_hi / others_lo)

let revise_sum e ci v vs =
  match vs with
  | [| x |] -> revise_eq e v x
  | [| a; b |] when e.sizes.(a) * e.sizes.(b) <= e.cp.exact_limit ->
      revise_exact_binary e ci v a b ~prod:false
  | _ ->
      revise_nary e v vs ~identity:0 ~op:( + )
        ~inv_lo:(fun v_lo others_hi -> v_lo - others_hi)
        ~inv_hi:(fun v_hi others_lo -> v_hi - others_lo)

let revise e ci =
  match e.cp.ics.(ci) with
  | CProd (v, vs) -> revise_prod e ci v vs
  | CSum (v, vs) -> revise_sum e ci v vs
  | CEq (a, b) -> revise_eq e a b
  | CLe (a, b) -> revise_le e a b
  | CIn (v, mask) -> revise_in e v mask
  | CSel s -> revise_sel e s

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
      e.revises <- e.revises + 1;
      let ci = q_pop e in
      e.n_changed <- 0;
      let skip = if revise e ci then ci else -1 in
      for k = 0 to e.n_changed - 1 do
        push_watchers e e.changed.(k) skip
      done
    done;
    e.rounds <- e.rounds + 1;
    true
  with Wipeout ->
    e.wipeouts <- e.wipeouts + 1;
    q_clear e;
    false

let compile ?(exact_limit = default_exact_limit) problem =
  Obs.Counter.incr c_compiles;
  let names = Problem.vars problem in
  let n = Array.length names in
  let ids = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace ids name i) names;
  let id name = Hashtbl.find ids name in
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
  let total_words = !off in
  let owner = Array.make total_words 0 in
  Array.iteri (fun v l -> Array.fill owner l.off l.nw v) layouts;
  (* An [In] set as a mask over its variable's universe: the positions of
     the universe values the set holds. *)
  let in_mask v cs =
    let l = layouts.(v) in
    let all = Array.make l.nw 0 and mask = Array.make l.nw 0 in
    Bitdom.fill all ~off:0 ~n:(Array.length l.values);
    Bitdom.filter (fun x -> Domain.mem x cs) all ~off:0 ~nw:l.nw l.values mask;
    mask
  in
  let ics =
    Problem.constraints problem
    |> List.map (fun c ->
           match c with
           | Cons.Prod (v, vs) -> CProd (id v, Array.of_list (List.map id vs))
           | Cons.Sum (v, vs) -> CSum (id v, Array.of_list (List.map id vs))
           | Cons.Eq (a, b) -> CEq (id a, id b)
           | Cons.Le (a, b) -> CLe (id a, id b)
           | Cons.In (v, cs) -> CIn (id v, in_mask (id v) (Domain.of_list cs))
           | Cons.Select (v, u, vs) ->
               let v = id v and u = id u and vs = Array.of_list (List.map id vs) in
               let srcs =
                 Array.of_list
                   (List.rev
                      (Array.fold_left
                         (fun acc w -> if List.mem w acc then acc else w :: acc)
                         [] vs))
               in
               let lu = layouts.(u) in
               let picks = Array.map (fun _ -> Array.make lu.nw 0) srcs in
               Array.iteri
                 (fun p i ->
                   if i >= 0 && i < Array.length vs then
                     Array.iteri (fun g w -> if w = vs.(i) then Bitdom.set_bit picks.(g) p) srcs)
                 lu.values;
               let idem = v <> u && not (Array.mem v vs || Array.mem u vs) in
               CSel { v; u; vs; idem; srcs; picks })
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
          | CSel s -> s.v :: s.u :: Array.to_list s.vs))
      ics
  in
  let watcher_lists = Array.make n [] in
  Array.iteri
    (fun ci vars -> List.iter (fun vid -> watcher_lists.(vid) <- ci :: watcher_lists.(vid)) vars)
    cvars;
  let max_arity =
    Array.fold_left
      (fun acc ic ->
        match ic with
        | CProd (_, vs) | CSum (_, vs) -> Int.max acc (Array.length vs)
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
      owner;
      total_words;
      max_nw = !max_nw;
      max_arity;
      nvars = n;
      nc = Array.length ics;
      tabs = Array.make (Array.length ics) [||];
      tabulated = false;
      root = { words = [||]; sizes = [||] };
      root_ok = false;
    }
  in
  (* The root engine is the template's own: its store and sizes become
     the root fixpoint, so it never enters a domain's engine slot. *)
  let e = make_engine cp in
  Array.iteri
    (fun v l ->
      let k = Array.length l.values in
      Bitdom.fill e.store ~off:l.off ~n:k;
      e.sizes.(v) <- k)
    layouts;
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
  cp.root <- { words = e.store; sizes = e.sizes };
  cp

(* Pair tables, for the distinct-variable binary exact constraints
   [v = a op b] whose universes hold at most [tab_limit] pairs: the
   position in v's universe of every [a_i op b_j] ([Bitdom.pair_table]),
   so that the exact walk reads a word where it would look a result up
   in v's index. A table holds the positions the index would return, and
   the walk probes the same pairs with it, so results and
   [solver.support_checks] are the same with or without one. Tables are
   built when a template is first reused (a cache hit), not at compile:
   a template compiled for one solve, such as [Generator.satisfiable]'s,
   never pays for them. They hold 0.5–5K entries per Heron template. *)
let tab_limit = 4096

let tabulate cp =
  Array.iteri
    (fun ci ic ->
      match ic with
      | (CProd (v, [| a; b |]) | CSum (v, [| a; b |])) when v <> a && v <> b && a <> b ->
          let la = cp.layouts.(a) and lb = cp.layouts.(b) in
          if Array.length la.values * Array.length lb.values <= tab_limit then
            cp.tabs.(ci) <-
              Bitdom.pair_table
                ~prod:(match ic with CProd _ -> true | _ -> false)
                cp.layouts.(v).ix la.values lb.values
      | _ -> ())
    cp.ics;
  cp.tabulated <- true

(* Compiled-template cache, keyed by problem physical identity and exact
   limit. CGA offspring all decompose to the same base problem, so one
   compile (and one root propagation) serves a whole tuning run. The
   mutex makes concurrent access safe, but for deterministic
   [solver.compile_cache_hits] totals all our entry points consult the
   cache from sequential caller code only — never inside pool tasks,
   which is also what lets a hit build the pair tables unsynchronized. *)
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
      if not cp.tabulated then tabulate cp;
      cp
  | None ->
      let cp = compile ~exact_limit problem in
      cache := List.filteri (fun i _ -> i < cache_cap) ((problem, exact_limit, cp) :: !cache);
      cp

let is_in_cons = function Cons.In _ -> true | _ -> false

type restriction = int * int array

(* A domain's engine slot: the engine of its last search. A search of
   the same template takes it back, rewound to the search's start, and
   so allocates nothing; a search of another template replaces it. Safe
   because a domain runs one search at a time: pool tasks never nest,
   and no entry point runs a search from inside another. *)
let slot : engine option Stdlib.Domain.DLS.key = Stdlib.Domain.DLS.new_key (fun () -> None)

(* [cp]'s engine at [start], untrailed, with an empty trail and queue and
   no tallies pending. The start is copied in, never shared: the
   engine's store is written by every later search. *)
let engine_at cp start =
  let e =
    match Stdlib.Domain.DLS.get slot with
    | Some e when e.cp == cp -> e
    | _ ->
        let e = make_engine cp in
        Stdlib.Domain.DLS.set slot (Some e);
        e
  in
  Array.blit start.words 0 e.store 0 cp.total_words;
  Array.blit start.sizes 0 e.sizes 0 cp.nvars;
  e.tr_len <- 0;
  e.trailing <- false;
  (* A queue or tallies are left over only by an exception that escaped
     a search. *)
  q_clear e;
  finish_engine e;
  e

(* Narrow the engine's store by [rs], in list order: each restriction
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
        Bitdom.mark_values l.ix values mask;
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
    e.wipeouts <- e.wipeouts + 1;
    q_clear e;
    false

(* [cp]'s engine at its root fixpoint narrowed by [rs], or [None] when
   propagation refutes the root or the restrictions. *)
let restricted_engine cp rs =
  if not cp.root_ok then None
  else begin
    let e = engine_at cp cp.root in
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

(* Resolve a problem to (compiled template, start), or [None] when
   propagation alone refutes it: the shared start of several searches.
   A narrowed start is a copy of the engine's store, which the next
   search on this domain overwrites. *)
let prepare problem =
  match plan ~exact_limit:default_exact_limit problem with
  | cp, [] -> if cp.root_ok then Some (cp, cp.root) else None
  | cp, rs -> (
      match restricted_engine cp rs with
      | None -> None
      | Some e ->
          finish_engine e;
          Some (cp, { words = Array.copy e.store; sizes = Array.copy e.sizes }))

let extract_values e =
  let out = Array.make e.cp.nvars 0 in
  for i = 0 to e.cp.nvars - 1 do
    if d_size e i <> 1 then invalid_arg "Solver.extract: non-singleton domain";
    out.(i) <- d_min e i
  done;
  out

let extract e = Assignment.of_values e.cp.names (extract_values e)

exception Give_up

(* Branching: make bit [b] the only live value of [vid], trailed. *)
let assign e vid b =
  let l = e.cp.layouts.(vid) in
  Bitdom.singleton e.scratch ~nw:l.nw b;
  for wi = 0 to l.nw - 1 do
    write_word e (l.off + wi) e.scratch.(wi)
  done;
  e.sizes.(vid) <- 1

(* Smallest open domain, random tie-break; -1 when every domain is a
   singleton. *)
let pick_var e rng =
  let best = ref (-1) and best_size = ref max_int and ties = ref 0 in
  for i = 0 to e.cp.nvars - 1 do
    let s = e.sizes.(i) in
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
  !best

(* The DFS's candidate stack: a node's live values of its branching
   variable and their positions, at [base, base + n) of the domain's
   [cand]/[cand_bits]; its children stack theirs above. [Rng.shuffle]'s
   Fisher–Yates, on the segment and carrying the positions along, so the
   values come out in the order a shuffled array of them would. *)
let push_candidates e vid base =
  let b = e.bufs and n = e.sizes.(vid) in
  if base + n > Array.length b.cand then begin
    let cap = Int.max (base + n) (2 * Array.length b.cand) in
    let cand = Array.make cap 0 and bits = Array.make cap 0 in
    Array.blit b.cand 0 cand 0 base;
    Array.blit b.cand_bits 0 bits 0 base;
    b.cand <- cand;
    b.cand_bits <- bits
  end;
  gather e vid b.cand b.cand_bits base;
  n

let swap_candidates (b : bufs) i j =
  let v = b.cand.(i) and p = b.cand_bits.(i) in
  b.cand.(i) <- b.cand.(j);
  b.cand_bits.(i) <- b.cand_bits.(j);
  b.cand.(j) <- v;
  b.cand_bits.(j) <- p

let shuffle_candidates rng b base n =
  for i = n - 1 downto 1 do
    swap_candidates b (base + i) (base + Rng.int rng (i + 1))
  done

(* Stable move-to-front of the value [x]: same ordering as consing the
   bias value onto the shuffled list with the old engine. *)
let move_to_front (b : bufs) base n x =
  let j = ref (-1) in
  for i = n - 1 downto 0 do
    if b.cand.(base + i) = x then j := i
  done;
  for i = !j downto 1 do
    swap_candidates b (base + i) (base + i - 1)
  done

(* Unified randomized DFS: [search_biased] of the old engine is the
   [bias] case. Branching singletons and every propagation write are
   trail-recorded; a failed branch is undone by rewinding to its mark.
   [true] when a solution was found: it is left in the engine, every
   domain a singleton, for [extract] or [extract_values] to read. *)
let rec dfs e rng (stats : stats) bias max_fails base =
  stats.nodes <- stats.nodes + 1;
  e.nodes <- e.nodes + 1;
  let vid = pick_var e rng in
  vid < 0
  ||
  let n = push_candidates e vid base in
  shuffle_candidates rng e.bufs base n;
  (match bias with
  | Some b -> (
      match Assignment.find_opt b e.cp.names.(vid) with
      | Some v when d_mem e vid v -> move_to_front e.bufs base n v
      | _ -> ())
  | None -> ());
  try_values e rng stats bias max_fails vid base n 0

and try_values e rng (stats : stats) bias max_fails vid base n i =
  i < n
  &&
  let mark = e.tr_len in
  assign e vid e.bufs.cand_bits.(base + i);
  push_watchers e vid (-1);
  (run_queue e && dfs e rng stats bias max_fails (base + n))
  || begin
       undo_to e mark;
       stats.fails <- stats.fails + 1;
       e.fails <- e.fails + 1;
       e.search_fails <- e.search_fails + 1;
       if e.search_fails > max_fails then raise Give_up;
       try_values e rng stats bias max_fails vid base n (i + 1)
     end

let search ?(max_fails = 4000) ?bias ~stats rng e =
  e.search_fails <- 0;
  try dfs e rng stats bias max_fails 0 with Give_up -> false

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
   is prepared once here; each task takes its domain's engine at that
   start, trailed from the start, so a failed attempt rewinds the whole
   trail. *)
let rand_sat_with out ?(max_fails = 4000) ?pool rng problem n =
  if n <= 0 then []
  else
    match prepare problem with
    | None -> []
    | Some (cp, start) ->
        let rngs = Rng.split_n rng n in
        let draw task_rng =
          Obs.Counter.incr c_draws;
          let stats = fresh_stats () in
          let e = engine_at cp start in
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

let rand_sat ?max_fails ?pool rng problem n = rand_sat_with extract ?max_fails ?pool rng problem n

let rand_sat_values ?max_fails ?pool rng problem n =
  rand_sat_with extract_values ?max_fails ?pool rng problem n

(* Search a batch of plans on the pool, task [i] on [rngs.(i)] in its
   domain's engine. The plans were made sequentially in the caller (one
   compile and root propagation per distinct base, cache hits for the
   rest). *)
let search_plans ~max_fails ~max_restarts ?pool rngs plans out =
  Heron_util.Pool.init ?pool (Array.length plans) (fun i ->
      let cp, rs = plans.(i) in
      solve_restricted ~max_fails ~max_restarts ~stats:(fresh_stats ()) rngs.(i) cp rs out)
  |> Array.to_list

(* Solve a batch of independent problems with per-task split generators;
   same determinism contract as {!rand_sat}. *)
let solve_all ?(max_fails = 4000) ?(max_restarts = 8) ?pool rng problems =
  let arr = Array.of_list problems in
  let rngs = Rng.split_n rng (Array.length arr) in
  let plans =
    Array.map
      (fun p ->
        Obs.Counter.incr c_solve;
        plan ~exact_limit:default_exact_limit p)
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
                  start.words ~off:l.off ~nw:l.nw;
                (name, Domain.of_list (List.rev !vals)))
              cp.names))

let enumerate ?(limit = 10_000) problem =
  match prepare problem with
  | None -> []
  | Some (cp, start) ->
      let e = engine_at cp start in
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
            let n = d_size e vid in
            let vals = Array.make n 0 and bits = Array.make n 0 in
            gather e vid vals bits 0;
            Array.iter
              (fun b ->
                let mark = e.tr_len in
                assign e vid b;
                push_watchers e vid (-1);
                if run_queue e then dfs ();
                undo_to e mark)
              bits
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
      let e = engine_at cp start in
      e.trailing <- true;
      let r = if search ~max_fails ~bias ~stats rng e then Some (extract e) else None in
      finish_engine e;
      r
