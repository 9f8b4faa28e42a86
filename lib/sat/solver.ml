module T = Types

type restart_strategy = Luby | Geometric of float | Fixed

type config = {
  decay_interval : int;
  decay_factor : float;
  restarts_enabled : bool;
  restart_base : int;
  restart_strategy : restart_strategy;
  mem_limit_bytes : int;
  learned_cap_factor : float;
  learned_cap_min : int;
  reduce_db_enabled : bool;
  share_export_max : int;
  capture_conflicts : bool;
  random_decision_freq : float;
  emit_proof : bool;
  minimize_learned : bool;
  phase_saving : bool;
  seed : int;
}

let default_config =
  {
    decay_interval = 256;
    decay_factor = 0.5;
    restarts_enabled = true;
    restart_base = 128;
    restart_strategy = Luby;
    mem_limit_bytes = 256 * 1024 * 1024;
    learned_cap_factor = 2.0;
    learned_cap_min = 5_000;
    reduce_db_enabled = true;
    share_export_max = 16;
    capture_conflicts = false;
    random_decision_freq = 0.02;
    emit_proof = false;
    minimize_learned = false;
    phase_saving = false;
    seed = 0;
  }

type outcome = Sat of Model.t | Unsat | Budget_exhausted | Mem_pressure

type conflict_info = {
  conflicting_clause : T.lit array;
  conflicting_var : int;
  implication_graph : (int * int * T.lit array option) list;
  learned : T.lit array;
  uip_var : int;
  backjump_level : int;
}

(* Literal helpers repeated from [Types]: the library is built without
   cross-module inlining (see dune), and these sit on the BCP path. *)
let var l = l lsr 1

let pos v = 2 * v

let negate l = l lxor 1

(* Per-literal value bytes.  Both polarities of a variable are written on
   assignment and on backtrack, so a literal test is a single load. *)
let v_unknown = '\000'

let v_true = '\001'

let v_false = '\002'

(* [reasons] entry of a decision, a root unit or an unassigned variable. *)
let no_reason = -1

type t = {
  cfg : config;
  nvars : int;
  cnf : Cnf.t; (* the original formula, kept for model building *)
  vals : Bytes.t; (* literal -> v_unknown | v_true | v_false *)
  levels : int array; (* var -> decision level (valid when assigned) *)
  reasons : int array; (* var -> antecedent clause index, or [no_reason] *)
  tainted : bool array;
      (* var -> the root-level assignment of this variable depends on a
         guiding-path assumption (so it is NOT implied by the global
         formula).  Tainted literals are kept inside clauses and re-enter
         learned clauses, which keeps every clause in the database — and
         hence every shared clause — valid for the global problem. *)
  score : float array; (* literal -> VSIDS counter *)
  (* The clause store: a clause is an index into these arrays.  lits.(0)
     and lits.(1) are the watched literals; a free slot holds [||]. *)
  mutable cl_lits : T.lit array array;
  mutable cl_act : float array;
  mutable cl_learned : Bytes.t; (* nonzero for a learned (or foreign) clause *)
  mutable cl_slots : int; (* slots ever handed out *)
  free : int Vec.t; (* released slots, reused newest first *)
  (* Watch lists: literal -> flat (clause index, blocker) pairs, the first
     [wsize.(l)] ints of [watches.(l)].  The blocker is some other literal
     of the clause, usually the other watch; if it is true the clause is
     satisfied and need not be dereferenced at all. *)
  watches : int array array;
  wsize : int array;
  order : Heap.t;
  trail : T.lit array; (* assigned literals in order; a variable occurs at most once *)
  mutable trail_sz : int;
  trail_lim : int Vec.t; (* trail index where each decision level starts *)
  mutable qhead : int;
  clauses : int Vec.t; (* original problem clauses *)
  learnts : int Vec.t;
  mutable ok : bool;
  seen : bool array;
  learnt_buf : T.lit Vec.t; (* [analyze] scratch: the clause being learned *)
  to_clear : int Vec.t; (* [analyze] scratch: variables marked [seen] *)
  phase : bool array; (* var -> last assigned polarity (for phase saving) *)
  mutable var_inc : float;
  mutable cla_inc : float;
  stats : Stats.t;
  mutable conflicts_since_restart : int;
  mutable restart_limit : int;
  mutable luby_index : int;
  mutable n_active_clauses : int;
  mutable db_lits : int; (* total literal slots across active clauses *)
  pending_foreign : T.lit array Queue.t;
  fresh_shares : T.lit array Queue.t;
  mutable last_learned : (T.lit array * int) option;
  mutable last_simplify_trail : int; (* root trail size at last simplification *)
  mutable proof_rev : Drup.step list; (* DRUP proof, newest step first *)
  rng : Random.State.t;
  (* telemetry: [obs_on] is the single hot-path guard; the instrument
     handles are resolved once at construction so recording is a mutable
     store, never a registry lookup *)
  obs : Obs.t;
  obs_on : bool;
  obs_tid : int;
  mutable obs_parent : Obs.Span.id; (* span to parent solver phases under *)
  h_bcp : Obs.Metrics.histogram;
  c_decisions : Obs.Metrics.counter;
  c_conflicts : Obs.Metrics.counter;
  c_learned : Obs.Metrics.counter;
  c_restarts : Obs.Metrics.counter;
}

let nvars t = t.nvars

let decision_level t = Vec.size t.trail_lim

let n_learned t = Vec.size t.learnts

let is_ok t = t.ok

let stats t = t.stats

let set_obs_parent t sid = t.obs_parent <- sid

(* Accounting: 48 bytes of per-clause overhead + 8 per literal slot. *)
let db_bytes t = (48 * t.n_active_clauses) + (8 * t.db_lits)

let decode b = if b = v_true then T.True else if b = v_false then T.False else T.Unknown

let value_of_lit t l = decode (Bytes.get t.vals l)

let value_of_var t v = value_of_lit t (pos v)

let lit_true t l = Bytes.get t.vals l = v_true

let lit_false t l = Bytes.get t.vals l = v_false

let lit_unknown t l = Bytes.get t.vals l = v_unknown

let var_unknown t v = lit_unknown t (pos v)

let level_of_var t v =
  if var_unknown t v then invalid_arg "Solver.level_of_var: unassigned variable"
  else t.levels.(v)

let live t ci = Array.length t.cl_lits.(ci) > 0

let antecedent_of_var t v =
  let r = t.reasons.(v) in
  if r <> no_reason && live t r then Some (Array.copy t.cl_lits.(r)) else None

let trail_prefix t stop =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.trail.(i) :: acc) in
  loop (stop - 1) []

let trail_literals t = trail_prefix t t.trail_sz

let last_learned t = t.last_learned

let log_proof t step = if t.cfg.emit_proof then t.proof_rev <- step :: t.proof_rev

let proof t = List.rev t.proof_rev

let root_lits t =
  trail_prefix t (if Vec.is_empty t.trail_lim then t.trail_sz else Vec.get t.trail_lim 0)

let root_facts t = List.filter (fun l -> not t.tainted.(var l)) (root_lits t)

let root_path t = List.filter (fun l -> t.tainted.(var l)) (root_lits t)

(* ---------- VSIDS ---------- *)

(* Heap order: a variable ranks by the higher of its two literal scores.
   Plain [>=]/[>] tests, not [Float.max], which is neither inlined nor
   unboxed here; scores are finite and non-negative, so the order is the
   same. *)
let score_gt (score : float array) a b =
  let pa = score.(2 * a) and na = score.((2 * a) + 1) in
  let pb = score.(2 * b) and nb = score.((2 * b) + 1) in
  if pa >= na then pa > pb && pa > nb else na > pb && na > nb

let rescale_scores t =
  for l = 0 to Array.length t.score - 1 do
    t.score.(l) <- t.score.(l) *. 1e-100
  done;
  t.var_inc <- t.var_inc *. 1e-100;
  Heap.rebuild t.order

let bump_lit t l =
  t.score.(l) <- t.score.(l) +. t.var_inc;
  if t.score.(l) > 1e100 then rescale_scores t;
  Heap.update t.order (var l)

let bump_lits t lits =
  for k = 0 to Array.length lits - 1 do
    bump_lit t lits.(k)
  done

let decay_scores t = t.var_inc <- t.var_inc /. t.cfg.decay_factor

let bump_clause_activity t ci =
  if Bytes.get t.cl_learned ci <> '\000' then begin
    t.cl_act.(ci) <- t.cl_act.(ci) +. t.cla_inc;
    if t.cl_act.(ci) > 1e100 then begin
      Vec.iter (fun cl -> t.cl_act.(cl) <- t.cl_act.(cl) *. 1e-100) t.learnts;
      t.cla_inc <- t.cla_inc *. 1e-100
    end
  end

(* ---------- assignment primitives ---------- *)

(* [taint] is only consulted for root-level assignments without an
   antecedent clause; with an antecedent the taint is inherited from the
   clause's other literals. *)
let enqueue ?(taint = false) t l reason =
  let v = var l in
  Bytes.set t.vals l v_true;
  Bytes.set t.vals (negate l) v_false;
  t.levels.(v) <- decision_level t;
  t.reasons.(v) <- reason;
  if decision_level t = 0 then begin
    t.tainted.(v) <-
      (if reason = no_reason then taint
       else Array.exists (fun q -> var q <> v && t.tainted.(var q)) t.cl_lits.(reason));
    (* Root assignments are permanent, but their antecedents are not:
       [simplify_db] forgets them and [reduce_db] may then delete the
       clause, after which a proof checker's unit propagation could no
       longer re-derive the literal.  Persist each root literal as a unit
       proof step while its derivation is still in the database (it is RUP
       here: assumptions seed the guiding-path literals, propagation the
       rest).  The [emit_proof] guard is repeated to keep the step
       allocation off the hot path. *)
    if t.cfg.emit_proof then log_proof t (Drup.Add [| l |])
  end
  else t.tainted.(v) <- false;
  t.trail.(t.trail_sz) <- l;
  t.trail_sz <- t.trail_sz + 1

let backtrack t level =
  if decision_level t > level then begin
    let keep = Vec.get t.trail_lim level in
    for i = t.trail_sz - 1 downto keep do
      let l = t.trail.(i) in
      let v = var l in
      t.phase.(v) <- T.is_pos l;
      Bytes.set t.vals l v_unknown;
      Bytes.set t.vals (negate l) v_unknown;
      t.reasons.(v) <- no_reason;
      Heap.insert t.order v
    done;
    t.trail_sz <- keep;
    Vec.shrink t.trail_lim level;
    t.qhead <- keep
  end

(* ---------- watch lists ---------- *)

let watch t l ci blocker =
  let ws = t.watches.(l) and n = t.wsize.(l) in
  let ws =
    if n < Array.length ws then ws
    else begin
      let bigger = Array.make (max 8 (2 * n)) 0 in
      Array.blit ws 0 bigger 0 n;
      t.watches.(l) <- bigger;
      bigger
    end
  in
  ws.(n) <- ci;
  ws.(n + 1) <- blocker;
  t.wsize.(l) <- n + 2

(* Order-preserving removal of the watch entries of released clauses: the
   live entries keep their relative order, exactly as if [propagate] had
   skipped the dead ones lazily. *)
let purge_watches t =
  for l = 0 to Array.length t.watches - 1 do
    let ws = t.watches.(l) and n = t.wsize.(l) in
    let j = ref 0 in
    for i = 0 to (n / 2) - 1 do
      let ci = ws.(2 * i) in
      if live t ci then begin
        ws.(!j) <- ci;
        ws.(!j + 1) <- ws.((2 * i) + 1);
        j := !j + 2
      end
    done;
    t.wsize.(l) <- !j
  done

(* ---------- propagation ---------- *)

let propagate t =
  let start = Obs.Clock.now () in
  let vals = t.vals and cl_lits = t.cl_lits in
  let confl = ref no_reason in
  while !confl = no_reason && t.qhead < t.trail_sz do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.stats.propagations <- t.stats.propagations + 1;
    let false_lit = negate p in
    (* [watch] below never targets [false_lit]'s own list, so [ws] stays put *)
    let ws = t.watches.(false_lit) in
    let n = t.wsize.(false_lit) in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let ci = ws.(!i) and blocker = ws.(!i + 1) in
      i := !i + 2;
      if !confl <> no_reason || Bytes.get vals blocker = v_true then begin
        ws.(!j) <- ci;
        ws.(!j + 1) <- blocker;
        j := !j + 2
      end
      else begin
        let lits = cl_lits.(ci) in
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        let first = lits.(0) in
        if Bytes.get vals first = v_true then begin
          ws.(!j) <- ci;
          ws.(!j + 1) <- first;
          j := !j + 2
        end
        else begin
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && Bytes.get vals lits.(!k) = v_false do
            incr k
          done;
          if !k < len then begin
            (* found a replacement watch; move the clause to its list *)
            lits.(1) <- lits.(!k);
            lits.(!k) <- false_lit;
            watch t lits.(1) ci first
          end
          else begin
            ws.(!j) <- ci;
            ws.(!j + 1) <- blocker;
            j := !j + 2;
            if Bytes.get vals first = v_false then confl := ci else enqueue t first ci
          end
        end
      end
    done;
    t.wsize.(false_lit) <- !j
  done;
  let dt = Obs.Clock.now () -. start in
  t.stats.bcp_seconds <- t.stats.bcp_seconds +. dt;
  if t.obs_on then Obs.Metrics.observe t.h_bcp dt;
  !confl

(* ---------- conflict analysis (FirstUIP) ---------- *)

let analyze t confl =
  let learnt = t.learnt_buf and to_clear = t.to_clear in
  Vec.clear learnt;
  Vec.clear to_clear;
  Vec.push learnt 0 (* placeholder for the asserting literal *);
  let counter = ref 0 in
  let p = ref (-1) in
  let reason_clause = ref confl in
  let index = ref (t.trail_sz - 1) in
  let dlevel = decision_level t in
  let finished = ref false in
  while not !finished do
    let ci = !reason_clause in
    bump_clause_activity t ci;
    let lits = t.cl_lits.(ci) in
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length lits - 1 do
      let q = lits.(k) in
      let v = var q in
      if not t.seen.(v) then begin
        if t.levels.(v) > 0 then begin
          t.seen.(v) <- true;
          Vec.push to_clear v;
          if t.levels.(v) >= dlevel then incr counter else Vec.push learnt q
        end
        else if t.tainted.(v) then begin
          (* root assumption: keep it so the learned clause stays
             globally valid and can be shared with every client *)
          t.seen.(v) <- true;
          Vec.push to_clear v;
          Vec.push learnt q
        end
      end
    done;
    while not t.seen.(var t.trail.(!index)) do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    t.seen.(var !p) <- false;
    decr counter;
    if !counter = 0 then finished := true
    else begin
      (* only the UIP can lack an antecedent *)
      assert (t.reasons.(var !p) <> no_reason);
      reason_clause := t.reasons.(var !p)
    end
  done;
  Vec.set learnt 0 (negate !p);
  (* Optional local clause minimization (an extension beyond zChaff-2001):
     a non-asserting literal is redundant if every literal of its
     antecedent is already in the learned clause (seen) or is an untainted
     root fact.  Removing it is a self-subsuming resolution step, so the
     clause stays globally valid. *)
  let lits =
    if not t.cfg.minimize_learned then Array.init (Vec.size learnt) (Vec.get learnt)
    else begin
      let redundant q =
        let v = var q in
        t.levels.(v) > 0
        && t.reasons.(v) <> no_reason
        && Array.for_all
             (fun r ->
               let rv = var r in
               rv = v || t.seen.(rv) || (t.levels.(rv) = 0 && not t.tainted.(rv)))
             t.cl_lits.(t.reasons.(v))
      in
      let kept = ref [ Vec.get learnt 0 ] in
      for k = Vec.size learnt - 1 downto 1 do
        let q = Vec.get learnt k in
        if not (redundant q) then kept := !kept @ [ q ]
      done;
      Array.of_list !kept
    end
  in
  Vec.iter (fun v -> t.seen.(v) <- false) to_clear;
  (* Backjump level: the highest level among the non-asserting literals;
     put that literal in slot 1 so it can be watched. *)
  let blevel = ref 0 in
  let pos = ref 1 in
  for k = 1 to Array.length lits - 1 do
    let lv = t.levels.(var lits.(k)) in
    if lv > !blevel then begin
      blevel := lv;
      pos := k
    end
  done;
  if Array.length lits > 1 then begin
    let tmp = lits.(1) in
    lits.(1) <- lits.(!pos);
    lits.(!pos) <- tmp
  end;
  (lits, !blevel)

(* ---------- clause store ---------- *)

let grow_store t =
  let cap = max 16 (2 * Array.length t.cl_lits) in
  let lits = Array.make cap [||] and act = Array.make cap 0. and learned = Bytes.make cap '\000' in
  Array.blit t.cl_lits 0 lits 0 t.cl_slots;
  Array.blit t.cl_act 0 act 0 t.cl_slots;
  Bytes.blit t.cl_learned 0 learned 0 t.cl_slots;
  t.cl_lits <- lits;
  t.cl_act <- act;
  t.cl_learned <- learned

(* Store and watch a clause of at least two literals.  Reusing a released
   slot is safe: every path that releases one ([reduce_db], [simplify_db])
   purges or rebuilds the watch lists before it returns, and no antecedent
   refers to a released clause. *)
let add_clause t ~learned ~activity lits =
  let ci =
    if not (Vec.is_empty t.free) then Vec.pop t.free
    else begin
      if t.cl_slots = Array.length t.cl_lits then grow_store t;
      t.cl_slots <- t.cl_slots + 1;
      t.cl_slots - 1
    end
  in
  t.cl_lits.(ci) <- lits;
  t.cl_act.(ci) <- activity;
  Bytes.set t.cl_learned ci (if learned then '\001' else '\000');
  watch t lits.(0) ci lits.(1);
  watch t lits.(1) ci lits.(0);
  t.n_active_clauses <- t.n_active_clauses + 1;
  t.db_lits <- t.db_lits + Array.length lits;
  if learned then Vec.push t.learnts ci else Vec.push t.clauses ci;
  ci

(* Release a clause's slot.  Its watch entries stay until the caller
   purges or rebuilds the watch lists. *)
let delete_clause t ci =
  let lits = t.cl_lits.(ci) in
  if Array.length lits > 0 then begin
    if t.cfg.emit_proof then log_proof t (Drup.Delete lits);
    t.cl_lits.(ci) <- [||];
    Vec.push t.free ci;
    t.n_active_clauses <- t.n_active_clauses - 1;
    t.db_lits <- t.db_lits - Array.length lits
  end

(* Drop released clauses from a clause-index vector, keeping the order. *)
let compact_clause_vec t vec =
  let j = ref 0 in
  for i = 0 to Vec.size vec - 1 do
    let ci = Vec.get vec i in
    if live t ci then begin
      Vec.set vec !j ci;
      incr j
    end
  done;
  Vec.shrink vec !j

let record_share t lits =
  if Array.length lits <= t.cfg.share_export_max then begin
    if Queue.length t.fresh_shares >= 8192 then ignore (Queue.pop t.fresh_shares);
    Queue.push (Array.copy lits) t.fresh_shares
  end

(* Record a learned clause (already backjumped to its assertion level) and
   enqueue its asserting literal. *)
let record_learned t lits =
  if t.cfg.emit_proof then log_proof t (Drup.Add (Array.copy lits));
  t.stats.learned <- t.stats.learned + 1;
  if t.obs_on then Obs.Metrics.incr t.c_learned;
  t.stats.learned_literals <- t.stats.learned_literals + Array.length lits;
  record_share t lits;
  bump_lits t lits;
  if Array.length lits = 1 then enqueue t lits.(0) no_reason
  else enqueue t lits.(0) (add_clause t ~learned:true ~activity:t.cla_inc lits);
  t.last_learned <- Some (Array.copy lits, decision_level t)

(* ---------- root-level strengthening ---------- *)

(* A false root literal may only be stripped when it is untainted (its
   negation is implied by the global formula); tainted literals stay so the
   clause remains globally valid. *)
let strippable t l = lit_false t l && not t.tainted.(var l)

let rec exists_from p t lits k =
  k < Array.length lits && (p t lits.(k) || exists_from p t lits (k + 1))

let exists_lit p t lits = exists_from p t lits 0

(* The literals of a clause with no true literal that survive stripping:
   the unknown ones, then the (tainted) false ones, each group in clause
   order. *)
let root_survivors t lits =
  let n = Array.length lits in
  let kept = ref 0 and unknowns = ref 0 in
  for k = 0 to n - 1 do
    if lit_unknown t lits.(k) then incr unknowns;
    if not (strippable t lits.(k)) then incr kept
  done;
  let out = Array.make !kept 0 in
  let u = ref 0 and f = ref !unknowns in
  for k = 0 to n - 1 do
    let l = lits.(k) in
    if lit_unknown t l then begin
      out.(!u) <- l;
      incr u
    end
    else if not (strippable t l) then begin
      out.(!f) <- l;
      incr f
    end
  done;
  out

(* How many leading literals of a survivor array are unknown, capped at 2:
   none is a root conflict, one a root implication (tainted exactly when a
   false literal survived next to it). *)
let leading_unknowns t lits =
  let n = Array.length lits in
  if n = 0 || not (lit_unknown t lits.(0)) then 0
  else if n = 1 || not (lit_unknown t lits.(1)) then 1
  else 2

(* Install a clause while at decision level 0: discard if satisfied, strip
   untainted false literals, then either record the conflict, enqueue the
   root implication (taint inherited from the surviving false literals), or
   store the clause with its unknown literals in the watched slots.  [lits]
   itself is never modified. *)
let install_clause_root t ~learned ~activity lits =
  assert (decision_level t = 0);
  if exists_lit lit_true t lits then `Satisfied
  else begin
    let arr = root_survivors t lits in
    match leading_unknowns t arr with
    | 0 ->
        log_proof t (Drup.Add [||]);
        t.ok <- false;
        `Conflict
    | 1 ->
        log_proof t (Drup.Add [| arr.(0) |]);
        enqueue ~taint:(Array.length arr > 1) t arr.(0) no_reason;
        `Implication
    | _ ->
        (* an original clause installed verbatim is already in the checker's
           database; logging it would only bloat transferred proof
           fragments.  A proof step is owed only when the stored clause
           differs from the formula: learned/foreign, or strengthened by
           root-level stripping. *)
        if t.cfg.emit_proof && (learned || Array.length arr < Array.length lits) then
          log_proof t (Drup.Add (Array.copy arr));
        ignore (add_clause t ~learned ~activity arr);
        bump_lits t arr;
        `Added
  end

(* ---------- learned-DB reduction ---------- *)

let clause_locked t ci =
  let v = var t.cl_lits.(ci).(0) in
  t.reasons.(v) = ci && not (var_unknown t v)

let reduce_db t =
  let sp =
    if t.obs_on then
      Obs.Span.enter (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
        ~args:[ ("learnts", Obs.Json.Int (Vec.size t.learnts)) ]
        "reduce_db"
    else Obs.Span.none
  in
  (* [Array.sort] is not stable: activity ties break by this input order,
     newest clause first *)
  let n = Vec.size t.learnts in
  let arr = Array.init n (fun k -> Vec.get t.learnts (n - 1 - k)) in
  Array.sort (fun a b -> Float.compare t.cl_act.(a) t.cl_act.(b)) arr;
  let target = n / 2 in
  let removed = ref 0 in
  Array.iter
    (fun ci ->
      if !removed < target && (not (clause_locked t ci)) && Array.length t.cl_lits.(ci) > 2 then begin
        delete_clause t ci;
        incr removed
      end)
    arr;
  t.stats.deleted <- t.stats.deleted + !removed;
  compact_clause_vec t t.learnts;
  purge_watches t;
  if t.obs_on then
    Obs.Span.exit (Obs.spans t.obs) sp ~args:[ ("deleted", Obs.Json.Int !removed) ]

(* ---------- root-level simplification (the paper's pruning pass) ---------- *)

let rebuild_watches t =
  Array.fill t.wsize 0 (Array.length t.wsize) 0;
  let rewatch ci =
    let lits = t.cl_lits.(ci) in
    watch t lits.(0) ci lits.(1);
    watch t lits.(1) ci lits.(0)
  in
  Vec.iter rewatch t.clauses;
  Vec.iter rewatch t.learnts

let simplify_clause_root t ci =
  let lits = t.cl_lits.(ci) in
  if live t ci then begin
    if exists_lit lit_true t lits then delete_clause t ci
    else begin
      (* a clause with no false literal is left exactly as it is *)
      let arr = if exists_lit lit_false t lits then root_survivors t lits else lits in
      match leading_unknowns t arr with
      | 0 ->
          log_proof t (Drup.Add [||]);
          t.ok <- false;
          delete_clause t ci
      | 1 ->
          log_proof t (Drup.Add [| arr.(0) |]);
          enqueue ~taint:(Array.length arr > 1) t arr.(0) no_reason;
          delete_clause t ci
      | _ ->
          let n = Array.length arr in
          if n < Array.length lits then begin
            if t.cfg.emit_proof then begin
              log_proof t (Drup.Add (Array.copy arr));
              log_proof t (Drup.Delete lits)
            end;
            t.db_lits <- t.db_lits - (Array.length lits - n);
            t.cl_lits.(ci) <- arr
          end
    end
  end

let simplify_db t =
  assert (decision_level t = 0);
  let sp =
    if t.obs_on then
      Obs.Span.enter (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
        ~args:[ ("root_lits", Obs.Json.Int t.trail_sz) ]
        "simplify_db"
    else Obs.Span.none
  in
  (* Root-assigned variables never participate in conflict analysis, so
     their antecedents may be forgotten before clauses are deleted. *)
  for i = 0 to t.trail_sz - 1 do
    t.reasons.(var t.trail.(i)) <- no_reason
  done;
  Vec.iter (simplify_clause_root t) t.clauses;
  Vec.iter (simplify_clause_root t) t.learnts;
  compact_clause_vec t t.clauses;
  compact_clause_vec t t.learnts;
  rebuild_watches t;
  t.last_simplify_trail <- t.trail_sz;
  t.stats.root_simplifications <- t.stats.root_simplifications + 1;
  if t.obs_on then Obs.Span.exit (Obs.spans t.obs) sp

(* ---------- foreign clause merging (paper Section 3.2, four cases) ---------- *)

let pending_foreign t = Queue.length t.pending_foreign

let queue_foreign_clauses t cs = List.iter (fun c -> Queue.push c t.pending_foreign) cs

let merge_foreign t =
  assert (decision_level t = 0);
  let batch = Queue.length t.pending_foreign in
  let sp =
    if t.obs_on && batch > 0 then
      Obs.Span.enter (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
        ~args:[ ("pending", Obs.Json.Int batch) ]
        "merge_foreign"
    else Obs.Span.none
  in
  let merged0 = t.stats.foreign_merged in
  while t.ok && not (Queue.is_empty t.pending_foreign) do
    let lits = Queue.pop t.pending_foreign in
    match install_clause_root t ~learned:true ~activity:t.cla_inc lits with
    | `Satisfied -> t.stats.foreign_discarded <- t.stats.foreign_discarded + 1
    | `Conflict -> () (* all literals false: the subproblem is unsatisfiable *)
    | `Implication -> t.stats.foreign_implications <- t.stats.foreign_implications + 1
    | `Added -> t.stats.foreign_merged <- t.stats.foreign_merged + 1
  done;
  if t.obs_on && batch > 0 then
    Obs.Span.exit (Obs.spans t.obs) sp
      ~args:[ ("merged", Obs.Json.Int (t.stats.foreign_merged - merged0)) ]

(* ---------- shares export ---------- *)

let drain_shares t ~max_len =
  let out = ref [] in
  while not (Queue.is_empty t.fresh_shares) do
    let c = Queue.pop t.fresh_shares in
    if Array.length c <= max_len then out := c :: !out
  done;
  List.rev !out

(* ---------- decisions ---------- *)

(* Decisions return variable 0, which no formula uses, for "none". *)
let rec random_unassigned t attempts =
  if attempts = 0 then 0
  else
    let v = 1 + Random.State.int t.rng t.nvars in
    if var_unknown t v then v else random_unassigned t (attempts - 1)

let rec heap_unassigned t =
  if Heap.is_empty t.order then 0
  else
    let v = Heap.remove_max t.order in
    if var_unknown t v then v else heap_unassigned t

let pick_branch_var t =
  let v =
    if t.cfg.random_decision_freq > 0. && Random.State.float t.rng 1.0 < t.cfg.random_decision_freq
    then random_unassigned t 8
    else 0
  in
  if v = 0 then heap_unassigned t else v

let decide t =
  match pick_branch_var t with
  | 0 -> false
  | v ->
      let l =
        if t.cfg.phase_saving then if t.phase.(v) then T.pos v else T.neg v
        else if t.score.(T.pos v) >= t.score.(T.neg v) then T.pos v
        else T.neg v
      in
      Vec.push t.trail_lim t.trail_sz;
      enqueue t l no_reason;
      t.stats.decisions <- t.stats.decisions + 1;
      if t.obs_on then Obs.Metrics.incr t.c_decisions;
      if decision_level t > t.stats.max_decision_level then
        t.stats.max_decision_level <- decision_level t;
      true

(* ---------- restarts ---------- *)

(* Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  (* find the k with 2^(k-1) <= i < 2^k *)
  let rec size k = if (1 lsl k) - 1 >= i then k else size (k + 1) in
  let k = size 1 in
  if i = (1 lsl k) - 1 then 1 lsl (k - 1) else luby (i - (1 lsl (k - 1)) + 1)

let restart t =
  backtrack t 0;
  t.conflicts_since_restart <- 0;
  t.luby_index <- t.luby_index + 1;
  (t.restart_limit <-
    (match t.cfg.restart_strategy with
    | Luby -> t.cfg.restart_base * luby t.luby_index
    | Geometric factor -> max 1 (int_of_float (float_of_int t.restart_limit *. factor))
    | Fixed -> t.cfg.restart_base));
  t.stats.restarts <- t.stats.restarts + 1;
  if t.obs_on then begin
    Obs.Metrics.incr t.c_restarts;
    ignore
      (Obs.Span.instant (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
         ~args:[ ("restarts", Obs.Json.Int t.stats.restarts) ]
         "restart")
  end

(* ---------- construction ---------- *)

let create_internal cfg cnf ~obs ~obs_tid ~facts ~assumptions =
  let nvars = Cnf.nvars cnf in
  let score = Array.make (2 * (nvars + 1)) 0. in
  (* a two-argument closure: a partial application of [score_gt] would
     allocate on every comparison *)
  let order = Heap.create ~nvars ~gt:(fun a b -> score_gt score a b) in
  let m = Obs.metrics obs in
  let labels = [ ("client", string_of_int obs_tid) ] in
  let cap = max 16 (Cnf.nclauses cnf) in
  let t =
    {
      cfg;
      nvars;
      cnf;
      vals = Bytes.make (2 * (nvars + 1)) v_unknown;
      tainted = Array.make (nvars + 1) false;
      levels = Array.make (nvars + 1) 0;
      reasons = Array.make (nvars + 1) no_reason;
      score;
      cl_lits = Array.make cap [||];
      cl_act = Array.make cap 0.;
      cl_learned = Bytes.make cap '\000';
      cl_slots = 0;
      free = Vec.create 0;
      watches = Array.make (2 * (nvars + 1)) [||];
      wsize = Array.make (2 * (nvars + 1)) 0;
      order;
      trail = Array.make (nvars + 1) 0;
      trail_sz = 0;
      trail_lim = Vec.create 0;
      qhead = 0;
      clauses = Vec.create no_reason;
      learnts = Vec.create no_reason;
      ok = not (Cnf.has_empty_clause cnf);
      seen = Array.make (nvars + 1) false;
      learnt_buf = Vec.create 0;
      to_clear = Vec.create 0;
      phase = Array.make (nvars + 1) false;
      var_inc = 1.0;
      cla_inc = 1.0;
      stats = Stats.create ();
      conflicts_since_restart = 0;
      restart_limit = cfg.restart_base;
      luby_index = 1;
      n_active_clauses = 0;
      db_lits = 0;
      pending_foreign = Queue.create ();
      fresh_shares = Queue.create ();
      last_learned = None;
      last_simplify_trail = 0;
      proof_rev = [];
      rng = Random.State.make [| cfg.seed; nvars; Cnf.nclauses cnf |];
      obs;
      obs_on = Obs.enabled obs;
      obs_tid;
      obs_parent = Obs.Span.none;
      h_bcp = Obs.Metrics.histogram m ~labels "solver.bcp.seconds";
      c_decisions = Obs.Metrics.counter m ~labels "solver.decisions";
      c_conflicts = Obs.Metrics.counter m ~labels "solver.conflicts";
      c_learned = Obs.Metrics.counter m ~labels "solver.learned";
      c_restarts = Obs.Metrics.counter m ~labels "solver.restarts";
    }
  in
  for v = 1 to nvars do
    Heap.insert order v
  done;
  let assert_root taint l =
    if lit_unknown t l then enqueue ~taint t l no_reason
    else if lit_false t l then t.ok <- false
  in
  List.iter (assert_root false) facts;
  List.iter (assert_root true) assumptions;
  if t.ok then
    Cnf.iter
      (fun lits -> if t.ok then ignore (install_clause_root t ~learned:false ~activity:0. lits))
      cnf;
  if t.ok && propagate t <> no_reason then t.ok <- false;
  t

let create ?(config = default_config) ?(obs = Obs.disabled) ?(obs_tid = Obs.Span.run_tid) cnf =
  create_internal config cnf ~obs ~obs_tid ~facts:[] ~assumptions:[]

let create_with_roots ?(config = default_config) ?(obs = Obs.disabled)
    ?(obs_tid = Obs.Span.run_tid) ?(facts = []) cnf assumptions =
  create_internal config cnf ~obs ~obs_tid ~facts ~assumptions

(* ---------- model extraction ---------- *)

let extract_model t = Model.of_array (Array.init (t.nvars + 1) (fun v -> v > 0 && lit_true t (pos v)))

(* ---------- conflict-info capture ---------- *)

let capture_graph t =
  List.map
    (fun l ->
      let v = var l in
      (v, t.levels.(v), antecedent_of_var t v))
    (trail_literals t)

(* ---------- main search ---------- *)

let learned_cap t =
  int_of_float (t.cfg.learned_cap_factor *. float_of_int (Vec.size t.clauses))
  + t.cfg.learned_cap_min

let handle_conflict t confl =
  t.stats.conflicts <- t.stats.conflicts + 1;
  if t.obs_on then Obs.Metrics.incr t.c_conflicts;
  t.conflicts_since_restart <- t.conflicts_since_restart + 1;
  if decision_level t = 0 then begin
    log_proof t (Drup.Add [||]);
    t.ok <- false;
    None
  end
  else begin
    let lits, blevel = analyze t confl in
    backtrack t blevel;
    record_learned t lits;
    if t.stats.conflicts mod t.cfg.decay_interval = 0 then decay_scores t;
    t.cla_inc <- t.cla_inc /. 0.999;
    Some (lits, blevel)
  end

let over_mem_limit t = db_bytes t > t.cfg.mem_limit_bytes

let run t ~budget =
  let start = Obs.Clock.now () in
  let start_props = t.stats.propagations in
  let result = ref None in
  while !result = None do
    if not t.ok then result := Some Unsat
    else begin
      if decision_level t = 0 then begin
        merge_foreign t;
        if t.ok && t.trail_sz > t.last_simplify_trail && t.qhead = t.trail_sz then simplify_db t
      end;
      if not t.ok then result := Some Unsat
      else
        let confl = propagate t in
        if confl <> no_reason then begin
          match handle_conflict t confl with
          | None -> result := Some Unsat
          | Some _ ->
              if t.cfg.reduce_db_enabled && Vec.size t.learnts > learned_cap t then reduce_db t;
              if over_mem_limit t then begin
                if t.cfg.reduce_db_enabled then reduce_db t;
                if over_mem_limit t then result := Some Mem_pressure
              end
        end
        else if t.stats.propagations - start_props >= budget then result := Some Budget_exhausted
        else if
          t.cfg.restarts_enabled
          && t.conflicts_since_restart >= t.restart_limit
          && decision_level t > 0
        then restart t
        else if decision_level t = 0 && pending_foreign t > 0 then
          () (* loop back to merge before deciding *)
        else if not (decide t) then result := Some (Sat (extract_model t))
    end
  done;
  t.stats.total_seconds <- t.stats.total_seconds +. (Obs.Clock.now () -. start);
  match !result with Some r -> r | None -> assert false

let solve ?(budget = max_int) t = run t ~budget

(* ---------- splitting (paper Figure 2) ---------- *)

let split t =
  if decision_level t = 0 then None
  else begin
    let level1_start = Vec.get t.trail_lim 0 in
    let level1_end = if Vec.size t.trail_lim > 1 then Vec.get t.trail_lim 1 else t.trail_sz in
    let first_decision = t.trail.(level1_start) in
    let roots_before = root_lits t in
    let facts = List.filter (fun l -> not t.tainted.(var l)) roots_before in
    let path = List.filter (fun l -> t.tainted.(var l)) roots_before in
    let level1 = ref [] in
    for i = level1_end - 1 downto level1_start do
      level1 := t.trail.(i) :: !level1
    done;
    backtrack t 0;
    (* commit this side of the branch: the whole first decision level moves
       into the root as (tainted) guiding-path assumptions ([enqueue] logs
       each as a unit proof step, keeping the fragment checkable after the
       original antecedents are forgotten) *)
    List.iter
      (fun l ->
        if lit_unknown t l then enqueue ~taint:true t l no_reason
        else if lit_false t l then t.ok <- false)
      !level1;
    Some (facts, path @ [ negate first_decision ])
  end

(* ---------- transfer helpers ---------- *)

let visible_clause t lits =
  if Array.exists (fun l -> lit_true t l && t.levels.(var l) = 0) lits then None
  else
    Some
      (Array.of_list
         (List.filter
            (fun l -> not (lit_false t l && t.levels.(var l) = 0 && not t.tainted.(var l)))
            (Array.to_list lits)))

let active_clauses t =
  let collect acc vec =
    Vec.fold
      (fun acc ci ->
        match visible_clause t t.cl_lits.(ci) with Some lits -> lits :: acc | None -> acc)
      acc vec
  in
  List.rev (collect (collect [] t.clauses) t.learnts)

let transfer_bytes t =
  let roots = List.length (root_lits t) in
  db_bytes t + (8 * roots) + 64

(* ---------- manual driving (Figure 1 replay) ---------- *)

let decide_manual t l =
  if t.qhead <> t.trail_sz then invalid_arg "Solver.decide_manual: propagation pending";
  if not (lit_unknown t l) then invalid_arg "Solver.decide_manual: variable assigned";
  Vec.push t.trail_lim t.trail_sz;
  enqueue t l no_reason;
  t.stats.decisions <- t.stats.decisions + 1

let propagate_manual t =
  let confl = propagate t in
  if confl = no_reason then `Ok
  else begin
    let conflicting_clause = Array.copy t.cl_lits.(confl) in
    let conflicting_var = var conflicting_clause.(0) in
    let implication_graph = capture_graph t in
    if decision_level t = 0 then begin
      t.ok <- false;
      `Conflict
        {
          conflicting_clause;
          conflicting_var;
          implication_graph;
          learned = [||];
          uip_var = 0;
          backjump_level = 0;
        }
    end
    else begin
      t.stats.conflicts <- t.stats.conflicts + 1;
      let lits, blevel = analyze t confl in
      backtrack t blevel;
      record_learned t lits;
      `Conflict
        {
          conflicting_clause;
          conflicting_var;
          implication_graph;
          learned = Array.copy lits;
          uip_var = var lits.(0);
          backjump_level = blevel;
        }
    end
  end
