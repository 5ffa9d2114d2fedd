(* Conflict-driven pseudo-Boolean optimizer.

   Rows are normalized to  Σ a·lit ≥ b  with a > 0 over literals (a variable
   or its complement).  Propagation is slack-based: [poss] is the maximum
   achievable LHS under the current partial assignment; a literal whose
   coefficient exceeds [poss - b] is forced.

   Search is CDCL: every propagation records its reason row; conflicts are
   analyzed to a 1-UIP clause through the sound clausal abstraction of a PB
   row (the row implies "the forced literal, or one of the literals it had
   already falsified"), learned as a coefficient-1 row, and used to
   backjump.  Branch-and-bound comes from objective-bound rows added at
   each incumbent; the optimum is proved when a conflict reaches level 0.

   Persistent sessions ({!Session}) keep the solver state alive across
   successive solves of a monotonically growing model (ILP-MR appends rows
   every iteration).  Everything derived from the model alone is reusable;
   everything derived from an objective bound is not — bound rows encode
   "better than the incumbent of THAT solve", which later solves must not
   inherit.  Each constraint therefore carries a kind (model / learned /
   bound) and a taint bit: a learned clause is tainted when its derivation
   touched a bound row (directly, through a tainted learned clause, or
   through a level-0 fact that itself depends on a bound).  At the start of
   every re-solve, [purge_volatile] drops bound rows, tainted learned
   clauses and tainted level-0 trail entries; untainted learned clauses,
   variable activities, saved phases, the restart schedule and the clean
   level-0 trail carry over.

   Hot-path layout (DESIGN.md §13).  A literal is the int [2·var + pol],
   true when the variable's value is [pol].  Each literal owns an
   occurrence array of (row, coefficient) pairs, appended in row order and
   walked newest row first; assigning a variable walks only the literal
   that became false.  Row slack lives in a flat [float array], the trail's
   level marks in an [int array], pending implications in an int ring
   buffer, and conflict analysis works on reusable int buffers with
   stamp-marked variables, so a propagation or a conflict allocates
   nothing but the learned row.  Any change to this layout must keep the
   order in which literals are propagated, decided and learned: the golden
   trajectories in the test suite pin it. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;
  bound : float option;
}

let zero_stats =
  { decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learned = 0;
    bound = None }

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Limit_reached of { incumbent : (float * float array) option }

(* A normalized row Σ coefs.(i)·lits.(i) ≥ bound, coefficients descending. *)
type con = {
  lits : int array;    (* literals 2·var + pol *)
  coefs : float array;
  bound : float;
  tol : float;
  unit_coefs : bool;   (* every coefficient is 1: a clause or cardinality *)
}

let make_con lits coefs bound tol =
  { lits; coefs; bound; tol; unit_coefs = Array.for_all (fun a -> a = 1.) coefs }

(* Where a constraint came from — governs what survives a session re-solve. *)
type ckind =
  | Kmodel (* normalized model row: permanent *)
  | Klearned (* CDCL-learned clause: permanent unless tainted *)
  | Kbound (* objective bound / cap row: valid for one solve only *)

exception Trivially_infeasible

(* Normalize [expr cmp rhs] into zero, one or two ≥-rows with positive
   coefficients.  Tautologies are dropped; impossible rows raise. *)
let normalize_row expr cmp rhs =
  let build terms rhs =
    let fold (lits, bound) (x, a) =
      if a > 0. then ((x, a, true) :: lits, bound)
      else ((x, -.a, false) :: lits, bound +. -.a)
    in
    let lits, bound = List.fold_left fold ([], rhs) terms in
    let total = List.fold_left (fun acc (_, a, _) -> acc +. a) 0. lits in
    let tol = 1e-9 *. Float.max 1. (Float.max total (Float.abs bound)) in
    if bound <= tol then None
    else if total < bound -. tol then raise Trivially_infeasible
    else begin
      let terms =
        List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) lits
        |> Array.of_list
      in
      Some
        (make_con
           (Array.map (fun (x, _, pol) -> (2 * x) + Bool.to_int pol) terms)
           (Array.map (fun (_, a, _) -> a) terms)
           bound tol)
    end
  in
  let terms = Lin_expr.terms expr in
  let negated = List.map (fun (x, a) -> (x, -.a)) terms in
  match cmp with
  | Model.Ge -> Option.to_list (build terms rhs)
  | Model.Le -> Option.to_list (build negated (-.rhs))
  | Model.Eq ->
      Option.to_list (build terms rhs)
      @ Option.to_list (build negated (-.rhs))

(* Reason codes stored per assigned variable. *)
let reason_decision = -1
let reason_bound = -2 (* propagated/conflicted by the objective bound *)

type state = {
  mutable cons : con array;          (* grows with learned rows *)
  mutable ncons : int;
  mutable ckind : ckind array;       (* parallel to cons *)
  mutable ctainted : bool array;     (* parallel to cons: bound-derived *)
  mutable origin : int array;        (* parallel to cons: model row, or -1 *)
  mutable poss : float array;        (* parallel to cons: max achievable LHS *)
  mutable open_xor : int array;      (* parallel to cons: XOR of the
                                        literals not currently false *)
  mutable n_learned : int;           (* learned rows currently in the DB *)
  mutable n_learned_total : int;     (* learned rows ever (monotone) *)
  mutable row_stats : Row_stats.t option; (* per-model-row activity, opt-in *)
  mutable occ_con : int array array; (* per literal: rows, oldest first *)
  mutable occ_coef : float array array; (* per literal: its coefficients *)
  mutable occ_len : int array;       (* per literal: occurrences in use *)
  mutable value : int array;         (* -1 / 0 / 1 *)
  mutable level : int array;
  mutable reason : int array;        (* con index, or a reason code *)
  mutable var_tainted : bool array;  (* level-0 fact depends on a bound row *)
  mutable trail_pos : int array;
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;     (* trail size at each decision *)
  mutable n_levels : int;            (* current decision level *)
  mutable obj : float array;
  mutable obj_const : float;
  mutable base_lb : float;
  mutable lb_extra : float;
  mutable by_cost : int array;       (* vars with obj ≠ 0, |obj| desc *)
  mutable obj_integral : bool;       (* all objective coefficients integral *)
  mutable pending : int array;       (* ring of (var, value, reason) triples *)
  mutable pq_head : int;             (* first pending triple *)
  mutable pq_len : int;              (* pending triples *)
  mutable heap : Var_heap.t;
  mutable var_inc : float;
  mutable phase : int array;         (* saved phase per var *)
  mutable best : (float * float array) option;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable restart_sched : int;       (* Luby index, survives re-solves *)
  mutable conflicts_until_restart : int;
  mutable synced_rows : int;         (* model rows already registered *)
  mutable seen : int array;          (* analysis mark: = stamp when seen *)
  mutable stamp : int;
  mutable subset : int array;        (* expensive_subset's literals *)
  mutable learnt : int array;        (* analysis output, asserting first *)
  mutable n_learnt : int;
  mutable an_open : int;             (* analysis: marked current-level vars *)
  mutable an_level : int;            (* analysis: backjump level *)
  mutable an_tainted : bool;         (* analysis: clause is bound-derived *)
  mutable rng : int;                 (* deterministic LCG for phase jitter *)
}

let cheap_value st x = if st.obj.(x) >= 0. then 0 else 1
let expensivep st x = (st.value.(x) = 1) = (st.obj.(x) > 0.) && st.obj.(x) <> 0.
let cost_lb st = st.base_lb +. st.lb_extra +. st.obj_const

(* A literal is false when its variable is assigned the other value. *)
let lit_false st l =
  let v = st.value.(l lsr 1) in
  v >= 0 && v <> l land 1

let obj_tol st =
  match st.best with
  | None -> 0.
  | Some (c, _) -> 1e-9 *. Float.max 1. (Float.abs c)

let bound_exceeded st =
  match st.best with
  | None -> false
  | Some (best, _) -> cost_lb st >= best -. obj_tol st

(* Does deriving from this reason make the derivation bound-dependent? *)
let reason_taints st r =
  if r = reason_bound then true
  else if r >= 0 then
    match st.ckind.(r) with
    | Kbound -> true
    | Klearned -> st.ctainted.(r)
    | Kmodel -> false
  else false

(* ------------------------------------------------------------------ *)
(* Pending implications: a growable ring buffer of int triples         *)

let pq_clear st =
  st.pq_head <- 0;
  st.pq_len <- 0

let pq_push st x v reason =
  let cap = Array.length st.pending / 3 in
  if st.pq_len = cap then begin
    (* unroll the ring into a buffer twice the size *)
    let bigger = Array.make (6 * cap) 0 in
    for k = 0 to st.pq_len - 1 do
      let i = 3 * ((st.pq_head + k) land (cap - 1)) in
      Array.blit st.pending i bigger (3 * k) 3
    done;
    st.pending <- bigger;
    st.pq_head <- 0
  end;
  let cap = Array.length st.pending / 3 in
  let i = 3 * ((st.pq_head + st.pq_len) land (cap - 1)) in
  st.pending.(i) <- x;
  st.pending.(i + 1) <- v;
  st.pending.(i + 2) <- reason;
  st.pq_len <- st.pq_len + 1

(* ------------------------------------------------------------------ *)
(* Constraint database                                                 *)

let occ_push st l ci a =
  let n = st.occ_len.(l) in
  if n = Array.length st.occ_con.(l) then begin
    let cap = max 4 (2 * n) in
    let rows = Array.make cap 0 and coefs = Array.make cap 0. in
    Array.blit st.occ_con.(l) 0 rows 0 n;
    Array.blit st.occ_coef.(l) 0 coefs 0 n;
    st.occ_con.(l) <- rows;
    st.occ_coef.(l) <- coefs
  end;
  st.occ_con.(l).(n) <- ci;
  st.occ_coef.(l).(n) <- a;
  st.occ_len.(l) <- n + 1

(* Register row [ci]'s occurrences and derive its slack and open-literal
   XOR from the current assignment. *)
let attach st ci =
  let con = st.cons.(ci) in
  let poss = ref 0. and open_xor = ref 0 in
  for i = 0 to Array.length con.lits - 1 do
    let l = con.lits.(i) and a = con.coefs.(i) in
    occ_push st l ci a;
    if not (lit_false st l) then begin
      poss := !poss +. a;
      open_xor := !open_xor lxor l
    end
  done;
  st.poss.(ci) <- !poss;
  st.open_xor.(ci) <- !open_xor

let add_con ~kind ~tainted ~origin st con =
  if st.ncons = Array.length st.cons then begin
    let cap = max 16 (2 * st.ncons) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 st.ncons;
      b
    in
    st.cons <- grow st.cons con;
    st.ckind <- grow st.ckind Kmodel;
    st.ctainted <- grow st.ctainted false;
    st.origin <- grow st.origin (-1);
    st.poss <- grow st.poss 0.;
    st.open_xor <- grow st.open_xor 0
  end;
  let ci = st.ncons in
  st.cons.(ci) <- con;
  st.ckind.(ci) <- kind;
  st.ctainted.(ci) <- tainted;
  st.origin.(ci) <- origin;
  if kind = Klearned then st.n_learned <- st.n_learned + 1;
  st.ncons <- st.ncons + 1;
  attach st ci;
  ci

let add_model_con ?(origin = -1) st con =
  add_con ~kind:Kmodel ~tainted:false ~origin st con

(* Rebuild occurrences and slack counters from scratch under the current
   assignment (after any constraint-database compaction).  Occurrence
   arrays keep their capacity. *)
let rebuild_occurs st =
  Array.fill st.occ_len 0 (Array.length st.occ_len) 0;
  for ci = 0 to st.ncons - 1 do
    attach st ci
  done

(* Attribute solver activity to the model row a con originated from.
   No-op without a tracker, for solver-internal cons (learned clauses,
   bound rows: origin -1) and for reason codes (negative [ci]). *)
let note_activity st bump ci =
  match st.row_stats with
  | None -> ()
  | Some rs -> if ci >= 0 then bump rs st.origin.(ci)

(* Queue the implications of a row whose slack shrank.  A row whose true
   literals already reach its bound never qualifies (the slack then covers
   every open coefficient), so no satisfied-side counter is kept. *)
let enqueue_implications st ci =
  let con = st.cons.(ci) in
  let poss = st.poss.(ci) in
  let slack = poss -. con.bound in
  if con.unit_coefs && poss <= 1. then begin
    (* at most one literal is not false, and the XOR names it: no scan of
       the falsified prefix *)
    if poss = 1. && 1. > slack +. con.tol then begin
      let l = st.open_xor.(ci) in
      if st.value.(l lsr 1) < 0 then pq_push st (l lsr 1) (l land 1) ci
    end
  end
  else begin
    let lits = con.lits and coefs = con.coefs in
    let n = Array.length lits in
    let i = ref 0 in
    while !i < n && coefs.(!i) > slack +. con.tol do
      let l = lits.(!i) in
      if st.value.(l lsr 1) < 0 then pq_push st (l lsr 1) (l land 1) ci;
      incr i
    done
  end

exception Conflict of int (* con index, or reason_bound *)

(* A level-0 fact is a permanent consequence of the model only when its
   whole derivation is: the reason must be bound-free and every assigned
   co-literal of the reason row must itself be clean.  Conservative
   (over-taints some clean facts) and therefore sound to persist. *)
let level0_tainted st x reason =
  reason_taints st reason
  || reason >= 0
     &&
     let lits = st.cons.(reason).lits in
     let rec any i =
       i < Array.length lits
       &&
       let y = lits.(i) lsr 1 in
       (y <> x && st.value.(y) >= 0 && st.var_tainted.(y)) || any (i + 1)
     in
     any 0

(* Assign and update rows; raises [Conflict] (the trail keeps the
   assignment so that analysis sees a consistent state). *)
let assign st x v reason =
  let cur = st.value.(x) in
  if cur >= 0 then begin
    if cur <> v then
      (* the enqueued implication contradicts the current value: its reason
         row is conflicting under the assignment *)
      raise (Conflict reason)
  end
  else begin
    st.value.(x) <- v;
    st.level.(x) <- st.n_levels;
    st.reason.(x) <- reason;
    if st.n_levels = 0 then st.var_tainted.(x) <- level0_tainted st x reason;
    st.trail_pos.(x) <- st.trail_size;
    st.phase.(x) <- v;
    st.trail.(st.trail_size) <- x;
    st.trail_size <- st.trail_size + 1;
    if expensivep st x then st.lb_extra <- st.lb_extra +. Float.abs st.obj.(x);
    (* only the rows holding the literal that became false lose slack;
       the first one driven below its bound is the conflict, but every
       row is still updated *)
    let l = (2 * x) + (1 - v) in
    let rows = st.occ_con.(l) and coefs = st.occ_coef.(l) in
    let conflict = ref (-1) in
    for k = st.occ_len.(l) - 1 downto 0 do
      let ci = rows.(k) in
      let poss = st.poss.(ci) -. coefs.(k) in
      st.poss.(ci) <- poss;
      st.open_xor.(ci) <- st.open_xor.(ci) lxor l;
      let con = st.cons.(ci) in
      if poss < con.bound -. con.tol then begin
        if !conflict < 0 then conflict := ci
      end
      else enqueue_implications st ci
    done;
    if !conflict >= 0 then raise (Conflict !conflict);
    if bound_exceeded st then raise (Conflict reason_bound)
  end

let unassign st x =
  let v = st.value.(x) in
  st.value.(x) <- -1;
  Var_heap.push st.heap x;
  if (v = 1) = (st.obj.(x) > 0.) && st.obj.(x) <> 0. then
    st.lb_extra <- st.lb_extra -. Float.abs st.obj.(x);
  let l = (2 * x) + (1 - v) in
  let rows = st.occ_con.(l) and coefs = st.occ_coef.(l) in
  for k = st.occ_len.(l) - 1 downto 0 do
    let ci = rows.(k) in
    st.poss.(ci) <- st.poss.(ci) +. coefs.(k);
    st.open_xor.(ci) <- st.open_xor.(ci) lxor l
  done

let backtrack_to_level st lvl =
  if st.n_levels > lvl then begin
    let mark = st.trail_lim.(lvl) in
    while st.trail_size > mark do
      st.trail_size <- st.trail_size - 1;
      unassign st st.trail.(st.trail_size)
    done;
    st.n_levels <- lvl
  end;
  pq_clear st

(* Objective propagation: with an incumbent, a variable whose expensive
   value alone would exceed it must take its cheap value. *)
let propagate_objective st =
  match st.best with
  | None -> ()
  | Some (best, _) ->
      let slack = best -. obj_tol st -. cost_lb st in
      let n = Array.length st.by_cost in
      let i = ref 0 in
      while !i < n && Float.abs st.obj.(st.by_cost.(!i)) > slack do
        let x = st.by_cost.(!i) in
        if st.value.(x) < 0 then pq_push st x (cheap_value st x) reason_bound;
        incr i
      done

(* Drain the queue; raises [Conflict].  The objective scan only reruns when
   the cost lower bound moved (an expensive assignment happened). *)
let propagate st =
  propagate_objective st;
  while st.pq_len > 0 do
    let i = 3 * st.pq_head in
    let x = st.pending.(i)
    and v = st.pending.(i + 1)
    and reason = st.pending.(i + 2) in
    st.pq_head <- (st.pq_head + 1) land ((Array.length st.pending / 3) - 1);
    st.pq_len <- st.pq_len - 1;
    if st.value.(x) < 0 then begin
      st.n_propagations <- st.n_propagations + 1;
      note_activity st Row_stats.bump_propagation reason;
      let lb_before = st.lb_extra in
      assign st x v reason;
      if st.lb_extra <> lb_before then propagate_objective st
    end
    else if st.value.(x) <> v then raise (Conflict reason)
  done

(* ------------------------------------------------------------------ *)
(* Conflict analysis                                                   *)

(* Greedy-minimal subset of the expensive assignments whose flip could
   repair the objective bound: vars assigned their expensive value before
   trail position [before_pos], taken by descending cost until the
   remaining lower bound fits under the incumbent.  Smaller clauses learn
   more.  Writes the subset's cheap literals to [st.subset] in that order
   and returns their number. *)
let expensive_subset st ~before_pos ~extra =
  match st.best with
  | None -> 0
  | Some (best, _) ->
      let target = best -. obj_tol st -. st.base_lb -. st.obj_const -. extra in
      (* keep the assignments as long as their costs alone reach the
         incumbent: if none of them flips, no improvement is possible *)
      let n = ref 0 and sum = ref 0. and i = ref 0 in
      while !i < Array.length st.by_cost && !sum < target do
        let y = st.by_cost.(!i) in
        if st.value.(y) >= 0 && expensivep st y && st.trail_pos.(y) < before_pos
        then begin
          st.subset.(!n) <- (2 * y) + cheap_value st y;
          incr n;
          sum := !sum +. Float.abs st.obj.(y)
        end;
        incr i
      done;
      !n

let bump st x =
  Var_heap.bump st.heap x st.var_inc;
  if Var_heap.activity st.heap x > 1e100 then begin
    Var_heap.rescale st.heap 1e-100;
    st.var_inc <- st.var_inc *. 1e-100
  end

(* Take one false literal of the clause being resolved into the 1-UIP
   analysis: current-level variables are counted, lower-level literals go
   to the learned clause, level-0 literals are dropped (a dropped literal
   whose truth rests on a bound row taints the clause). *)
let absorb st l =
  let x = l lsr 1 in
  if st.seen.(x) <> st.stamp then begin
    if st.level.(x) > 0 then begin
      st.seen.(x) <- st.stamp;
      bump st x;
      if st.level.(x) >= st.n_levels then st.an_open <- st.an_open + 1
      else begin
        st.learnt.(st.n_learnt) <- l;
        st.n_learnt <- st.n_learnt + 1;
        if st.level.(x) > st.an_level then st.an_level <- st.level.(x)
      end
    end
    else if st.var_tainted.(x) then st.an_tainted <- true
  end

(* Absorb the expensive subset, newest-collected first. *)
let absorb_subset st n =
  for k = n - 1 downto 0 do
    absorb st st.subset.(k)
  done

(* Clausal view of a conflict: literals, all false right now, at least one
   of which must become true.  For a PB row: its falsified literals.  For
   the objective bound: cheap literals of a minimal expensive subset. *)
let absorb_conflict st reason =
  if reason = reason_bound then begin
    let n = expensive_subset st ~before_pos:max_int ~extra:0. in
    (* the assignment that tripped the bound is the newest trail entry and
       must appear in the clause so that analysis has a literal at the
       current decision level *)
    if st.trail_size > 0 then begin
      let x = st.trail.(st.trail_size - 1) in
      let l = (2 * x) + cheap_value st x in
      let rec member k = k < n && (st.subset.(k) = l || member (k + 1)) in
      if expensivep st x && not (member 0) then absorb st l
    end;
    absorb_subset st n
  end
  else begin
    let lits = st.cons.(reason).lits in
    for i = 0 to Array.length lits - 1 do
      if lit_false st lits.(i) then absorb st lits.(i)
    done
  end

(* Clausal reason of a propagated variable [x], less [x] itself: the
   falsified literals assigned before it. *)
let absorb_reason st x =
  let my_pos = st.trail_pos.(x) in
  let r = st.reason.(x) in
  if r = reason_bound then
    absorb_subset st
      (expensive_subset st ~before_pos:my_pos ~extra:(Float.abs st.obj.(x)))
  else begin
    (* the reason row participates in the conflict being analyzed *)
    note_activity st Row_stats.bump_conflict r;
    let lits = st.cons.(r).lits in
    for i = 0 to Array.length lits - 1 do
      let l = lits.(i) in
      let y = l lsr 1 in
      if y <> x && lit_false st l && st.trail_pos.(y) < my_pos then absorb st l
    done
  end

(* 1-UIP analysis.  Returns the backjump level, or -1 when the conflict
   is independent of any decision (level 0): the model is exhausted.  The
   learned clause is left in [st.learnt.(0 .. st.n_learnt - 1)], the
   asserting literal first, and [st.an_tainted] tells whether any reason
   expanded into it was bound-derived (such a clause is valid for this
   solve but not for a later session solve). *)
let analyze st conflict_reason =
  if st.n_levels = 0 then -1
  else begin
    st.stamp <- st.stamp + 1;
    st.n_learnt <- 1; (* slot 0: the asserting literal *)
    st.an_open <- 0;
    st.an_level <- 0;
    st.an_tainted <- reason_taints st conflict_reason;
    absorb_conflict st conflict_reason;
    if st.an_open = 0 then
      (* conflict independent of the current level: only level-0 facts are
         involved, nothing to learn *)
      -1
    else begin
      let idx = ref (st.trail_size - 1) in
      let asserting = ref (-1) in
      while !asserting < 0 do
        (* find the most recent marked trail entry *)
        while st.seen.(st.trail.(!idx)) <> st.stamp do decr idx done;
        let x = st.trail.(!idx) in
        st.seen.(x) <- 0;
        st.an_open <- st.an_open - 1;
        if st.an_open = 0 then asserting := (2 * x) + (1 - st.value.(x))
        else begin
          if reason_taints st st.reason.(x) then st.an_tainted <- true;
          absorb_reason st x;
          decr idx
        end
      done;
      st.learnt.(0) <- !asserting;
      (* lower-level literals in reverse order of absorption *)
      let i = ref 1 and j = ref (st.n_learnt - 1) in
      while !i < !j do
        let t = st.learnt.(!i) in
        st.learnt.(!i) <- st.learnt.(!j);
        st.learnt.(!j) <- t;
        incr i;
        decr j
      done;
      st.var_inc <- st.var_inc *. 1.05;
      (* a conflict clause with no lower-level literals asserts at 0 *)
      st.an_level
    end
  end

let learn_clause st =
  let n = st.n_learnt in
  let con =
    { lits = Array.sub st.learnt 0 n;
      coefs = Array.make n 1.;
      bound = 1.;
      tol = 1e-9;
      unit_coefs = true }
  in
  st.n_learned_total <- st.n_learned_total + 1;
  add_con ~kind:Klearned ~tainted:st.an_tainted ~origin:(-1) st con

(* Drop the rows for which [keep] is false, keeping the survivors' order,
   and return the old-to-new index map (-1 for dropped rows). *)
let compact st keep =
  let remap = Array.make (max st.ncons 1) (-1) in
  let ncons' = ref 0 in
  let kept_learned = ref 0 in
  for ci = 0 to st.ncons - 1 do
    if keep ci then begin
      if st.ckind.(ci) = Klearned then incr kept_learned;
      st.cons.(!ncons') <- st.cons.(ci);
      st.ckind.(!ncons') <- st.ckind.(ci);
      st.ctainted.(!ncons') <- st.ctainted.(ci);
      st.origin.(!ncons') <- st.origin.(ci);
      remap.(ci) <- !ncons';
      incr ncons'
    end
  done;
  st.ncons <- !ncons';
  st.n_learned <- !kept_learned;
  remap

(* Learned-clause database reduction (call at decision level 0 only):
   drop the older half of the learned clauses, keeping short ones and
   every clause that is the recorded reason of a trail literal (pinned —
   resetting those reasons to decisions would blind 1-UIP analysis to
   their derivations and, across session solves, orphan taint tracking).
   Surviving rows keep their identity through an index remap. *)
let reduce_db st =
  let locked = Array.make (max st.ncons 1) false in
  for i = 0 to st.trail_size - 1 do
    let r = st.reason.(st.trail.(i)) in
    if r >= 0 then locked.(r) <- true
  done;
  let total_learned = st.n_learned in
  let learned_seen = ref 0 in
  let remap =
    compact st (fun ci ->
        st.ckind.(ci) <> Klearned
        || begin
             incr learned_seen;
             let recent = !learned_seen > total_learned / 2 in
             recent || Array.length st.cons.(ci).lits <= 2 || locked.(ci)
           end)
  in
  (* remap trail reasons through the compaction (locked rows survived) *)
  for i = 0 to st.trail_size - 1 do
    let x = st.trail.(i) in
    let r = st.reason.(x) in
    if r >= 0 then st.reason.(x) <- remap.(r)
  done;
  rebuild_occurs st

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

(* Returns false when the complete assignment does not improve on the
   incumbent — numerically possible despite the bound row, and a signal to
   stop rather than loop. *)
let record_incumbent st =
  let cost = cost_lb st in
  let improves =
    match st.best with None -> true | Some (c, _) -> cost < c -. obj_tol st
  in
  if improves then begin
    st.best <-
      Some (cost, Array.map (fun v -> float_of_int (max 0 v)) st.value);
    (* binding-at-incumbent: the assignment is complete here, so the true
       literals' coefficients sum to the achieved LHS of every row — tight
       rows shape the incumbent *)
    match st.row_stats with
    | None -> ()
    | Some rs ->
        for ci = 0 to st.ncons - 1 do
          if st.origin.(ci) >= 0 then begin
            let con = st.cons.(ci) in
            let sure = ref 0. in
            Array.iteri
              (fun i l -> if not (lit_false st l) then sure := !sure +. con.coefs.(i))
              con.lits;
            if Float.abs (!sure -. con.bound) <= con.tol then
              Row_stats.bump_binding rs st.origin.(ci)
          end
        done
  end;
  improves

let improvement_gap st best =
  if st.obj_integral then 1. -. 1e-6
  else 1e-7 *. Float.max 1. (Float.abs best)

(* When every objective coefficient is integral the next incumbent must be
   at least 1 better: encode the bound row accordingly. *)
let bound_row st =
  match st.best with
  | None -> None
  | Some (best, _) ->
      (* Σ obj·x ≤ best - const - gap *)
      let terms =
        Array.to_list st.by_cost |> List.map (fun x -> (x, st.obj.(x)))
      in
      let gap = improvement_gap st best in
      let rhs = best -. st.obj_const -. gap in
      match normalize_row (Lin_expr.of_terms terms) Model.Le rhs with
      | [ con ] -> Some con
      | [] -> None (* nothing can beat the incumbent: exhausted *)
      | _ :: _ :: _ -> assert false
      | exception Trivially_infeasible ->
          None (* bound unreachable even with every literal true *)

exception Exhausted
exception Limits

(* Luby sequence 1,1,2,1,1,2,4,… (1-based). *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

let search st ~on_event ~log ~max_decisions ~time_limit ~lower_bound
    ~should_stop =
  let t0 = Archex_obs.Clock.now () in
  (* limits are per invocation: counters are session-cumulative *)
  let dec0 = st.n_decisions and conf0 = st.n_conflicts in
  (* progress events: build nothing unless a callback is installed *)
  let emit kind data =
    match on_event with
    | None -> ()
    | Some f ->
        f
          { Archex_obs.Event.source = "pb";
            kind;
            elapsed = Archex_obs.Clock.now () -. t0;
            data = data () }
  in
  (* structured search log: one record per branch decision / conflict /
     incumbent / bound move / restart; nothing is built without a sink *)
  let logging = log <> None in
  let slog fields =
    match log with
    | None -> ()
    | Some sink ->
        let module J = Archex_obs.Json in
        sink
          (J.Obj
             (("t", J.Num (Archex_obs.Clock.now () -. t0)) :: fields ()))
  in
  let module J = Archex_obs.Json in
  (* Best proven objective lower bound: starts at the caller's
     combinatorial bound and improves with the level-0 cost floor (valid
     for any solution still able to beat the incumbent, the usual
     best-bound semantics of branch-and-bound). *)
  let global_lb = ref lower_bound in
  let emitted_lb = ref neg_infinity in
  let with_best base =
    match st.best with
    | Some (c, _) -> ("incumbent", c) :: base
    | None -> base
  in
  let with_bound base =
    if Float.is_finite !global_lb then ("bound", !global_lb) :: base
    else base
  in
  let emit_bound () =
    if Float.is_finite !global_lb && !global_lb > !emitted_lb +. 1e-12 then begin
      emitted_lb := !global_lb;
      emit Archex_obs.Event.Bound (fun () ->
          with_best
            [ ("bound", !global_lb);
              ("conflicts", float_of_int st.n_conflicts) ]);
      slog (fun () ->
          [ ("ev", J.Str "bound");
            ("bound", J.Num !global_lb);
            ("conflicts", J.Num (float_of_int st.n_conflicts)) ])
    end
  in
  (* call at decision level 0, where cost_lb is a global fact *)
  let update_global_lb () =
    let lb = cost_lb st in
    if lb > !global_lb then global_lb := lb;
    emit_bound ()
  in
  let heartbeat () =
    emit Archex_obs.Event.Heartbeat (fun () ->
        let base =
          [ ("decisions", float_of_int st.n_decisions);
            ("conflicts", float_of_int st.n_conflicts);
            ("propagations", float_of_int st.n_propagations);
            ("learned", float_of_int st.n_learned);
            ("level", float_of_int st.n_levels) ]
        in
        with_best (with_bound base))
  in
  let ticks = ref 0 in
  let check_limits () =
    if
      st.n_decisions - dec0 > max_decisions
      || st.n_conflicts - conf0 > max_decisions
    then raise Limits;
    incr ticks;
    if on_event <> None && !ticks land 8191 = 0 then heartbeat ();
    (match should_stop with
    | Some stop when !ticks land 63 = 0 && stop () -> raise Limits
    | _ -> ());
    if !ticks land 255 = 0 then
      match time_limit with
      | Some tl when Archex_obs.Clock.now () -. t0 > tl -> raise Limits
      | _ -> ()
  in
  let by_cost_cursor = ref 0 in
  let handle_conflict reason =
    st.n_conflicts <- st.n_conflicts + 1;
    note_activity st Row_stats.bump_conflict reason;
    check_limits ();
    st.conflicts_until_restart <- st.conflicts_until_restart - 1;
    let kind = if reason = reason_bound then "bound" else "row" in
    let level = st.n_levels in
    let btlevel = analyze st reason in
    if btlevel < 0 then begin
      slog (fun () ->
          [ ("ev", J.Str "conflict");
            ("kind", J.Str kind);
            ("level", J.Num (float_of_int level));
            ("exhausted", J.Bool true) ]);
      raise Exhausted
    end;
    if logging then
      slog (fun () ->
          [ ("ev", J.Str "conflict");
            ("kind", J.Str kind);
            ("level", J.Num (float_of_int level));
            ("backjump", J.Num (float_of_int btlevel));
            ("learned_lits", J.Num (float_of_int st.n_learnt)) ]);
    backtrack_to_level st btlevel;
    by_cost_cursor := 0;
    let ci = learn_clause st in
    (* assert the UIP literal *)
    let l = st.learnt.(0) in
    pq_push st (l lsr 1) (l land 1) ci
  in
  let rec propagate_fully () =
    match propagate st with
    | () -> ()
    | exception Conflict reason ->
        handle_conflict reason;
        propagate_fully ()
  in
  (* After st.best improved: constrain the search to strictly better
     solutions, or conclude the incumbent is optimal. *)
  let add_bound_row_or_exhaust () =
    match bound_row st with
    | Some con ->
        backtrack_to_level st 0;
        by_cost_cursor := 0;
        let ci = add_con ~kind:Kbound ~tainted:false ~origin:(-1) st con in
        (* the new bound may already be conflicting at level 0 *)
        if st.poss.(ci) < con.bound -. con.tol then raise Exhausted;
        pq_clear st;
        enqueue_implications st ci;
        propagate_fully ();
        update_global_lb ()
    | None -> raise Exhausted
  in
  let next_random () =
    (* Lehmer-style LCG, deterministic across runs *)
    st.rng <- (st.rng * 48271) land 0x3FFFFFFF;
    st.rng
  in
  let restart () =
    backtrack_to_level st 0;
    by_cost_cursor := 0;
    st.restart_sched <- st.restart_sched + 1;
    st.n_restarts <- st.n_restarts + 1;
    slog (fun () ->
        [ ("ev", J.Str "restart");
          ("restarts", J.Num (float_of_int st.n_restarts));
          ("conflicts", J.Num (float_of_int st.n_conflicts)) ]);
    st.conflicts_until_restart <- 100 * luby (st.restart_sched + 1);
    (* diversification: jitter a few saved phases so successive descents do
       not replay the same trapped trajectory *)
    let nvars = Array.length st.phase in
    let flips = 1 + (nvars / 20) in
    for _ = 1 to flips do
      let x = next_random () mod nvars in
      st.phase.(x) <- 1 - st.phase.(x)
    done;
    if st.n_learned > 2000 then begin
      reduce_db st;
      (* kept rows may propagate under the level-0 assignment *)
      for ci = 0 to st.ncons - 1 do
        enqueue_implications st ci
      done;
      propagate_fully ()
    end;
    update_global_lb ()
  in
  (* Cost-bearing variables are decided first (largest coefficient first):
     with cheap-first phases this enumerates architectures by cost shape,
     and the incumbent bound prunes directly on those decisions.  Ties and
     the zero-cost remainder go to the activity heap.  -1: all assigned. *)
  let rec pick_heap () =
    let x = Var_heap.pop st.heap in
    if x < 0 || st.value.(x) < 0 then x else pick_heap ()
  in
  let rec pick_decision () =
    if !by_cost_cursor < Array.length st.by_cost then begin
      let x = st.by_cost.(!by_cost_cursor) in
      if st.value.(x) < 0 then x
      else begin
        incr by_cost_cursor;
        pick_decision ()
      end
    end
    else pick_heap ()
  in
  let finish hit_limit =
    ( hit_limit,
      if Float.is_finite !global_lb then Some !global_lb else None )
  in
  try
    propagate_fully ();
    update_global_lb ();
    while true do
      check_limits ();
      if st.conflicts_until_restart <= 0 && st.n_levels > 0 then restart ();
      let x = pick_decision () in
      if x < 0 then begin
        if not (record_incumbent st) then raise Exhausted;
        emit Archex_obs.Event.Incumbent (fun () ->
            with_bound
              [ ( "incumbent",
                  match st.best with Some (c, _) -> c | None -> nan );
                ("decisions", float_of_int st.n_decisions);
                ("conflicts", float_of_int st.n_conflicts) ]);
        slog (fun () ->
            [ ("ev", J.Str "incumbent");
              ( "objective",
                J.Num (match st.best with Some (c, _) -> c | None -> nan) );
              ("decisions", J.Num (float_of_int st.n_decisions));
              ("conflicts", J.Num (float_of_int st.n_conflicts)) ]);
        (* a known objective lower bound proves optimality as soon as the
           incumbent cannot be beaten by the improvement gap *)
        (match st.best with
        | Some (best, _)
          when best -. improvement_gap st best
               < lower_bound -. (1e-9 *. Float.max 1. (Float.abs best)) ->
            raise Exhausted
        | Some _ | None -> ());
        add_bound_row_or_exhaust ()
      end
      else begin
        st.n_decisions <- st.n_decisions + 1;
        st.trail_lim.(st.n_levels) <- st.trail_size;
        st.n_levels <- st.n_levels + 1;
        if logging then
          slog (fun () ->
              [ ("ev", J.Str "decision");
                ("var", J.Num (float_of_int x));
                ("value", J.Num (float_of_int st.phase.(x)));
                ("level", J.Num (float_of_int st.n_levels)) ]);
        (match assign st x st.phase.(x) reason_decision with
        | () -> ()
        | exception Conflict reason -> handle_conflict reason);
        propagate_fully ()
      end
    done;
    finish false
  with
  | Exhausted ->
      (* the search space is exhausted: any incumbent is proven optimal,
         so the lower bound closes onto it *)
      (match st.best with
      | Some (c, _) ->
          if c > !global_lb then global_lb := c;
          emit_bound ()
      | None -> ());
      finish false
  | Limits -> finish true

(* ------------------------------------------------------------------ *)
(* State construction and model synchronisation                         *)

let cost_order obj =
  List.init (Array.length obj) Fun.id
  |> List.filter (fun x -> obj.(x) <> 0.)
  |> List.sort (fun a b -> Float.compare (Float.abs obj.(b)) (Float.abs obj.(a)))
  |> Array.of_list

let integral_objective obj m =
  Array.for_all (fun c -> Float.abs (c -. Float.round c) < 1e-9) obj
  && Float.abs (Lin_expr.constant (Model.objective m)) < 1e18

(* Decision-activity seed of a variable: objective weight dominates, row
   participation breaks ties. *)
let seed_activity st ~max_obj x =
  let occ = st.occ_len.(2 * x) + st.occ_len.((2 * x) + 1) in
  (4. *. Float.abs st.obj.(x) /. max_obj) +. (0.001 *. float_of_int occ)

let build_state ?row_stats m =
  if not (Model.is_pure_boolean m) then
    invalid_arg "Pb_solver: model has non-Boolean variables";
  let nvars = Model.var_count m in
  (* each con remembers the model row (insertion index) it came from; an
     Eq row normalizes into two cons sharing one origin *)
  let rows = ref [] in
  let row_index = ref (-1) in
  Model.iter_constraints m (fun r ->
      incr row_index;
      List.iter (fun c -> rows := (!row_index, c) :: !rows)
        (normalize_row r.expr r.cmp r.rhs));
  let rows = List.rev !rows in
  let obj = Array.make nvars 0. in
  List.iter (fun (x, a) -> obj.(x) <- a)
    (Lin_expr.terms (Model.objective m));
  let base_lb =
    Array.fold_left (fun acc c -> acc +. Float.min 0. c) 0. obj
  in
  let heap = Var_heap.create nvars in
  let dummy = make_con [||] [||] 0. 0. in
  let st =
    { cons = Array.make 16 dummy;
      ncons = 0;
      ckind = Array.make 16 Kmodel;
      ctainted = Array.make 16 false;
      origin = Array.make 16 (-1);
      poss = Array.make 16 0.;
      open_xor = Array.make 16 0;
      n_learned = 0;
      n_learned_total = 0;
      row_stats;
      occ_con = Array.make (2 * nvars) [||];
      occ_coef = Array.make (2 * nvars) [||];
      occ_len = Array.make (2 * nvars) 0;
      value = Array.make nvars (-1);
      level = Array.make nvars 0;
      reason = Array.make nvars reason_decision;
      var_tainted = Array.make nvars false;
      trail_pos = Array.make nvars 0;
      trail = Array.make (max nvars 1) 0;
      trail_size = 0;
      trail_lim = Array.make (nvars + 1) 0;
      n_levels = 0;
      obj;
      obj_const = Lin_expr.constant (Model.objective m);
      base_lb;
      lb_extra = 0.;
      by_cost = cost_order obj;
      obj_integral = integral_objective obj m;
      pending = Array.make (3 * 64) 0;
      pq_head = 0;
      pq_len = 0;
      heap;
      var_inc = 1.;
      phase = Array.init nvars (fun x -> if obj.(x) >= 0. then 0 else 1);
      best = None;
      n_decisions = 0;
      n_propagations = 0;
      n_conflicts = 0;
      n_restarts = 0;
      restart_sched = 0;
      conflicts_until_restart = 100 * luby 1;
      synced_rows = !row_index + 1;
      seen = Array.make nvars 0;
      stamp = 0;
      subset = Array.make (nvars + 1) 0;
      learnt = Array.make (nvars + 1) 0;
      n_learnt = 0;
      an_open = 0;
      an_level = 0;
      an_tainted = false;
      rng = 0x2545F49 }
  in
  (* register the rows through add_con so occurrences and slack counters
     are consistent *)
  List.iter (fun (origin, con) -> ignore (add_model_con ~origin st con)) rows;
  let max_obj =
    Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 1. obj
  in
  for x = 0 to nvars - 1 do
    Var_heap.bump heap x (seed_activity st ~max_obj x)
  done;
  st

(* Drop everything whose validity was relative to one solve's incumbent:
   bound rows, tainted learned clauses and tainted level-0 facts.  What
   survives — model rows, clean learned clauses, clean level-0 trail,
   activities, phases — is implied by the model alone and sound to reuse
   under any future objective bound. *)
let purge_volatile st =
  backtrack_to_level st 0;
  st.best <- None;
  let remap =
    compact st (fun ci ->
        match st.ckind.(ci) with
        | Kmodel -> true
        | Kbound -> false
        | Klearned -> not st.ctainted.(ci))
  in
  (* filter the level-0 trail: volatile facts become unassigned again *)
  let old_size = st.trail_size in
  st.trail_size <- 0;
  for i = 0 to old_size - 1 do
    let x = st.trail.(i) in
    if st.var_tainted.(x) then begin
      st.value.(x) <- -1;
      st.var_tainted.(x) <- false;
      st.reason.(x) <- reason_decision;
      Var_heap.push st.heap x
    end
    else begin
      let r = st.reason.(x) in
      st.reason.(x) <-
        (if r >= 0 && remap.(r) >= 0 then remap.(r) else reason_decision);
      st.trail_pos.(x) <- st.trail_size;
      st.trail.(st.trail_size) <- x;
      st.trail_size <- st.trail_size + 1
    end
  done;
  (* the cost floor of the surviving assignment *)
  let lb = ref 0. in
  for x = 0 to Array.length st.value - 1 do
    if st.value.(x) >= 0 && expensivep st x then
      lb := !lb +. Float.abs st.obj.(x)
  done;
  st.lb_extra <- !lb;
  rebuild_occurs st

let grow_vars st n =
  let old = Array.length st.value in
  if n > old then begin
    let grow a len fill =
      let b = Array.make len fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    st.value <- grow st.value n (-1);
    st.level <- grow st.level n 0;
    st.reason <- grow st.reason n reason_decision;
    st.var_tainted <- grow st.var_tainted n false;
    st.trail_pos <- grow st.trail_pos n 0;
    st.seen <- grow st.seen n 0;
    st.phase <- grow st.phase n 0;
    st.obj <- grow st.obj n 0.;
    st.occ_con <- grow st.occ_con (2 * n) [||];
    st.occ_coef <- grow st.occ_coef (2 * n) [||];
    st.occ_len <- grow st.occ_len (2 * n) 0;
    st.trail_lim <- grow st.trail_lim (n + 1) 0;
    st.subset <- Array.make (n + 1) 0;
    st.learnt <- Array.make (n + 1) 0;
    st.trail <- grow st.trail (max n 1) 0
  end

let refresh_objective st m =
  let n = Array.length st.value in
  let obj = Array.make n 0. in
  List.iter (fun (x, a) -> obj.(x) <- a)
    (Lin_expr.terms (Model.objective m));
  st.obj <- obj;
  st.obj_const <- Lin_expr.constant (Model.objective m);
  st.base_lb <-
    Array.fold_left (fun acc c -> acc +. Float.min 0. c) 0. obj;
  st.by_cost <- cost_order obj;
  st.obj_integral <- integral_objective obj m

(* Pull model growth (new vars, appended rows) into the live state.  A
   no-op when nothing changed, so the scratch path is untouched.  New rows
   are checked against the persistent level-0 assignment; a row already
   violated by those clean facts proves the model infeasible. *)
let sync st m =
  backtrack_to_level st 0;
  let old_n = Array.length st.value in
  let n = Model.var_count m in
  let old_rows = st.synced_rows in
  let total_rows = Model.constraint_count m in
  if n <> old_n || total_rows <> old_rows then begin
    grow_vars st n;
    refresh_objective st m;
    (* phases for new vars: cheap value first, like build_state *)
    for x = old_n to n - 1 do
      st.phase.(x) <- (if st.obj.(x) >= 0. then 0 else 1)
    done;
    (* register the appended rows *)
    let idx = ref (-1) in
    Model.iter_constraints m (fun r ->
        incr idx;
        if !idx >= old_rows then
          List.iter
            (fun con ->
              let ci = add_model_con ~origin:!idx st con in
              if st.poss.(ci) < con.bound -. con.tol then
                raise Trivially_infeasible;
              enqueue_implications st ci)
            (normalize_row r.expr r.cmp r.rhs));
    st.synced_rows <- total_rows;
    (* warm heap restore: carried activities for old vars, build_state's
       seeding formula (scaled by the current var_inc) for new ones *)
    if n > old_n then begin
      let max_obj =
        Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 1. st.obj
      in
      let acts =
        Array.init n (fun x ->
            if x < old_n then Var_heap.activity st.heap x
            else st.var_inc *. seed_activity st ~max_obj x)
      in
      st.heap <-
        Var_heap.of_activities ~mem:(fun v -> st.value.(v) < 0) acts
    end;
    (* objective data may have moved: recompute the assigned cost floor *)
    let lb = ref 0. in
    for x = 0 to n - 1 do
      if st.value.(x) >= 0 && expensivep st x then
        lb := !lb +. Float.abs st.obj.(x)
    done;
    st.lb_extra <- !lb
  end

(* Permanent objective floor Σ obj·x ≥ lb − const: the dual of the
   volatile incumbent bound rows.  A proven lower bound on the optimum
   only rises over a session's lifetime (the model only gains rows), so
   the floor is installed as a [Kmodel] row — it survives [purge_volatile],
   it propagates against descents into the already-refuted cheap region,
   and clauses learned from it are untainted and carry across solves.
   Raises [Trivially_infeasible] when no assignment reaches [lb] (a valid
   bound then proves the model has no feasible solutions at all). *)
let install_floor st lb =
  let terms =
    Array.to_list st.by_cost |> List.map (fun x -> (x, st.obj.(x)))
  in
  let rhs = lb -. st.obj_const in
  match normalize_row (Lin_expr.of_terms terms) Model.Ge rhs with
  | [] -> () (* every assignment clears the floor *)
  | [ con ] ->
      let ci = add_model_con st con in
      if st.poss.(ci) < con.bound -. con.tol then raise Trivially_infeasible;
      enqueue_implications st ci
  | _ :: _ :: _ -> assert false

(* ------------------------------------------------------------------ *)
(* Sessions and entry points                                           *)

type session = {
  smodel : Model.t;
  mutable sstate : state option; (* None: infeasible at construction *)
  mutable fresh : bool;          (* no solve has run yet *)
  mutable dead : bool;           (* proven infeasible, permanently *)
  mutable carried : int;         (* learned rows carried into the last solve *)
  mutable last_bound : float option;
  mutable installed_lb : float;  (* strongest objective floor installed *)
  mutable n_solves : int;
}

let create_session ?rows m =
  match build_state ?row_stats:rows m with
  | st ->
      { smodel = m;
        sstate = Some st;
        fresh = true;
        dead = false;
        carried = 0;
        last_bound = None;
        installed_lb = neg_infinity;
        n_solves = 0 }
  | exception Trivially_infeasible ->
      { smodel = m;
        sstate = None;
        fresh = true;
        dead = true;
        carried = 0;
        last_bound = None;
        installed_lb = neg_infinity;
        n_solves = 0 }

(* Between two solves of a session: warm-start phases from the previous
   optimum, not from the end-of-proof trail the last exhaustion left
   behind (with cost-first decisions the first descent then reconstructs
   the cheapest known shape, minus whatever the new rows cut, so the first
   incumbent — and its bound row — lands near the old cost instead of an
   arbitrary expensive assignment), then drop the volatile state.
   Idempotent: a second call finds no incumbent and nothing to purge. *)
let prepare_resolve st =
  (match st.best with
  | Some (_, sol) ->
      let n = min (Array.length st.phase) (Array.length sol) in
      for x = 0 to n - 1 do
        st.phase.(x) <- (if sol.(x) >= 0.5 then 1 else 0)
      done
  | None -> ());
  purge_volatile st

let record_metrics metrics (stats : stats) =
  let module M = Archex_obs.Metrics in
  if M.enabled metrics then begin
    M.add (M.counter metrics "pb.decisions") (float_of_int stats.decisions);
    M.add
      (M.counter metrics "pb.propagations")
      (float_of_int stats.propagations);
    M.add (M.counter metrics "pb.conflicts") (float_of_int stats.conflicts);
    M.add (M.counter metrics "pb.restarts") (float_of_int stats.restarts);
    M.add (M.counter metrics "pb.learned") (float_of_int stats.learned)
  end

let session_solve ?(metrics = Archex_obs.Metrics.null) ?on_event ?log ?rows
    ?(max_decisions = max_int) ?time_limit ?(lower_bound = neg_infinity)
    ?should_stop sess =
  sess.n_solves <- sess.n_solves + 1;
  match sess.sstate with
  | _ when sess.dead -> (Infeasible, zero_stats)
  | None -> (Infeasible, zero_stats)
  | Some st ->
      (match rows with Some rs -> st.row_stats <- Some rs | None -> ());
      (* fresh Luby schedule per invocation: a session deep in the carried
         sequence would wait hundreds of conflicts before its first
         restart, unable to exploit the rows this solve just gained
         (no-op on the fresh path, where both fields still hold their
         build_state values — scratch parity) *)
      st.restart_sched <- 0;
      st.conflicts_until_restart <- 100 * luby 1;
      (* per-invocation stats are deltas against session totals *)
      let d0 = st.n_decisions
      and p0 = st.n_propagations
      and c0 = st.n_conflicts
      and r0 = st.n_restarts
      and l0 = st.n_learned_total in
      let finish hit_limit bound =
        let stats =
          { decisions = st.n_decisions - d0;
            propagations = st.n_propagations - p0;
            conflicts = st.n_conflicts - c0;
            restarts = st.n_restarts - r0;
            learned = st.n_learned_total - l0;
            bound }
        in
        record_metrics metrics stats;
        sess.last_bound <- bound;
        let outcome =
          if hit_limit then Limit_reached { incumbent = st.best }
          else
            match st.best with
            | Some (objective, solution) -> Optimal { objective; solution }
            | None ->
                sess.dead <- true;
                Infeasible
        in
        (outcome, stats)
      in
      (match
         if sess.fresh then sync st sess.smodel
         else begin
           prepare_resolve st;
           sync st sess.smodel;
           (* carried rows were rebuilt under the surviving level-0 trail;
              replay their pending implications *)
           for ci = 0 to st.ncons - 1 do
             enqueue_implications st ci
           done
         end
       with
      | () -> (
          sess.carried <- st.n_learned;
          let was_fresh = sess.fresh in
          sess.fresh <- false;
          match
            (* root-level fixings from the model bounds *)
            let nvars = Array.length st.value in
            for x = 0 to nvars - 1 do
              let lb = Model.lower_bound sess.smodel x
              and ub = Model.upper_bound sess.smodel x in
              if lb > 0.5 then assign st x 1 reason_decision
              else if ub < 0.5 then assign st x 0 reason_decision
            done;
            (* a strictly stronger proven bound becomes a permanent floor
               row; fresh solves skip it (scratch parity: a single-shot
               solve sees exactly the model it was given) *)
            if
              (not was_fresh)
              && Float.is_finite lower_bound
              && lower_bound
                 > sess.installed_lb
                   +. (1e-9 *. Float.max 1. (Float.abs lower_bound))
            then begin
              install_floor st lower_bound;
              sess.installed_lb <- lower_bound
            end
          with
          | () ->
              let hit_limit, bound =
                search st ~on_event ~log ~max_decisions ~time_limit
                  ~lower_bound ~should_stop
              in
              finish hit_limit bound
          | exception Conflict _ ->
              (* fixings contradict the clean level-0 facts *)
              sess.dead <- true;
              finish false None
          | exception Trivially_infeasible ->
              (* no assignment reaches the proven floor: no feasible
                 solutions remain *)
              sess.dead <- true;
              finish false None)
      | exception Trivially_infeasible ->
          sess.dead <- true;
          finish false None)

let session_sync sess =
  if not sess.dead then
    match sess.sstate with
    | None -> ()
    | Some st -> (
        (* appended rows are checked against the level-0 facts: after a
           solve, only the ones that do not rest on its incumbent bound *)
        try
          if not sess.fresh then prepare_resolve st;
          sync st sess.smodel
        with Trivially_infeasible -> sess.dead <- true)

let session_totals sess =
  match sess.sstate with
  | None -> zero_stats
  | Some st ->
      { decisions = st.n_decisions;
        propagations = st.n_propagations;
        conflicts = st.n_conflicts;
        restarts = st.n_restarts;
        learned = st.n_learned_total;
        bound = sess.last_bound }

module Session = struct
  type t = session

  let create = create_session
  let model s = s.smodel
  let add_rows = session_sync
  let solve = session_solve
  let totals = session_totals
  let solves s = s.n_solves
  let carried_learned s = s.carried
end

let solve ?metrics ?on_event ?log ?rows ?max_decisions ?time_limit
    ?lower_bound ?should_stop m =
  let sess = create_session ?rows m in
  session_solve ?metrics ?on_event ?log ?max_decisions ?time_limit
    ?lower_bound ?should_stop sess
