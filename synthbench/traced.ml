(* The traced driver: Algorithms 1 and 3 driven through the public layer
   functions, with a span around every call into a layer and work counters
   read at the same boundaries.  Spans go to an in-memory tracer; nothing
   is traced inside the program itself.

   This driver repeats the defaults of Ilp_mr.run / Ilp_ar.run (time caps,
   unlimited budget, one job).  Every case is compared with the untraced
   run of the same instance ({!parity}): per-iteration costs and conflicts
   for ILP-MR, cost and compiled rows for ILP-AR.  A mismatch is a
   failure, so this driver cannot drift from the program's default path
   unnoticed. *)

module Trace = Archex_obs.Trace
module Clock = Archex_obs.Clock
module Budget = Archex_resilience.Budget
module Gen_ilp = Archex.Gen_ilp
module Model = Milp.Model

(* Ilp_mr.run's documented default per-solve cap and iteration guard. *)
let mr_solve_cap = 180.
let mr_max_iterations = 50

(* Work counters, summed over every traced synthesis of a run. *)
type counters = {
  mutable encode_rows : int;
  mutable encode_vars : int;
  mutable compile_rows : int;
  mutable solve_calls : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable solve_minor_words : float;
  mutable solve_wall : float;
  mutable proof_wall : float;  (** solve time after the last incumbent *)
  mutable root_gap_sum : float;
  mutable first_event_sum : float;
  mutable unproven : int;
  mutable oracle_calls : int;
  mutable oracle_degraded : int;
  mutable learn_rows : int;
  mutable learn_k : int;
  mutable iterations : int;
  mutable rows_final : int;
}

let counters () =
  { encode_rows = 0; encode_vars = 0; compile_rows = 0; solve_calls = 0;
    decisions = 0; propagations = 0; conflicts = 0; solve_minor_words = 0.;
    solve_wall = 0.; proof_wall = 0.; root_gap_sum = 0.; first_event_sum = 0.;
    unproven = 0; oracle_calls = 0; oracle_degraded = 0; learn_rows = 0;
    learn_k = 0; iterations = 0; rows_final = 0 }

(* One SOLVEILP call.  The objective bound for the root gap is computed in
   its own span so it is not charged to the MR loop's self time. *)
let solve tr c enc ~time_limit ~budget =
  let model = Gen_ilp.model enc in
  let root_bound =
    Trace.with_span tr "bench.root_bound" (fun () ->
        Milp.Obj_bound.lower_bound model)
  in
  let first_event = ref None and last_incumbent = ref None in
  let on_event (e : Archex_obs.Event.t) =
    let t = Clock.now () in
    if !first_event = None then first_event := Some t;
    if e.kind = Archex_obs.Event.Incumbent then last_incumbent := Some t
  in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let result =
    Trace.with_span tr "solve" (fun () ->
        Gen_ilp.solve_checked ~on_event ?time_limit ~budget enc)
  in
  let t1 = Clock.now () in
  c.solve_minor_words <- c.solve_minor_words +. (Gc.minor_words () -. w0);
  c.solve_calls <- c.solve_calls + 1;
  c.solve_wall <- c.solve_wall +. (t1 -. t0);
  c.proof_wall <-
    c.proof_wall +. (t1 -. Option.value !last_incumbent ~default:t0);
  c.first_event_sum <-
    c.first_event_sum +. (Option.value !first_event ~default:t1 -. t0);
  let stats =
    match result with
    | Gen_ilp.Solved { stats; objective; _ } ->
        let lb = if Float.is_finite root_bound then root_bound else 0. in
        c.root_gap_sum <- c.root_gap_sum +. ((objective -. lb) /. objective);
        if not (Check.proven stats objective) then c.unproven <- c.unproven + 1;
        stats
    | Gen_ilp.No_solution { stats } | Gen_ilp.Exhausted { stats; _ } ->
        c.unproven <- c.unproven + 1;
        stats
  in
  c.decisions <- c.decisions + stats.nodes;
  c.propagations <- c.propagations + stats.propagations;
  c.conflicts <- c.conflicts + stats.conflicts;
  result

let oracle tr c template config ~budget =
  let report =
    Trace.with_span tr "oracle" (fun () ->
        Archex.Rel_analysis.analyze ~budget ~jobs:1 template config)
  in
  c.oracle_calls <- c.oracle_calls + 1;
  c.oracle_degraded <- c.oracle_degraded + report.degraded;
  report

let solve_failure acc case = function
  | Gen_ilp.Solved _ -> ()
  | Gen_ilp.No_solution _ -> Check.fail acc case "solve proved infeasible"
  | Gen_ilp.Exhausted { error; _ } ->
      Check.fail acc case "solve exhausted: %s"
        (Archex_resilience.Error.to_string error)

(* Algorithm 1: SOLVEILP, RELANALYSIS, LEARNCONS until the requirement
   holds. *)
let mr tr c acc (case : Workloads.case) (inst : Instances.t) =
  let template = inst.template and r_star = case.r_star in
  let budget = Budget.unlimited in
  Trace.with_span tr "ilp_mr" @@ fun () ->
  let enc = Trace.with_span tr "encode" (fun () -> Gen_ilp.encode template) in
  let model = Gen_ilp.model enc in
  c.encode_rows <- c.encode_rows + Model.constraint_count model;
  c.encode_vars <- c.encode_vars + Model.var_count model;
  let state = Archex.Learn_cons.init enc in
  let rec loop index done_rev =
    if index > mr_max_iterations then begin
      Check.fail acc case "no convergence in %d iterations" mr_max_iterations;
      List.rev done_rev
    end
    else
      let step =
        Trace.with_span tr "iteration" @@ fun () ->
        c.iterations <- c.iterations + 1;
        match
          solve tr c enc
            ~time_limit:(Budget.slice ~cap:mr_solve_cap budget)
            ~budget
        with
        | Gen_ilp.Solved { solution; config; objective; stats } -> (
            if not (Check.proven stats objective) then
              Check.fail acc case "iteration %d unproven (cost %g)" index
                objective;
            let it = (objective, stats.conflicts) in
            let report = oracle tr c template config ~budget in
            if Archex.Rel_analysis.meets report ~r_star then begin
              Check.answer acc case template
                (Archex.Synthesis.architecture template config report);
              Check.feasible acc case model solution;
              `Stop (it :: done_rev)
            end
            else
              let before = Model.constraint_count model in
              match
                Trace.with_span tr "learn" (fun () ->
                    Archex.Learn_cons.learn state ~config
                      ~reliability:report.worst ~r_star)
              with
              | Archex.Learn_cons.Learned { k; _ } ->
                  c.learn_k <- c.learn_k + k;
                  c.learn_rows <-
                    c.learn_rows + Model.constraint_count model - before;
                  `Next (it :: done_rev)
              | Archex.Learn_cons.Saturated ->
                  Check.fail acc case "learning saturated";
                  `Stop (it :: done_rev))
        | r ->
            solve_failure acc case r;
            `Stop done_rev
      in
      match step with
      | `Next d -> loop (index + 1) d
      | `Stop d -> List.rev d
  in
  let iterations = loop 1 [] in
  c.rows_final <- c.rows_final + Model.constraint_count model;
  Check.iterations acc case (List.length iterations);
  { Synth.costs = List.map fst iterations;
    conflicts = List.map snd iterations;
    rows = 0 }

(* Algorithm 3: one compiled model, one solve, the a-posteriori check. *)
let ar tr c acc (case : Workloads.case) (inst : Instances.t) =
  let template = inst.template in
  let budget = Budget.unlimited in
  Trace.with_span tr "ilp_ar" @@ fun () ->
  let enc, info =
    Trace.with_span tr "compile" (fun () ->
        Archex.Ilp_ar.compile template ~r_star:case.r_star)
  in
  c.compile_rows <- c.compile_rows + info.constraint_count;
  Check.rows acc case info.constraint_count;
  let time_limit =
    Option.value
      (Budget.slice ~frac:1.0 ~cap:Synth.ar_time_limit budget)
      ~default:Synth.ar_time_limit
  in
  let costs =
    match solve tr c enc ~time_limit:(Some time_limit) ~budget with
    | Gen_ilp.Solved { solution; config; objective; stats } ->
        if not (Check.proven stats objective) then
          Check.fail acc case "solve unproven (cost %g)" objective;
        let report = oracle tr c template config ~budget in
        Check.answer acc case template
          (Archex.Synthesis.architecture template config report);
        Check.feasible acc case (Gen_ilp.model enc) solution;
        [ objective ]
    | r ->
        solve_failure acc case r;
        []
  in
  { Synth.costs; conflicts = []; rows = info.constraint_count }

let run tr c (w : Workloads.t) acc case inst =
  match w.algo with
  | Workloads.Mr -> mr tr c acc case inst
  | Workloads.Ar -> ar tr c acc case inst

let parity acc case ~(traced : Synth.t) ~(untraced : Synth.t) =
  if
    List.length traced.costs <> List.length untraced.costs
    || not (List.for_all2 Check.close traced.costs untraced.costs)
    || traced.conflicts <> untraced.conflicts
    || traced.rows <> untraced.rows
  then
    let show f l = String.concat "," (List.map f l) in
    let summary (r : Synth.t) =
      Printf.sprintf "costs [%s] conflicts [%s] rows %d"
        (show (Printf.sprintf "%g") r.costs)
        (show string_of_int r.conflicts)
        r.rows
    in
    Check.fail acc case "parity: traced %s, untraced %s" (summary traced)
      (summary untraced)
