(* One untraced synthesis through the program's public entry points, with
   their default options, followed by the answer checks.  The result keeps
   what the traced driver must reproduce (parity). *)

type t = {
  costs : float list;  (** per ILP-MR iteration; the single cost for ILP-AR *)
  conflicts : int list;  (** per ILP-MR iteration; empty for ILP-AR *)
  rows : int;  (** ILP-AR compiled rows; 0 for ILP-MR *)
}

(* Ilp_ar.run's documented default cap on its single solve.  With no
   budget and no node limit, a solve that returns before the cap ended by
   proving optimality: that is the proof check for ILP-AR, whose result
   carries no solver statistics. *)
let ar_time_limit = 300.

let mr ?solve_time_limit acc (case : Workloads.case) (inst : Instances.t) =
  let template = inst.template in
  let enc, result =
    Archex.Ilp_mr.run_with_encoding ?solve_time_limit template
      ~r_star:case.r_star
  in
  let trace =
    match result with
    | Archex.Synthesis.Synthesized (arch, trace, _) ->
        List.iter
          (fun (it : Archex.Ilp_mr.iteration) ->
            if not (Check.proven it.stats it.cost) then
              Check.fail acc case "iteration %d unproven (cost %g)" it.index
                it.cost)
          trace;
        Check.iterations acc case (List.length trace);
        Check.answer acc case template arch;
        (match List.rev trace with
        | last :: _ ->
            Check.feasible acc case (Archex.Gen_ilp.model enc) last.solution
        | [] -> Check.fail acc case "empty trace");
        trace
    | Archex.Synthesis.Unfeasible (reason, trace, _) ->
        Check.not_synthesized acc case reason;
        trace
  in
  { costs = List.map (fun (it : Archex.Ilp_mr.iteration) -> it.cost) trace;
    conflicts =
      List.map (fun (it : Archex.Ilp_mr.iteration) -> it.stats.conflicts) trace;
    rows = 0 }

let ar acc (case : Workloads.case) (inst : Instances.t) =
  let template = inst.template in
  let result = Archex.Ilp_ar.run template ~r_star:case.r_star in
  match result with
  | Archex.Synthesis.Synthesized (arch, info, timing) ->
      if timing.solver_time >= ar_time_limit then
        Check.fail acc case "solve stopped at its %gs cap (unproven)"
          ar_time_limit;
      Check.rows acc case info.constraint_count;
      Check.answer acc case template arch;
      { costs = [ arch.cost ]; conflicts = []; rows = info.constraint_count }
  | Archex.Synthesis.Unfeasible (reason, info, _) ->
      Check.not_synthesized acc case reason;
      { costs = []; conflicts = []; rows = info.constraint_count }

let run ?solve_time_limit (w : Workloads.t) acc case inst =
  match w.algo with
  | Workloads.Mr -> mr ?solve_time_limit acc case inst
  | Workloads.Ar -> ar acc case inst
