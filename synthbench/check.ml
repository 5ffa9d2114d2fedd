(* Answer checks.  A synthesis counts as failed when any of them fails;
   each failure is reported as one line naming the case and the check. *)

module Template = Archlib.Template

type failures = string list ref

let fail (acc : failures) (case : Workloads.case) fmt =
  Printf.ksprintf (fun s -> acc := (case.label ^ ": " ^ s) :: !acc) fmt

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b)

(* A solve is proven when its lower bound reaches its objective.  A
   time-capped incumbent has a lower (or no) bound, even though Gen_ilp
   reports it as [Solved]. *)
let proven (stats : Milp.Solver.run_stats) objective =
  match stats.best_bound with
  | Some b -> b >= objective || close b objective
  | None -> false

(* Worst-sink failure probability by factoring, an engine independent of
   the BDD the synthesis loop uses. *)
let factoring_reliability template config =
  let fm = Archex.Rel_analysis.fail_model_of_config template config in
  List.fold_left
    (fun acc sink ->
      Float.max acc
        (Reliability.Exact.sink_failure ~engine:Reliability.Exact.Factoring fm
           ~sink))
    0. (Template.sinks template)

let answer acc (case : Workloads.case) template
    (arch : Archex.Synthesis.architecture) =
  let cost = arch.cost in
  let recomputed = Template.configuration_cost template arch.config in
  if not (close cost recomputed) then
    fail acc case "cost %.17g but configuration_cost %.17g" cost recomputed;
  if not (close cost case.ref_cost) then
    fail acc case "cost %.17g, reference %.17g" cost case.ref_cost;
  let r = factoring_reliability template arch.config in
  if r > case.r_star *. (1. +. 1e-9) then
    fail acc case "factoring reliability %g above r* %g" r case.r_star;
  (* the engines round differently by about one ulp of 1.0 (2e-16
     absolute), a visible relative error at r near 1e-10 *)
  if Float.abs (r -. arch.reliability) > Float.max (1e-6 *. r) 1e-14 then
    fail acc case "reported reliability %.17g, factoring %.17g"
      arch.reliability r

let feasible acc case model solution =
  if Array.length solution <> Milp.Model.var_count model then
    fail acc case "solution has %d entries for %d model variables"
      (Array.length solution) (Milp.Model.var_count model)
  else if not (Milp.Model.is_feasible model (fun i -> solution.(i))) then
    fail acc case "solution infeasible for the final model"

let iterations acc (case : Workloads.case) n =
  match case.ref_iterations with
  | Some r when r <> n -> fail acc case "%d iterations, reference %d" n r
  | _ -> ()

let rows acc (case : Workloads.case) n =
  match case.ref_rows with
  | Some r when r <> n -> fail acc case "%d compiled rows, reference %d" n r
  | _ -> ()

let not_synthesized acc case reason =
  fail acc case "not synthesized: %s"
    (Format.asprintf "%a" Archex.Synthesis.pp_failure_reason reason)
