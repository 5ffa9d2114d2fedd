type backend = Pseudo_boolean | Brute_force

let backends = [ Pseudo_boolean; Brute_force ]

let backend_name = function Pseudo_boolean -> "pb" | Brute_force -> "brute"

let backend_of_name name =
  match List.find_opt (fun b -> backend_name b = name) backends with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown backend %S (expected %s)" name
           (String.concat " or " (List.map backend_name backends)))

(* Both backends enumerate 0-1 assignments: a model with an integer or
   continuous variable is rejected up front with the typed error. *)
let require_pure_boolean m =
  if not (Model.is_pure_boolean m) then
    raise
      (Archex_resilience.Error.E
         (Archex_resilience.Error.Invalid_input
            [ "the solver handles pure 0-1 models only: this model has an \
               integer or continuous variable" ]))

(* Persistent PB state carried across calls on a monotonically growing
   model (the ILP-MR loop). *)
type session = Pb_solver.Session.t

let make_session ?rows m =
  require_pure_boolean m;
  Pb_solver.Session.create ?rows m

let session_model = Pb_solver.Session.model
let session_carried_learned = Pb_solver.Session.carried_learned
let session_solves = Pb_solver.Session.solves

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Limit_reached of { incumbent : (float * float array) option }

type run_stats = {
  backend : backend;
  nodes : int;
  propagations : int;
  conflicts : int;
  elapsed : float;
  best_bound : float option;
}

let solution_value solution x = solution.(x) >= 0.5

let now () = Archex_obs.Clock.now ()

let solve_untraced ~obs ~on_event ~backend ?rows ?max_nodes ?time_limit
    ?should_stop ?session ?(lower_bound = neg_infinity) m =
  let t0 = now () in
  let metrics = Archex_obs.Ctx.metrics obs in
  let log = Archex_obs.Ctx.search_log obs in
  (* search-log header: one record identifying the solve, then one per
     backend phase so a reader can split the stream *)
  let slog fields =
    match log with
    | None -> ()
    | Some sink -> sink (Archex_obs.Json.Obj fields)
  in
  let module J = Archex_obs.Json in
  slog
    [ ("ev", J.Str "solve");
      ("backend", J.Str (backend_name backend));
      ("vars", J.Num (float_of_int (Model.var_count m)));
      ("rows", J.Num (float_of_int (Model.constraint_count m))) ];
  let phase name = slog [ ("ev", J.Str "phase"); ("name", J.Str name) ] in
  let empty_stats =
    { backend;
      nodes = 0;
      propagations = 0;
      conflicts = 0;
      elapsed = 0.;
      best_bound = None }
  in
  (* implied objective lower bound: lets the search close optimality
     proofs that propagation alone cannot (see Obj_bound).  The caller's
     bound (e.g. the previous MR iteration's proven bound in incremental
     mode — rows only ever tighten the model, so it stays valid) is maxed
     in. *)
  let lower_bound =
    match Obj_bound.nontrivial m with
    | Some b -> Float.max b lower_bound
    | None -> lower_bound
  in
  let of_pb = function
    | Pb_solver.Optimal { objective; solution } ->
        Optimal { objective; solution }
    | Pb_solver.Infeasible -> Infeasible
    | Pb_solver.Limit_reached { incumbent } -> Limit_reached { incumbent }
  in
  let pb_stats (s : Pb_solver.stats) =
    { empty_stats with
      nodes = s.decisions;
      propagations = s.propagations;
      conflicts = s.conflicts;
      best_bound = s.bound }
  in
  let outcome, stats =
    match (backend, session) with
    | Brute_force, _ ->
        let outcome =
          match Brute.solve m with
          | Brute.Optimal { objective; solution } ->
              Optimal { objective; solution }
          | Brute.Infeasible -> Infeasible
        in
        (outcome, empty_stats)
    | Pseudo_boolean, Some ps ->
        (* Incremental path: solve through the persistent session, which
           captured [m] itself.  No optimistic probe here — the session's
           warm-started phases make the main search's first descent
           reconstruct the bound witness when one still exists, and the
           lower-bound optimality shortcut then closes the solve just as
           fast; a probe could only duplicate that or burn half the
           budget refuting a stale cap. *)
        phase "main";
        let o, s =
          Pb_solver.Session.solve ~metrics ?on_event ?log ?rows
            ?max_decisions:max_nodes ?time_limit ~lower_bound ?should_stop
            ps
        in
        (of_pb o, pb_stats s)
    | Pseudo_boolean, None ->
        (* Optimistic probe: when the combinatorial bound exists, first try
           pure feasibility at cost ≤ bound — success is a proven optimum
           and sidesteps the incumbent-improvement search entirely. *)
        let probe_spent = ref 0. in
        (* a failed probe's work is still work done by this solve *)
        let probe_work = ref None in
        let probe =
          if Float.is_finite lower_bound then begin
            let probe_model = Model.copy m in
            let scale = 1e-6 *. Float.max 1. (Float.abs lower_bound) in
            Model.add_constraint ~name:"lb_probe" probe_model
              (Model.objective probe_model)
              Le (lower_bound +. scale);
            Model.set_objective probe_model Lin_expr.zero;
            let probe_limit = Option.map (fun t -> t /. 2.) time_limit in
            probe_spent := now ();
            phase "probe";
            match
              Pb_solver.solve ~metrics ?on_event ?log ?rows
                ?max_decisions:max_nodes ?time_limit:probe_limit ?should_stop
                probe_model
            with
            | Pb_solver.Optimal { solution; _ }, s ->
                let objective =
                  Model.objective_value m (fun x -> solution.(x))
                in
                Some (Optimal { objective; solution }, s)
            | (Pb_solver.Infeasible | Pb_solver.Limit_reached _), s ->
                probe_work := Some s;
                None
          end
          else None
        in
        let o, s =
          match probe with
          | Some (outcome, s) -> (outcome, s)
          | None ->
              (* main search keeps whatever budget the probe left *)
              let remaining =
                Option.map
                  (fun t ->
                    if !probe_spent > 0. then
                      Float.max (t /. 4.) (t -. (now () -. !probe_spent))
                    else t)
                  time_limit
              in
              phase "main";
              (* Pb_solver never mutates its model: the main search runs
                 on the caller's *)
              let o, s =
                Pb_solver.solve ~metrics ?on_event ?log ?rows
                  ?max_decisions:max_nodes ?time_limit:remaining ~lower_bound
                  ?should_stop m
              in
              let s =
                match !probe_work with
                | None -> s
                | Some p ->
                    { s with
                      Pb_solver.decisions = s.decisions + p.decisions;
                      propagations = s.propagations + p.propagations;
                      conflicts = s.conflicts + p.conflicts;
                      restarts = s.restarts + p.restarts;
                      learned = s.learned + p.learned }
              in
              (of_pb o, s)
        in
        (o, pb_stats s)
  in
  let stats =
    match outcome with
    | Optimal { objective; _ } -> { stats with best_bound = Some objective }
    | _ -> stats
  in
  (outcome, { stats with elapsed = now () -. t0 })

let min_opt a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

let solve ?(obs = Archex_obs.Ctx.null) ?on_event ?backend ?rows ?max_nodes
    ?time_limit ?budget ?session ?lower_bound m =
  require_pure_boolean m;
  let backend = Option.value backend ~default:Pseudo_boolean in
  (* clamp the per-call limits under what the global budget has left *)
  let module B = Archex_resilience.Budget in
  let time_limit =
    match budget with
    | None -> time_limit
    | Some b -> min_opt time_limit (B.remaining_time b)
  in
  let max_nodes =
    match budget with
    | None -> max_nodes
    | Some b -> min_opt max_nodes (B.remaining_nodes b)
  in
  (* cooperative cancellation: the budget's cancel hook becomes the
     backends' [should_stop], polled inside their search loops — a
     cancelled daemon job or a SIGINT winds the solve down mid-search
     instead of at the next iteration boundary *)
  let should_stop =
    match budget with
    | Some b -> Some (fun () -> B.is_cancelled b)
    | None -> None
  in
  let spent =
    (match time_limit with Some t -> t <= 0. | None -> false)
    || (match max_nodes with Some n -> n <= 0 | None -> false)
    || (match budget with Some b -> B.is_cancelled b | None -> false)
  in
  let forced_limit =
    spent || Archex_resilience.Faults.probe Archex_resilience.Faults.Solver_limit
  in
  let trace = Archex_obs.Ctx.trace obs in
  let attrs =
    if Archex_obs.Trace.enabled trace then
      [ ("backend", Archex_obs.Json.Str (backend_name backend));
        ("vars", Archex_obs.Json.Num (float_of_int (Model.var_count m)));
        ("constraints",
         Archex_obs.Json.Num (float_of_int (Model.constraint_count m))) ]
    else []
  in
  let outcome, stats =
    Archex_obs.Trace.with_span ~attrs trace "solve" (fun () ->
        if forced_limit then
          ( Limit_reached { incumbent = None },
            { backend;
              nodes = 0;
              propagations = 0;
              conflicts = 0;
              elapsed = 0.;
              best_bound = None } )
        else
          solve_untraced ~obs ~on_event ~backend ?rows ?max_nodes ?time_limit
            ?should_stop ?session ?lower_bound m)
  in
  (match budget with
  | Some b -> B.charge_nodes b stats.nodes
  | None -> ());
  let metrics = Archex_obs.Ctx.metrics obs in
  if Archex_obs.Metrics.enabled metrics then begin
    Archex_obs.Metrics.incr (Archex_obs.Metrics.counter metrics "solve.calls");
    Archex_obs.Metrics.observe
      (Archex_obs.Metrics.histogram metrics "solve.seconds")
      stats.elapsed
  end;
  (match rows with
  | None -> ()
  | Some rs ->
      if Archex_obs.Metrics.enabled metrics then begin
        let add name v =
          Archex_obs.Metrics.add
            (Archex_obs.Metrics.counter metrics name)
            (float_of_int v)
        in
        add "solver.constraint.propagations" (Row_stats.total_propagations rs);
        add "solver.constraint.conflicts" (Row_stats.total_conflicts rs);
        add "solver.constraint.binding" (Row_stats.total_binding rs)
      end;
      match Archex_obs.Ctx.search_log obs with
      | None -> ()
      | Some sink ->
          let fields =
            match Row_stats.to_json rs with
            | Archex_obs.Json.Obj fields -> fields
            | _ -> []
          in
          sink
            (Archex_obs.Json.Obj
               (("ev", Archex_obs.Json.Str "row_activity") :: fields)));
  Archex_obs.Gc_metrics.sample metrics;
  (outcome, stats)

let pp_run_stats ppf s =
  Format.fprintf ppf "%s: %d nodes" (backend_name s.backend) s.nodes;
  if s.propagations > 0 || s.conflicts > 0 then
    Format.fprintf ppf ", %d propagations, %d conflicts" s.propagations
      s.conflicts;
  (match s.best_bound with
  | Some b -> Format.fprintf ppf ", bound %g" b
  | None -> ());
  Format.fprintf ppf ", %.3fs" s.elapsed

let run_stats_to_json s =
  Archex_obs.Json.Obj
    [ ("backend", Archex_obs.Json.Str (backend_name s.backend));
      ("nodes", Archex_obs.Json.Num (float_of_int s.nodes));
      ("propagations", Archex_obs.Json.Num (float_of_int s.propagations));
      ("conflicts", Archex_obs.Json.Num (float_of_int s.conflicts));
      ("elapsed", Archex_obs.Json.Num s.elapsed);
      ( "best_bound",
        match s.best_bound with
        | Some b -> Archex_obs.Json.Num b
        | None -> Archex_obs.Json.Null ) ]

let pp_outcome ppf = function
  | Optimal { objective; _ } ->
      Format.fprintf ppf "optimal (objective %g)" objective
  | Infeasible -> Format.fprintf ppf "infeasible"
  | Limit_reached { incumbent = Some (c, _) } ->
      Format.fprintf ppf "limit reached (incumbent %g)" c
  | Limit_reached { incumbent = None } ->
      Format.fprintf ppf "limit reached (no incumbent)"
