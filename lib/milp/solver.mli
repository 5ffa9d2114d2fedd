(** Unified solver front-end (the [SOLVEILP] of Algorithms 1 and 3).

    Dispatches a model to one of the exact backends and reports a common
    outcome plus solve statistics. *)

type backend =
  | Pseudo_boolean  (** {!Pb_solver} — the default *)
  | Brute_force     (** {!Brute} — tiny models / testing *)

val backend_name : backend -> string
(** ["pb"] or ["brute"]. *)

val backend_of_name : string -> (backend, string) result
(** Inverse of {!backend_name} — the one parser of backend names, shared
    by the CLI, serve requests and checkpoint resume.  Any other name
    (including the retired ["lp-bb"], ["core-guided"] and ["portfolio"])
    is an error message naming it and the accepted names. *)

type session
(** Persistent solver state for re-solving a monotonically growing model
    (the ILP-MR loop): learned clauses, variable activities, saved phases
    and the clean level-0 trail survive across {!solve} calls that pass
    the same session.  A {!Pb_solver.Session}. *)

val make_session : ?rows:Row_stats.t -> Model.t -> session
(** Capture [m] by reference.  Rows/variables appended to [m] between
    solves are ingested automatically at the next {!solve}.  The model
    must only ever grow (never weaken) for carried state to stay sound.
    @raise Archex_resilience.Error.E with [Invalid_input] if [m] is not
    pure 0-1. *)

val session_model : session -> Model.t

val session_carried_learned : session -> int
(** Learned rows carried into the session's most recent solve — stamped
    into per-iteration certificates as provenance by [Ilp_mr]. *)

val session_solves : session -> int
(** Number of solves the session has run. *)

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Limit_reached of { incumbent : (float * float array) option }

type run_stats = {
  backend : backend;
  nodes : int;          (** PB decisions *)
  propagations : int;
  conflicts : int;
  elapsed : float;      (** seconds *)
  best_bound : float option;
      (** best proven objective lower bound at exit; equals the objective
          on [Optimal], and on [Limit_reached] sandwiches the optimum
          between itself and the incumbent *)
}

val solve :
  ?obs:Archex_obs.Ctx.t ->
  ?on_event:(Archex_obs.Event.t -> unit) ->
  ?backend:backend ->
  ?rows:Row_stats.t ->
  ?max_nodes:int ->
  ?time_limit:float ->
  ?budget:Archex_resilience.Budget.t ->
  ?session:session ->
  ?lower_bound:float ->
  Model.t -> outcome * run_stats
(** Minimize the model.  [backend] defaults to [Pseudo_boolean].  Both
    backends take pure 0-1 models only: a model with an integer or
    continuous variable raises {!Archex_resilience.Error.E} with
    [Invalid_input].  [time_limit] is wall-clock seconds
    ({!Archex_obs.Clock}).  The caller's model is never mutated.

    [session] switches the PB backend to incremental mode: the solve
    resumes from the session's carried state and its per-call statistics
    are deltas, so summing them over successive calls matches the
    session totals.  [lower_bound], when given, must be a valid lower
    bound on every feasible objective value of [m] — e.g. the
    [best_bound] proved for a previous, weaker model in the MR loop
    (appending rows can only raise the optimum).  It is maxed with the
    {!Obj_bound} bound and lets the search close optimality proofs much
    earlier — a scratch PB solve additionally probes at the bound before
    searching, while a session solve instead installs the bound as a
    permanent objective floor and lets its warm-started descent reach it
    directly.

    [budget] (default none) clamps [time_limit] and [max_nodes] under the
    global allowance: the call never runs past
    {!Archex_resilience.Budget.remaining_time} or
    {!Archex_resilience.Budget.remaining_nodes}, the nodes it does spend
    are charged back, and an already-exhausted budget — or an injected
    [Solver_limit] fault ({!Archex_resilience.Faults}) — returns
    [Limit_reached {incumbent = None}] immediately.

    [rows] (default none; zero cost without it) accumulates per-model-row
    activity ({!Row_stats}) keyed by row insertion index in [m]:
    propagations, conflicts and binding.  Totals are also emitted as
    [solver.constraint.propagations/conflicts/binding] counters and,
    when a search log is installed, as one final
    [{"ev":"row_activity", "rows":[...]}] record.

    [obs] (default disabled) wraps the run in a ["solve"] trace span
    (attributes: backend, vars, constraints) and accumulates backend
    metrics — [pb.*] — plus a [solve.calls] counter and a
    [solve.seconds] histogram.  [on_event]
    forwards the backend's progress callback (heartbeats and incumbent
    updates); note the PB probe and main search both report through it.

    The front-end computes the {!Obj_bound} combinatorial lower bound,
    passes it to the search as [lower_bound], and — for a scratch PB
    solve — first probes pure feasibility at cost ≤ bound on a copy of
    the model (half the time budget): a probe hit is returned as a proven
    optimum (up to a 1e-6 relative tolerance on non-integral objectives,
    the ε of the paper's Theorem 1). *)

val solution_value : float array -> Model.var -> bool
(** Convenience: read a 0-1 solution entry as a Boolean (≥ 0.5). *)

val pp_outcome : Format.formatter -> outcome -> unit

val pp_run_stats : Format.formatter -> run_stats -> unit
(** One-line human summary, e.g.
    ["pb: 421 nodes, 1530 propagations, 37 conflicts, 0.004s"]
    (mirrors {!Model.pp_stats}). *)

val run_stats_to_json : run_stats -> Archex_obs.Json.t
(** Structured form of {!run_stats} for machine-readable reports. *)
