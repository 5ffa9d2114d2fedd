(** Typed failure taxonomy of the synthesis stack.

    Every cross-module boundary that used to [failwith] or [invalid_arg]
    on resource exhaustion or hostile input now reports one of these
    constructors instead, with enough context to render an actionable
    message, serialize into a run report, and decide on a degradation
    step.  The taxonomy is deliberately small: a failure either names the
    budget that ran out ({!Timeout}, {!Node_budget}, {!Memory_pressure},
    {!Bdd_blowup}), a cooperative stop ({!Cancelled}), bad input rejected
    up front ({!Invalid_input}), or a defect ({!Internal}). *)

type t =
  | Timeout of { stage : string; elapsed : float; limit : float }
      (** wall-clock deadline exceeded inside [stage] *)
  | Node_budget of { stage : string; used : int; limit : int }
      (** PB decision budget exhausted *)
  | Memory_pressure of { stage : string; heap_words : int;
                         limit_words : int }
      (** GC heap watermark exceeded *)
  | Bdd_blowup of { stage : string; nodes : int; limit : int }
      (** the exact reliability oracle outgrew its node ceiling *)
  | Cancelled of { stage : string }
      (** a cooperative cancellation (signal, drained daemon, client
          disconnect) was observed at a budget check inside [stage] *)
  | Invalid_input of string list
      (** every violation found in the input, not just the first *)
  | Internal of { stage : string; detail : string }
      (** an escaped exception, wrapped at the boundary *)

exception E of t
(** The one exception allowed to cross module boundaries; boundary
    functions catch it and return the payload as an [Error]. *)

val code : t -> string
(** Stable machine-readable tag: ["timeout"], ["node-budget"],
    ["memory-pressure"], ["bdd-blowup"],
    ["cancelled"], ["invalid-input"], ["internal"]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val to_json : t -> Archex_obs.Json.t
(** [{"error": code, ...context fields}] — embedded in run reports and
    checkpoint trailers. *)

val is_budget : t -> bool
(** True for the resource-exhaustion family ({!Timeout}, {!Node_budget},
    {!Memory_pressure}, {!Bdd_blowup}) and for {!Cancelled} — the
    failures an anytime result may legitimately accompany, and after
    which a rerun (or a resumed / retried job) may still succeed. *)

val guard : stage:string -> (unit -> 'a) -> ('a, t) result
(** Run a thunk, converting {!E} to its payload, [Invalid_argument] /
    [Failure] to {!Invalid_input} / {!Internal}.  [Out_of_memory] maps to
    {!Memory_pressure}.  Other exceptions propagate. *)
