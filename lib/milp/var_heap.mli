(** Indexed max-heap over variables keyed by a mutable activity score —
    the decision queue of {!Pb_solver} (VSIDS-style).

    Supports [increase]-key after a bump, removal of the maximum, and
    re-insertion on backtracking; all logarithmic. *)

type t

val create : int -> t
(** [create n] holds variables [0 .. n-1], all initially present with
    activity 0. *)

val activity : t -> int -> float

val bump : t -> int -> float -> unit
(** Add to a variable's activity (repositioning it if queued). *)

val rescale : t -> float -> unit
(** Multiply all activities (used to prevent float overflow). *)

val pop : t -> int
(** Remove and return the queued variable with the highest activity, or
    [-1] when none is queued (allocation-free). *)

val pop_max : t -> int option
(** [pop] as an option. *)

val push : t -> int -> unit
(** Re-insert a variable (no-op if already queued). *)

val mem : t -> int -> bool

val rebuild : t -> unit
(** Restore the heap invariant over all queued variables in O(n) (Floyd
    heapify).  Needed after bulk external changes; [bump]/[push]/[pop_max]
    maintain the invariant incrementally and never require it. *)

val of_activities : ?mem:(int -> bool) -> float array -> t
(** [of_activities acts] builds a heap over variables [0 .. n-1] with the
    given (copied) activities — the warm-restore path of a persistent
    solver session, where activities from a previous solve must re-seed a
    fresh, larger heap without violating the invariant ([create] assumes
    index order, [push] assumes the rest is already a heap).  [mem]
    (default: all) selects which variables are initially queued. *)
