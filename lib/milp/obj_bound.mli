(** Combinatorial objective lower bound from disjoint covering rows.

    Cardinality rows [Σ xᵢ ≥ k] with pairwise-disjoint supports force
    additive objective cost: each must be satisfied by its own variables,
    paying at least the sum of its [k] cheapest coefficients.  A greedy
    packing of such rows yields a valid lower bound on any feasible
    objective value — the surrogate-bound step that lets a propagation-based
    solver close optimality proofs that otherwise need cutting planes. *)

val lower_bound : Model.t -> float
(** A valid lower bound on the objective over all feasible assignments
    (including the objective constant and the [Σ min(0, cᵢ)] term for
    variables outside the packed supports).  Cheap: one pass over the
    rows plus sorting.  Returns [neg_infinity] when no useful rows exist
    and some variable has an infinite contribution. *)

val nontrivial : Model.t -> float option
(** {!lower_bound} when it exceeds the trivial bound
    [Σ min(0, cᵢ) + const], else [None].  The model is not modified: the
    solver passes the bound to the search rather than adding it as a
    row. *)
