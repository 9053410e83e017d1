(** Deterministic schedule search under an evaluation budget.

    Coordinate descent over a {!Knobs.space}: start at the default
    (all-zeros) point, sweep the axes in order, try every valid value
    of one axis with the others fixed, move to the best improving
    value, and repeat until a full sweep improves nothing or the budget
    runs out.  A memoizing evaluator makes repeated points free; only
    distinct cost evaluations consume budget.  Nothing random and no
    wall clock is consulted, so a (budget, space, cost) triple fully
    determines the result, including the evaluation order — the
    reproducibility the determinism tests assert bitwise.

    The default point is always evaluation 0: the reported best can
    never be worse than the untuned configuration.

    When a {!Trace} sink is installed, each evaluation emits one span
    on track ["tune"] (name [tune.eval.N], synthetic timestamp = the
    evaluation index, duration = the cost, args [cost] and
    [config]). *)

type eval = {
  e_index : int;            (** 0-based evaluation order *)
  e_point : int array;
  e_candidate : Knobs.candidate;
  e_cost : float;
}

type result = {
  r_budget : int;
  r_evals : eval list;  (** the cost trajectory, in evaluation order *)
  r_best : eval;
  r_default : eval;     (** the untuned configuration's evaluation *)
}

val run :
  budget:int -> Knobs.space -> (Knobs.candidate -> float) -> result
(** [run ~budget space cost] searches the space for the candidate of
    least [cost] — in the tuner, {!Cost_oracle.analytical}.  [budget]
    is the maximum number of cost evaluations (≥ 1). *)
