(** Deterministic schedule search under an evaluation budget.

    Three strategies over a {!Knobs.space}, all driven by one seeded
    {!Rng} stream and a shared memoizing evaluator — repeated points
    are free, only distinct cost evaluations consume budget.  No
    wall-clock or ambient randomness is consulted anywhere, so a
    (seed, budget, strategy, space, cost) tuple fully determines the
    result, including the evaluation order — the reproducibility the
    determinism tests assert bitwise.

    The default (all-zeros) point is always evaluation 0: the reported
    best can never be worse than the untuned configuration.

    When a {!Trace} sink is installed, each evaluation emits one span
    on track ["tune"] (name [tune.eval.N], synthetic timestamp = the
    evaluation index, duration = the cost, args [cost] and
    [config]). *)

type strategy =
  | Grid     (** exhaustive when the lattice fits the budget, else a
                 seeded uniform sample of it *)
  | Greedy   (** coordinate descent from the default point *)
  | Evolve   (** (4+4) evolutionary search: elitist selection, uniform
                 crossover, single-axis mutation *)

val strategy_name : strategy -> string
(** ["grid"], ["greedy"], ["evolve"] — the [ftc tune --strategy]
    vocabulary. *)

val strategy_of_name : string -> strategy option

type eval = {
  e_index : int;            (** 0-based evaluation order *)
  e_point : int array;
  e_candidate : Knobs.candidate;
  e_cost : float;
}

type result = {
  r_strategy : strategy;
  r_seed : int;
  r_budget : int;
  r_evals : eval list;  (** the cost trajectory, in evaluation order *)
  r_best : eval;
  r_default : eval;     (** the untuned configuration's evaluation *)
}

exception Budget_exhausted
(** Internal control flow; never escapes {!run}. *)

val run :
  ?seed:int ->
  strategy ->
  budget:int ->
  Knobs.space ->
  (Knobs.candidate -> float) ->
  result
(** [run strategy ~budget space cost] searches the space (default
    seed 2024) for the candidate of least [cost] — in the tuner,
    {!Cost_oracle.analytical}.  [budget] is the maximum number of
    cost evaluations (≥ 1). *)
