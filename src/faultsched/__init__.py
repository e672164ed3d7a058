"""Optimal fault-tolerant processor scheduling.

A pool of N processors runs in rounds of n at a time while an adversary
destroys one processor per round; a round succeeds while at most f of
its chosen processors are dead.  This package computes the exact
optimum worst-case number of good rounds, builds schedules attaining
it, constructs minimal killing adversaries through bipartite matching,
and cross-checks everything against brute-force search at small sizes.
"""

from .game import (
    Adversary,
    GameParams,
    Schedule,
    Violation,
    adversary_to_dict,
    load_adversary,
    load_schedule,
    save_adversary,
    save_schedule,
    schedule_to_dict,
    survival_time,
    trivial_schedule,
    validate_adversary,
    validate_schedule,
)
from .matching import (
    BipartiteGraph,
    DeficiencyWitness,
    Matching,
    deficiency_witness,
    max_matching,
)
from .matrixgame import MatrixGameSolution, solve_zero_sum
from .online import (
    AdversaryPolicy,
    GameValue,
    adversary_best_response,
    online_game_value,
)
from .oracle import (
    BudgetExceededError,
    SearchBudget,
    brute_adversary_min,
    brute_deficiency,
    brute_optimum,
    random_schedule,
)
from .solver import (
    MembershipReport,
    PInstance,
    TimeGraph,
    first_killable_time,
    instance_to_dict,
    load_instance,
    membership_in_P,
    minimal_adversary,
    minimal_survival_time,
    reduce_instance,
    save_instance,
    schedule_instance,
    surviving_prefix_instance,
    time_graph,
)
from .survival import apriori_upper_bound, h_value, optimum_survival_time
from .twopool import (
    TwoPoolParams,
    two_pool_best_split,
    two_pool_brute_optimum,
    two_pool_lower_bound,
)

__all__ = [
    "Adversary",
    "AdversaryPolicy",
    "BipartiteGraph",
    "BudgetExceededError",
    "DeficiencyWitness",
    "GameParams",
    "GameValue",
    "Matching",
    "MatrixGameSolution",
    "MembershipReport",
    "PInstance",
    "Schedule",
    "SearchBudget",
    "TimeGraph",
    "TwoPoolParams",
    "Violation",
    "adversary_best_response",
    "adversary_to_dict",
    "apriori_upper_bound",
    "brute_adversary_min",
    "brute_deficiency",
    "brute_optimum",
    "deficiency_witness",
    "first_killable_time",
    "h_value",
    "instance_to_dict",
    "load_adversary",
    "load_instance",
    "load_schedule",
    "max_matching",
    "membership_in_P",
    "minimal_adversary",
    "minimal_survival_time",
    "online_game_value",
    "optimum_survival_time",
    "random_schedule",
    "reduce_instance",
    "save_adversary",
    "save_instance",
    "save_schedule",
    "schedule_instance",
    "schedule_to_dict",
    "solve_zero_sum",
    "survival_time",
    "surviving_prefix_instance",
    "time_graph",
    "trivial_schedule",
    "two_pool_best_split",
    "two_pool_brute_optimum",
    "two_pool_lower_bound",
    "validate_adversary",
    "validate_schedule",
]
