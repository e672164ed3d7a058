"""Optimal fault-tolerant processor scheduling.

A pool of N processors runs in rounds of n at a time while an adversary
destroys one processor per round; a round succeeds while at most f of
its chosen processors are dead.  This package computes the exact
optimum worst-case number of good rounds, builds schedules attaining
it, constructs minimal killing adversaries through bipartite matching,
and cross-checks everything against brute-force search at small sizes.

The public names below are imported from their submodules on first use
(PEP 562), so ``import faultsched`` loads no submodule and each CLI
command loads only the modules it runs.
"""

_HOMES = {
    "game": (
        "Adversary", "BudgetExceededError", "GameParams", "Schedule", "Violation",
        "adversary_to_dict", "load_adversary", "load_schedule", "save_adversary",
        "save_schedule", "schedule_to_dict", "survival_time", "trivial_schedule",
        "validate_adversary", "validate_schedule",
    ),
    "matching": (
        "BipartiteGraph", "DeficiencyWitness", "Matching", "deficiency_witness",
        "max_matching",
    ),
    "matrixgame": ("MatrixGameSolution", "solve_zero_sum"),
    "online": ("GameValue", "adversary_best_response", "online_game_value"),
    "oracle": ("brute_adversary_min", "brute_optimum"),
    "solver": (
        "MembershipReport", "PInstance", "first_killable_time",
        "instance_to_dict", "load_instance", "membership_in_P", "minimal_adversary",
        "minimal_survival_time", "reduce_instance", "save_instance",
        "surviving_prefix_instance", "time_graph",
    ),
    "survival": ("h_value", "optimum_survival_time"),
    "twopool": (
        "TwoPoolParams", "two_pool_best_split", "two_pool_brute_optimum",
        "two_pool_lower_bound",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli", "codec"}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Import a public name or a submodule on first use and cache it."""
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
