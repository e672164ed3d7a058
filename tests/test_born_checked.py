"""Values the library builds from values it has already checked skip
the checking constructors.  Each must equal what its checking
constructor builds from its fields, pass the checks that apply to it,
and survive a copy and a pickle, both of which rebuild it through that
constructor."""

import copy
import pickle
import random
from math import comb

import pytest

from faultsched import (
    Adversary,
    GameParams,
    GameValue,
    PInstance,
    Schedule,
    minimal_adversary,
    online_game_value,
    reduce_instance,
    surviving_prefix_instance,
    trivial_schedule,
    validate_adversary,
    validate_schedule,
)
from reference import random_cases, random_schedule


def assert_rebuilt_equal(value):
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def assert_batch_schedule_checked(N, n, f):
    t = trivial_schedule(GameParams(N, n, f))
    assert validate_schedule(t) is None
    assert t == Schedule(t.params, t.sets)
    assert len(t) == N
    return t


def test_batch_schedules_up_to_40_are_born_valid():
    cells = 0
    for N in range(2, 41):
        for n in range(2, N + 1):
            for f in range(1, n):
                assert_rebuilt_equal(assert_batch_schedule_checked(N, n, f))
                cells += 1
    assert cells == comb(41, 3)


@pytest.mark.parametrize("N,n,f", [(3200, 40, 10), (800, 8, 7)])
def test_batch_schedule_at_scale_is_born_valid(N, n, f):
    assert_rebuilt_equal(assert_batch_schedule_checked(N, n, f))


GUARDED = [GameParams(N, n, f) for N in range(2, 6) for n in range(2, N + 1) for f in range(1, n)
           if comb(N, n) <= 6]
# The double oracle runs out of cells on (5, 4, 2) and (5, 4, 3).
SOLVED = {"deterministic": GUARDED,
          "randomized": [p for p in GUARDED if p not in (GameParams(5, 4, 2), GameParams(5, 4, 3))]}


@pytest.mark.parametrize("mode", SOLVED)
def test_game_values_are_born_checked(mode):
    assert len(SOLVED[mode]) == {"deterministic": 17, "randomized": 15}[mode]
    for params in SOLVED[mode]:
        gv = online_game_value(params, mode)
        assert GameValue(gv.value, gv.strategy_support) == gv
        for s, _ in gv.strategy_support:
            assert s.params == params and len(s) == params.N
            assert validate_schedule(s) is None and s == Schedule(params, s.sets)
        assert_rebuilt_equal(gv)


def assert_chain_checked(inst):
    """Reduce ``inst`` to no rows, checking each instance on the way;
    returns the number of reductions."""
    steps = 0
    while True:
        assert PInstance(inst.n, inst.f, inst.right_ids, inst.rows) == inst
        assert_rebuilt_equal(inst)
        if not inst.left_count:
            return steps
        reduced = reduce_instance(inst)
        # The witness C has |B - C| + |gamma(C)| <= f - 1 over the last row B,
        # so it gives up |C| >= n - f + 1 + |gamma(C)| ids for 1 + |gamma(C)| rows.
        assert (inst.right_count - reduced.right_count
                >= inst.n - inst.f + inst.left_count - reduced.left_count)
        inst, steps = reduced, steps + 1


def test_batch_reduce_chain_is_born_checked():
    inst = surviving_prefix_instance(trivial_schedule(GameParams(3200, 40, 10)))
    assert assert_chain_checked(inst) == 80


def test_random_reduce_chains_are_born_checked():
    rng = random.Random(39)
    steps = 0
    for i in range(200):
        n = rng.randint(2, 6)
        N = rng.randint(n, 24)
        s = random_schedule(GameParams(N, n, rng.randint(1, n - 1)), rng.randint(1, N), seed=i)
        steps += assert_chain_checked(surviving_prefix_instance(s))
    assert steps >= 300


def test_minimal_adversaries_are_born_legal():
    for s in random_cases(300, seed=39, max_pool=16, max_n=6):
        adv = minimal_adversary(s)
        assert validate_adversary(s, adv) is None
        assert adv == Adversary(adv.kills)
        assert_rebuilt_equal(adv)
