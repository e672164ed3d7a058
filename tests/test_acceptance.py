"""End-to-end acceptance checks.

Each test prints one line, "criterion N [label]: PASS/FAIL (x.xxs)",
straight to the terminal so the summary survives pytest's capture.
Every check is exact; no tolerances.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from operator import le

import pytest

from faultsched import (
    BipartiteGraph,
    GameParams,
    TwoPoolParams,
    adversary_best_response,
    brute_adversary_min,
    brute_deficiency,
    brute_optimum,
    deficiency_witness,
    h_value,
    max_matching,
    membership_in_P,
    minimal_adversary,
    minimal_survival_time,
    online_game_value,
    optimum_survival_time,
    random_schedule,
    reduce_instance,
    survival_time,
    surviving_prefix_instance,
    trivial_schedule,
    two_pool_lower_bound,
)


@contextmanager
def criterion(capfd, num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        with capfd.disabled():
            print(f"criterion {num} [{label}]: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    with capfd.disabled():
        print(f"criterion {num} [{label}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_formula_spot_checks(capfd):
    with criterion(capfd, 1, "formula spot checks"):
        assert h_value(n=4, f=3, k=7) == 5
        assert optimum_survival_time(GameParams(N=4, n=2, f=1)) == 2


def test_criterion_2_brute_optimum_grid(capfd):
    with criterion(capfd, 2, "exhaustive optimum grid"):
        grid = [
            (N, n, f)
            for N in range(1, 6)
            for n in range(1, N + 1)
            for f in range(1, n)
        ]
        grid += [(6, 3, 1), (6, 3, 2)]
        for N, n, f in grid:
            params = GameParams(N=N, n=n, f=f)
            assert brute_optimum(params) == h_value(n, f, N), (N, n, f)


def test_criterion_3_trivial_schedule_is_optimal(capfd):
    with criterion(capfd, 3, "trivial schedule optimality"):
        checked = 0
        for n in range(1, 11):
            for f in range(1, n):
                for N in range(n, 61):
                    params = GameParams(N=N, n=n, f=f)
                    s = trivial_schedule(params)
                    assert minimal_survival_time(s) == h_value(n, f, N), params
                    checked += 1
        assert checked == 2415


def test_criterion_4_adversary_solver_vs_oracle(capfd):
    with criterion(capfd, 4, "adversary solver vs oracle"):
        rng = random.Random(404)
        for i in range(100):
            N = rng.randint(2, 8)
            n = rng.randint(2, min(3, N))
            f = rng.randint(1, n - 1)
            params = GameParams(N=N, n=n, f=f)
            s = random_schedule(params, rng.randint(1, N), seed=i)
            t = minimal_survival_time(s)
            assert t == brute_adversary_min(s), (params, s.sets)
            adv = minimal_adversary(s)
            assert survival_time(s, adv) == t, (params, s.sets)


def test_criterion_5_matching_deficiency_duality(capfd):
    with criterion(capfd, 5, "matching deficiency duality"):
        rng = random.Random(505)
        for _ in range(200):
            left = rng.randint(0, 12)
            right = rng.randint(1, 12)
            adj = tuple(
                tuple(
                    sorted(
                        p
                        for p in range(1, right + 1)
                        if rng.random() < rng.choice((0.15, 0.4, 0.8))
                    )
                )
                for _ in range(left)
            )
            g = BipartiteGraph(left_count=left, right_count=right, adj=adj)
            nu = max_matching(g).size
            assert deficiency_witness(g).value == nu
            assert brute_deficiency(g).value == nu


def test_criterion_6_survival_function_properties(capfd):
    with criterion(capfd, 6, "survival function properties"):
        for n in range(1, 21):
            for f in range(0, n):
                table = [h_value(n, f, k) for k in range(402)]
                ks = range(201)
                # rate bound h(k) <= h(k+l) + n - l - f for 0 <= l <= n
                for l in range(n + 1):
                    assert all(table[k] <= table[k + l] + n - l - f for k in ks), (n, f, l)
                # periodicity in steps of n
                assert table[n:n + 201] == [table[k] + f for k in ks], (n, f)
                # sublinearity h(p+q) <= h(p) + q for p, q <= 200: for each p,
                # table[p + q] against table[p] + q, pair by pair
                for p in ks:
                    bound = range(table[p], table[p] + 201)
                    assert all(map(le, table[p:p + 201], bound)), (n, f, p)


def test_criterion_7_reduction_invariants(capfd):
    with criterion(capfd, 7, "instance reduction invariants"):
        rng = random.Random(707)
        for i in range(100):
            N = rng.randint(2, 12)
            n = rng.randint(2, min(5, N))
            f = rng.randint(1, n - 1)
            params = GameParams(N=N, n=n, f=f)
            s = random_schedule(params, rng.randint(1, N), seed=1000 + i)
            inst = surviving_prefix_instance(s)
            assert membership_in_P(inst).member
            big_l, big_r = len(inst.rows), len(inst.right_ids)
            reduced = reduce_instance(inst)
            small_l, small_r = len(reduced.rows), len(reduced.right_ids)
            assert membership_in_P(reduced).member, (params, s.sets)
            assert small_l <= big_l - 1, (params, s.sets)
            assert h_value(n, f, small_r) + (big_l - small_l) <= h_value(n, f, big_r)


def test_criterion_8_online_game_values(capfd):
    with criterion(capfd, 8, "online game values"):
        params = GameParams(N=4, n=2, f=1)
        gv = online_game_value(params, "randomized")
        assert gv.value == Fraction(9, 4)
        weights = dict(gv.strategy_support)
        assert sum(weights.values()) == 1
        # certify with the solver's best-response search and with a
        # self-contained expectimin recursion over the support
        assert adversary_best_response(params, gv.strategy_support) == Fraction(9, 4)
        assert expectimin(params, gv.strategy_support) == Fraction(9, 4)
        assert online_game_value(params, "deterministic").value == Fraction(2)


def expectimin(params, support):
    f, last = params.f, params.N

    def value(t, killed, weighted):
        groups = {}
        for sets, w in weighted:
            groups.setdefault(sets[t - 1], []).append((sets, w))
        total = sum(w for _, w in weighted)
        out = Fraction(0)
        for row, member in sorted(groups.items()):
            best = None
            for kill in row:
                now = killed | {kill}
                if len(now & set(row)) > f:
                    cand = Fraction(t - 1)
                elif t == last:
                    cand = Fraction(last)
                else:
                    cand = value(t + 1, now, member)
                if best is None or cand < best:
                    best = cand
            out += sum(w for _, w in member) / total * best
        return out

    return value(1, frozenset(), [(s.sets, w) for s, w in support])


def test_criterion_9_two_pool_bound(capfd):
    with criterion(capfd, 9, "two pool bound"):
        tp = TwoPoolParams(N1=4, N2=4, n=4, g1=1, g2=1)
        bound = two_pool_lower_bound(tp)
        assert bound == 2
        best = 0
        for a in range(tp.g1, tp.n - tp.g2 + 1):
            b = tp.n - a
            if a > tp.N1 or b > tp.N2:
                continue
            best = max(
                best,
                min(h_value(a, a - tp.g1, tp.N1), h_value(b, b - tp.g2, tp.N2)),
            )
        assert bound == best
        assert two_pool_lower_bound(TwoPoolParams(N1=4, N2=4, n=2, g1=1, g2=1)) == 0
        assert two_pool_lower_bound(TwoPoolParams(N1=6, N2=5, n=3, g1=2, g2=1)) == 0
