import itertools
import json
import random
from fractions import Fraction

import pytest

from faultsched import (
    Adversary,
    BipartiteGraph,
    GameParams,
    Matching,
    PInstance,
    Schedule,
    adversary_best_response,
    brute_adversary_min,
    first_killable_time,
    h_value,
    instance_to_dict,
    load_instance,
    max_matching,
    membership_in_P,
    minimal_adversary,
    minimal_survival_time,
    reduce_instance,
    save_instance,
    save_schedule,
    survival_time,
    surviving_prefix_instance,
    time_graph,
    trivial_schedule,
)
from faultsched import matching, solver
from faultsched.cli import main
from reference import random_cases


def test_time_graph_padded_trivial():
    s = trivial_schedule(GameParams(4, 2, 1))
    g = time_graph(s, 3)
    assert (g.left_count, g.right_count) == (2, 2)
    assert g.adj == ((), (1, 2))
    assert max_matching(g).size == 1


def test_time_graph_first_round_has_no_lefts():
    s = trivial_schedule(GameParams(4, 2, 1))
    g = time_graph(s, 1)
    assert g.left_count == 0
    assert max_matching(g).size == 0


def test_time_graph_bounds():
    s = trivial_schedule(GameParams(4, 2, 1))
    with pytest.raises(ValueError):
        time_graph(s, 0)
    with pytest.raises(ValueError):
        time_graph(s, 5)


@pytest.mark.parametrize("t", [True, 2.0, "2", None])
def test_time_graph_rejects_non_int_t(t):
    s = trivial_schedule(GameParams(4, 2, 1))
    with pytest.raises(ValueError, match=f"^t={t!r} outside schedule of length 4$"):
        time_graph(s, t)


def test_first_killable_time_trivial():
    s = trivial_schedule(GameParams(4, 2, 1))
    assert first_killable_time(s) == 3
    assert minimal_survival_time(s) == 2


def test_first_killable_time_none():
    s = Schedule(params=GameParams(6, 2, 1), sets=((1, 2), (3, 4), (5, 6)))
    assert first_killable_time(s) == 0
    assert minimal_survival_time(s) == 3


def test_constant_schedule():
    s = Schedule(params=GameParams(4, 2, 1), sets=((1, 2),) * 4)
    assert first_killable_time(s) == 2
    assert minimal_survival_time(s) == 1


def test_minimal_adversary_pinned_example():
    s = trivial_schedule(GameParams(4, 2, 1))
    adv = minimal_adversary(s)
    assert adv.kills == (1, 3, 4, 3)
    assert survival_time(s, adv) == 2


def test_minimal_adversary_unkillable_schedule():
    s = Schedule(params=GameParams(6, 2, 1), sets=((1, 2), (3, 4), (5, 6)))
    adv = minimal_adversary(s)
    assert adv.kills == (1, 3, 5)
    assert survival_time(s, adv) == 3


def test_matching_number_can_jump_past_f():
    sets = ((1, 4, 5), (2, 6, 7), (3, 8, 9), (1, 2, 3))
    s = Schedule(params=GameParams(9, 3, 2), sets=sets)
    assert max_matching(time_graph(s, 4)).size == 3
    adv = minimal_adversary(s)
    assert survival_time(s, adv) == minimal_survival_time(s) == 3


def test_minimal_adversary_attains_on_random(count=60):
    for s in random_cases(count, seed=2):
        t = minimal_survival_time(s)
        assert survival_time(s, minimal_adversary(s)) == t


def test_minimal_survival_matches_brute_on_random(count=60):
    for s in random_cases(count, seed=3):
        assert minimal_survival_time(s) == brute_adversary_min(s)
        p = s.params
        assert first_killable_time(s) == membership_in_P(
            PInstance(p.n, p.f, range(1, p.N + 1), s.sets)).violating_t


TRIVIAL_40 = GameParams(N=40, n=4, f=2)

# Every library entry point that validates its schedule, with the
# parameters of the trivial schedule it is called on: the brute search
# needs few kill sequences and the on-line best response a guarded game.
VALIDATING_ENTRIES = {
    "first_killable_time": (TRIVIAL_40, first_killable_time),
    "minimal_adversary": (TRIVIAL_40, minimal_adversary),
    "minimal_survival_time": (TRIVIAL_40, minimal_survival_time),
    "surviving_prefix_instance": (TRIVIAL_40, surviving_prefix_instance),
    "time_graph": (TRIVIAL_40, lambda s: time_graph(s, 5)),
    "survival_time": (
        TRIVIAL_40, lambda s: survival_time(s, Adversary(tuple(row[0] for row in s.sets)))
    ),
    "brute_adversary_min": (GameParams(N=6, n=2, f=1), brute_adversary_min),
    "adversary_best_response": (
        GameParams(N=4, n=2, f=1), lambda s: adversary_best_response(s.params, ((s, Fraction(1)),))
    ),
}


@pytest.mark.parametrize("entry", VALIDATING_ENTRIES)
def test_schedule_validated_once(validations, entry):
    """The first call validates a fresh schedule; no later call on the
    same object does, and an equal new object is validated again.  The
    batch schedule is born valid: neither ``trivial_schedule`` nor any
    entry validates it."""
    for other_params, other_call in VALIDATING_ENTRIES.values():
        other_call(trivial_schedule(other_params))
    assert validations == []
    params, call = VALIDATING_ENTRIES[entry]
    s = Schedule(params, trivial_schedule(params).sets)
    call(s)
    assert len(validations) == 1 and validations[0] is s
    for other_params, other_call in VALIDATING_ENTRIES.values():
        if other_params == params:
            other_call(s)
            other_call(s)
    assert len(validations) == 1
    fresh = Schedule(s.params, s.sets)
    assert fresh is not s
    assert fresh == s and hash(fresh) == hash(s) and repr(fresh) == repr(s)
    call(fresh)
    assert len(validations) == 2 and validations[1] is fresh


@pytest.mark.parametrize("defect", ["duplicate", "above-N", "wrong-size"])
@pytest.mark.parametrize("entry", VALIDATING_ENTRIES)
def test_defect_past_t_star_is_caught(entry, defect):
    """A bad last row raises from every entry point, on every call,
    although the killability scan stops long before it."""
    params, call = VALIDATING_ENTRIES[entry]
    sets = list(trivial_schedule(params).sets)
    T, last = len(sets), sets[-1]
    assert 0 < first_killable_time(Schedule(params, tuple(sets[:-1]))) < T
    sets[-1], message = {
        "duplicate": (last[:-1] + last[:1], f"duplicate id at t={T}"),
        "above-N": (last[:-1] + (params.N + 1,), f"id out of range at t={T}"),
        "wrong-size": (last[:-1], f"set of size {params.n - 1} at t={T}, expected {params.n}"),
    }[defect]
    s = Schedule(params, tuple(sets))
    for _ in range(2):
        with pytest.raises(ValueError) as e:
            call(s)
        assert str(e.value) == f"invalid schedule: {message}"


def test_solve_adversary_validates_once(validations, tmp_path, capsys):
    path = tmp_path / "s.json"
    save_schedule(trivial_schedule(TRIVIAL_40), path)
    assert main(["solve-adversary", "--schedule", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["T=20", "t*=21"]
    assert len(validations) == 1


def reference_killable(s):
    """First t* with matching number of the time graph at least f, and
    a maximum matching as (step, member index) pairs, straight from the
    public ``time_graph`` and ``max_matching``: one graph and one maximum
    matching per step.  The pairs come from ``max_matching`` on the
    member side at t*, each member's earlier steps over ``1..t-1``, with
    each pair flipped, as the scan searches from the members."""
    for t in range(1, len(s) + 1):
        m = max_matching(time_graph(s, t))
        if m.size >= s.params.f:
            steps = tuple(
                tuple(u for u in range(1, t) if p in s.sets[u - 1]) for p in s.sets[t - 1]
            )
            member_side = max_matching(BipartiteGraph.from_rows(steps, tuple(range(1, t))))
            assert member_side.size == m.size
            return t, Matching((u, j) for j, u in member_side.pairs)
    return 0, None


def scan_reference(rows, t_star, pairs):
    """``_scan``'s return, given the per-step reference's t* and pairs:
    on a pass, 0 with the step lists of the last row's members, each
    ending with the last step (None when there are no rows)."""
    if t_star or not rows:
        return t_star, pairs
    return 0, [[u for u, row in enumerate(rows, 1) if p in row] for p in rows[-1]]


def reference_kills(s, t_star, pairs):
    """Kills read off the t* matching, given as sorted (step, index) pairs."""
    kills = [min(st) for st in s.sets]
    if t_star:
        right_ids = s.sets[t_star - 1]
        hit = set()
        for u, j in pairs[: s.params.f]:
            kills[u - 1] = right_ids[j - 1]
            hit.add(right_ids[j - 1])
        kills[t_star - 1] = min(p for p in right_ids if p not in hit)
    return tuple(kills)


def perturbed_trivial_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 6)
        f = rng.randint(1, n - 1)
        s = trivial_schedule(GameParams(N=rng.randint(n, 24), n=n, f=f))
        sets = list(s.sets)
        for _ in range(rng.randint(0, 3)):
            sets[rng.randrange(len(sets))] = tuple(sorted(rng.sample(range(1, s.params.N + 1), n)))
        yield Schedule(params=s.params, sets=tuple(sets))


def test_scan_agrees_with_per_step_reference():
    jump = Schedule(params=GameParams(9, 3, 2), sets=((1, 4, 5), (2, 6, 7), (3, 8, 9), (1, 2, 3)))
    cases = [jump, *random_cases(150, seed=5, max_pool=16, max_n=6)]
    cases += perturbed_trivial_cases(150, seed=6)
    killed = 0
    for s in cases:
        t_star, m = reference_killable(s)
        pairs = sorted(m.pairs) if m else None
        killed += t_star > 0
        assert first_killable_time(s) == t_star
        assert solver._scan(s.sets, s.params.n, s.params.f) == scan_reference(s.sets, t_star, pairs)
        assert minimal_adversary(s).kills == reference_kills(s, t_star, pairs)
        p = s.params
        report = membership_in_P(PInstance(p.n, p.f, range(1, p.N + 1), s.sets))
        assert report.violating_t == t_star
        if t_star:
            f = s.params.f
            assert report.reason == f"time graph at t={t_star} has matching number {m.size} >= f={f}"
        else:
            assert report.member and report.reason == ""
    assert 100 <= killed < len(cases)


def test_default_kills_match_min_reference(monkeypatch):
    """The reference's default kill is ``min(row)``; it reads t* and the
    matching from the scan inside ``minimal_adversary``, which the test
    above checks against the per-step reference."""
    scans = []
    real = solver._scan
    monkeypatch.setattr(solver, "_scan", lambda *args: scans.append(real(*args)) or scans[-1])
    cases = list(random_cases(300, seed=8, max_pool=60, max_n=8))
    cases += [
        trivial_schedule(GameParams(N=N, n=n, f=f))
        for N in range(2, 41) for n in range(2, N + 1) for f in range(1, n)
    ]
    for s in cases:
        kills = minimal_adversary(s).kills
        assert kills == reference_kills(s, *scans[-1])


@pytest.fixture
def matching_calls(monkeypatch):
    """Adjacencies the scan passes to ``_grow_matching`` while the test runs."""
    seen = []
    real = solver._grow_matching

    def counting(adj):
        seen.append(adj)
        return real(adj)

    monkeypatch.setattr(solver, "_grow_matching", counting)
    return seen


def test_scan_searches_once_on_trivial(matching_calls):
    """Every row of the batch schedule shares one history among its
    members, so only t* = h + 1 gets past the count of earlier steps."""
    for N, n, f in ((40, 4, 2), (800, 40, 10), (200, 8, 7)):
        matching_calls.clear()
        s = trivial_schedule(GameParams(N=N, n=n, f=f))
        assert first_killable_time(s) == h_value(n, f, N) + 1
        assert len(matching_calls) == 1


def assert_scan_matches_reference(s):
    t_star, m = reference_killable(s)
    pairs = sorted(m.pairs) if m else None
    assert solver._scan(s.sets, s.params.n, s.params.f) == scan_reference(s.sets, t_star, pairs)
    assert minimal_adversary(s).kills == reference_kills(s, t_star, pairs)
    return t_star


def member_swaps(params):
    """Every schedule made from the batch schedule of ``params`` by
    replacing one member of one row with one id outside that row, so
    that one member's history differs from the others' by one step."""
    sets = trivial_schedule(params).sets
    for t, row in enumerate(sets):
        for old in row:
            for new in range(1, params.N + 1):
                if new not in row:
                    swapped = tuple(sorted({*row, new} - {old}))
                    yield Schedule(params=params, sets=(*sets[:t], swapped, *sets[t + 1:]))


def test_scan_on_single_member_swaps():
    params = [GameParams(6, 3, 2), GameParams(8, 4, 2), GameParams(9, 3, 2), GameParams(10, 4, 3)]
    cases = [s for p in params for s in member_swaps(p)]
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(2, 8)
        p = GameParams(N=rng.randint(n + 1, 40), n=n, f=rng.randint(1, n - 1))
        sets = list(trivial_schedule(p).sets)
        t = rng.randrange(len(sets))
        row = set(sets[t])
        row.remove(rng.choice(sets[t]))
        row.add(rng.choice([q for q in range(1, p.N + 1) if q not in sets[t]]))
        sets[t] = tuple(sorted(row))
        cases.append(Schedule(params=p, sets=tuple(sets)))
    moved = sum(assert_scan_matches_reference(s) != h_value(s.params.n, s.params.f, s.params.N) + 1
                for s in cases)
    assert 0 < moved < len(cases)


def test_minimal_adversary_replays_to_the_minimum():
    """Whichever maximum matching the scan finds, its kills end the run
    at exactly the minimal survival time, which is the brute-force
    minimum over all kill sequences wherever there are at most 10^5."""
    params = [GameParams(6, 3, 2), GameParams(8, 4, 2), GameParams(9, 3, 2), GameParams(10, 4, 3)]
    cases = [s for p in params for s in member_swaps(p)]
    cases += random_cases(900, seed=41, max_pool=16, max_n=6)
    cases += perturbed_trivial_cases(600, seed=42)
    brute = 0
    for s in cases:
        T = minimal_survival_time(s)
        assert survival_time(s, minimal_adversary(s)) == T
        if s.params.n ** len(s) <= 10**5:
            brute += 1
            assert brute_adversary_min(s) == T
    assert len(cases) >= 2000 and brute >= 1000


@pytest.mark.parametrize("n,f", [(2, 1), (3, 2), (5, 2), (8, 7)])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_scan_on_shared_histories(matching_calls, n, f, extra):
    """The last row's members share one history of f - 1, f or f + 1
    steps: in a constant schedule, and after a disjoint row."""
    k = f + extra
    a, b = tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n + 1))
    params = GameParams(N=2 * n, n=n, f=f)
    # With k > f the leading run of a is killable at f + 1 already.
    for sets, t_star in (((a,) * (k + 1), f + 1), ((a,) * k + (b, a), f + 2 - (k > f))):
        s = Schedule(params=params, sets=sets)
        matching_calls.clear()
        assert first_killable_time(s) == (t_star if k >= f else 0)
        assert len(matching_calls) == (k >= f)
        assert_scan_matches_reference(s)


def test_scan_without_killable_step_runs_no_matching(matching_calls):
    s = Schedule(params=GameParams(6, 2, 1), sets=((1, 2), (3, 4), (5, 6)))
    assert first_killable_time(s) == 0
    assert membership_in_P(PInstance(2, 1, range(1, 7), s.sets)).member
    assert matching_calls == []


def run_cases(count, seed, max_n=6, max_len=None):
    """(params, rows) of seeded schedules made of runs, as the batch
    schedule is: random rows, each repeated 1..f+1 times.  Half of the
    runs repeat one tuple object, the other half equal copies of it."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_n)
        f = rng.randint(1, n - 1)
        N = rng.randint(n + 1, 3 * n)
        length = rng.randint(1, min(N, max_len or N))
        rows = []
        while len(rows) < length:
            row, k = sorted(rng.sample(range(1, N + 1), n)), rng.randint(1, f + 1)
            rows += [tuple(row)] * k if rng.random() < 0.5 else [tuple(row) for _ in range(k)]
        yield GameParams(N, n, f), tuple(rows[:length])


def failed_search_cases(seed):
    """(params, rows) whose step f + 1 is searched and fails, then a run
    of 2..f + 1 equal random rows: id 1 is in rows 1..f + 1 and ids 2..f
    only in rows 1 and f + 1, so the f members of row f + 1 seen before
    cover f earlier steps but match only two of them."""
    rng = random.Random(seed)
    for n in range(4, 7):
        for f in range(3, n):
            fresh = itertools.count(n + 1)
            rows = [tuple(range(1, n + 1))]
            rows += [(1, *itertools.islice(fresh, n - 1)) for _ in range(f - 1)]
            rows.append((*range(1, f + 1), *itertools.islice(fresh, n - f)))
            N = next(fresh) + n
            for k in range(2, f + 2):
                run = [tuple(sorted(rng.sample(range(1, N + 1), n)))] * k
                yield GameParams(N, n, f), (*rows, *run)


def test_scan_on_runs_of_equal_rows(monkeypatch):
    """A row equal to the one before reuses its members' step lists: every
    searched step must still see each member's own earlier steps, and the
    scan must answer as the per-step reference does, whether equal rows
    are one tuple object or distinct ones (a ``Schedule`` copies each)."""
    searched = []
    real = solver._grow_matching
    monkeypatch.setattr(solver, "_grow_matching",
                        lambda adj: searched.append([[*steps] for steps in adj]) or real(adj))
    mid_run = after_search = killed = 0
    for params, rows in [*run_cases(400, seed=26), *failed_search_cases(seed=26)]:
        n, f = params.n, params.f
        s = Schedule(params, rows)
        t_star, m = reference_killable(s)
        pairs = sorted(m.pairs) if m else None
        end = t_star or len(rows)
        # The prefilter passes a step with at least f members seen before,
        # over at least f distinct earlier steps.
        expected = {}
        for t, row in enumerate(rows[:end], start=1):
            lists = [[u for u in range(1, t) if p in rows[u - 1]] for p in row]
            if n - lists.count([]) >= f and len({*itertools.chain(*lists)}) >= f:
                expected[t] = lists
        for sets in (s.sets, rows):
            searched.clear()
            assert solver._scan(sets, n, f) == scan_reference(sets, t_star, pairs)
            assert searched == [*expected.values()]
        assert minimal_adversary(s).kills == reference_kills(s, t_star, pairs)
        killed += t_star > 0
        mid_run += 1 < t_star < len(rows) and rows[t_star - 2] == rows[t_star - 1] == rows[t_star]
        after_search += any(t + 2 <= end and rows[t - 1] != rows[t] == rows[t + 1]
                            for t in expected)
    assert mid_run >= 10 and after_search >= 10 and 100 <= killed < 400


def test_short_row_inside_a_run_fails_its_degree():
    """A row one member short, in place of a repeat of the row before it,
    is reported at its own t unless an earlier step is killable."""
    degree = 0
    for params, rows in run_cases(300, seed=27):
        n, f, N = params.n, params.f, params.N
        for t in range(2, len(rows) + 1):
            if rows[t - 2] == rows[t - 1]:
                short = (*rows[: t - 1], rows[t - 1][1:], *rows[t:])
                report = membership_in_P(PInstance(n, f, range(1, N + 1), short))
                t_star = reference_killable(Schedule(params, rows[: t - 1]))[0]
                assert not report.member and report.violating_t == (t_star or t)
                if not t_star:
                    degree += 1
                    assert report.reason == f"row {t} has degree {n - 1}, expected {n}"
                break
    assert degree >= 50


def test_brute_adversary_on_runs_of_equal_rows():
    """The breadth-first brute adversary agrees with the scan on the run
    schedules small enough to enumerate."""
    killed = 0
    for params, rows in run_cases(300, seed=28, max_n=4, max_len=7):
        s = Schedule(params, rows)
        T = minimal_survival_time(s)
        assert brute_adversary_min(s) == T
        killed += T < len(rows)
    assert 50 <= killed < 300


@pytest.mark.parametrize("N,n,f", [(3200, 40, 10), (1600, 40, 10), (800, 8, 7)])
def test_trivial_schedule_attains_h_at_scale(N, n, f):
    s = trivial_schedule(GameParams(N=N, n=n, f=f))
    h = h_value(n, f, N)
    assert minimal_survival_time(s) == h
    assert survival_time(s, minimal_adversary(s)) == h


def test_schedule_instance_full():
    """The whole schedule as an instance over 1..N holds its killable row."""
    s = trivial_schedule(GameParams(4, 2, 1))
    inst = PInstance(2, 1, range(1, 5), s.sets)
    assert inst.rows == s.sets
    assert inst.right_ids == (1, 2, 3, 4)
    report = membership_in_P(inst)
    assert not report.member and report.violating_t == 3


def test_surviving_prefix_instance_is_member():
    s = trivial_schedule(GameParams(4, 2, 1))
    inst = surviving_prefix_instance(s)
    assert inst.rows == ((1, 2), (3, 4))
    assert membership_in_P(inst).member


def test_surviving_prefix_builds_one_instance(monkeypatch):
    """One instance of the t* - 1 surviving rows, built once, by the
    checking constructor or from the validated rows, never one of the
    whole schedule: the result is the whole schedule's instance cut to them."""
    built = []
    init, made = PInstance.__init__, PInstance._from_checked
    monkeypatch.setattr(PInstance, "__init__",
                        lambda inst, *args, **kw: built.append(inst) or init(inst, *args, **kw))
    monkeypatch.setattr(PInstance, "_from_checked",
                        lambda *args: built.append(made(*args)) or built[-1])
    unkillable = Schedule(params=GameParams(6, 3, 2), sets=((1, 2, 3), (4, 5, 6), (1, 2, 3)))
    assert first_killable_time(unkillable) == 0
    cases = [unkillable, *random_cases(150, seed=5, max_pool=16, max_n=6)]
    cases += perturbed_trivial_cases(150, seed=6)
    for s in cases:
        built.clear()
        inst = surviving_prefix_instance(s)
        assert built == [inst]
        p = s.params
        t_star = first_killable_time(s)
        rows = s.sets[: t_star - 1] if t_star else s.sets
        assert inst == PInstance(p.n, p.f, range(1, p.N + 1), rows)


def test_membership_degree_check():
    inst = PInstance(n=3, f=1, right_ids=(1, 2, 3), rows=((1, 2),))
    report = membership_in_P(inst)
    assert not report.member and report.violating_t == 1 and "degree" in report.reason


# Malformed instances, as the fields of an instance file, with the one
# message each must raise.  A row that both repeats an id and leaves
# right_ids reports the ids outside first.
MALFORMED_INSTANCES = {
    "f-equals-n": ({"n": 2, "f": 2, "right_ids": [1, 2], "rows": []}, "need 1 <= f < n, got n=2 f=2"),
    "f-zero": ({"n": 3, "f": 0, "right_ids": [1, 2], "rows": []}, "need 1 <= f < n, got n=3 f=0"),
    "ids-descending": (
        {"n": 2, "f": 1, "right_ids": [1, 3, 2], "rows": []}, "right_ids must be strictly ascending"
    ),
    "ids-repeated": (
        {"n": 2, "f": 1, "right_ids": [1, 1], "rows": []}, "right_ids must be strictly ascending"
    ),
    "id-not-positive": ({"n": 2, "f": 1, "right_ids": [0, 1, 2], "rows": []}, "right ids must be positive"),
    "row-outside": (
        {"n": 2, "f": 1, "right_ids": [1, 2, 4], "rows": [[1, 2], [4, 3]]},
        "row 2 uses ids outside right_ids",
    ),
    "row-repeats": (
        {"n": 2, "f": 1, "right_ids": [1, 2, 3], "rows": [[1, 2], [3, 3]]}, "row 2 repeats an id"
    ),
    "row-repeats-and-outside": (
        {"n": 3, "f": 1, "right_ids": [1, 2, 3], "rows": [[2, 1, 3], [1, 1, 5]]},
        "row 2 uses ids outside right_ids",
    ),
}


def test_pinstance_validation():
    for fields, message in MALFORMED_INSTANCES.values():
        with pytest.raises(ValueError) as e:
            PInstance(**fields)
        assert str(e.value) == message


@pytest.mark.parametrize("fields,message", [
    ({"n": 2.0, "f": True, "right_ids": [1, 2, 3], "rows": [[1, 2]]},
     "parameters must be integers, got n=2.0, f=True"),
    ({"n": 2, "f": 1, "right_ids": (1.5, 2), "rows": []}, "right ids must be integers"),
    ({"n": 2, "f": 1, "right_ids": (1, 2, 3), "rows": [[2, 3], [1.0, 2]]},
     "row 2 uses ids outside right_ids"),
], ids=["params", "right-ids", "row-id"])
def test_pinstance_rejects_non_int(fields, message):
    """Library input that the instance reader would never let through:
    a float or bool passes the range checks, and a row id 1.0 passes
    the superset test over int right ids by hash."""
    with pytest.raises(ValueError) as e:
        PInstance(**fields)
    assert str(e.value) == message


@pytest.mark.parametrize("command", ["check-p", "reduce"])
@pytest.mark.parametrize("case", MALFORMED_INSTANCES)
def test_malformed_instance_cli_message(case, command, tmp_path, capsys):
    fields, message = MALFORMED_INSTANCES[case]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(fields))
    assert main([command, "--instance", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"error: {message}"


def test_pinstance_rows_sorted():
    inst = PInstance(n=2, f=1, right_ids=(1, 2, 5), rows=((5, 1),))
    assert inst.rows == ((1, 5),)


def test_shared_rows_are_read_and_checked_once():
    """The batch schedule's surviving prefix at N=3200 (40, 10) repeats
    each of its 80 rows ten times as one tuple; the instance keeps that
    sharing, and so does each reduction of it."""
    inst = surviving_prefix_instance(trivial_schedule(GameParams(3200, 40, 10)))
    assert inst.left_count == 800 and len({id(row) for row in inst.rows}) == 80
    reduced = reduce_instance(inst)
    assert reduced.left_count == 790 and len({id(row) for row in reduced.rows}) == 79


def test_shared_malformed_row_is_named_at_its_first_index():
    row = (1, 1)
    with pytest.raises(ValueError, match="^row 1 repeats an id$"):
        PInstance(2, 1, (1, 2), [row, row])
    with pytest.raises(ValueError, match="^row 2 uses ids outside right_ids$"):
        PInstance(2, 1, (1, 2, 3), [(2, 1), (3.0, 2), (3.0, 2)])


def test_equal_rows_are_each_checked():
    """``PInstance`` checks every row it reads: ``(1.0, 2)`` equals
    ``(1, 2)``, but the row reader shares a sorted copy only with the
    very same tuple object, so the float row is read, and rejected, on
    its own."""
    with pytest.raises(ValueError, match="^row 2 uses ids outside right_ids$"):
        PInstance(2, 1, (1, 2), [(1, 2), (1.0, 2)])


def test_one_shot_row_whose_ids_do_not_compare_is_read_once():
    """Its ids are rejected, not read again into an empty row."""
    with pytest.raises(ValueError, match="^row 1 uses ids outside right_ids$"):
        PInstance(2, 1, (1, 2), [iter([2, "a"])])


def test_pinstance_reads_one_shot_rows_once():
    """A row given as an iterator is read once, so its ids are not lost
    to the type check."""
    inst = PInstance(2, 1, iter([1, 2, 3]), (iter(row) for row in [[2, 1], [3, 1]]))
    assert inst.rows == ((1, 2), (1, 3))


def test_reduce_instance_postconditions():
    done = 0
    for s in random_cases(100, seed=4, max_pool=12, max_n=4):
        if len(s) < s.params.N:
            s = Schedule(
                params=s.params,
                sets=s.sets + (s.sets[-1],) * (s.params.N - len(s)),
            )
        inst = surviving_prefix_instance(s)
        if inst.left_count == 0:
            continue
        big_l, big_r = inst.left_count, inst.right_count
        n, f = inst.n, inst.f
        assert big_l <= h_value(n, f, big_r)
        reduced = reduce_instance(inst)
        assert membership_in_P(reduced).member
        assert reduced.left_count <= big_l - 1
        assert h_value(n, f, reduced.right_count) + (big_l - reduced.left_count) <= h_value(n, f, big_r)
        done += 1
    assert done >= 80


def assert_not_reducible(inst, reason):
    with pytest.raises(ValueError) as e:
        reduce_instance(inst)
    assert str(e.value) == f"instance is not reducible: {reason}"
    assert membership_in_P(inst).reason == reason


def test_reduce_rejects_non_member():
    s = trivial_schedule(GameParams(4, 2, 1))
    assert_not_reducible(PInstance(2, 1, range(1, 5), s.sets),
                         "time graph at t=3 has matching number 1 >= f=1")


def test_reduce_names_a_degree_failure():
    assert_not_reducible(PInstance(3, 1, range(1, 5), [(1, 2, 3), (2, 4)]),
                         "row 2 has degree 2, expected 3")


def test_reduce_rejects_empty():
    inst = PInstance(n=2, f=1, right_ids=(1, 2), rows=())
    with pytest.raises(ValueError):
        reduce_instance(inst)


def reference_reduce(inst):
    """``reduce_instance`` through a checked time graph: ``from_rows``,
    ``max_matching``, and the alternating reach from the unmatched right
    vertices over the graph's inverted adjacency, mapped back to ids."""
    *earlier, last = inst.rows
    g = BipartiteGraph.from_rows(tuple(earlier), last)
    m = max_matching(g)
    mate_of_left = dict(m.pairs)
    lefts = [[u for u, nbrs in enumerate(g.adj, 1) if j in nbrs] for j in range(1, len(last) + 1)]
    reached = set(range(1, len(last) + 1)) - set(mate_of_left.values())
    gamma, stack = set(), list(reached)
    while stack:
        for u in lefts[stack.pop() - 1]:
            if u not in gamma:
                gamma.add(u)
                if u in mate_of_left:
                    reached.add(mate_of_left[u])
                    stack.append(mate_of_left[u])
    assert len(last) - len(reached) + len(gamma) == m.size < inst.f
    c_ids = {last[j - 1] for j in reached}
    return PInstance(inst.n, inst.f, [p for p in inst.right_ids if p not in c_ids],
                     [row for u, row in enumerate(earlier, 1) if u not in gamma])


def member_instances():
    """Seeded members, each followed by its chain of reductions down to
    no rows: the surviving prefixes of random, perturbed and
    single-member-swap schedules, and every prefix of small batch
    schedules."""
    schedules = [*random_cases(80, seed=31, max_pool=16, max_n=6),
                 *perturbed_trivial_cases(60, seed=32)]
    swaps = [*member_swaps(GameParams(8, 4, 2)), *member_swaps(GameParams(9, 3, 2))]
    schedules += random.Random(33).sample(swaps, 60)
    starts = [surviving_prefix_instance(s) for s in schedules]
    for p in (GameParams(12, 4, 2), GameParams(10, 5, 3), GameParams(40, 4, 3)):
        sets = trivial_schedule(p).sets
        starts += [PInstance(p.n, p.f, range(1, p.N + 1), sets[:end])
                   for end in range(1, h_value(p.n, p.f, p.N) + 1)]
    for inst in starts:
        while inst.left_count:
            yield inst
            inst = reduce_instance(inst)


def test_reduce_matches_graph_reference():
    """Equal results on 646 members; in 55 the witness C keeps some
    members of the last row, in 396 gamma(C) drops earlier rows."""
    cases = partial_c = rows_cut = 0
    for inst in member_instances():
        reduced = reduce_instance(inst)
        assert reduced == reference_reduce(inst)
        cases += 1
        partial_c += inst.right_count - reduced.right_count < inst.n
        rows_cut += reduced.left_count < inst.left_count - 1
    assert cases >= 300 and partial_c >= 40 and rows_cut >= 300


@pytest.mark.parametrize("N,n,f,steps", [(3200, 40, 10, 80), (800, 8, 7, 100)])
def test_reduce_chains_the_surviving_prefix_to_no_rows(N, n, f, steps):
    """The induction behind the bound, step by step: every reduction of
    the batch schedule's surviving prefix is a member and keeps
    h(n, f, R') + (L - L') <= h(n, f, R)."""
    inst = surviving_prefix_instance(trivial_schedule(GameParams(N, n, f)))
    assert inst.left_count == h_value(n, f, N)
    chain = 0
    while inst.left_count:
        reduced = reduce_instance(inst)
        assert membership_in_P(reduced).member
        assert (h_value(n, f, reduced.right_count) + inst.left_count - reduced.left_count
                <= h_value(n, f, inst.right_count))
        inst, chain = reduced, chain + 1
    assert chain == steps


def test_reduce_scans_once(monkeypatch):
    """On a member the one membership scan hands over the Ore lists, and
    on a non-member the reason: ``_scan`` runs once and
    ``membership_in_P`` not at all."""
    calls = []
    for name in ("_scan", "membership_in_P"):
        monkeypatch.setattr(solver, name, lambda *args, name=name, real=getattr(solver, name):
                            calls.append(name) or real(*args))
    p = GameParams(800, 40, 10)
    for inst in (PInstance(p.n, p.f, range(1, p.N + 1), trivial_schedule(p).sets[:200]),
                 *itertools.islice(member_instances(), 100)):
        calls.clear()
        reduce_instance(inst)
        assert calls == ["_scan"]
    for inst in (PInstance(3, 1, range(1, 5), [(1, 2, 3), (2, 4)]),
                 PInstance(2, 1, range(1, 5), trivial_schedule(GameParams(4, 2, 1)).sets)):
        calls.clear()
        with pytest.raises(ValueError, match="^instance is not reducible: "):
            reduce_instance(inst)
        assert calls == ["_scan"]


def test_reduce_builds_no_graph_or_matching(monkeypatch):
    """The Ore witness is read off the rows: no ``BipartiteGraph``, no
    ``Matching``, and no call of ``max_matching`` or
    ``deficiency_witness`` under any of their names."""
    seen = []
    for cls in (BipartiteGraph, Matching):
        monkeypatch.setattr(cls, "__init__", lambda obj, *args, init=cls.__init__, **kw:
                            seen.append(type(obj).__name__) or init(obj, *args, **kw))
    for module in (matching, solver):
        for name in ("max_matching", "deficiency_witness"):
            monkeypatch.setattr(module, name, lambda *args, name=name, real=getattr(module, name):
                                seen.append(name) or real(*args))
    p = GameParams(800, 40, 10)
    batch = PInstance(p.n, p.f, range(1, p.N + 1), trivial_schedule(p).sets[:200])
    for inst in (batch, *itertools.islice(member_instances(), 100)):
        reduce_instance(inst)
    assert seen == []
    g = time_graph(trivial_schedule(p), 11)
    matching.deficiency_witness(g)
    solver.max_matching(g)
    assert seen == ["BipartiteGraph", "deficiency_witness", "max_matching", "Matching"]


def test_instance_json_round_trip(tmp_path):
    # List input is stored as tuples, so the instance hashes and equals
    # the one loaded back.
    inst = PInstance(n=2, f=1, right_ids=[1, 2, 4], rows=[[2, 1]])
    assert inst.right_ids == (1, 2, 4) and inst.rows == ((1, 2),)
    assert hash(inst) == hash(PInstance(n=2, f=1, right_ids=(1, 2, 4), rows=((1, 2),)))
    doc = instance_to_dict(inst)
    assert doc == {"n": 2, "f": 1, "right_ids": [1, 2, 4], "rows": [[1, 2]]}
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst
    assert json.loads(path.read_text()) == doc
    path.write_text('{"n": 2}')
    with pytest.raises(ValueError):
        load_instance(path)
