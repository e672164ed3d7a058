import json
import random
from fractions import Fraction

import pytest

from faultsched import (
    Adversary,
    GameParams,
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
    random_schedule,
    reduce_instance,
    save_instance,
    save_schedule,
    schedule_instance,
    survival_time,
    surviving_prefix_instance,
    time_graph,
    trivial_schedule,
)
from faultsched import solver
from faultsched.cli import main


def random_cases(count, seed, max_pool=8, max_n=3):
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, max_n)
        f = rng.randint(1, n - 1)
        big_n = rng.randint(n, max_pool)
        length = rng.randint(1, big_n)
        yield random_schedule(GameParams(N=big_n, n=n, f=f), length, seed=1000 + i)


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
        assert first_killable_time(s) == membership_in_P(schedule_instance(s)).violating_t


TRIVIAL_40 = GameParams(N=40, n=4, f=2)

# Every library entry point that validates its schedule, with the
# parameters of the trivial schedule it is called on: the brute search
# needs few kill sequences and the on-line best response a guarded game.
VALIDATING_ENTRIES = {
    "first_killable_time": (TRIVIAL_40, first_killable_time),
    "minimal_adversary": (TRIVIAL_40, minimal_adversary),
    "minimal_survival_time": (TRIVIAL_40, minimal_survival_time),
    "surviving_prefix_instance": (TRIVIAL_40, surviving_prefix_instance),
    "schedule_instance": (TRIVIAL_40, schedule_instance),
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
    same object does, and an equal new object is validated again."""
    params, call = VALIDATING_ENTRIES[entry]
    s = trivial_schedule(params)
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
    its maximum matching, straight from the public ``time_graph`` and
    ``max_matching``: one graph and one maximum matching per step."""
    for t in range(1, len(s) + 1):
        m = max_matching(time_graph(s, t))
        if m.size >= s.params.f:
            return t, m
    return 0, None


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
        assert solver._scan(s.sets, s.params.n, s.params.f)[1] == pairs
        assert minimal_adversary(s).kills == reference_kills(s, t_star, pairs)
        report = membership_in_P(schedule_instance(s))
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

    def counting(adj, target):
        seen.append(adj)
        return real(adj, target)

    monkeypatch.setattr(solver, "_grow_matching", counting)
    return seen


def test_scan_searches_once_on_trivial(matching_calls):
    s = trivial_schedule(GameParams(N=40, n=4, f=2))
    assert first_killable_time(s) == 21
    assert len(matching_calls) == 1


def test_scan_without_killable_step_runs_no_matching(matching_calls):
    s = Schedule(params=GameParams(6, 2, 1), sets=((1, 2), (3, 4), (5, 6)))
    assert first_killable_time(s) == 0
    assert membership_in_P(schedule_instance(s)).member
    assert matching_calls == []


@pytest.mark.parametrize("N,n,f", [(3200, 40, 10), (1600, 40, 10), (800, 8, 7)])
def test_trivial_schedule_attains_h_at_scale(N, n, f):
    s = trivial_schedule(GameParams(N=N, n=n, f=f))
    h = h_value(n, f, N)
    assert minimal_survival_time(s) == h
    assert survival_time(s, minimal_adversary(s)) == h


def test_schedule_instance_full():
    s = trivial_schedule(GameParams(4, 2, 1))
    inst = schedule_instance(s)
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
    """One checked instance of the t* - 1 surviving rows, never one of the
    whole schedule: the result is ``schedule_instance`` cut to them."""
    built = []
    init = PInstance.__init__
    monkeypatch.setattr(PInstance, "__init__",
                        lambda inst, *args, **kw: built.append(inst) or init(inst, *args, **kw))
    unkillable = Schedule(params=GameParams(6, 3, 2), sets=((1, 2, 3), (4, 5, 6), (1, 2, 3)))
    assert first_killable_time(unkillable) == 0
    cases = [unkillable, *random_cases(150, seed=5, max_pool=16, max_n=6)]
    cases += perturbed_trivial_cases(150, seed=6)
    for s in cases:
        built.clear()
        inst = surviving_prefix_instance(s)
        assert built == [inst]
        full = schedule_instance(s)
        t_star = first_killable_time(s)
        rows = full.rows[: t_star - 1] if t_star else full.rows
        assert inst == PInstance(full.n, full.f, full.right_ids, rows)


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


def test_reduce_rejects_non_member():
    s = trivial_schedule(GameParams(4, 2, 1))
    with pytest.raises(ValueError):
        reduce_instance(schedule_instance(s))


def test_reduce_rejects_empty():
    inst = PInstance(n=2, f=1, right_ids=(1, 2), rows=())
    with pytest.raises(ValueError):
        reduce_instance(inst)


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
