import json
import random

import pytest

from faultsched import (
    Adversary,
    GameParams,
    PInstance,
    Schedule,
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
    tg = time_graph(s, 3)
    assert tg.t == 3
    assert tg.right_ids == (3, 4)
    assert tg.graph.left_count == 2
    assert tg.graph.adj == ((), (1, 2))
    assert max_matching(tg.graph).size == 1


def test_time_graph_first_round_has_no_lefts():
    s = trivial_schedule(GameParams(4, 2, 1))
    tg = time_graph(s, 1)
    assert tg.graph.left_count == 0
    assert max_matching(tg.graph).size == 0


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
    tg = time_graph(s, 4)
    assert max_matching(tg.graph).size == 3
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


@pytest.mark.parametrize(
    "entry", [first_killable_time, minimal_adversary, surviving_prefix_instance]
)
def test_schedule_validated_once(validations, entry):
    s = trivial_schedule(GameParams(N=40, n=4, f=2))
    assert len(s) == 40 and first_killable_time(s) == 21
    validations.clear()
    entry(s)
    assert len(validations) == 1


def test_solve_adversary_validates_at_most_twice(validations, tmp_path, capsys):
    path = tmp_path / "s.json"
    save_schedule(trivial_schedule(GameParams(N=40, n=4, f=2)), path)
    assert main(["solve-adversary", "--schedule", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["T=20", "t*=21"]
    assert len(validations) <= 2


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


def test_membership_degree_check():
    inst = PInstance(n=3, f=1, right_ids=(1, 2, 3), rows=((1, 2),))
    report = membership_in_P(inst)
    assert not report.member and report.violating_t == 1 and "degree" in report.reason


def test_pinstance_validation():
    with pytest.raises(ValueError):
        PInstance(n=2, f=1, right_ids=(1, 1), rows=())
    with pytest.raises(ValueError):
        PInstance(n=2, f=1, right_ids=(1, 2), rows=((1, 3),))
    with pytest.raises(ValueError):
        PInstance(n=2, f=2, right_ids=(1, 2), rows=())
    with pytest.raises(ValueError):
        PInstance(n=2, f=1, right_ids=(1, 2), rows=((1, 1),))


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
    inst = PInstance(n=2, f=1, right_ids=(1, 2, 4), rows=((1, 2),))
    doc = instance_to_dict(inst)
    assert doc == {"n": 2, "f": 1, "right_ids": [1, 2, 4], "rows": [[1, 2]]}
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst
    assert json.loads(path.read_text()) == doc
    path.write_text('{"n": 2}')
    with pytest.raises(ValueError):
        load_instance(path)
