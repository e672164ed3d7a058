import json

import pytest
from hypothesis import given, strategies as st

from faultsched import (
    Adversary,
    GameParams,
    Schedule,
    Violation,
    adversary_to_dict,
    h_value,
    load_adversary,
    load_schedule,
    minimal_adversary,
    random_schedule,
    save_adversary,
    save_schedule,
    schedule_to_dict,
    survival_time,
    trivial_schedule,
    validate_adversary,
    validate_schedule,
)


@pytest.mark.parametrize("N,n,f", [(4, 5, 1), (4, 2, 2), (4, 2, 0), (4, 2, -1), (0, 0, 0)])
def test_invalid_params(N, n, f):
    with pytest.raises(ValueError):
        GameParams(N=N, n=n, f=f)


@pytest.mark.parametrize("N,n,f", [(4.0, 2, 1), (4, 2.0, 1), (4, 2, 1.0), (5, 2, True),
                                   (True, True, True), ("4", 2, 1)])
def test_non_int_params_rejected(N, n, f):
    """Floats and bools would pass the range check and turn exact
    arithmetic into floats downstream."""
    with pytest.raises(ValueError, match="must be integers"):
        GameParams(N=N, n=n, f=f)


def test_schedule_normalizes_sets():
    s = Schedule(params=GameParams(4, 2, 1), sets=((2, 1), (4, 3)))
    assert s.sets == ((1, 2), (3, 4))
    assert len(s) == 2


class TestValidation:
    params = GameParams(N=4, n=2, f=1)

    def test_ok(self):
        s = Schedule(params=self.params, sets=((1, 2), (3, 4)))
        assert validate_schedule(s) is None

    def test_empty(self):
        s = Schedule(params=self.params, sets=())
        v = validate_schedule(s)
        assert v is not None and v.index == 0

    def test_too_long(self):
        s = Schedule(params=self.params, sets=((1, 2),) * 5)
        v = validate_schedule(s)
        assert v is not None and v.index == 0

    def test_wrong_cardinality(self):
        s = Schedule(params=self.params, sets=((1, 2, 3), (3, 4)))
        v = validate_schedule(s)
        assert v is not None and v.index == 1 and "cardinality" in v.kind

    def test_duplicate_id(self):
        s = Schedule(params=self.params, sets=((1, 1), (3, 4)))
        v = validate_schedule(s)
        assert v is not None and v.index == 1

    def test_out_of_range(self):
        s = Schedule(params=self.params, sets=((1, 2), (4, 5)))
        v = validate_schedule(s)
        assert v is not None and v.index == 2

    @pytest.mark.parametrize("sets", [((1.5, 2), (2.5, 4), (True, 3)), ((1, 2.0), (3, 4)),
                                      (("a", "b"), (1, 2))], ids=["floats-and-bool", "float", "str"])
    def test_non_integer_id(self, sets):
        """Floats and bools compare and hash like ints, and strings would
        raise TypeError on the range check; each is reported at its row."""
        s = Schedule(params=self.params, sets=sets)
        assert validate_schedule(s) == Violation(1, "non-integer-id", "non-integer id at t=1")
        with pytest.raises(ValueError, match="non-integer id at t=1"):
            minimal_adversary(s)

    def test_adversary_length(self):
        s = Schedule(params=self.params, sets=((1, 2), (3, 4)))
        v = validate_adversary(s, Adversary(kills=(1,)))
        assert v is not None and v.index == 0

    def test_adversary_kill_outside_set(self):
        s = Schedule(params=self.params, sets=((1, 2), (3, 4)))
        v = validate_adversary(s, Adversary(kills=(1, 2)))
        assert v is not None and v.index == 2
        assert validate_adversary(s, Adversary(kills=(1, 3))) is None


def test_survival_time_worked_example():
    s = Schedule(params=GameParams(4, 2, 1), sets=((1, 2), (1, 3), (2, 3), (1, 4)))
    assert survival_time(s, Adversary(kills=(1, 3, 2, 4))) == 1


def test_survival_time_padded_trivial():
    s = trivial_schedule(GameParams(4, 2, 1))
    assert survival_time(s, Adversary(kills=(1, 3, 4, 4))) == 2


def test_survival_time_no_violation():
    s = Schedule(params=GameParams(6, 2, 1), sets=((1, 2), (3, 4), (5, 6)))
    assert survival_time(s, Adversary(kills=(1, 3, 5))) == 3


def test_survival_time_rejects_invalid():
    s = Schedule(params=GameParams(4, 2, 1), sets=((1, 2), (1, 2, 3)))
    with pytest.raises(ValueError):
        survival_time(s, Adversary(kills=(1, 1)))


def test_repeat_kill_wastes_round():
    s = Schedule(params=GameParams(4, 2, 1), sets=((1, 2), (1, 2), (1, 2), (1, 2)))
    assert survival_time(s, Adversary(kills=(1, 1, 1, 1))) == 4
    assert survival_time(s, Adversary(kills=(1, 2, 1, 1))) == 1


def test_trivial_schedule_example():
    s = trivial_schedule(GameParams(4, 2, 1))
    assert s.sets == ((1, 2), (3, 4), (3, 4), (3, 4))


def test_trivial_schedule_partial_batch():
    s = trivial_schedule(GameParams(7, 4, 3))
    assert len(s) == 7
    assert s.sets[:5] == (
        (1, 2, 3, 4),
        (1, 2, 3, 4),
        (1, 2, 3, 4),
        (1, 5, 6, 7),
        (1, 5, 6, 7),
    )
    assert s.sets[5:] == ((1, 5, 6, 7), (1, 5, 6, 7))


def test_trivial_schedule_single_batch():
    s = trivial_schedule(GameParams(3, 3, 2))
    assert s.sets == ((1, 2, 3),) * 3


@given(st.integers(2, 9), st.data())
def test_trivial_schedule_shape(n, data):
    f = data.draw(st.integers(1, n - 1))
    big_n = data.draw(st.integers(n, 40))
    p = GameParams(N=big_n, n=n, f=f)
    s = trivial_schedule(p)
    assert validate_schedule(s) is None
    assert len(s) == big_n
    meaningful = h_value(n, f, big_n)
    tail = s.sets[meaningful:]
    assert all(row == s.sets[meaningful - 1] for row in tail)


@given(st.integers(2, 6), st.data())
def test_survival_at_least_f(n, data):
    f = data.draw(st.integers(1, n - 1))
    big_n = data.draw(st.integers(n, 8))
    length = data.draw(st.integers(1, big_n))
    seed = data.draw(st.integers(0, 10**6))
    p = GameParams(N=big_n, n=n, f=f)
    s = random_schedule(p, length, seed)
    kills = tuple(data.draw(st.sampled_from(row)) for row in s.sets)
    assert survival_time(s, Adversary(kills=kills)) >= min(length, f)


def test_schedule_json_round_trip(tmp_path):
    s = trivial_schedule(GameParams(4, 2, 1))
    doc = schedule_to_dict(s)
    assert doc == {"N": 4, "n": 2, "f": 1, "sets": [[1, 2], [3, 4], [3, 4], [3, 4]]}
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert load_schedule(path) == s
    assert json.loads(path.read_text()) == doc


def test_adversary_json_round_trip(tmp_path):
    a = Adversary(kills=(1, 3, 4, 4))
    doc = adversary_to_dict(a)
    assert doc == {"kills": [1, 3, 4, 4]}
    path = tmp_path / "a.json"
    save_adversary(a, path)
    assert load_adversary(path) == a
    assert json.loads(path.read_text()) == doc


@pytest.mark.parametrize("doc", [{}, {"N": 4}, {"N": 4, "n": 2, "f": 1}, {"sets": []}])
def test_malformed_schedule_doc(doc, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_schedule(path)


def test_malformed_adversary_doc(tmp_path):
    path = tmp_path / "a.json"
    path.write_text("{}")
    with pytest.raises(ValueError):
        load_adversary(path)
