import pytest
from hypothesis import given, strategies as st

from faultsched import GameParams, h_value, optimum_survival_time
from reference import apriori_upper_bound


def test_known_values():
    assert h_value(4, 3, 7) == 5
    assert h_value(2, 1, 4) == 2
    assert h_value(3, 2, 0) == 0
    assert h_value(2, 1, 5) == 2


def test_h_value_keyword_call():
    assert h_value(n=4, f=3, k=7) == h_value(4, 3, 7) == 5


def test_zero_tolerance_collapses():
    for k in range(0, 30):
        assert h_value(5, 0, k) == 0


def test_exact_division():
    for m in range(0, 8):
        assert h_value(3, 2, 3 * m) == 2 * m


@pytest.mark.parametrize(
    "n,f,k",
    [(0, 0, 1), (-2, 0, 1), (3, 3, 1), (3, -1, 1), (2, 1, -1)],
)
def test_invalid_arguments(n, f, k):
    with pytest.raises(ValueError):
        h_value(n=n, f=f, k=k)


@pytest.mark.parametrize("n,f,k", [(2, 1, 4.5), (2, 1, 4.0), (2.0, 1, 4), (2, 1.0, 4),
                                   (2, True, 4), (2, 1, "4")])
def test_non_int_arguments_rejected(n, f, k):
    with pytest.raises(ValueError, match="must be integers"):
        h_value(n, f, k)


def test_optimum_survival_time():
    assert optimum_survival_time(GameParams(N=4, n=2, f=1)) == 2
    assert optimum_survival_time(GameParams(N=7, n=4, f=3)) == 5
    assert optimum_survival_time(GameParams(N=3, n=3, f=2)) == 2


def test_apriori_upper_bound_value():
    assert apriori_upper_bound(GameParams(N=4, n=2, f=1)) == 4 - 2 + 1 + 1


params = st.tuples(st.integers(1, 12), st.integers(0, 11)).filter(lambda t: t[1] < t[0])


@given(params, st.integers(0, 120))
def test_periodicity(nf, k):
    n, f = nf
    assert h_value(n, f, k + n) == h_value(n, f, k) + f


@given(params, st.integers(0, 120), st.integers(0, 120))
def test_sublinear(nf, p, q):
    n, f = nf
    assert h_value(n, f, p + q) <= h_value(n, f, p) + q


@given(params, st.integers(0, 120), st.data())
def test_rate_bound(nf, k, data):
    n, f = nf
    l = data.draw(st.integers(0, n))
    assert h_value(n, f, k) <= h_value(n, f, k + l) + n - l - f


@given(params, st.integers(0, 120))
def test_monotone(nf, k):
    n, f = nf
    assert h_value(n, f, k) <= h_value(n, f, k + 1)


@given(params, st.integers(0, 120))
def test_nonnegative_and_zero_below_threshold(nf, k):
    n, f = nf
    h = h_value(n, f, k)
    assert h >= 0
    if k <= n - f:
        assert h == 0


@given(st.integers(2, 10), st.data())
def test_apriori_bound_dominates(n, data):
    f = data.draw(st.integers(1, n - 1))
    big_n = data.draw(st.integers(n, 80))
    p = GameParams(N=big_n, n=n, f=f)
    assert optimum_survival_time(p) <= apriori_upper_bound(p)
