"""Closed-form worst-case survival arithmetic.

A system runs n processors drawn from a pool, tolerates up to f
simultaneous faults per operating set, and is reconfigured after each
fault report.  The survival function below gives the exact number of
fault reports the best schedule on a pool of k processors outlives.

Everything here is pure integer arithmetic on immutable values; no
floating point, safe for concurrent callers.
"""

from __future__ import annotations

# Stands in for typing.TYPE_CHECKING, so that importing this module does not
# load ``typing``; type checkers recognize the name and read it as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .game import GameParams


def h_value(n: int, f: int, k: int) -> int:
    """Survival budget of a size-k pool under (n, f) operation.

    n is the operating-set size, f the per-set fault tolerance, k the
    pool size.  f = 0 is admitted as a degenerate extension (needed when
    a two-pool split leaves a pool with no slack); the game model itself
    requires f >= 1.

    Computed as floor(k/n)*f + (k mod n + f - n)^+ where (x)^+ is the
    positive part.  Each full batch of n processors is worth f reports;
    the leftover k mod n processors add value only once they can be
    topped up into a full set with enough slack.
    """
    if not (type(n) is type(f) is type(k) is int):
        raise ValueError(f"n, f and k must be integers, got n={n!r}, f={f!r}, k={k!r}")
    if n <= 0:
        raise ValueError(f"set size n must be positive, got n={n}")
    if not 0 <= f < n:
        raise ValueError(f"fault tolerance must satisfy 0 <= f < n, got f={f}, n={n}")
    if k < 0:
        raise ValueError(f"pool size k must be nonnegative, got k={k}")
    q, r = divmod(k, n)
    return q * f + max(r + f - n, 0)


def optimum_survival_time(params: GameParams) -> int:
    """Best worst-case survival time over all schedules for the game."""
    return h_value(params.n, params.f, params.N)


def apriori_upper_bound(params: GameParams) -> int:
    """Counting bound N - n + f + 1: once only n - f - 1 processors are
    left alive no set can meet its quorum of n - f non-faulty members."""
    return params.N - params.n + params.f + 1
