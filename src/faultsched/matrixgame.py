"""Exact zero-sum matrix games over rationals.

Small supports only: the solver is a dense primal simplex with Bland's
rule, run on the standard reformulation max sum(z) s.t. M'z <= 1 over a
positively shifted payoff matrix M'.  The pivots are fraction-free
(Edmonds' integer-preserving elimination): the tableau holds integers
over one common denominator, the last pivot.  The column strategy is
the primal solution and the row strategy the duals, both over their
common sum; the certificate that they attain the value is checked on
those integer numerators, and Fractions appear only once, in the
returned solution, so a returned solution is a proof.  No floats enter.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from .game import _Frozen


class MatrixGameSolution(_Frozen):
    """Value and optimal mixed strategies; rows maximize, columns minimize."""

    __slots__ = __match_args__ = ("value", "row_strategy", "col_strategy")
    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]


def _simplex_max(a: list[list[int]], k: int) -> tuple[list[int], list[int], int]:
    """Maximize sum of the first k variables subject to the integer rows
    of ``a`` read as [coeffs | slack identity | rhs], all variables
    nonnegative.  Returns the numerators of the primal z and of the duals
    u over the last pivot d, and d.  The objective row
    (negated reduced costs) is appended to ``a`` and pivoted with the
    other rows; entering on its first negative entry is Bland's rule, so
    the simplex terminates, and its final slack entries are the duals.

    The true tableau is ``a / d``, with d the previous pivot (initially
    1).  A pivot p at (r, c) keeps row r and sets every other row to
    ``(row * p - row[c] * a[r]) // d``; the division is exact (Edmonds
    1967) and d > 0 throughout, so signs and ratios read off ``a``
    directly."""
    m = len(a)
    width = k + m
    basis = [k + i for i in range(m)]
    objective = [-1] * k + [0] * (m + 1)
    a.append(objective)
    d = 1

    while True:
        enter = next((j for j in range(width) if objective[j] < 0), -1)
        if enter == -1:
            break
        leave = -1
        for i in range(m):
            if a[i][enter] > 0:
                if leave == -1:
                    leave = i
                    continue
                # a[i][w] / a[i][enter] against a[leave][w] / a[leave][enter]
                lhs = a[i][width] * a[leave][enter]
                rhs = a[leave][width] * a[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave == -1:
            raise ArithmeticError("unbounded game reformulation; matrix not shifted")
        pivot_row = a[leave]
        p = pivot_row[enter]
        for i in range(m + 1):
            if i == leave:
                continue
            row = a[i]
            factor = row[enter]
            if factor:
                a[i] = [(x * p - factor * y) // d for x, y in zip(row, pivot_row)]
            elif p != d:
                a[i] = [x * p // d for x in row]
        d = p
        objective = a[m]
        basis[leave] = enter

    z = [0] * k
    for i, b in enumerate(basis):
        if b < k:
            z[b] = a[i][width]
    return z, objective[k:width], d


def over_common_denominator(xs: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Numerators of ``xs`` over their least common denominator, and it."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def solve_zero_sum(matrix: Sequence[Sequence[Fraction | int]]) -> MatrixGameSolution:
    """Exact value and optimal strategies of the game with payoff
    ``matrix[i][j]`` paid by the column player to the row player."""
    m = len(matrix)
    if m == 0 or len(matrix[0]) == 0:
        raise ValueError("matrix must be nonempty")
    k = len(matrix[0])
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix rows must have equal length")
    if not all(type(x) is int or isinstance(x, Fraction) for row in matrix for x in row):
        raise ValueError("matrix entries must be int or Fraction")

    # The game on scale * matrix has the same strategies and scale times
    # the value; scaling by the lcm of the denominators makes it integral.
    flat, scale = over_common_denominator([x for row in matrix for x in row])
    scaled = [flat[i * k:(i + 1) * k] for i in range(m)]
    low = min(min(row) for row in scaled)
    shift = scale - low if low < scale else 0
    tableau = [
        [x + shift for x in row] + [int(i == r) for r in range(m)] + [1]
        for i, row in enumerate(scaled)
    ]
    z, u, d = _simplex_max(tableau, k)
    # Over the one denominator total, z is the column strategy, u the row
    # strategy and d - shift * total the value of the scaled game.  The
    # certificate checks them in integers on the scaled matrix; sum(u) =
    # sum(z) is strong duality.
    total = sum(z)
    if total <= 0 or min(z) < 0 or min(u) < 0 or sum(u) != total:
        raise ArithmeticError(f"strategies are not distributions: z={z} u={u}")
    value = d - shift * total
    floor = min(sum(map(mul, u, column)) for column in zip(*scaled))
    ceil = max(sum(map(mul, row, z)) for row in scaled)
    if not floor == value == ceil:
        raise ArithmeticError(f"certificate failed: floor={floor} value={value} ceil={ceil}")
    return MatrixGameSolution(Fraction(value, total * scale),
                              tuple(Fraction(x, total) for x in u),
                              tuple(Fraction(x, total) for x in z))
