"""Exact zero-sum matrix games over rationals.

Small supports only: the solver is a dense primal simplex with Bland's
rule, run on the standard reformulation max sum(z) s.t. M'z <= 1 over a
positively shifted payoff matrix M'.  The pivots are fraction-free
(Edmonds' integer-preserving elimination): the tableau holds integers
over one common denominator, and Fractions appear only once, for the
primal solution and the duals.  The column strategy is read off the
primal solution, the row strategy off the duals, and both are checked
against the value before returning, so a returned solution is a proof.
No floats enter.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .game import _Frozen, _set


class MatrixGameSolution(_Frozen):
    """Value and optimal mixed strategies; rows maximize, columns minimize."""

    __slots__ = __match_args__ = ("value", "row_strategy", "col_strategy")
    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]

    def __init__(self, value: Fraction, row_strategy: tuple[Fraction, ...],
                 col_strategy: tuple[Fraction, ...]) -> None:
        _set(self, "value", value)
        _set(self, "row_strategy", row_strategy)
        _set(self, "col_strategy", col_strategy)


def _simplex_max(a: list[list[int]], k: int) -> tuple[list[Fraction], list[Fraction]]:
    """Maximize sum of the first k variables subject to the integer rows
    of ``a`` read as [coeffs | slack identity | rhs], all variables
    nonnegative.  Returns (primal z, duals u).  The objective row
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

    z = [Fraction(0)] * k
    for i, b in enumerate(basis):
        if b < k:
            z[b] = Fraction(a[i][width], d)
    return z, [Fraction(u, d) for u in objective[k:width]]


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
    z, duals = _simplex_max(tableau, k)
    total = sum(z)
    if total <= 0:
        raise ArithmeticError("degenerate optimum; shift failed")
    inv = Fraction(1) / total
    value = (inv - shift) / scale
    col = tuple(zj * inv for zj in z)
    row = tuple(ui * inv for ui in duals)

    # The certificate runs in integers too: each strategy over its common
    # denominator, against the scaled matrix.
    (cnum, cden), (rnum, rden) = over_common_denominator(col), over_common_denominator(row)
    for name, strategy, num, den in (("column", col, cnum, cden), ("row", row, rnum, rden)):
        if sum(num) != den or min(num) < 0:
            raise ArithmeticError(f"{name} strategy is not a distribution: {strategy}")
    floor = Fraction(min(sum(map(mul, rnum, column)) for column in zip(*scaled)), rden * scale)
    ceil = Fraction(max(sum(map(mul, srow, cnum)) for srow in scaled), cden * scale)
    if not floor == value == ceil:
        raise ArithmeticError(f"certificate failed: floor={floor} value={value} ceil={ceil}")
    return MatrixGameSolution(value=value, row_strategy=row, col_strategy=col)
