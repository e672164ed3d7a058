"""Exact zero-sum matrix games over rationals.

Small supports only: the solver is a dense primal simplex with Bland's
rule, run on the standard reformulation max sum(z) s.t. M'z <= 1 over a
positively shifted payoff matrix M'.  The column strategy is read off
the primal solution, the row strategy off the duals, and both are
checked against the value before returning, so a returned solution is
a proof.  Everything is fractions.Fraction; no floats enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class MatrixGameSolution:
    """Value and optimal mixed strategies; rows maximize, columns minimize."""

    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]


def _simplex_max(
    a: list[list[Fraction]], k: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Maximize sum of the first k variables subject to rows of ``a``
    read as [coeffs | slack identity | rhs], all variables nonnegative.
    Returns (primal z, duals u).  The objective row (negated reduced
    costs) is appended to ``a`` and pivoted with the other rows; entering
    on its first negative entry is Bland's rule, so the simplex
    terminates, and its final slack entries are the duals."""
    m = len(a)
    width = k + m
    basis = [k + i for i in range(m)]
    objective = [Fraction(-1)] * k + [Fraction(0)] * (m + 1)
    a.append(objective)

    while True:
        enter = next((j for j in range(width) if objective[j] < 0), -1)
        if enter == -1:
            break
        best_ratio: Fraction | None = None
        leave = -1
        for i in range(m):
            if a[i][enter] > 0:
                ratio = a[i][width] / a[i][enter]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave == -1:
            raise ArithmeticError("unbounded game reformulation; matrix not shifted")
        piv = a[leave][enter]
        a[leave] = [x / piv for x in a[leave]]
        for i in range(m + 1):
            if i != leave and a[i][enter] != 0:
                factor = a[i][enter]
                a[i] = [x - factor * y for x, y in zip(a[i], a[leave])]
        objective = a[m]
        basis[leave] = enter

    z = [Fraction(0)] * k
    for i, b in enumerate(basis):
        if b < k:
            z[b] = a[i][width]
    return z, objective[k:width]


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

    low = min(min(row) for row in matrix)
    shift = Fraction(1) - low if low < 1 else Fraction(0)
    tableau = [
        [matrix[i][j] + shift for j in range(k)]
        + [Fraction(int(i == r)) for r in range(m)]
        + [Fraction(1)]
        for i in range(m)
    ]
    z, duals = _simplex_max(tableau, k)
    total = sum(z)
    if total <= 0:
        raise ArithmeticError("degenerate optimum; shift failed")
    inv = Fraction(1) / total
    value = inv - shift
    col = tuple(zj * inv for zj in z)
    row = tuple(ui * inv for ui in duals)

    for name, strategy in (("column", col), ("row", row)):
        if sum(strategy) != 1 or any(p < 0 for p in strategy):
            raise ArithmeticError(f"{name} strategy is not a distribution: {strategy}")
    floor = min(
        sum(row[i] * matrix[i][j] for i in range(m)) for j in range(k)
    )
    ceil = max(
        sum(matrix[i][j] * col[j] for j in range(k)) for i in range(m)
    )
    if not floor == value == ceil:
        raise ArithmeticError(f"certificate failed: floor={floor} value={value} ceil={ceil}")
    return MatrixGameSolution(value=value, row_strategy=row, col_strategy=col)
