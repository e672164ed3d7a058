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
``double_oracle`` grows such a game from the caller's payoff and two
best responses, and is the one loop that solves it and budgets the LP.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from .game import BudgetExceededError, _Frozen

# Payoff-matrix cells summed over all LP solves of one double oracle; it
# bounds the rounds too, since a round that goes on adds a row or column.
_MAX_PAYOFF_CELLS = 100_000


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
    """Numerators of ``xs`` over their least common denominator, and it.
    The one type check of weights and payoffs: a value that is not an
    ``int`` or a ``Fraction`` (a float or a bool too) raises ValueError."""
    if bad := {*map(type, xs)} - {int, Fraction}:
        raise ValueError(f"values must be int or Fraction, got {min(t.__name__ for t in bad)}")
    ratios = [x.as_integer_ratio() for x in xs]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def solve_zero_sum(matrix: Sequence[Sequence[Fraction | int]]) -> MatrixGameSolution:
    """Exact value and optimal strategies of the game with payoff
    ``matrix[i][j]`` paid by the column player to the row player."""
    m = len(matrix)
    if m == 0 or len(matrix[0]) == 0:
        raise ValueError("matrix must be nonempty")
    k = len(matrix[0])
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix rows must have equal length")

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


def double_oracle(first_row: object, payoff: Callable, row_response: Callable,
                  col_response: Callable) -> tuple[Fraction, list[tuple[object, Fraction]]]:
    """Value v of the game whose rows maximize ``payoff(row, col)``, and an
    optimal row mix as its (row, p > 0) pairs, by double oracle (McMahan,
    Gordon & Blum 2003).  ``row_response`` and ``col_response`` map a mix
    of the other side's strategies to (value, best response).

    The restricted game opens as ``first_row`` against its column
    response, which serves round 1 too.  Each round solves it exactly and
    stops when col value >= v >= row value, a proof of v, else adds each
    strictly improving response.  Raises ``BudgetExceededError`` once the
    LP solves would pass ``_MAX_PAYOFF_CELLS`` cells in all."""
    br_col, col = col_response([(first_row, Fraction(1))])
    rows, cols, matrix, cells = [first_row], [col], [[payoff(first_row, col)]], 0
    while True:
        cells += len(rows) * len(cols)
        if cells > _MAX_PAYOFF_CELLS:
            raise BudgetExceededError(f"double oracle exceeded its budget of {_MAX_PAYOFF_CELLS} "
                                      "payoff-matrix cells over all LP solves")
        sol = solve_zero_sum(matrix)
        v = sol.value
        x = [(row, p) for row, p in zip(rows, sol.row_strategy) if p > 0]
        if cells > 1:  # round 1's row mix is first_row alone
            br_col, col = col_response(x)
        br_row, row = row_response([(c, p) for c, p in zip(cols, sol.col_strategy) if p > 0])
        if br_col >= v >= br_row:
            return v, x
        if br_col < v:
            cols.append(col)
            for r, payoffs in zip(rows, matrix):
                payoffs.append(payoff(r, col))
        if br_row > v:
            rows.append(row)
            matrix.append([payoff(row, c) for c in cols])
