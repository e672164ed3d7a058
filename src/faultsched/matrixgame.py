"""Exact zero-sum matrix games over rationals.

A game is solved on ``tableau``'s fraction-free simplex over a shifted
payoff matrix.  The column strategy is the primal solution and the row
strategy the duals, both over their common sum; the certificate that
they attain the value is checked on those integer numerators after
every solve, and Fractions appear only in the returned solution, so a
returned solution is a proof.  No floats enter.  ``double_oracle``
grows such a game from the caller's payoff and two best responses,
keeping one tableau for all its rounds, and owns the budget on
payoff-matrix cells, as the tableau owns the one on pivots;
``solve_zero_sum`` solves each of its rounds from the last basis, and
any other matrix from the slack basis.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from operator import mul

from .game import BudgetExceededError, _Frozen, _listed
from .tableau import _Tableau

# Payoff-matrix cells summed over all LP solves of one double oracle; it
# bounds the rounds too, since a round that goes on adds a row or column.
_MAX_PAYOFF_CELLS = 100_000
# The one zero of every returned strategy (most entries of a grown game's
# strategies are 0) and the one 1 of a pure one: a Fraction is immutable.
_ZERO, _ONE = Fraction(0), Fraction(1)


class MatrixGameSolution(_Frozen):
    """Value and optimal mixed strategies; rows maximize, columns minimize."""

    __slots__ = __match_args__ = ("value", "row_strategy", "col_strategy")
    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]


def solve_zero_sum(matrix: Sequence[Sequence[Fraction | int]]) -> MatrixGameSolution:
    """Exact value and optimal strategies of the game with payoff
    ``matrix[i][j]`` paid by the column player to the row player.  A
    ``_Tableau`` is grown and solved on from its last basis; any other
    matrix and its rows are read once, and ValueError names what is not
    iterable."""
    game = matrix
    if not isinstance(game, _Tableau):
        rows = [_listed(row, f"matrix row {i}")
                for i, row in enumerate(_listed(matrix, "matrix"), 1)]
        if not (rows and rows[0]):
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows must have equal length")
        game = _Tableau(rows)
    game.grow()
    z, u, d = game.pivot()
    # Over the one denominator total, z is the column strategy, u the row
    # strategy and d the value of the shifted game.  The certificate
    # checks them in integers on the shifted matrix; sum(u) = sum(z) is
    # strong duality.
    total = sum(z)
    if total <= 0 or min(z) < 0 or min(u) < 0 or sum(u) != total:
        raise ArithmeticError(f"strategies are not distributions: z={z} u={u}")
    floor = min(sum(map(mul, u, column)) for column in zip(*game.payoffs))
    ceil = max(sum(map(mul, row, z)) for row in game.payoffs)
    if not floor == d == ceil:
        raise ArithmeticError(f"certificate failed: floor={floor} value={d} ceil={ceil}")
    return MatrixGameSolution(Fraction(d - game.shift * total, total * game.scale),
                              tuple(Fraction(x, total) if x else _ZERO for x in u),
                              tuple(Fraction(x, total) if x else _ZERO for x in z))


def double_oracle(first_row: object, payoff: Callable, row_response: Callable,
                  col_response: Callable) -> tuple[Fraction, list[tuple[object, Fraction]]]:
    """Value v of the game whose rows maximize ``payoff(row, col)``, and an
    optimal row mix as its (row, p > 0) pairs, by double oracle (McMahan,
    Gordon & Blum 2003).  ``row_response`` and ``col_response`` map a mix
    of the other side's strategies to (value, best response).

    The restricted game opens as ``first_row`` against its column
    response, which serves round 1 too.  Each round solves it exactly and
    stops when col value >= v >= row value, a proof of v, else adds each
    strictly improving response to the matrix, a ``_Tableau``, which
    ``solve_zero_sum`` then solves on from the round before's basis.
    Raises ``BudgetExceededError`` once the LP solves would pass
    ``_MAX_PAYOFF_CELLS`` cells in all."""
    br_col, col = col_response([(first_row, _ONE)])
    rows, cols, matrix, cells = [first_row], [col], _Tableau([[payoff(first_row, col)]]), 0
    while True:
        cells += len(rows) * len(cols)
        if cells > _MAX_PAYOFF_CELLS:
            raise BudgetExceededError(f"double oracle exceeded its budget of {_MAX_PAYOFF_CELLS} "
                                      "payoff-matrix cells over all LP solves")
        sol = solve_zero_sum(matrix)
        v = sol.value
        x = [(row, p) for row, p in zip(rows, sol.row_strategy) if p]
        if cells > 1:  # round 1's row mix is first_row alone
            br_col, col = col_response(x)
        br_row, row = row_response([(c, p) for c, p in zip(cols, sol.col_strategy) if p])
        if br_col >= v >= br_row:
            return v, x
        if br_col < v:
            cols.append(col)
            for r, payoffs in zip(rows, matrix):
                payoffs.append(payoff(r, col))
        if br_row > v:
            rows.append(row)
            matrix.append([payoff(row, c) for c in cols])
