"""Exact zero-sum matrix games over rationals.

Small supports only: the solver is a dense simplex with Bland's rule,
run on the standard reformulation max sum(z) s.t. M'z <= 1 over a
positively shifted payoff matrix M'.  The pivots are fraction-free
(Edmonds' integer-preserving elimination): the tableau holds integers
over one common denominator, the last pivot.  The column strategy is
the primal solution and the row strategy the duals, both over their
common sum; the certificate that they attain the value is checked on
those integer numerators after every solve, and Fractions appear only
in the returned solution, so a returned solution is a proof.  No floats
enter.  ``double_oracle`` grows such a game from the caller's payoff and
two best responses, keeping one tableau for all its rounds, and is the
one loop that budgets the LP; ``solve_zero_sum`` solves each of its
rounds from the last basis, and any other matrix from the slack basis.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from .game import BudgetExceededError, _Frozen, _listed

# Payoff-matrix cells summed over all LP solves of one double oracle; it
# bounds the rounds too, since a round that goes on adds a row or column.
_MAX_PAYOFF_CELLS = 100_000
# Pivots over a tableau's life, all its rounds included: a hang guard for
# a rule that cycles, above the 3,081 that the on-line game's largest run
# makes before the cell budget stops it.
_MAX_PIVOTS = 10_000
# The one zero of every returned strategy (most entries of a grown game's
# strategies are 0) and the one 1 of a pure one: a Fraction is immutable.
_ZERO, _ONE = Fraction(0), Fraction(1)


class MatrixGameSolution(_Frozen):
    """Value and optimal mixed strategies; rows maximize, columns minimize."""

    __slots__ = __match_args__ = ("value", "row_strategy", "col_strategy")
    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]


def over_common_denominator(xs: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Numerators of ``xs`` over their least common denominator, and it.
    The one type check of weights and payoffs: a value that is not an
    ``int`` or a ``Fraction`` (a float or a bool too) raises ValueError."""
    if bad := {*map(type, xs)} - {int, Fraction}:
        raise ValueError(f"values must be int or Fraction, got {min(t.__name__ for t in bad)}")
    ratios = [x.as_integer_ratio() for x in xs]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


class _Tableau(list):
    """A payoff matrix, the list of its rows, and the LP of its game,
    which follows the matrix as it grows by rows and columns.

    The game on scale * matrix has the same strategies and scale times
    the value, and scale, the lcm of the denominators, makes it integral;
    the shift makes every entry at least scale, so the LP is bounded.
    Rows of ``a`` read [columns | slacks | rhs], the objective row
    (negated reduced costs) last; variables are numbered in that order,
    each block in order of arrival, and ``basis`` holds each row's basic
    variable.  The true tableau is ``a / d``: a pivot p at (r, c) keeps
    row r and sets every other row to ``(row * p - row[c] * a[r]) // d``,
    exact by Edmonds (1967), and p becomes d.  A negative pivot first
    negates row r, which turns the result into (-a, -d), the same
    tableau, so d > 0 throughout and signs and ratios read off ``a``.

    ``grow`` keeps the basis and adds new rows before new columns.  A
    new row enters with its slack basic: it is d times its shifted
    payoffs minus, for each basic column, that payoff times the column's
    row.  Its rhs may be negative, so dual steps follow, from a tableau
    that was optimal and so dual feasible.  A new column enters
    nonbasic: each row's entry is its slack block (d B^-1) times the
    shifted payoffs, so the objective's is the duals times them, minus
    d; primal steps follow.  A payoff that needs another scale or a
    larger shift rebuilds the tableau from the slack basis, which is
    primal feasible.

    Both steps follow Bland's rule.  A dual step: the least basic
    variable with a negative rhs leaves, and of the columns negative in
    its row, the least ratio objective / -entry enters.  A primal step:
    the least variable with a negative objective entry enters, and of
    the rows positive in its column, the least ratio rhs / entry leaves.
    Ratio ties go to the least variable, entering or basic."""

    def __init__(self, matrix: Sequence) -> None:
        super().__init__(matrix)
        self.pivots = 0
        self.rebuild()

    def rebuild(self) -> None:
        """Scale, shift and the slack basis of the whole matrix."""
        k = len(self[0])
        flat, scale = over_common_denominator([x for row in self for x in row])
        self.scale, self.shift, self.d = scale, max(scale - min(flat), 0), 1
        self.payoffs = [[x + self.shift for x in flat[i:i + k]] for i in range(0, len(flat), k)]
        m = len(self.payoffs)
        self.basis = [*range(k, k + m)]
        self.a = [row + [int(i == r) for r in range(m)] + [1] for i, row in enumerate(self.payoffs)]
        self.a.append([-1] * k + [0] * (m + 1))

    def grow(self) -> None:
        """Add to the tableau each row the matrix has gained since, then
        each column, and pivot back to optimal after each."""
        while True:
            a, basis, d = self.a, self.basis, self.d
            m, k = len(basis), len(self.payoffs[0])
            if m < len(self):
                new, is_row = self[m][:k], True
            elif k < len(self[0]):
                new, is_row = [row[k] for row in self], False
            else:
                return
            nums, den = over_common_denominator(new)
            ints = [x * (self.scale // den) + self.shift for x in nums]
            if self.scale % den or min(ints) < self.scale:
                self.rebuild()
            elif is_row:
                self.payoffs.append(ints)
                for row in a:
                    row.insert(k + m, 0)
                line = [d * x for x in ints] + [0] * m + [d, d]
                for row, b in zip(a, basis):
                    if b < k:
                        line = [x - ints[b] * y for x, y in zip(line, row)]
                a.insert(m, line)
                basis.append(k + m)
            else:
                for row, x in zip(self.payoffs, ints):
                    row.append(x)
                for row in a:
                    row.insert(k, sum(map(mul, row[k:k + m], ints)))
                a[m][k] -= d
                self.basis = [b + (b >= k) for b in basis]
            self.pivot()

    def pivot(self) -> tuple[list[int], list[int], int]:
        """Pivot to an optimal basis; return the numerators of the primal z
        and of the duals u (the objective's slack entries) over d, and d.
        Raises ``BudgetExceededError`` once the tableau's pivots, over all
        its calls, would pass ``_MAX_PIVOTS``."""
        a, basis, d = self.a, self.basis, self.d
        m = len(basis)
        w = len(a[0]) - 1
        while True:
            objective = a[m]
            if dual := [(b, i) for i, b in enumerate(basis) if a[i][w] < 0]:
                leave = min(dual)[1]
                # (variable, where, num, den > 0): the least num / den pivots
                options = [(j, j, objective[j], -x) for j, x in enumerate(a[leave][:w]) if x < 0]
            else:
                enter = next((j for j in range(w) if objective[j] < 0), -1)
                if enter == -1:
                    break
                options = [(b, i, a[i][w], a[i][enter]) for i, b in enumerate(basis) if a[i][enter] > 0]
            if not options:
                raise ArithmeticError("infeasible or unbounded game reformulation")
            best = options[0]
            for o in options:
                if (o[2] * best[3], o[0]) < (best[2] * o[3], best[0]):
                    best = o
            if dual:
                enter = best[1]
            else:
                leave = best[1]
            self.pivots += 1
            if self.pivots > _MAX_PIVOTS:
                raise BudgetExceededError(f"exact LP exceeded its budget of {_MAX_PIVOTS} pivots")
            pivot_row = a[leave]
            if pivot_row[enter] < 0:
                pivot_row = a[leave] = [-x for x in pivot_row]
            p = pivot_row[enter]
            for i, row in enumerate(a):
                if i == leave:
                    continue
                factor = row[enter]
                if factor:
                    a[i] = [(x * p - factor * y) // d for x, y in zip(row, pivot_row)]
                elif p != d:
                    a[i] = [x * p // d for x in row]
            self.d = d = p
            basis[leave] = enter

        k = w - m
        z = [0] * k
        for i, b in enumerate(basis):
            if b < k:
                z[b] = a[i][w]
        return z, objective[k:w], d


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
