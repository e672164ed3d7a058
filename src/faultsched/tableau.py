"""The fraction-free simplex tableau of a zero-sum matrix game.

Small supports only: a dense simplex with Bland's rule, run on the
standard reformulation max sum(z) s.t. M'z <= 1 over a positively
shifted payoff matrix M'.  The pivots are fraction-free (Edmonds'
integer-preserving elimination): the tableau holds integers over one
common denominator, the last pivot.  A tableau owns the pivot budget,
over its whole life; ``matrixgame`` reads the strategies off it and
checks them.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from .game import BudgetExceededError

# Pivots over a tableau's life, all its rounds included: a hang guard for
# a rule that cycles, above the 3,081 that the on-line game's largest run
# makes before the cell budget stops it.
_MAX_PIVOTS = 10_000


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
