"""Independent references for the benchmark's verdict checks.

Nothing here imports faultsched, so a defect in the library cannot hide
in its own reference.
"""

from __future__ import annotations

from fractions import Fraction


def h(n: int, f: int, k: int) -> int:
    """Closed-form optimum survival of a size-k pool under (n, f)."""
    q, r = divmod(k, n)
    return q * f + max(r + f - n, 0)


def online_value(length: int, f: int, support) -> Fraction:
    """Expected survival of a schedule distribution against the best
    on-line adversary.

    ``support`` lists (sets, probability) with ``length`` sets each.  The
    adversary sees the sets revealed so far and its own kills, and picks
    each kill to minimize expected survival: an expectimin over revealed
    prefixes.  Survival ends at step t when more than f members of the
    step-t set are dead, counting the kill made at t.
    """
    memo: dict[tuple, Fraction] = {}

    def expect(t: int, items: tuple, killed: frozenset) -> Fraction:
        if t == length:
            return Fraction(length)
        key = (items[0][0][:t], killed)
        if key not in memo:
            by_next: dict[tuple, list] = {}
            for sets, w in items:
                by_next.setdefault(sets[t], []).append((sets, w))
            acc = Fraction(0)
            for row, group in by_next.items():
                worst = min(
                    Fraction(t) if len((killed | {p}) & set(row)) > f
                    else expect(t + 1, tuple(group), killed | {p})
                    for p in row
                )
                acc += sum(w for _, w in group) * worst
            memo[key] = acc / sum(w for _, w in items)
        return memo[key]

    return expect(0, tuple(support), frozenset())
