"""Scheduler-versus-adversary game model.

A schedule is a sequence of size-n operating sets over a pool of N
processors; the adversary kills one member of each set in turn.  The
system survives time t if no prefix of kills ever leaves more than f
dead processors inside the set in use.

All value types are immutable; operations are pure.  A ``Schedule``
cannot change after construction, so neither can its validity: entry
points validate each object once and remember a pass, never a failure.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import lt
from os import PathLike

from .survival import h_value


class BudgetExceededError(RuntimeError):
    """A search or construction would pass its budget or size cap; the
    CLI maps it to exit code 3."""


_set = object.__setattr__


class _Frozen:
    """Base of the immutable value types, built without ``dataclasses`` so
    that importing them loads neither it nor ``inspect``.  A subclass lists
    its fields in order as ``__match_args__`` and holds them in
    ``__slots__``; ``__init__`` binds arguments to them as a signature of
    those names would.  A type that checks its input keeps a named
    ``__init__`` that checks, then passes its fields to this one; only
    ``BipartiteGraph`` checks in a ``__post_init__``, for perfbench/tracer.py
    to wrap.  Equality and hash go by the exact class and the field tuple,
    ``repr`` is ``Name(field=value, ...)``, and copies and pickles are
    rebuilt through the constructor."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        if kwargs or len(args) != len(names):  # the named constructors pass fields by position
            rest = names[len(args):]
            args += tuple(map(kwargs.get, rest))
            if {*kwargs} != {*rest} or len(args) != len(names):
                raise TypeError(f"{self.__class__.__name__}() takes each of {names} once")
        for name, value in zip(names, args):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class GameParams(_Frozen):
    """Pool size N, operating-set size n, per-set fault tolerance f."""

    __slots__ = __match_args__ = ("N", "n", "f")
    N: int
    n: int
    f: int

    def __init__(self, N: int, n: int, f: int) -> None:
        if not (type(N) is type(n) is type(f) is int):
            raise ValueError(f"parameters must be integers, got N={N!r}, n={n!r}, f={f!r}")
        if not 1 <= f < n <= N:
            raise ValueError(
                f"parameters must satisfy 1 <= f < n <= N, "
                f"got N={N}, n={n}, f={f}"
            )
        _Frozen.__init__(self, N, n, f)


class Schedule(_Frozen):
    """Ordered operating sets; processor ids are 1-based, sets kept sorted.

    Construction normalizes each set to a sorted tuple but does not
    validate; :func:`validate_schedule` reports the first violation so
    malformed input files can be diagnosed precisely.  The first library
    call that needs a valid schedule marks it on a pass, outside the
    fields, so ``==``, ``hash`` and ``repr`` ignore the mark.
    """

    __match_args__ = ("params", "sets")
    __slots__ = __match_args__ + ("_valid",)
    params: GameParams
    sets: tuple[tuple[int, ...], ...]

    def __init__(self, params: GameParams, sets: Iterable[Iterable[int]]) -> None:
        _Frozen.__init__(self, params, tuple(map(tuple, map(sorted, sets))))
        _set(self, "_valid", False)

    def __len__(self) -> int:
        return len(self.sets)


class Adversary(_Frozen):
    """Kill sequence; kills[t-1] must be a member of the schedule's set t."""

    __slots__ = __match_args__ = ("kills",)
    kills: tuple[int, ...]

    def __init__(self, kills: Iterable[int]) -> None:
        _Frozen.__init__(self, tuple(kills))

    def __len__(self) -> int:
        return len(self.kills)


class Violation(_Frozen):
    """First invariant breach found; index is the 1-based time (0 when the
    problem is schedule-wide, such as an empty schedule)."""

    __slots__ = __match_args__ = ("index", "kind", "message")
    index: int
    kind: str
    message: str


def validate_schedule(s: Schedule) -> Violation | None:
    """Return None if the schedule is well formed, else the first violation."""
    N, n = s.params.N, s.params.n
    if not s.sets:
        return Violation(0, "empty", "empty schedule")
    if len(s.sets) > N:
        return Violation(0, "too-long", f"schedule length {len(s.sets)} exceeds pool size {N}")
    for t, row in enumerate(s.sets, start=1):
        if len(row) != n:
            return Violation(t, "wrong-cardinality", f"set of size {len(row)} at t={t}, expected {n}")
        if {*map(type, row)} - {int}:  # before any comparison of an id with an int
            return Violation(t, "non-integer-id", f"non-integer id at t={t}")
        if not all(map(lt, row, row[1:])):  # rows are sorted on construction
            return Violation(t, "duplicate-id", f"duplicate id at t={t}")
        if row[0] < 1 or row[-1] > N:
            return Violation(t, "id-out-of-range", f"id out of range at t={t}")
    return None


def validate_adversary(s: Schedule, a: Adversary) -> Violation | None:
    """Return None if the adversary is legal for the schedule."""
    if len(a.kills) != len(s.sets):
        return Violation(
            0, "length-mismatch",
            f"adversary length {len(a.kills)} != schedule length {len(s.sets)}",
        )
    for t, (kill, row) in enumerate(zip(a.kills, s.sets), start=1):
        if kill not in row:
            return Violation(t, "kill-not-in-set", f"kill {kill} not in set at t={t}")
    return None


def _require_valid(s: Schedule) -> None:
    """Raise ``ValueError`` unless ``s`` is well formed; a pass is remembered."""
    if s._valid:
        return
    v = validate_schedule(s)
    if v is not None:
        raise ValueError(f"invalid schedule: {v.message}")
    _set(s, "_valid", True)


def survival_time(s: Schedule, a: Adversary) -> int:
    """Largest t such that every prefix u <= t leaves at most f distinct
    killed processors inside the set in use at u.

    Re-kills of dead processors are legal and harmless: the killed set is
    a set.  The kill at time u participates in the check at time u.
    """
    _require_valid(s)
    v = validate_adversary(s, a)
    if v is not None:
        raise ValueError(f"invalid adversary: {v.message}")
    f = s.params.f
    killed: set[int] = set()
    for u, (row, kill) in enumerate(zip(s.sets, a.kills), start=1):
        killed.add(kill)
        if len(killed.intersection(row)) > f:
            return u - 1
    return len(s.sets)


def trivial_schedule(params: GameParams) -> Schedule:
    """Batch schedule attaining the optimum survival time.

    The pool is split into floor(N/n) full batches used f periods each;
    the leftover p processors, topped up with the first n - p ids of the
    last full batch, are used (f + p - n)^+ periods.  That meaningful
    prefix has length h(n, f, N); it is padded to length N by repeating
    the last emitted set, which cannot lower the minimal survival time
    below the optimum.
    """
    N, n, f = params.N, params.n, params.f
    q, p = divmod(N, n)
    sets: list[tuple[int, ...]] = []
    for i in range(q):
        batch = tuple(range(i * n + 1, (i + 1) * n + 1))
        sets.extend([batch] * f)
    if f + p > n:  # batch is the last full batch, as q >= 1
        tail = tuple(range(N - p + 1, N + 1))
        sets.extend([batch[:n - p] + tail] * (f + p - n))
    h = h_value(n, f, N)
    if len(sets) != h:
        raise RuntimeError(f"batch prefix has {len(sets)} sets, expected h = {h}")
    sets.extend([sets[-1]] * (N - len(sets)))
    return Schedule(params, sets)


# ---------------------------------------------------------------------------
# JSON wire formats, read by one strict reader and written by one writer.
#
# Schedule: {"N": 4, "n": 2, "f": 1, "sets": [[1, 2], [3, 4], [3, 4], [3, 4]]}
# Adversary: {"kills": [1, 3, 4, 4]}
# Instance (solver.py): {"n": 2, "f": 1, "right_ids": [1, 2, 3, 4], "rows": [[1, 2]]}
# Ids are 1-based; sets are serialized in ascending id order.
# ---------------------------------------------------------------------------


def read_document(path: str | PathLike[str], **depths: int) -> dict:
    """Strict reader behind every wire format.

    The file must hold a JSON object with each named field; depth 0 asks
    for an integer, 1 for a list of integers, 2 for a list of such lists.
    Numbers must be JSON integers: bools, floats and strings are rejected,
    never coerced.  Lists come back as tuples.  Errors are ValueErrors
    that name the field, such as ``sets[1][1] must be an integer``.
    """
    import json  # here, so that CLI commands without JSON files never load it
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as e:  # bad syntax, bytes that are not UTF-8, an overlong integer
        raise ValueError(f"{path}: {e}") from None
    if type(doc) is not dict:
        raise ValueError(f"{path}: document must be a JSON object")
    for key in depths:
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    return {key: _strict(doc[key], depth, f"{path}: {key}") for key, depth in depths.items()}


def _strict(x: object, depth: int, where: str) -> object:
    if depth == 0:
        if type(x) is not int:
            raise ValueError(f"{where} must be an integer")
        return x
    if type(x) is not list:
        raise ValueError(f"{where} must be a list")
    if depth == 1 and all(type(y) is int for y in x):
        return tuple(x)
    return tuple(_strict(y, depth - 1, f"{where}[{i}]") for i, y in enumerate(x))


def write_document(doc: dict, path: str | PathLike[str]) -> None:
    """The one writer: ``doc`` as a single line of JSON."""
    import json
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")  # dumps, not dump: only the one-shot encoder is in C


def schedule_to_dict(s: Schedule) -> dict:
    return {
        "N": s.params.N,
        "n": s.params.n,
        "f": s.params.f,
        "sets": [list(row) for row in s.sets],
    }


def adversary_to_dict(a: Adversary) -> dict:
    return {"kills": list(a.kills)}


def load_schedule(path: str | PathLike[str]) -> Schedule:
    d = read_document(path, N=0, n=0, f=0, sets=2)
    return Schedule(GameParams(d["N"], d["n"], d["f"]), d["sets"])


def save_schedule(s: Schedule, path: str | PathLike[str]) -> None:
    write_document(schedule_to_dict(s), path)


def load_adversary(path: str | PathLike[str]) -> Adversary:
    return Adversary(read_document(path, kills=1)["kills"])


def save_adversary(a: Adversary, path: str | PathLike[str]) -> None:
    write_document(adversary_to_dict(a), path)
