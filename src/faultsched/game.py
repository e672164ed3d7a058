"""Scheduler-versus-adversary game model.

A schedule is a sequence of size-n operating sets over a pool of N
processors; the adversary kills one member of each set in turn.  The
system survives time t if no prefix of kills ever leaves more than f
dead processors inside the set in use.

All value types are immutable; operations are pure.  Input is checked
once, at the boundary: the public constructors check what they are
given, and a ``Schedule`` cannot change after construction, so neither
can its validity: entry points validate each object once and remember a
pass, never a failure.  A value the library builds from values already
checked is born checked, through ``_Frozen._from_checked``.  The JSON
files of schedules and adversaries are read and written by ``codec``.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import lt

from .codec import (  # noqa: F401 - perfbench/workloads.py calls them on fs.game
    adversary_to_dict, load_adversary, load_schedule, schedule_to_dict)
from .survival import h_value


class BudgetExceededError(RuntimeError):
    """A search or construction would pass its budget or size cap; the
    CLI maps it to exit code 3."""


_set = object.__setattr__


def _listed(items: Iterable, name: str) -> list:
    """``items`` as a list, or a ValueError naming ``name`` if it is not iterable."""
    try:
        return [*items]
    except TypeError:
        raise ValueError(f"{name} must be iterable, got {type(items).__name__}") from None


def _rows(items: Iterable, name: str) -> tuple[tuple, ...]:
    """``Schedule``'s sets or ``PInstance``'s rows, each read once into a
    sorted tuple; a tuple object repeated is sorted once and shared (by
    identity: ``(1.0, 2) == (1, 2)``); a row whose ids do not compare is
    kept as its failed sort left it.  ValueError names what is not iterable."""
    done, out = {}, []  # a tuple row's id -> its sorted copy (the read list keeps ids unique)
    for row in _listed(items, name + "s"):
        norm = done.get(id(row))
        if norm is None:
            try:
                norm = [*row]
                norm.sort()
            except TypeError:  # a row that is not iterable, or ids that do not compare
                if norm is None:
                    raise ValueError(f"{name} {len(out) + 1} must be iterable, "
                                     f"got {type(row).__name__}") from None
            norm = tuple(norm)
            if type(row) is tuple:
                done[id(row)] = norm
        out.append(norm)
    return tuple(out)


class _Frozen:
    """Base of the immutable value types, built without ``dataclasses`` so
    that importing them loads neither it nor ``inspect``.  A subclass lists
    its fields in order as ``__match_args__`` and holds them in
    ``__slots__``; ``__init__`` binds arguments to them as a signature of
    those names would.  A type that checks its input keeps a named
    ``__init__`` that checks, then passes its fields to this one; only
    ``BipartiteGraph`` checks in a ``__post_init__``, for
    perfbench/tracer.py to wrap.  The constructors are the boundary;
    ``_from_checked`` binds fields that the library built from checked
    values, and checks nothing.  Equality and hash go by the exact class
    and the field tuple, ``repr`` is ``Name(field=value, ...)``, and
    copies and pickles are rebuilt through the constructor."""

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

    @classmethod
    def _from_checked(cls, *fields: object) -> _Frozen:
        """An instance bound to ``fields``, in order, which the caller built
        from values already checked, so that they would pass the checking
        constructor unchanged; a slot after the fields, ``Schedule``'s
        validity mark, is set as a pass would set it."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (*fields, True)):
            _set(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

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


def _check_params(params: GameParams) -> None:
    """ValueError unless ``params`` is a ``GameParams``, which its
    constructor has checked."""
    if not isinstance(params, GameParams):
        raise ValueError(f"params must be a GameParams, got {type(params).__name__}")


class Schedule(_Frozen):
    """Ordered operating sets; processor ids are 1-based, sets kept sorted.

    Construction reads the sets through ``_rows`` and does not validate:
    :func:`validate_schedule` reports the first violation, an unsorted
    set whose ids do not compare included, so malformed input files can
    be diagnosed precisely.  Only ``params`` that is not a
    ``GameParams``, or ``sets`` or a set in it that is not iterable,
    raises here, a ``ValueError`` that names it.  The first library
    call that needs a valid schedule marks it on a pass, outside the
    fields, so ``==``, ``hash`` and ``repr`` ignore the mark.
    """

    __match_args__ = ("params", "sets")
    __slots__ = __match_args__ + ("_valid",)
    params: GameParams
    sets: tuple[tuple[int, ...], ...]

    def __init__(self, params: GameParams, sets: Iterable[Iterable[int]]) -> None:
        _check_params(params)
        _Frozen.__init__(self, params, _rows(sets, "set"))
        _set(self, "_valid", False)

    def __len__(self) -> int:
        return len(self.sets)


class Adversary(_Frozen):
    """Kill sequence; kills[t-1] must be a member of the schedule's set t."""

    __slots__ = __match_args__ = ("kills",)
    kills: tuple[int, ...]

    def __init__(self, kills: Iterable[int]) -> None:
        _Frozen.__init__(self, tuple(_listed(kills, "kills")))


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
        if type(kill) is not int or kill not in row:
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
    below the optimum.  Its rows are sorted ids in 1..N, so it is built
    valid and never validated.
    """
    _check_params(params)
    return _batch_schedule(params)[0]


def _batch_schedule(params: GameParams) -> tuple[Schedule, int]:
    """``trivial_schedule`` of ``params`` already checked, with h(n, f, N)."""
    N, n, f = params.N, params.n, params.f
    q, p = divmod(N, n)
    sets: list[tuple[int, ...]] = []
    for i in range(q):
        batch = tuple(range(i * n + 1, (i + 1) * n + 1))
        sets.extend([batch] * f)
    if f + p > n:  # batch is the last full batch, as q >= 1
        sets.extend([batch[:n - p] + tuple(range(N - p + 1, N + 1))] * (f + p - n))
    h = h_value(n, f, N)
    if len(sets) != h:
        raise RuntimeError(f"batch prefix has {len(sets)} sets, expected h = {h}")
    sets.extend([sets[-1]] * (N - len(sets)))
    return Schedule._from_checked(params, tuple(sets)), h

