"""Contract of the immutable value types, one case per type: construction,
equality and hash, ``repr``, immutability, copies and pickles.  The
pinned reprs are the ones the types printed as frozen dataclasses."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import faultsched
from faultsched import (
    Adversary,
    BipartiteGraph,
    DeficiencyWitness,
    GameParams,
    GameValue,
    Matching,
    MatrixGameSolution,
    MembershipReport,
    PInstance,
    Schedule,
    TwoPoolParams,
    Violation,
)
from faultsched.game import _Frozen, _require_valid

P = GameParams(3, 2, 1)
S = Schedule(P, ((2, 1), (3, 1)))
S_REPR = "Schedule(params=GameParams(N=3, n=2, f=1), sets=((1, 2), (1, 3)))"

# Per type: the constructor's arguments in field order and the repr of
# the object they build.
CASES = {
    "GameParams": (GameParams, (3, 2, 1), "GameParams(N=3, n=2, f=1)"),
    "Schedule": (Schedule, (P, ((2, 1), (3, 1))), S_REPR),
    "Adversary": (Adversary, ([1, 3],), "Adversary(kills=(1, 3))"),
    "Violation": (
        Violation, (2, "duplicate-id", "duplicate id at t=2"),
        "Violation(index=2, kind='duplicate-id', message='duplicate id at t=2')",
    ),
    "BipartiteGraph": (
        BipartiteGraph, (2, 2, ((1,), (1, 2))),
        "BipartiteGraph(left_count=2, right_count=2, adj=((1,), (1, 2)))",
    ),
    "Matching": (Matching, (frozenset({(1, 2)}),), "Matching(pairs=frozenset({(1, 2)}))"),
    "DeficiencyWitness": (
        DeficiencyWitness, (frozenset({1}), frozenset({2}), 1),
        "DeficiencyWitness(C=frozenset({1}), gamma=frozenset({2}), value=1)",
    ),
    "PInstance": (
        PInstance, (2, 1, [1, 2, 3], [[2, 1]]),
        "PInstance(n=2, f=1, right_ids=(1, 2, 3), rows=((1, 2),))",
    ),
    "MembershipReport": (
        MembershipReport, (False, 3, "row 3 has degree 1, expected 2"),
        "MembershipReport(member=False, violating_t=3, reason='row 3 has degree 1, expected 2')",
    ),
    "MatrixGameSolution": (
        MatrixGameSolution, (Fraction(1, 2), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1),)),
        "MatrixGameSolution(value=Fraction(1, 2), row_strategy=(Fraction(1, 2), Fraction(1, 2)), "
        "col_strategy=(Fraction(1, 1),))",
    ),
    "GameValue": (
        GameValue, (Fraction(2), ((S, Fraction(1)),)),
        f"GameValue(value=Fraction(2, 1), strategy_support=(({S_REPR}, Fraction(1, 1)),))",
    ),
    "TwoPoolParams": (TwoPoolParams, (5, 5, 5, 1, 1), "TwoPoolParams(N1=5, N2=5, n=5, g1=1, g2=1)"),
}


@pytest.fixture(params=CASES)
def case(request):
    cls, args, text = CASES[request.param]
    return cls, args, text, cls(*args)


def test_positional_and_keyword_construction(case):
    cls, args, text, obj = case
    by_keyword = cls(**dict(zip(cls.__match_args__, args)))
    assert repr(obj) == repr(by_keyword) == text
    assert obj == by_keyword and hash(obj) == hash(by_keyword)


@pytest.mark.parametrize("bad", ["missing", "extra", "unknown", "twice"])
def test_bad_arguments_raise_type_error(case, bad):
    """Every type binds its arguments as a signature of its fields would:
    each field once, by position or keyword, and nothing else."""
    cls, args, _, _ = case
    # "unknown" and, past one field, "twice" keep the argument count right.
    first, kept = cls.__match_args__[0], args[:max(len(args) - 1, 1)]
    call = {
        "missing": lambda: cls(*args[:-1]),
        "extra": lambda: cls(*args, None),
        "unknown": lambda: cls(*args[:-1], other=args[-1]),
        "twice": lambda: cls(*kept, **{first: args[0]}),
    }[bad]
    with pytest.raises(TypeError):
        call()


def test_equality_and_hash_by_class_and_fields(case):
    cls, args, _, obj = case
    values = tuple(getattr(obj, name) for name in cls.__match_args__)
    assert obj == cls(*values) and hash(obj) == hash(cls(*values))
    assert obj != values and obj != args
    assert obj != type("Sub", (cls,), {})(*values)


def test_parameters_differ_by_one_field():
    assert GameParams(3, 2, 1) != (3, 2, 1)
    assert GameParams(3, 2, 1) != GameParams(4, 2, 1)
    assert len({GameParams(3, 2, 1), GameParams(3, 2, 1), GameParams(4, 2, 1)}) == 2


def test_fields_are_read_only(case):
    cls, _, _, obj = case
    for name in (*cls.__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal(case, clone):
    _, _, text, obj = case
    twin = clone(obj)
    assert obj == twin and hash(obj) == hash(twin) and repr(twin) == text


def test_validity_mark_is_not_a_field():
    s, fresh = Schedule(P, S.sets), Schedule(P, S.sets)
    _require_valid(s)
    assert s._valid and not fresh._valid
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh) == S_REPR
    with pytest.raises(AttributeError):
        s._valid = False


def test_every_value_type_has_a_case():
    """Each ``_Frozen`` subclass of the package is a case above, so none
    skips the contract, and none overrides the equality and hash by
    class and fields."""
    for module in pkgutil.iter_modules(faultsched.__path__):
        importlib.import_module(f"faultsched.{module.name}")
    types, stack = set(), [_Frozen]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("faultsched."):
                types.add(cls)
    assert {cls.__name__ for cls in types} == set(CASES)
    assert all("__eq__" not in vars(cls) and "__hash__" not in vars(cls) for cls in types)
