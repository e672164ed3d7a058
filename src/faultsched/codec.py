"""The JSON wire format: one strict reader, one writer, one encoder, and
the field map, loader and saver of each of the three formats.

Schedule: {"N": 4, "n": 2, "f": 1, "sets": [[1, 2], [3, 4], [3, 4], [3, 4]]}
Adversary: {"kills": [1, 3, 4, 4]}
Instance: {"n": 2, "f": 1, "right_ids": [1, 2, 3, 4], "rows": [[1, 2]]}
Ids are 1-based; sets are serialized in ascending id order.  This module
imports nothing from the package at module level, as ``game`` and
``solver`` import it: each loader imports the types it builds inside its
body, so that only a command that reads an instance loads ``solver``.
It imports ``json`` only inside its functions, so that CLI commands
without JSON files never load it.
"""

from __future__ import annotations

from os import PathLike

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without loading typing (see survival.py)
if TYPE_CHECKING:
    from .game import Adversary, Schedule
    from .solver import PInstance


def read_document(path: str | PathLike[str], **depths: int) -> dict:
    """Strict reader behind every wire format.

    The file must hold a JSON object with each named field; depth 0 asks
    for an integer, 1 for a list of integers, 2 for a list of such lists.
    Numbers must be JSON integers: bools, floats and strings are rejected,
    never coerced.  A field given twice in one object is rejected too.
    Lists come back as tuples.  Errors are ValueErrors that name the
    field, such as ``sets[1][1] must be an integer``.
    """
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique)
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


def _unique(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``, in which no field may repeat."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate field {key!r}")
        doc[key] = value
    return doc


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


def to_json(doc: dict) -> str:
    """The one encoder: ``doc`` as a single line of JSON, without the newline."""
    import json
    return json.dumps(doc)  # dumps, not dump: only the one-shot encoder is in C


def write_document(doc: dict, path: str | PathLike[str]) -> None:
    """The one writer: ``to_json(doc)`` and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(doc) + "\n")


def schedule_to_dict(s: Schedule) -> dict:
    p = s.params
    return {"N": p.N, "n": p.n, "f": p.f, "sets": [list(row) for row in s.sets]}


def adversary_to_dict(a: Adversary) -> dict:
    return {"kills": list(a.kills)}


def instance_to_dict(inst: PInstance) -> dict:
    return {"n": inst.n, "f": inst.f, "right_ids": list(inst.right_ids),
            "rows": [list(row) for row in inst.rows]}


def load_schedule(path: str | PathLike[str]) -> Schedule:
    from .game import GameParams, Schedule
    d = read_document(path, N=0, n=0, f=0, sets=2)
    return Schedule(GameParams(d["N"], d["n"], d["f"]), d["sets"])


def save_schedule(s: Schedule, path: str | PathLike[str]) -> None:
    write_document(schedule_to_dict(s), path)


def load_adversary(path: str | PathLike[str]) -> Adversary:
    from .game import Adversary
    return Adversary(read_document(path, kills=1)["kills"])


def save_adversary(a: Adversary, path: str | PathLike[str]) -> None:
    write_document(adversary_to_dict(a), path)


def load_instance(path: str | PathLike[str]) -> PInstance:
    from .solver import PInstance
    return PInstance(**read_document(path, n=0, f=0, right_ids=1, rows=2))


def save_instance(inst: PInstance, path: str | PathLike[str]) -> None:
    write_document(instance_to_dict(inst), path)
