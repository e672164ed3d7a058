"""The JSON wire format: one strict reader, one writer, one encoder.

Schedule: {"N": 4, "n": 2, "f": 1, "sets": [[1, 2], [3, 4], [3, 4], [3, 4]]}
Adversary: {"kills": [1, 3, 4, 4]}
Instance: {"n": 2, "f": 1, "right_ids": [1, 2, 3, 4], "rows": [[1, 2]]}
Ids are 1-based; sets are serialized in ascending id order.  The field
maps stay next to their types, in ``game`` and ``solver``.  This module
imports nothing from the package, and ``json`` only inside its functions,
so that CLI commands without JSON files never load it.
"""

from __future__ import annotations

from os import PathLike


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
