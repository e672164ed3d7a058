"""The three JSON wire formats: round trips, and strict rejection of
documents whose numbers or lists have the wrong JSON type."""

import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import faultsched
from faultsched import (
    Adversary,
    GameParams,
    PInstance,
    adversary_to_dict,
    instance_to_dict,
    load_adversary,
    load_instance,
    load_schedule,
    save_adversary,
    save_instance,
    save_schedule,
    schedule_to_dict,
)
from reference import random_schedule

FORMATS = {
    "schedule": (load_schedule, save_schedule, schedule_to_dict),
    "adversary": (load_adversary, save_adversary, adversary_to_dict),
    "instance": (load_instance, save_instance, instance_to_dict),
}
# Stands in for a number and becomes the bare token 1e400 in the file,
# which JSON parsers read as an infinite float.
HUGE = "<1e400>"


@st.composite
def documents(draw):
    """A format name and a valid value of that format."""
    n = draw(st.integers(2, 6))
    f = draw(st.integers(1, n - 1))
    big_n = draw(st.integers(n, 9))
    s = random_schedule(GameParams(N=big_n, n=n, f=f), draw(st.integers(1, big_n)),
                        draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(sorted(FORMATS)))
    if kind == "adversary":
        return kind, Adversary(kills=tuple(draw(st.sampled_from(row)) for row in s.sets))
    p = s.params
    return kind, s if kind == "schedule" else PInstance(p.n, p.f, range(1, p.N + 1), s.sets)


def _slots(doc):
    """(container, key) of every value nested in ``doc``."""
    slots, stack = [], [doc]
    while stack:
        c = stack.pop()
        for key in c if isinstance(c, dict) else range(len(c)):
            slots.append((c, key))
            if isinstance(c[key], list):
                stack.append(c[key])
    return slots


def _write(path, doc):
    path.write_text(json.dumps(doc).replace(json.dumps(HUGE), "1e400"), encoding="utf-8")


fixture_ok = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@fixture_ok
@given(documents())
def test_round_trip(tmp_path, kind_value):
    kind, value = kind_value
    load, save, to_dict = FORMATS[kind]
    path = tmp_path / f"{kind}.json"
    save(value, path)
    assert json.loads(path.read_text(encoding="utf-8")) == to_dict(value)
    assert load(path) == value


@fixture_ok
@given(documents(), st.data())
def test_mutated_document_rejected(tmp_path, kind_value, data):
    kind, value = kind_value
    load, _, to_dict = FORMATS[kind]
    doc = to_dict(value)
    container, key = data.draw(st.sampled_from(_slots(doc)))
    old = container[key]
    if isinstance(old, list):
        container[key] = data.draw(st.sampled_from([0, 1, "1", None, True]))
    else:
        container[key] = data.draw(st.sampled_from([float(old), old + 0.5, True, False,
                                                    str(old), None, HUGE, [old]]))
    path = tmp_path / f"{kind}.json"
    _write(path, doc)
    with pytest.raises(ValueError):
        load(path)


@pytest.mark.parametrize("kind", sorted(FORMATS))
@pytest.mark.parametrize("text", ["[]", "[{}]", "3", "null", '"doc"', "{not json", "",
                                  pytest.param(b'{"N": \xff}', id="not-utf8"),
                                  pytest.param('{"N": 1' + "0" * 5000 + "}", id="5001-digits")])
def test_non_object_rejected(tmp_path, kind, text):
    path = tmp_path / "doc.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        FORMATS[kind][0](path)


def test_deeply_nested_json_rejected(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("[" * 10**5 + "]" * 10**5, encoding="utf-8")
    with pytest.raises(ValueError, match="nested too deeply"):
        load_schedule(path)


def test_error_names_the_field(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"N": 4, "n": 2, "f": 1, "sets": [[1, 2], [3, 4.7]]}', encoding="utf-8")
    with pytest.raises(ValueError, match=r"sets\[1\]\[1\] must be an integer"):
        load_schedule(path)


@pytest.mark.parametrize("load,text,field", [
    (load_schedule, '{"N": 4, "n": 2, "f": 1, "sets": [[1,2],[3,4],[3,4],[3,4]], "N": 5}', "N"),
    (load_adversary, '{"kills": [9, 9], "kills": [1, 3, 4, 4]}', "kills"),
    (load_instance, '{"n": 2, "f": 1, "right_ids": [1, 2], "rows": [], "rows": [[1, 2]]}',
     "rows"),
    (load_adversary, '{"kills": [1], "extra": {"a": 1, "a": 2}}', "a"),
])
def test_duplicate_field_rejected(tmp_path, load, text, field):
    """A field given twice is an error, not a silent choice of the last
    value; the check covers every object of the document."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate field '{field}'$"):
        load(path)


def test_only_codec_imports_json():
    """``codec`` is the one module that knows the wire format."""
    importers = set()
    for path in Path(faultsched.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "json" for name in names):
                importers.add(path.stem)
    assert importers == {"codec"}
