"""Every JSON kind in place of one value of a definition file: the shared
body of the group and descriptor loader property tests."""

import copy
import json
import re

import pytest

MISSING = object()
KINDS = [
    ("missing", MISSING),
    ("null", None),
    ("bool", True),
    ("int", 1),
    ("float", 1.5),
    ("string", "x"),
    ("list", []),
    ("list", [1]),
    ("object", {}),
    ("object", {"1": 1}),
]
NOT_OBJECTS = [[], [{}], 6, 1.5, "s3"]  # top levels of another kind
NOT_OBJECT_IDS = ["empty-list", "list", "int", "float", "string"]


def replaced(data, path, value):
    """A deep copy of ``data`` with the value at ``path`` (keys and list
    indices) set to ``value``, or removed when ``value`` is MISSING."""
    out = copy.deepcopy(data)
    *outer, last = path
    parent = out
    for key in outer:
        parent = parent[key]
    if value is MISSING:
        del parent[last]
    else:
        parent[last] = value
    return out


def check_every_kind(data, path, label, right, from_json, load_file, tmp_path):
    """A kind outside ``right`` raises ValueError starting with ``label``,
    and from a file with the path in front; a kind in ``right`` loads or
    raises ValueError starting with a top-level key of ``data``."""
    keys = "|".join(map(re.escape, data))
    file = tmp_path / "edited.json"
    for kind, value in KINDS:
        edited = replaced(data, path, value)
        if kind in right:
            try:
                from_json(edited)
            except ValueError as exc:
                assert re.match(rf"({keys})\b", str(exc)), f"{kind} {value!r}: {exc}"
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(label)}: "):
            from_json(edited)
        file.write_text(json.dumps(edited))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{file}: {label}: ')}"):
            load_file(file)
