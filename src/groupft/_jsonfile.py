"""One walker that checks a parsed JSON file against its format table.

A table maps key -> kind ("key?": optional key; {"*": kind}: any key).
[kind] is a list, [kind, kind, ...] a list of exactly those kinds, a string
names a scalar kind in _SCALARS, and any other value is the one value
allowed.  Labels are the key at the top level, key[i].sub inside a list of
objects; other lists and "*" maps keep the label of the key holding them.
"""

import json
import reprlib
import sys

_SCALARS = {  # JSON values are int, float, str, bool or None; bool is no int here
    "integer": lambda v: type(v) is int,
    "finite number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "string": lambda v: type(v) is str,
    "integer or null": lambda v: v is None or type(v) is int,
}


def _noun(fmt, plural: str = "") -> str:
    """'integer', 'lists of integers', 'list (integer, string)', ..."""
    if not isinstance(fmt, list):
        return ("object" if isinstance(fmt, dict) else str(fmt)) + plural
    inner = f"of {_noun(fmt[0], 's')}" if len(fmt) == 1 else f"({', '.join(map(_noun, fmt))})"
    return f"list{plural} {inner}"


def check(value, fmt, label: str = "") -> None:
    """Walk ``value`` against the format table ``fmt``.  Raises ValueError
    naming the label on a missing or unknown key and on a value of another
    kind (``true`` is no integer or number, NaN no finite number)."""
    if isinstance(fmt, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{label or 'top level'}: not an object")
        if "*" in fmt:
            for item in value.values():
                check(item, fmt["*"], label)
            return
        prefix = f"{label}." if label else ""
        names = {key.rstrip("?"): key for key in fmt}
        unknown = [key for key in value if key not in names]
        if unknown:
            raise ValueError(f"{prefix}{unknown[0]}: unknown key")
        for name, key in names.items():
            if name in value:
                check(value[name], fmt[key], prefix + name)
            elif name == key:
                raise ValueError(f"{prefix}{name}: missing")
    elif isinstance(fmt, list):
        kinds = fmt * len(value) if len(fmt) == 1 and isinstance(value, list) else fmt
        if not isinstance(value, list) or len(value) != len(kinds):
            raise ValueError(f"{label}: not a {_noun(fmt)}")
        for i, (item, kind) in enumerate(zip(value, kinds)):
            if isinstance(kind, str) and _SCALARS[kind](item):
                continue  # the common case, without a call
            if isinstance(kind, (dict, list)) and not isinstance(item, type(kind)):
                raise ValueError(f"{label}: not a {_noun(fmt)}")
            check(item, kind, f"{label}[{i}]" if isinstance(kind, dict) else label)
    elif isinstance(fmt, str):
        if not _SCALARS[fmt](value):
            article = "an" if fmt[0] in "aeiou" else "a"
            raise ValueError(f"{label}: {reprlib.repr(value)} is not {article} {fmt}")
    elif type(value) is not type(fmt) or value != fmt:
        raise ValueError(f"{label}: {reprlib.repr(value)} is not {fmt!r}")


def load(path, from_json):
    """``from_json`` of the parsed JSON file at ``path``; a ValueError from
    the parser or from ``from_json`` gets the path in front."""
    with open(path) as fh:
        try:
            return from_json(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
