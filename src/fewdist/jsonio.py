"""Deterministic JSON output with floats fixed to 12 significant digits.

The stdlib encoder writes repr() floats, which leaks platform noise into
golden files; this tiny serializer pins the float format so identical inputs
yield byte-identical output.
"""

from __future__ import annotations

import json
import math


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in JSON payload: {x!r}")
    # ".12g" may drop the decimal point entirely; that is still a JSON number.
    return format(float(x), ".12g")


def _write(obj, parts: list[str], indent: int | None, level: int) -> None:
    if obj is None or obj is True or obj is False:
        parts.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, dict):
        _write_items(obj.items(), "{", "}", parts, indent, level, keyed=True)
    elif isinstance(obj, (list, tuple)):
        _write_items(obj, "[", "]", parts, indent, level, keyed=False)
    elif hasattr(obj, "item"):  # numpy scalar
        _write(obj.item(), parts, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _write_items(items, open_ch, close_ch, parts, indent, level, keyed):
    items = list(items)
    if not items:
        parts.append(open_ch + close_ch)
        return
    parts.append(open_ch)
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    for pos, item in enumerate(items):
        if pos:
            parts.append(",")
        parts.append(pad)
        if keyed:
            key, value = item
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            parts.append(json.dumps(key) + (":" if indent is None else ": "))
            _write(value, parts, indent, level + 1)
        else:
            _write(item, parts, indent, level + 1)
    if indent is not None:
        parts.append("\n" + " " * (indent * level))
    parts.append(close_ch)


def dumps(obj, pretty: bool = False) -> str:
    parts: list[str] = []
    _write(obj, parts, 2 if pretty else None, 0)
    return "".join(parts)
