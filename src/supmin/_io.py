"""Deterministic artifact serialization.

Artifacts must be byte-identical across reruns with the same config and
seed, so floats are printed at 17 significant digits (full double round-trip)
by ``fmt_float``, the one float format of every artifact.  JSON keeps
insertion order and prints non-finite floats as null; ``write_csv`` is the
one CSV writer.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring

import numpy as np


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _encode(obj, pad: str, out: list) -> None:
    """Append the text of ``obj`` to ``out``, nested lines indented by
    ``pad`` and two more spaces per level.

    The scalars that make up most of an artifact are dispatched on their
    exact type; the rest, numpy's scalars and arrays included, by
    ``isinstance``, ``bool`` before ``int``.
    """
    kind = type(obj)
    if kind is float:
        out.append(fmt_float(obj))
    elif kind is str:
        out.append(encode_basestring(obj))
    elif kind is int:
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), pad, out)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, sep = pad + "  ", "[\n"
        for value in obj:
            out.extend((sep, inner))
            _encode(value, inner, out)
            sep = ",\n"
        out.append("\n" + pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, sep = pad + "  ", "{\n"
        for key, value in obj.items():
            out.extend((sep, inner, encode_basestring(str(key)), ": "))
            _encode(value, inner, out)
            sep = ",\n"
        out.append("\n" + pad + "}")
    else:
        raise TypeError(f"cannot serialize {kind!r}")


def dumps_canonical(obj) -> str:
    """``obj`` as JSON text, indented two spaces per level, ending in a
    newline; built in one pass."""
    out = []
    _encode(obj, "", out)
    out.append("\n")
    return "".join(out)


def _cell(v) -> str:
    return str(int(v)) if isinstance(v, (int, np.integer)) else fmt_float(float(v))


def write_csv(path, header, rows) -> None:
    """A CSV file: the ``header`` names, then one line per row of numbers
    (integers as such, floats by ``fmt_float``)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")
