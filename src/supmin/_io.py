"""Deterministic artifact serialization.

Artifacts must be byte-identical across reruns with the same config and
seed, so floats are printed at 17 significant digits (full double round-trip)
by ``fmt_float``, the one float format of every artifact.  JSON keeps
insertion order and prints non-finite floats as null; ``write_csv`` is the
one CSV writer.
"""

from __future__ import annotations

import json
import math

import numpy as np


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _encode(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_encode(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{_encode(str(k), indent, 0)}: {_encode(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj, indent: int = 2) -> str:
    return _encode(obj, indent, 0) + "\n"


def _cell(v) -> str:
    return str(int(v)) if isinstance(v, (int, np.integer)) else fmt_float(float(v))


def write_csv(path, header, rows) -> None:
    """A CSV file: the ``header`` names, then one line per row of numbers
    (integers as such, floats by ``fmt_float``)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")
