"""Verification reports and deterministic report rendering.

JSON output is byte-stable: keys sorted, floats printed with 17 significant
digits, one trailing newline. CSV flattens a report's array-valued trace
into one row per entry under a header. Both refuse a NaN or an infinity with
one ValueError, raised before a byte of the report is written.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np


@dataclass
class VerificationReport:
    """Outcome of a theorem or identity check.

    ``values`` holds every quantity entering the check (left/right-hand
    sides, correction factors, margins) keyed by name; ``passed`` is the
    verdict at the check's stated tolerance.
    """

    check: str
    passed: bool
    values: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"check": self.check, "passed": self.passed, "values": to_plain(self.values)}


def to_plain(obj):
    """Recursively convert numpy scalars and arrays, tuples and iterators
    (read once) into plain Python types. An array takes one ``tolist``,
    which gives nested lists of Python floats, ints or bools."""
    if isinstance(obj, dict):
        return {str(k): to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, Iterator)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def _render(obj, out: list) -> None:
    # Floats first: they are nearly every leaf of an array-valued report.
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj!r} cannot be serialized")
        out.append(f"{obj:.17g}")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def stable_json(obj) -> str:
    """Serialize to JSON with sorted keys and 17-significant-digit floats."""
    out: list = []
    _render(to_plain(obj), out)
    out.append("\n")
    return "".join(out)


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        if not math.isfinite(v):
            _render(float(v), [])  # refuses it with JSON's ValueError
        return f"{v:.17g}"
    return str(v)


def csv_table(header: list, rows: list) -> str:
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"
