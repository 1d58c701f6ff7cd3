"""Report bundles, the run manifest, and the typed field checks of JSON input.

Output is byte-deterministic for a fixed RunConfig: tables use repr-exact
floats with '.' decimals and fixed column order, JSON is sorted and
indented, and nothing records wall-clock time.  This module imports no
other echlab module, so the orbit and the twist readers share its checks
without loading each other.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__


class StructuralError(ValueError):
    """Malformed input data: a JSON document, or an orbit set, curve or tower."""


class _Record(dict):
    """A JSON object read as a ``what``: reading a field it lacks is a StructuralError."""

    def __init__(self, d: dict, what: str):
        super().__init__(d)
        self.what = what

    def __missing__(self, key):
        raise StructuralError(f"{self.what} has no {key!r} field")


def json_record(d, what: str) -> dict:
    """d as a record that names ``what`` when a field is missing; a StructuralError unless d is a JSON object."""
    if not isinstance(d, dict):
        raise StructuralError(f"{what} must be a JSON object, got {type(d).__name__}")
    return _Record(d, what)


def json_array(d: dict, key: str, optional: bool = False) -> list:
    """d[key] when it is a JSON array (absent and optional: empty); a StructuralError otherwise."""
    v = d.get(key, []) if optional else d[key]
    if not isinstance(v, list):
        raise StructuralError(f"{key} must be a JSON array, got {type(v).__name__}")
    return v


def is_json_int(v) -> bool:
    """Whether v is a JSON integer (true and false are not)."""
    return isinstance(v, int) and not isinstance(v, bool)


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "a boolean"}


def json_field(v, key: str, kind: type):
    """v, the value of field ``key``, when it is a JSON ``kind``: int (true and false are not), str, bool,
    or float (any finite number, returned as a float; an integer beyond the float range raises
    OverflowError).  A StructuralError otherwise."""
    if kind is float:
        if (is_json_int(v) or isinstance(v, float)) and math.isfinite(v):
            return float(v)
    elif is_json_int(v) if kind is int else isinstance(v, kind):
        return v
    raise StructuralError(f"{key} must be {_KIND_NAMES[kind]}, got {v!r}")


@dataclass
class Table:
    columns: Tuple[str, ...]
    rows: List[Tuple]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)  # "nan", "inf" or "-inf": strict JSON has no such numbers
    return v


@dataclass
class ReportBundle:
    """Named CSV payloads, pass/fail verdicts with margins, optional SVG plots."""

    tables: Dict[str, Table] = field(default_factory=dict)
    verdicts: Dict[str, dict] = field(default_factory=dict)
    plots: Dict[str, str] = field(default_factory=dict)
    manifest: Dict[str, object] = field(default_factory=dict)

    def add_table(self, name: str, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
        self.tables[name] = Table(tuple(columns), [tuple(r) for r in rows])

    def add_verdict(self, name: str, passed: bool, margin: Optional[float] = None, detail: str = "") -> None:
        self.verdicts[name] = {"pass": bool(passed), "margin": margin, "detail": detail}

    @property
    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.verdicts.values())

    def to_json(self) -> str:
        doc = {
            "manifest": _jsonable(self.manifest),
            "verdicts": _jsonable(dict(sorted(self.verdicts.items()))),
            "tables": {
                name: {"columns": list(t.columns), "rows": _jsonable(t.rows)}
                for name, t in sorted(self.tables.items())
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def write(self, outdir: str, formats: Sequence[str] = ("csv", "json")) -> List[str]:
        os.makedirs(outdir, exist_ok=True)
        written = []
        if "csv" in formats:
            for name, t in sorted(self.tables.items()):
                path = os.path.join(outdir, f"{name}.csv")
                with open(path, "w", newline="") as fh:
                    fh.write(t.to_csv())
                written.append(path)
        if "json" in formats:
            path = os.path.join(outdir, "report.json")
            with open(path, "w") as fh:
                fh.write(self.to_json())
            written.append(path)
        if "svg" in formats:
            for name, svg in sorted(self.plots.items()):
                path = os.path.join(outdir, f"{name}.svg")
                with open(path, "w") as fh:
                    fh.write(svg)
                written.append(path)
        return written


def base_manifest(config: dict, calibration: dict) -> dict:
    return {
        "version": __version__,
        "calibration": dict(calibration),
        "config": _jsonable(config),
    }
