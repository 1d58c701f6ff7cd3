"""Report bundles: named tables, verdicts, plots, and the run manifest.

Output is byte-deterministic for a fixed RunConfig: tables use repr-exact
floats with '.' decimals and fixed column order, JSON is sorted and
indented, and nothing records wall-clock time.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .twist import CALIBRATION


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


def base_manifest(config: dict) -> dict:
    return {
        "version": __version__,
        "calibration": dict(CALIBRATION),
        "config": _jsonable(config),
    }
