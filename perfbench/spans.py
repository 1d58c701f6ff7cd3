"""Spans and counters at echlab's module boundaries, for the traced run.

``Tracer.install`` replaces public names in the echlab modules with wrappers
that record a span per call: its name, start, end, parent span and whether
it raised.  The names wrapped are the calls the benchmark makes and the
names one echlab module imports from another (``echlab.orbits.cz_index``,
``echlab.pfh.periodic_census``, ...), so work a layer hands to another layer
is charged to the layer that does it.  Spans stay in memory until
``write_spans``.  A span's self time is its duration minus the time covered
by its child spans; calls are single-threaded, so children never overlap.

The partition and Conley-Zehnder boundaries are hot (about 110,000 calls in
a sweep pass), so they keep a call count and a time total instead of one
span per call; their time is still taken out of the calling span's self
time.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter, defaultdict

from echlab import cli, ellipsoid, orbits, pfh, rotations, sampling, twist

# span name -> the (module or class, attribute) pairs that resolve to it.
BOUNDARIES = {
    "rotations.partition": [(m, a) for m in (rotations, orbits, sampling, cli)
                            for a in ("partition_positive", "partition_negative")],
    "rotations.cz": [(m, "cz_index") for m in (rotations, orbits, sampling, cli)],
    "rotations.partition_properties": [(rotations, "partition_properties"),
                                       (cli, "partition_properties")],
    "orbits.tower_audit": [(orbits, "tower_audit"), (cli, "tower_audit")],
    "sampling.random_tower": [(sampling, "random_tower"), (cli, "random_tower")],
    "sampling.score_scan": [(sampling, "score_falsification_scan"),
                            (cli, "score_falsification_scan")],
    "ellipsoid.spectrum": [(ellipsoid, "spectrum_values")],
    "ellipsoid.quadrature": [(ellipsoid, "volume_quadrature")],
    "twist.census": [(twist, "periodic_census"), (pfh, "periodic_census")],
    "twist.calabi": [(twist, "calabi"), (pfh, "calabi")],
    "pfh.enumerate": [(pfh, "build_complex")],
    "pfh.boundary": [(pfh.TwistComplex, "boundaries")],
    "pfh.validate": [(pfh.TwistComplex, "validate")],
    "pfh.persistence": [(pfh.TwistComplex, "persistence_birth_actions")],
    "pfh.spectral_cd": [(pfh, "spectral_invariant_cd")],
    "pfh.axioms": [(pfh, "axioms_report")],
    "cli.selftest": [(cli, "run")],
}
HOT = ("rotations.partition", "rotations.cz")

LAYERS = ("rotations", "orbits", "sampling", "ellipsoid", "twist", "pfh", "cli")
PFH_STAGES = ("enumerate", "boundary", "validate", "persistence")
PER_DEGREE = range(8, 12)

# span name -> (counter, the amount a returned result adds to it)
RESULT_COUNTS = {
    "sampling.random_tower": ("sampling.curves_generated", len),
    "orbits.tower_audit": ("orbits.curves_audited", lambda rep: rep["n"]),
    "sampling.score_scan": ("sampling.configs_scanned", lambda scan: scan["scanned"]),
    "ellipsoid.spectrum": ("ellipsoid.spectrum_entries", len),
    "twist.census": ("twist.census_levels", len),
    "pfh.enumerate": ("pfh.generators", lambda cx: len(cx.generators)),
    "pfh.spectral_cd": ("pfh.spectral_cd_calls", lambda value: 1),
}


def _degree(name: str, args) -> int | None:
    """Complex degree of a pfh span: an argument, or the complex's own degree."""
    if name == "pfh.enumerate":
        return args[1]
    if name in ("pfh.boundary", "pfh.validate", "pfh.persistence"):
        return args[0].degree
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, self_s, raised, degree)
        self._stack: list[list] = []  # [span index, child seconds] of open spans
        self.counts: Counter = Counter()
        self.hot_s: Counter = Counter()
        self.failures: Counter = Counter()
        self._partition_keys: set = set()
        self._counted_complexes = weakref.WeakSet()

    def install(self) -> None:
        for name, targets in BOUNDARIES.items():
            wrap = self._wrap_hot if name in HOT else self._wrap
            for owner, attr in targets:
                setattr(owner, attr, wrap(name, attr, getattr(owner, attr)))

    def _wrap(self, name: str, attr: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, start, end, parent, end - start - frame[1], raised,
                                _degree(name, args))
                if raised:
                    self.failures[name.split(".")[0]] += 1
                else:
                    self._count(name, args, result)

        return traced

    def _wrap_hot(self, name: str, attr: str, fn):
        stack, clock, counts, hot_s = self._stack, time.perf_counter, self.counts, self.hot_s
        keys = self._partition_keys if name == "rotations.partition" else None
        coerce = rotations.Rotation.coerce

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failures["rotations"] += 1
                raise
            finally:
                elapsed = clock() - start
                counts[name] += 1
                hot_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if keys is not None:
                    keys.add((coerce(args[0]), args[1], attr))

        return traced

    def _count(self, name: str, args, result) -> None:
        if name in RESULT_COUNTS:
            counter, amount = RESULT_COUNTS[name]
            self.counts[counter] += amount(result)
        elif name == "pfh.boundary" and args[0] not in self._counted_complexes:
            # boundaries() caches its result; count each complex's nonzeros once
            self._counted_complexes.add(args[0])
            self.counts["pfh.boundary_nonzeros"] += sum(map(len, result))

    def metrics(self) -> dict:
        """Per-layer metrics: self seconds per boundary and per pfh stage and degree,
        counts, and exceptions raised out of each layer."""
        self_s = defaultdict(float, {f"{name}_s": float(self.hot_s[name]) for name in HOT})
        for name, _, _, _, own, _, degree in self.spans:
            self_s[f"{name}_s"] += own
            if degree in PER_DEGREE:
                self_s[f"{name}_s.d{degree}"] += own
        out = {f"{name}_s": self_s[f"{name}_s"] for name in BOUNDARIES}
        for stage in PFH_STAGES:
            for d in PER_DEGREE:
                out[f"pfh.{stage}_s.d{d}"] = self_s[f"pfh.{stage}_s.d{d}"]
        calls = self.counts["rotations.partition"]
        out["rotations.partition_calls"] = calls
        out["rotations.partition_distinct_frac"] = len(self._partition_keys) / calls if calls else 0.0
        out["rotations.cz_calls"] = self.counts["rotations.cz"]
        for counter, _ in RESULT_COUNTS.values():
            out[counter] = self.counts[counter]
        out["pfh.boundary_nonzeros"] = self.counts["pfh.boundary_nonzeros"]
        for layer in LAYERS:
            out[f"{layer}.failures"] = self.failures[layer]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, own, raised, degree) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": own, "raised": raised,
                                     "degree": degree}) + "\n")
            for name in HOT:
                fh.write(json.dumps({"name": name, "calls": self.counts[name],
                                     "total_s": self.hot_s[name], "aggregated": True}) + "\n")
