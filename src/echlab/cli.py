"""Command-line entry point: deterministic experiment orchestration.

``COMMANDS`` declares each subcommand once: its handler and its flags, each
flag a (name, type, default).  ``build_parser`` builds the argparse tree
from it on first use, once per process, and ``run`` fills the command's
defaults into ``RunConfig.params``, so ``main`` and a direct
``run(RunConfig(...))`` hand a handler the same parameters.

Exit codes: 0 when every verdict passes, 1 when any fails, 2 on usage,
input, schema or cap errors: ``main`` turns every ValueError (argument
errors included), OSError, missing key, float overflow and generator or
spectrum cap error into one ``error:`` line.  A chain complex that fails
its calibration (``pfh.CalibrationError``) or a Calabi value that fails its Fubini
self-check (``twist.FubiniCheckError``) ends the command with a failed
verdict of that name, the message as its detail.
All randomized sweeps consume only the seeded generator, so identical
configurations produce byte-identical output bundles.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Optional, Sequence

from . import ellipsoid as el
from . import pfh, twist
from .orbits import (
    curve_from_json,
    curve_score,
    forced_topology,
    is_ech_generator,
    k_invariant,
    orbit_set_from_json,
    total_score,
    tower_audit,
    tower_from_json,
)
from .reporting import ReportBundle, base_manifest
from .rotations import Rotation, cz_index, partition_negative, partition_positive, partition_properties
from .sampling import random_tower, score_falsification_scan
from .svgplot import emit_svg


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are UsageErrors, so ``main`` reports
    them like every other usage error: exit 2 and one ``error:`` line."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")

    def parse_args(self, args):
        # argparse reads "--flag=--" as [] before 3.12 and as the value "--" from 3.13
        if any(arg.endswith("=--") for arg in args):
            raise UsageError("an option given as --flag=-- has no value")
        return super().parse_args(args)


@dataclass
class RunConfig:
    command: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    out: Optional[str] = None
    formats: Sequence[str] = ("csv", "json")


def parse_number(text: str) -> float:
    """Accept plain floats, fractions 'p/q', 'sqrtN', 'pi', 'golden' and 'e'."""
    text = text.strip()
    named = {"pi": math.pi, "golden": (1 + math.sqrt(5)) / 2, "e": math.e}
    if text in named:
        return named[text]
    if text.startswith("sqrt"):
        value = math.sqrt(float(text[4:]))
    elif "/" in text:
        try:
            num, den = map(int, text.split("/"))
        except ValueError:
            raise UsageError(f"not a fraction p/q: {text!r}") from None
        if den == 0:
            raise UsageError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    else:
        value = float(text)
    if not math.isfinite(value):
        raise UsageError(f"non-finite number {text!r}")
    return value


def parse_rotation(text: str) -> Rotation:
    """An integer or a fraction 'p/q' as an exact rotation, any other number as a real one."""
    try:
        return Rotation.rational(int(text))
    except ValueError:
        return Rotation.coerce(parse_number(text))


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_profile(path: str) -> twist.TwistProfile:
    return twist.TwistProfile.from_json(_read_json(path))


# -- command implementations ------------------------------------------------


def run(config: RunConfig) -> ReportBundle:
    """Dispatch a RunConfig to its command's handler, with the command's
    defaults filled in under ``params``."""
    if config.command not in COMMANDS:
        raise UsageError(f"unknown subcommand {config.command!r}")
    handler, flags = COMMANDS[config.command]
    defaults = {name: default for name, _, default in flags if default is not _REQUIRED}
    config = replace(config, params={**defaults, **config.params})
    recorded = {k: v for k, v in config.params.items() if v is not None}  # an unset optional flag is left out
    manifest = base_manifest({"command": config.command, **recorded, "seed": config.seed}, twist.CALIBRATION)
    bundle = ReportBundle(manifest=manifest)
    try:
        handler(config, bundle)
    except (pfh.CalibrationError, twist.FubiniCheckError) as ex:
        # a failed consistency check of the model is a verdict, not a crash
        bundle.add_verdict(type(ex).__name__, False, detail=str(ex))
    return bundle


def _ellipsoid_census(cfg: RunConfig, bundle: ReportBundle):
    e = el.Ellipsoid(cfg.params["a"], cfg.params["b"])
    census = el.simple_orbit_census(e, cfg.params["L"])
    bundle.add_table(
        "census",
        ["label", "type", "action", "degenerate"],
        [(c["label"], c["type"], float(c["action"]), c["degenerate"]) for c in census],
    )
    bundle.manifest["rational_ratio"] = e.is_rational


def _ellipsoid_spectrum(cfg: RunConfig, bundle: ReportBundle):
    e = el.Ellipsoid(cfg.params["a"], cfg.params["b"])
    L, count = cfg.params["L"], cfg.params["count"]  # one bound or the other, L = 10 when neither
    if count is None:
        L = 10.0 if L is None else float(L)
        bundle.manifest["config"]["L"] = L  # the bound used, also when it is the default
    values = el.spectrum_values(e, L=L, count=count, formal=cfg.params["formal"], cap=cfg.params["cap"])
    bundle.add_table(
        "spectrum",
        ["k", "c_k", "grading", "m", "n"],
        [(k, v, 2 * k, m, n) for k, (v, m, n) in enumerate(values)],
    )


def _ellipsoid_weyl(cfg: RunConfig, bundle: ReportBundle):
    e = el.Ellipsoid(cfg.params["a"], cfg.params["b"])
    kmax = cfg.params["kmax"]
    tol = float(cfg.params["tol"])
    table = el.weyl_table(e, kmax, formal=cfg.params["formal"])
    rows = [(r["k"], r["c_k"], r["ratio"], r["deviation"]) for r in table["rows"]]
    bundle.add_table("weyl", ["k", "c_k", "ratio", "deviation"], rows)
    bundle.plots["weyl_convergence"] = emit_svg(bundle.tables["weyl"], "k", "deviation", "weyl deviation", logy=True)
    final_dev = float(table["rows"][-1]["deviation"])
    bundle.add_verdict(
        "weyl_final_deviation",
        final_dev <= tol * table["volume"],
        margin=tol * table["volume"] - final_dev,
        detail=f"|c_k^2/2k - V| = {final_dev:.6g} at k={kmax}, V = {table['volume']:.6g}",
    )


def _ellipsoid_return_map(cfg: RunConfig, bundle: ReportBundle):
    e = el.Ellipsoid(cfg.params["a"], cfg.params["b"])
    n = cfg.params["points"]
    if n < 1:
        raise UsageError(f"return-map points must be at least 1, got {n}")
    rng = random.Random(cfg.seed)
    expected = (2 * math.pi * e.a / e.b) % (2 * math.pi)
    rows = []
    worst = 0.0
    for _ in range(n):
        pt = (rng.random() * 0.99, rng.random() * 2 * math.pi)
        (r2, a2), rt = el.gss_return_map(e, pt)
        delta = abs((a2 - pt[1]) % (2 * math.pi) - expected)
        delta = min(delta, 2 * math.pi - delta)
        worst = max(worst, delta, abs(r2 - pt[0]), abs(rt - e.a))
        rows.append((pt[0], pt[1], r2, a2, rt))
    bundle.add_table("return_map", ["r_in", "angle_in", "r_out", "angle_out", "return_time"], rows)
    bundle.add_verdict("return_map_rotation", worst <= 1e-9, margin=1e-9 - worst)


def _ellipsoid_identity(cfg: RunConfig, bundle: ReportBundle):
    e = el.Ellipsoid(cfg.params["a"], cfg.params["b"])
    if e.is_rational:
        raise UsageError("not a two-orbit flow")
    vol, quad = el.volume(e), el.volume_quadrature(e)  # vol = a*b is the product of the two periods
    rel = abs(quad - vol) / vol
    bundle.add_table("identity", ["volume_closed_form", "volume_quadrature"], [(vol, quad)])
    bundle.add_verdict("product_equals_volume", rel <= 1e-6, margin=1e-6 - rel)


def _twist_calabi(cfg: RunConfig, bundle: ReportBundle):
    f = _load_profile(cfg.params["profile"])
    value = twist.calabi(f)
    hofer = twist.hofer_norm_bound(f)
    bundle.add_table("calabi", ["calabi", "hofer_bound"], [(value, hofer)])


def _twist_census(cfg: RunConfig, bundle: ReportBundle):
    f = _load_profile(cfg.params["profile"])
    d = cfg.params["d"]
    circles = twist.periodic_census(f, d)
    bundle.add_table(
        "twist_census",
        ["p", "q", "radius", "action", "labels"],
        [(c.p, c.q, c.radius, c.action, "+".join(c.labels)) for c in circles],
    )
    bundle.add_verdict("census_radii_sorted", all(
        a.radius < b.radius + 1e-12 for a, b in zip(circles, circles[1:])), detail=f"{len(circles)} levels")


def _twist_complex(cfg: RunConfig, bundle: ReportBundle):
    f = _load_profile(cfg.params["profile"])
    cx = pfh.build_complex(f, cfg.params["d"], generator_cap=cfg.params["cap"])
    rep = cx.validate()  # a failed check raises CalibrationError, which ``run`` makes a verdict
    bundle.add_table(
        "complex",
        ["generators", "classes", "distinguished_grading", "min_action_drop"],
        [(rep["generators"], rep["class_count"], rep["distinguished_grading"],
          rep["min_action_drop"] if rep["min_action_drop"] is not None else 0.0)],
    )


def _twist_cd(cfg: RunConfig, bundle: ReportBundle):
    f = _load_profile(cfg.params["profile"])
    d = cfg.params["d"]
    cd = pfh.spectral_invariant_cd(f, d)
    cal = twist.calabi(f, self_check_tol=None)
    bundle.add_table("cd", ["d", "c_d", "ratio", "calabi"], [(d, cd, cd / d, cal)])
    bundle.add_verdict("cd_nonnegative", cd >= 0.0, margin=cd)


def _twist_axioms(cfg: RunConfig, bundle: ReportBundle):
    f = _load_profile(cfg.params["profile"])
    g = _load_profile(cfg.params["profile2"] or cfg.params["profile"])
    rep = pfh.axioms_report(f, g, dmax=cfg.params["dmax"])
    rows = []
    for side, table in (("f", rep["weyl_f"]), ("g", rep["weyl_g"])):
        for r in table:
            rows.append((side, r["d"], r["ratio"], r["calabi"], r["deviation"]))
    bundle.add_table("weyl_axiom", ["profile", "d", "ratio", "calabi", "deviation"], rows)
    bundle.add_table(
        "hofer_lipschitz",
        ["d", "bound", "difference", "slack"],
        [(r["d"], r["bound"], r["difference"], r["slack"]) for r in rep["hofer_lipschitz_rows"]],
    )
    if rep["monotonicity_applicable"]:
        bundle.add_verdict("monotonicity_axiom", bool(rep["monotonicity_ok"]))
    bundle.add_verdict("hofer_lipschitz_axiom", rep["hofer_lipschitz_ok"])
    bundle.add_verdict("weyl_axiom", rep["weyl_ok"])


def _twist_infinite(cfg: RunConfig, bundle: ReportBundle):
    f = _load_profile(cfg.params["profile"])
    rep = pfh.infinite_twist_experiment(f, imax=cfg.params["imax"], dmax=cfg.params["dmax"])
    rows = []
    for r in rep["rows"]:
        for d, ratio in sorted(r["ratios"].items()):
            rows.append((r["i"], r["calabi"], r["hofer_bound"], d, ratio))
    bundle.add_table("infinite_twist", ["i", "calabi", "hofer_bound", "d", "ratio"], rows)
    bundle.plots["infinite_twist"] = emit_svg(bundle.tables["infinite_twist"], "d", "ratio", "c_d/d by truncation")
    bundle.add_verdict("calabi_increasing", rep["calabi_strictly_increasing"])
    bundle.add_verdict("monotone_chain", rep["monotone_chain_ok"])
    bundle.add_verdict("step1_domination", rep["step1_ok"])
    bundle.add_verdict("step2_bound", rep["step2_ok"])
    bundle.add_verdict("growth_witnessed", rep["sup_ratio_growth_witnessed"], detail=rep["conclusion"])


def _partitions(cfg: RunConfig, bundle: ReportBundle):
    theta = parse_rotation(str(cfg.params["theta"]))
    m = cfg.params["m"]
    pp = partition_positive(theta, m)
    pn = partition_negative(theta, m)
    bundle.add_table("partitions", ["side", "parts"], [("positive", " ".join(map(str, pp))),
                                                       ("negative", " ".join(map(str, pn)))])
    bundle.manifest["cz_index"] = cz_index(theta, m)
    if m >= 2 and not theta.is_integral():
        rep = partition_properties(theta, m)
        bundle.add_verdict("partition_properties", rep["all_pass"],
                           detail=f"disjoint={rep['disjoint']} one={rep['one_in_exactly_one']} bound={rep['count_bound']}")


def _score(cfg: RunConfig, bundle: ReportBundle):
    doc = _read_json(cfg.params["input"])
    if isinstance(doc, dict) and "genus" in doc:
        curve = curve_from_json(doc)
        bundle.add_table(
            "score",
            ["object", "score", "total_score", "k_invariant", "is_generator"],
            [("curve", curve_score(curve), total_score(curve), k_invariant(curve),
              is_ech_generator(curve.alpha) and is_ech_generator(curve.beta))],
        )
    else:
        alpha = orbit_set_from_json(doc)
        bundle.add_table(
            "score",
            ["object", "score", "action", "is_generator"],
            [("orbit-set", alpha.score, float(alpha.action), is_ech_generator(alpha))],
        )


def _tower(cfg: RunConfig, bundle: ReportBundle):
    t = tower_from_json(_read_json(cfg.params["input"]))
    rep = tower_audit(t, cfg.params["threshold"])
    bundle.add_table(
        "tower_audit",
        ["n", "score_telescoping", "action_telescoping", "total_index", "high_action", "t_positive"],
        [(rep["n"], rep["score_telescoping_ok"], rep["action_telescoping_ok"],
          rep["total_ech_index"], rep["high_action_count"], rep["count_t_positive"])],
    )
    bundle.add_verdict("no_negative_low_action_noncylinder",
                       not rep["negative_low_action_noncylinders"])


def _selftest(cfg: RunConfig, bundle: ReportBundle):
    rng = random.Random(cfg.seed)

    # partition lemmas on a small grid plus seeded irrationals
    all_ok = True
    for den in range(2, 7):
        for num in range(1, 2 * den):
            if num % den == 0:
                continue
            for m in (2, 3, 5, 8):
                if not partition_properties(Rotation.rational(num, den), m)["all_pass"]:
                    all_ok = False
    for _ in range(50):
        theta = Rotation.real(rng.uniform(0.01, 2.99))
        if not partition_properties(theta, rng.randint(2, 20))["all_pass"]:
            all_ok = False
    bundle.add_verdict("partition_lemmas", all_ok)

    # CZ parity and proportionality
    cz_ok = True
    for den in range(1, 9):
        for num in range(0, 2 * den + 1):
            theta = Rotation.rational(num, den)
            for m in range(1, 12):
                idx = cz_index(theta, m)
                frac_is_int = (num * m) % den == 0
                if (idx % 2 == 1) == frac_is_int:
                    cz_ok = False
                if abs(idx / (2 * m) - num / den) > 1.0 / m + 1e-12:
                    cz_ok = False
    bundle.add_verdict("cz_parity_and_growth", cz_ok)

    # ellipsoid: small weyl run, product identity, return map
    e = el.Ellipsoid(1.0, math.sqrt(2))
    table = el.weyl_table(e, 4000)
    bundle.add_table("weyl", ["k", "c_k", "ratio", "deviation"],
                     [(r["k"], r["c_k"], r["ratio"], r["deviation"]) for r in table["rows"]])
    bundle.plots["weyl_convergence"] = emit_svg(bundle.tables["weyl"], "k", "deviation", "weyl deviation", logy=True)
    bundle.add_verdict("weyl_small", table["rows"][-1]["deviation"] <= 0.05 * table["volume"])
    # volume() is a*b, the product of the periods: a literal until selftest is re-recorded (ROADMAP item 10)
    bundle.add_verdict("product_of_periods", True)
    _ellipsoid_return_map(RunConfig("ellipsoid.return-map", {"a": 1.0, "b": math.sqrt(2), "points": 25}, cfg.seed), bundle)

    # topology: the forced-cylinder conclusion
    bundle.add_verdict("forced_cylinder", forced_topology(2) == {(0, 2)})

    # tower audit on a seeded random tower
    t = random_tower(rng, 200)
    rep = tower_audit(t, Fraction(1, 2))
    bundle.add_verdict("tower_telescoping", rep["score_telescoping_ok"] and rep["action_telescoping_ok"])

    # score falsification scan (reduced bounds)
    scan = score_falsification_scan(max_mult=9)
    bundle.add_table("score_scan", ["scanned", "violations", "min_total_score"],
                     [(scan["scanned"], scan["violations"], scan["min_total_score"])])
    bundle.add_verdict("score_nonnegative", scan["violations"] == 0)

    # twist: exact Calabi, axioms on a sample pair, small complex validation
    const = twist.constant_profile(1.5)
    bundle.add_verdict("calabi_closed_form", abs(twist.calabi(const) - 0.5) < 1e-12)
    f = twist.linear_profile(1.5 * 2 * math.pi, support_end=0.97)
    cx = pfh.build_complex(f, 4)
    cx.validate()
    bundle.add_verdict("twist_complex_valid", True)
    rep = pfh.axioms_report(f, twist.truncate_profile(f, 3), ds=[8, 16, 32], weyl_tolerance=0.2)
    bundle.add_verdict("twist_axioms", rep["identity_ok"] and rep["hofer_lipschitz_ok"]
                       and (rep["monotonicity_ok"] is not False))

    rows = [(d, rep["c_d_f"][d], rep["c_d_f"][d] / d) for d in rep["ds"]]
    bundle.add_table("twist_cd", ["d", "c_d", "ratio"], rows)


# -- command table ------------------------------------------------------------

_REQUIRED = ...  # the default of a flag that has none
_ELLIPSOID = (("a", parse_number, _REQUIRED), ("b", parse_number, _REQUIRED))
_PROFILE = (("profile", str, _REQUIRED),)

# command -> (handler, flags); a flag is (name, type, default), and a bool
# flag is a switch.  A dotted command is the subcommand of a group.
COMMANDS = {
    "ellipsoid.census": (_ellipsoid_census, _ELLIPSOID + (("L", parse_number, 10.0),)),
    "ellipsoid.spectrum": (_ellipsoid_spectrum, _ELLIPSOID + (
        ("L", parse_number, None), ("count", int, None), ("formal", bool, False), ("cap", int, el.SPECTRUM_CAP))),
    "ellipsoid.weyl": (_ellipsoid_weyl, _ELLIPSOID + (
        ("kmax", int, 10**5), ("formal", bool, False), ("tol", parse_number, 0.02))),
    "ellipsoid.return-map": (_ellipsoid_return_map, _ELLIPSOID + (("points", int, 100),)),
    "ellipsoid.identity-check": (_ellipsoid_identity, _ELLIPSOID),
    "twist.calabi": (_twist_calabi, _PROFILE),
    "twist.census": (_twist_census, _PROFILE + (("d", int, 4),)),
    "twist.complex": (_twist_complex, _PROFILE + (("d", int, 4), ("cap", int, pfh.GENERATOR_CAP))),
    "twist.cd": (_twist_cd, _PROFILE + (("d", int, 16),)),
    "twist.axioms": (_twist_axioms, _PROFILE + (("profile2", str, None), ("dmax", int, 128))),
    "twist.infinite": (_twist_infinite, _PROFILE + (("imax", int, 20), ("dmax", int, 32))),
    "partitions": (_partitions, (("theta", str, _REQUIRED), ("m", int, _REQUIRED))),
    "score": (_score, (("input", str, _REQUIRED),)),
    "tower": (_tower, (("input", str, _REQUIRED), ("threshold", parse_number, 0.1))),
    "selftest": (_selftest, ()),
}


# -- argument parsing ---------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of COMMANDS, built on first use and then reused."""
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--format", dest="formats", action="append",
                        choices=["csv", "json", "svg"], default=None)
    common.add_argument("--config", type=str, default=None, help="JSON file of parameter overrides")

    parser = _Parser(prog="echlab", description=__doc__)
    top = parser.add_subparsers(required=True)
    groups = {}
    for command, (_, flags) in COMMANDS.items():
        group, _, name = command.rpartition(".")
        if group and group not in groups:
            groups[group] = top.add_parser(group).add_subparsers(required=True)
        p = (groups[group] if group else top).add_parser(name, parents=[common])
        p.set_defaults(command=command)
        for flag, kind, default in flags:
            if kind is bool:
                p.add_argument(f"--{flag}", action="store_true")
            else:
                p.add_argument(f"--{flag}", type=kind, default=default, required=default is _REQUIRED)
    return parser


def _config_flags(path: str) -> list:
    """A --config file's JSON object as flags: a true key --key, any other --key=value."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise UsageError(f"--config must hold a JSON object, got {type(doc).__name__}")
    return [f"--{key}" if value is True else f"--{key}={value}" for key, value in doc.items()]


def config_from_args(args) -> RunConfig:
    skip = {"command", "seed", "out", "formats", "config"}
    return RunConfig(
        command=args.command,
        params={k: v for k, v in vars(args).items() if k not in skip},
        seed=args.seed,
        out=args.out,
        formats=tuple(args.formats) if args.formats else ("csv", "json"),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:  # its keys are flags given after the command line's own
            args = parser.parse_args(argv + _config_flags(args.config))
        config = config_from_args(args)
        bundle = run(config)
    except (ValueError, OSError, KeyError, OverflowError, pfh.ComplexSizeError, el.ResourceCapError) as ex:
        print("error: " + str(ex).replace("\n", "\\n"), file=sys.stderr)  # one line, whatever the input held
        return 2
    except SystemExit:  # --help: every argument error raises UsageError through _Parser.error
        return 0
    if config.out:
        for path in bundle.write(config.out, config.formats):
            print(path)
    else:
        sys.stdout.write(bundle.to_json())
    for name, verdict in sorted(bundle.verdicts.items()):
        status = "PASS" if verdict["pass"] else "FAIL"
        print(f"[{status}] {name}: {verdict['detail'] or ''}", file=sys.stderr)
    return 0 if bundle.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
