"""Command-line front end.

Verbs: symbolic (exact identity certifications), verify (sampled numerical
verification), fit (classify samples from CSV), scan (residual grid to CSV),
gen (sample generator for round trips), eval (point evaluation).

Conventions: complex flags are comma-separated re,im pairs; --periods takes
four reals (omega1 then omega2), or --g2/--g3 the invariants, whose AGM
basis then spans the lattice, or with zero discriminant (pi/k)Z or {0};
shift and gamma flags take lattice fractions (1/3 accepted), and one beyond
the lattice's rank exits 65. verify theorem1 runs as theorem2 with three
equal shifts, and --expect overrides each verify kind's own expectation.
Selected numeric flags fall back to WPFEQ_* environment variables (flags >
environment > defaults).
Exit codes: 0 success or expected outcome, 1 verification failure, 2
internal error, 64 usage, 65 configuration, 66 unreadable input.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import classify as cls
from . import elliptic, identities, verifier
from .errors import (
    DegenerateInput,
    DegenerateLattice,
    FloatOverflow,
    GridNotUniform,
    JetOrderOverflow,
    PoleProximity,
    SamplerExhausted,
    NoPeriods,
    SeriesNoConverge,
    TooFewPoints,
    WpfeqError,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64
EXIT_CONFIG = 65
EXIT_INPUT = 66

_ENV_PREFIX = "WPFEQ_"

# the most points one command samples, evaluates or writes; a larger count
# is refused before any list or array is sized by it
MAX_POINTS = 1_000_000


class ConfigError(WpfeqError):
    pass


class InputError(WpfeqError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# -- flag parsing helpers --------------------------------------------------------


def _finite(values: list[float], text: str) -> list[float]:
    """values, parsed from text, if each is finite; nan, inf and values beyond the float range raise."""
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"non-finite value in {text!r}")
    return values


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected re,im but got {text!r}")
    try:
        return complex(*_finite([float(p) for p in parts], text))
    except ValueError as exc:
        raise ConfigError(f"bad complex value {text!r}") from exc


def _parse_fractions(text: str, expect: int) -> list[float]:
    parts = text.split(",")
    if len(parts) != expect:
        raise ConfigError(f"expected {expect} comma-separated values, got {text!r}")
    out = []
    for part in parts:
        try:
            out.append(float(Fraction(part.strip())))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"bad numeric value {part!r}") from exc
    return out


def _env(name: str):
    return os.environ.get(_ENV_PREFIX + name.upper().replace("-", "_"))


def _resolve_float(flag_value, env_name: str, default: float) -> float:
    if flag_value is not None:
        return float(flag_value)
    env = _env(env_name)
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise ConfigError(f"bad {_ENV_PREFIX}{env_name.upper()} value {env!r}") from exc
    return default


def _resolve_int(flag_value, env_name: str, default: int) -> int:
    # argparse parses the flag exactly, and so does int() a plain-integer
    # variable; a double would round above 2**53
    if flag_value is not None:
        return flag_value
    env = _env(env_name)
    try:
        return default if env is None else int(env)
    except ValueError:
        value = _resolve_float(None, env_name, default)
    if not float(value).is_integer():
        raise ConfigError(f"{_ENV_PREFIX}{env_name.upper()} must be an integer, got {value!r}")
    return int(value)


def _positive(value: float, name: str) -> float:
    if not value > 0.0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return value


def _within_ceiling(points: int, name: str) -> int:
    if points > MAX_POINTS:
        raise ConfigError(f"{name} asks for {points} points, more than the {MAX_POINTS} one command may take")
    return points


def _context_from_args(args) -> elliptic.EllipticContext:
    periods = getattr(args, "periods", None)
    g2 = getattr(args, "g2", None)
    g3 = getattr(args, "g3", None)
    if periods is not None:
        vals = _parse_fractions(periods, 4)
        try:
            return elliptic.from_periods(complex(vals[0], vals[1]), complex(vals[2], vals[3]))
        except DegenerateLattice as exc:
            raise ConfigError(str(exc)) from exc
    if g2 is not None or g3 is not None:
        return elliptic.from_invariants(
            _parse_complex(g2) if g2 is not None else 0j,
            _parse_complex(g3) if g3 is not None else 0j,
        )
    raise ConfigError("provide either --periods or --g2/--g3")


def _shift_from_args(args, ctx) -> complex:
    frac = getattr(args, "shift_frac", None)
    absolute = getattr(args, "shift", None)
    if frac is not None:
        return elliptic.lattice_point(ctx, *_parse_fractions(frac, 2))
    if absolute is not None:
        return _parse_complex(absolute)
    return 0j


# -- report serialisation ----------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    text = format(float(x), ".17g")
    # .17g may emit bare integers; keep them valid JSON numbers as they are
    return text


def render_json(obj, indent: int = 0) -> str:
    """Small JSON emitter with floats at 17 significant digits.

    Complex numbers serialise as [re, im] pairs; NaN and infinities map to
    null to keep the output standard JSON. Numpy scalars are coerced to
    their Python equivalents first.
    """
    if isinstance(obj, np.bool_):
        obj = bool(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.floating):
        obj = float(obj)
    elif isinstance(obj, np.complexfloating):
        obj = complex(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}"{k}": {render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return "[" + _fmt_float(obj.real) + ", " + _fmt_float(obj.imag) + "]"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_report(path: str | None, report: dict):
    text = render_json(report) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, params: dict, checks: list[dict], wall_time: float | None) -> dict:
    report = {
        "command": command,
        "params": params,
        "checks": checks,
        "pass": all(c.get("pass", False) for c in checks),
        "max_residual": max((c.get("max_residual", 0.0) for c in checks), default=0.0),
    }
    if wall_time is not None:
        report["wall_time_s"] = wall_time
    return report


def _residual_check(name: str, rep: verifier.ResidualReport, expected: str) -> dict:
    """Check entry; it passes if the outcome is `expected` ("pass" or "fail"), always if "indeterminate"."""
    out = {
        "name": name,
        "pass": expected == "indeterminate" or bool(rep.passed) == (expected == "pass"),
        "observed_pass": bool(rep.passed),
        "expected": expected,
        "max_residual": rep.max_residual,
        "mean_residual": rep.mean_residual,
        "samples": rep.samples,
        "tol": rep.tol,
    }
    if rep.note:
        out["note"] = rep.note
    # the check's own keys win over the report's details
    for key, value in rep.details.items():
        if isinstance(value, (int, float, complex, str, bool)):
            out.setdefault(key, value)
    return out


# -- symbolic -----------------------------------------------------------------------


def _cmd_symbolic(args, parser) -> int:
    which = [w.strip() for w in args.which.split(",")]
    if which == ["all"]:
        names = list(identities.CHECK_NAMES)
    else:
        bad = [w for w in which if w not in identities.CHECK_NAMES]
        if bad:
            parser.error(f"unknown check(s): {', '.join(bad)}")
        names = which
    start = time.perf_counter()
    rows = identities.run_checks(names)
    wall = time.perf_counter() - start
    checks = []
    for name, rep in rows:
        checks.append(
            {
                "name": name,
                "pass": rep.holds,
                "cofactor": rep.cofactor_text(),
                "note": rep.note,
                "max_residual": 0.0 if rep.holds else 1.0,
            }
        )
        print(f"{name:18s} {'PASS' if rep.holds else 'FAIL'}  cofactor={rep.cofactor_text()!r}")
    report = _report("symbolic", {"which": names}, checks, wall)
    if args.out:
        _write_report(args.out, report)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


# -- verify -------------------------------------------------------------------------

# default tolerance of each verify kind
_TOLERANCES = {"theorem1": 1e-8, "theorem2": 1e-8, "sigma": 1e-8, "derived": 1e-7, "factfun": 1e-6, "constant": 1e-12}

# the constant-third-function cases: (f, g, expected outcome)
_CONSTANT_CASES = {
    "exp": (verifier.Exponential(), verifier.Exponential(), "pass"),
    "zero": (verifier.Constant(0j), verifier.Exponential(delta=2.0), "pass"),
    "mismatch": (verifier.Exponential(), verifier.Exponential(delta=2.0), "fail"),
}


def _sampling(args) -> tuple[int, float]:
    """Seed and lattice-fraction margin from the flags, the environment or the defaults."""
    seed = _resolve_int(args.seed, "seed", 0)
    margin = _resolve_float(args.margin, "margin", 0.05)
    if not 0.0 < margin < 0.5:
        raise ConfigError(f"margin must lie in (0, 0.5), got {margin!r}")
    return seed, margin


def _family(args, name: str) -> verifier.FunctionFamily:
    """Family `name` from the verb's flags; absent --alpha, --beta, --delta, --c read 1, 0, 1, 1."""

    def value(flag: str, default: complex) -> complex:
        text = getattr(args, flag, None)
        return _parse_complex(text) if text else default

    if name == "wp":
        ctx = _context_from_args(args)
        return verifier.WeierstrassShifted(ctx, _shift_from_args(args, ctx))
    if name == "exp":
        return verifier.Exponential(value("alpha", 1.0 + 0j), value("beta", 0j), value("delta", 1.0 + 0j))
    if name == "linear":
        return verifier.Linear(value("alpha", 1.0 + 0j), value("beta", 0j))
    if name == "constant":
        return verifier.Constant(value("c", 1.0 + 0j))
    raise ConfigError(f"unknown family {name!r}")


def _cmd_verify(args, parser) -> int:
    start = time.perf_counter()
    seed, margin = _sampling(args)
    count = _within_ceiling(int(_positive(_resolve_int(args.n, "n", 1000), "sample count")), "sample count")
    tol = _positive(_resolve_float(args.tol, "tol", _TOLERANCES[args.kind]), "tol")
    sampler = verifier.TripleSampler(seed=seed, count=count, margin=margin)
    params: dict = {"kind": args.kind, "seed": seed, "n": count, "margin": margin}
    name, expected = args.kind, "pass"

    if args.kind in ("theorem1", "theorem2"):
        # theorem 1 is theorem 2 with f = g = h: three equal shifts
        ctx = _context_from_args(args)
        if args.kind == "theorem1":
            params["shift"] = _shift_from_args(args, ctx)
            gammas = [params["shift"]] * 3
        elif args.gammas is None:
            raise ConfigError("theorem2 verification needs --gammas s1,t1,s2,t2,s3,t3")
        else:
            vals = _parse_fractions(args.gammas, 6)
            gammas = params["gammas"] = [elliptic.lattice_point(ctx, *vals[i : i + 2]) for i in (0, 2, 4)]
        rep = verifier.theorem2_shift_test(ctx, *gammas, sampler, tol)
        expected = rep.details["expected"]
    elif args.kind == "sigma":
        name = "sigma-identity"
        rep = verifier.sigma_identity_scan(_context_from_args(args), count=count, seed=seed, tol=tol)
    elif args.kind == "derived":
        name = "derived-determinant"
        if min(args.k, args.l, 1 if args.s is None else args.s) < 1 or (args.s is None and args.k == args.l):
            raise ConfigError("column indices must be at least 1, and --k and --l must differ without --s")
        fam = _family(args, args.family or "wp")
        params.update({"family": args.family, "k": args.k, "l": args.l, "s": args.s})
        rep = verifier.derived_determinant_check(fam, fam, fam, args.k, args.l, args.s, sampler, tol)
    elif args.kind == "factfun":
        name = "factfun-operator"
        fam = _family(args, args.family or "wp")
        h_step = _positive(_resolve_float(args.h_step, "h_step", verifier.factfun_step(fam)), "h-step")
        params.update({"family": args.family, "h_step": h_step})
        rep = verifier.factfun_check(fam, sampler, h_step=h_step, tol=tol)
    else:
        case = args.case or "exp"
        name = f"constant-{case}"
        ff, fg, expected = _CONSTANT_CASES[case]
        params["case"] = case
        rep = verifier.constant_case_check(ff, fg, replace(sampler, unconstrained=True), tol)
    params["tol"] = tol

    check = _residual_check(name, rep, args.expect or expected)
    if name in ("theorem1", "theorem2"):
        check["lattice_expectation"] = expected
        if check["expected"] == "indeterminate":
            check["outcome"] = "indeterminate"
    report = _report("verify", params, [check], time.perf_counter() - start)
    if args.out:
        _write_report(args.out, report)
    status = "PASS" if check["pass"] else "FAIL"
    print(f"{name:22s} {status}  max={check['max_residual']:.3e} expected={check['expected']}")
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


# -- fit ----------------------------------------------------------------------------


def _read_samples_csv(path: str) -> cls.SampleSet:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:4]] != ["x_re", "x_im", "w_re", "w_im"]:
                raise InputError(f"{path}: expected header x_re,x_im,w_re,w_im")
            xs, ws = [], []
            for row in reader:
                if not row or not "".join(row).strip():
                    continue
                try:
                    xs.append(complex(float(row[0]), float(row[1])))
                    ws.append(complex(float(row[2]), float(row[3])))
                except (ValueError, IndexError) as exc:
                    raise InputError(f"{path}: bad sample row {row!r}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return cls.SampleSet(tuple(xs), tuple(ws))


def _cmd_fit(args, parser) -> int:
    start = time.perf_counter()
    stencil = args.stencil_order
    try:
        samples = _read_samples_csv(args.input)
        seed = _resolve_int(args.seed, "seed", 0)
        decision = cls.classify_samples(samples, stencil_order=stencil, seed=seed)
    except (DegenerateInput, TooFewPoints, GridNotUniform) as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    wall = time.perf_counter() - start
    check = {
        "name": "classification",
        "family": decision.family,
        "pass": args.expect is None or decision.family == args.expect,
        "max_residual": decision.roundtrip_residual or 0.0,
    }
    for key, value in decision.params.items():
        check[key] = value
    for fit in decision.evidence:
        check[f"{fit.model}_residual"] = fit.residual
        check[f"{fit.model}_condition"] = fit.condition
    params = {"input": args.input, "stencil_order": stencil, "seed": seed}
    if args.expect:
        params["expect"] = args.expect
    report = _report("fit", params, [check], wall)
    _write_report(args.out, report)
    print(f"family: {decision.family}  roundtrip={check['max_residual']:.3e}")
    return EXIT_OK if check["pass"] else EXIT_VERIFY_FAIL


# -- scan ---------------------------------------------------------------------------


def _cmd_scan(args, parser) -> int:
    seed, margin = _sampling(args)
    tol = _positive(_resolve_float(args.tol, "tol", 1e-8), "tol")
    grid = int(_positive(args.grid, "grid"))
    _within_ceiling(grid * grid, "grid")
    fam = _family(args, args.family)
    sampler = verifier.TripleSampler(seed=seed, count=grid * grid, margin=margin)
    rows, rep = verifier.grid_scan(fam, sampler, grid, tol)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x_re", "x_im", "y_re", "y_im", "residual"])
        for x, y, r in rows:
            writer.writerow(
                [
                    format(x.real, ".17g"),
                    format(x.imag, ".17g"),
                    format(y.real, ".17g"),
                    format(y.imag, ".17g"),
                    format(r, ".17g"),
                ]
            )
    check = {
        "name": "scan",
        "pass": rep.passed,
        "max_residual": rep.max_residual,
        "mean_residual": rep.mean_residual,
        "rows": len(rows),
        "tol": tol,
    }
    params = {
        "family": args.family or "wp",
        "grid": grid,
        "seed": seed,
        "margin": margin,
        "tol": tol,
        "out": args.out,
    }
    # no wall time here: scan outputs are specified to be byte reproducible
    report = _report("scan", params, [check], None)
    if args.summary:
        _write_report(args.summary, report)
    print(f"scan: {len(rows)} rows, max residual {rep.max_residual:.3e}")
    return EXIT_OK if check["pass"] else EXIT_VERIFY_FAIL


# -- gen ----------------------------------------------------------------------------


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = _finite([float(p) for p in parts], text)
    except ValueError as exc:
        raise ConfigError(f"bad grid range {text!r}") from exc
    if step <= 0 or stop <= start:
        raise ConfigError("grid needs stop > start and step > 0")
    span = _finite([(stop - start) / step * (1.0 + 1e-12)], text)[0]
    n = _within_ceiling(int(math.floor(span)) + 1, "grid")
    return [start + i * step for i in range(n)]


def _cmd_gen(args, parser) -> int:
    grid = _parse_grid(args.grid)
    fam = _family(args, args.family)
    values = [fam.jets(x, 0)[0] for x in grid]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x_re", "x_im", "w_re", "w_im"])
        for x, w in zip(grid, values):
            writer.writerow(
                [
                    format(x, ".17g"),
                    format(0.0, ".17g"),
                    format(w.real, ".17g"),
                    format(w.imag, ".17g"),
                ]
            )
    print(f"wrote {len(grid)} samples to {args.out}")
    return EXIT_OK


# -- eval ---------------------------------------------------------------------------


def _cmd_eval(args, parser) -> int:
    ctx = _context_from_args(args)
    z = _parse_complex(args.z)
    fn = {
        "wp": elliptic.wp,
        "wp-prime": elliptic.wp_prime,
        "sigma": elliptic.sigma,
        "zeta": elliptic.zeta,
    }[args.fn]
    try:
        value = fn(ctx, z)
    except PoleProximity as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print(f"{format(value.real, '.17g')} {format(value.imag, '.17g')}")
    return EXIT_OK


# -- parser -------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="wpfeq",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "environment overrides (flags > environment > defaults): "
            "WPFEQ_TOL, WPFEQ_SEED, WPFEQ_N, WPFEQ_MARGIN, WPFEQ_H_STEP"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # flag groups shared between verbs
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--periods", help="four reals: w1_re,w1_im,w2_re,w2_im")
    lattice.add_argument("--g2", help="re,im")
    lattice.add_argument("--g3", help="re,im")
    shift = argparse.ArgumentParser(add_help=False)
    shift.add_argument("--shift-frac", help="shift in fractions s,t of the periods, the AGM basis or pi/k (1/3 allowed)")
    shift.add_argument("--shift", help="absolute shift re,im")
    delta = argparse.ArgumentParser(add_help=False)
    delta.add_argument("--delta", help="exponential rate re,im")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    sampling = argparse.ArgumentParser(add_help=False, parents=[seed])
    sampling.add_argument("--margin", type=float, default=None)
    sampling.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("symbolic", help="run the exact identity certifications")
    p.add_argument("--which", default="all", help="all or a comma list of "
                   + ",".join(identities.CHECK_NAMES))
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("verify", help="numerical verification on sampled triples",
                       parents=[lattice, shift, delta, sampling])
    p.add_argument("kind", choices=list(_TOLERANCES))
    p.add_argument("--gammas", help="six lattice fractions s1,t1,s2,t2,s3,t3")
    p.add_argument("--family", choices=["wp", "exp", "linear"])
    p.add_argument("--case", choices=list(_CONSTANT_CASES), help="constant-third-function case")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="sample count")
    p.add_argument("--h-step", dest="h_step", type=float, default=None)
    p.add_argument("--expect", choices=["pass", "fail"], default=None)
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("fit", help="classify CSV samples", parents=[seed])
    p.add_argument("--input", required=True)
    p.add_argument("--stencil-order", dest="stencil_order", type=int, choices=[2, 4], default=4)
    p.add_argument("--expect", choices=["weierstrass", "exponential", "linear", "constant", "not_a_solution"])
    p.add_argument("--out", help="write the classification JSON here (default stdout)")

    p = sub.add_parser("scan", help="per-triple residual CSV over a grid", parents=[lattice, shift, delta, sampling])
    p.add_argument("--family", choices=["wp", "exp", "linear"], default="wp")
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--out", required=True, help="residual CSV path")
    p.add_argument("--summary", help="summary JSON path")

    p = sub.add_parser("gen", help="generate sample CSV for a family", parents=[lattice, delta])
    p.add_argument("--family", required=True, choices=["wp", "exp", "linear", "constant"])
    p.add_argument("--alpha", help="re,im")
    p.add_argument("--beta", help="re,im")
    p.add_argument("--c", help="re,im")
    p.add_argument("--grid", required=True, help="start:stop:step (real axis)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="point evaluation for debugging", parents=[lattice])
    p.add_argument("--fn", required=True, choices=["wp", "wp-prime", "sigma", "zeta"])
    p.add_argument("--z", required=True, help="re,im")
    return parser


_COMMANDS = {
    "symbolic": _cmd_symbolic,
    "verify": _cmd_verify,
    "fit": _cmd_fit,
    "scan": _cmd_scan,
    "gen": _cmd_gen,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, DegenerateLattice, FloatOverflow, JetOrderOverflow, NoPeriods, PoleProximity,
            SamplerExhausted, SeriesNoConverge) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WpfeqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
