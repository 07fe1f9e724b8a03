"""Command-line front end.

Verbs: symbolic (exact identity certifications), verify (sampled numerical
verification), fit (classify samples from CSV), scan (residual grid to CSV),
gen (sample generator for round trips), eval (point evaluation).

Conventions: complex flags are comma-separated re,im pairs; --periods takes
four reals (omega1 then omega2); shift and gamma flags take lattice
fractions, with rational strings like 1/3 accepted. Selected numeric flags
fall back to WPFEQ_* environment variables (flags > environment > defaults).
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
from fractions import Fraction

import numpy as np

from . import classify as cls
from . import elliptic, identities, verifier
from .errors import (
    DegenerateLattice,
    FloatOverflow,
    GridNotUniform,
    PoleProximity,
    SamplerExhausted,
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


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected re,im but got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
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
        except (ValueError, ZeroDivisionError) as exc:
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
    return int(_resolve_float(flag_value, env_name, default))


def _positive(value: float, name: str) -> float:
    if not value > 0.0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return value


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
        if ctx.periods is None:
            raise ConfigError("--shift-frac needs --periods")
        s, t = _parse_fractions(frac, 2)
        return s * ctx.periods.omega1 + t * ctx.periods.omega2
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


def _residual_check(name: str, rep: verifier.ResidualReport, expected_pass: bool = True) -> dict:
    ok = rep.passed if expected_pass else not rep.passed
    out = {
        "name": name,
        "pass": bool(ok),
        "observed_pass": bool(rep.passed),
        "expected": "pass" if expected_pass else "fail",
        "max_residual": rep.max_residual,
        "mean_residual": rep.mean_residual,
        "samples": rep.samples,
        "tol": rep.tol,
    }
    if rep.note:
        out["note"] = rep.note
    for key, value in rep.details.items():
        if isinstance(value, (int, float, complex, str, bool)):
            out[key] = value
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


def _expectation(args, internal: str) -> bool:
    """Expected scan outcome: explicit --expect wins over the lattice-implied one."""
    if args.expect is not None:
        return args.expect == "pass"
    if internal == "indeterminate":
        raise ConfigError(
            "the shift sum is borderline relative to the lattice tolerance; "
            "state --expect explicitly"
        )
    return internal == "pass"


def _cmd_verify(args, parser) -> int:
    start = time.perf_counter()
    seed = _resolve_int(args.seed, "seed", 0)
    count = int(_positive(_resolve_int(args.n, "n", 1000), "sample count"))
    margin = _resolve_float(args.margin, "margin", 0.05)
    if not 0.0 < margin < 0.5:
        raise ConfigError(f"margin must lie in (0, 0.5), got {margin!r}")
    checks: list[dict] = []
    params: dict = {"kind": args.kind, "seed": seed, "n": count, "margin": margin}

    if args.kind == "theorem1":
        ctx = _context_from_args(args)
        if ctx.periods is None:
            raise ConfigError("theorem1 verification needs --periods")
        tol = _positive(_resolve_float(args.tol, "tol", 1e-8), "tol")
        shift = _shift_from_args(args, ctx)
        params.update({"shift": shift, "tol": tol})
        expected_tag = verifier.theorem_shift_expectation(ctx, 3.0 * shift)
        sampler = verifier.TripleSampler(seed=seed, count=count, margin=margin)
        fam = verifier.WeierstrassShifted(ctx, shift)
        rep = verifier.scan(fam, fam, fam, sampler, tol)
        expected = _expectation(args, expected_tag)
        check = _residual_check("theorem1", rep, expected_pass=expected)
        check["lattice_expectation"] = expected_tag
        checks.append(check)

    elif args.kind == "theorem2":
        ctx = _context_from_args(args)
        if ctx.periods is None:
            raise ConfigError("theorem2 verification needs --periods")
        if args.gammas is None:
            raise ConfigError("theorem2 verification needs --gammas s1,t1,s2,t2,s3,t3")
        tol = _positive(_resolve_float(args.tol, "tol", 1e-8), "tol")
        vals = _parse_fractions(args.gammas, 6)
        w1, w2 = ctx.periods.omega1, ctx.periods.omega2
        gammas = [vals[0] * w1 + vals[1] * w2, vals[2] * w1 + vals[3] * w2, vals[4] * w1 + vals[5] * w2]
        params.update({"gammas": gammas, "tol": tol})
        sampler = verifier.TripleSampler(seed=seed, count=count, margin=margin)
        rep = verifier.theorem2_shift_test(ctx, *gammas, sampler, tol)
        internal = rep.details.get("expected", "pass")
        if internal == "indeterminate" and args.expect is None:
            check = _residual_check("theorem2", rep, expected_pass=rep.passed)
            check["outcome"] = "indeterminate"
            checks.append(check)
        else:
            expected = _expectation(args, internal)
            checks.append(_residual_check("theorem2", rep, expected_pass=expected))

    elif args.kind == "sigma":
        ctx = _context_from_args(args)
        if ctx.periods is None:
            raise ConfigError("sigma verification needs --periods")
        tol = _positive(_resolve_float(args.tol, "tol", 1e-8), "tol")
        params["tol"] = tol
        rep = verifier.sigma_identity_scan(ctx, count=count, seed=seed, tol=tol)
        checks.append(_residual_check("sigma-identity", rep, expected_pass=args.expect != "fail"))

    elif args.kind == "derived":
        tol = _positive(_resolve_float(args.tol, "tol", 1e-7), "tol")
        fam = _family_for_verify(args)
        params.update({"family": args.family, "k": args.k, "l": args.l, "s": args.s, "tol": tol})
        sampler = verifier.TripleSampler(seed=seed, count=count, margin=margin)
        rep = verifier.derived_determinant_check(fam, fam, fam, args.k, args.l, args.s, sampler, tol)
        checks.append(_residual_check("derived-determinant", rep, expected_pass=args.expect != "fail"))

    elif args.kind == "factfun":
        tol = _positive(_resolve_float(args.tol, "tol", 1e-6), "tol")
        h_step = _positive(_resolve_float(args.h_step, "h_step", 1e-2), "h-step")
        fam = _family_for_verify(args)
        params.update({"family": args.family, "h_step": h_step, "tol": tol})
        sampler = verifier.TripleSampler(seed=seed, count=count, margin=margin)
        rep = verifier.factfun_check(fam, sampler, h_step=h_step, tol=tol)
        checks.append(_residual_check("factfun-operator", rep, expected_pass=args.expect != "fail"))

    elif args.kind == "constant":
        tol = _positive(_resolve_float(args.tol, "tol", 1e-12), "tol")
        case = args.case or "exp"
        if case == "exp":
            ff = fg = verifier.Exponential()
            expect_internal = True
        elif case == "zero":
            ff, fg = verifier.Constant(0j), verifier.Exponential(delta=2.0)
            expect_internal = True
        elif case == "mismatch":
            ff, fg = verifier.Exponential(), verifier.Exponential(delta=2.0)
            expect_internal = False
        else:
            raise ConfigError(f"unknown constant case {case!r}")
        params.update({"case": case, "tol": tol})
        sampler = verifier.TripleSampler(seed=seed, count=count, unconstrained=True)
        rep = verifier.constant_case_check(ff, fg, sampler, tol)
        expected = args.expect == "pass" if args.expect else expect_internal
        checks.append(_residual_check(f"constant-{case}", rep, expected_pass=expected))

    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown verify kind {args.kind!r}")

    wall = time.perf_counter() - start
    report = _report("verify", params, checks, wall)
    if args.out:
        _write_report(args.out, report)
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        print(
            f"{check['name']:22s} {status}  max={check.get('max_residual', 0.0):.3e} "
            f"expected={check.get('expected')}"
        )
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


def _family_for_verify(args) -> verifier.FunctionFamily:
    family = args.family or "wp"
    if family == "wp":
        ctx = _context_from_args(args)
        if ctx.periods is None:
            raise ConfigError("the wp family needs --periods here")
        return verifier.WeierstrassShifted(ctx, _shift_from_args(args, ctx))
    if family == "exp":
        delta = _parse_complex(args.delta) if args.delta else 1.0 + 0j
        return verifier.Exponential(delta=delta)
    if family == "linear":
        return verifier.Linear()
    raise ConfigError(f"unknown family {family!r}")


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
    if len(xs) < 8:
        raise InputError(f"{path}: TooFewPoints - classification needs at least 8 samples")
    return cls.SampleSet(tuple(xs), tuple(ws))


def _cmd_fit(args, parser) -> int:
    start = time.perf_counter()
    samples = _read_samples_csv(args.input)
    stencil = args.stencil_order
    seed = _resolve_int(args.seed, "seed", 0)
    try:
        decision = cls.classify_samples(samples, stencil_order=stencil, seed=seed)
    except (TooFewPoints, GridNotUniform) as exc:
        raise InputError(str(exc)) from exc
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
        if fit.condition > cls.Thresholds().cond_equilibrate:
            check["warning"] = "normal equations were equilibrated"
    params = {"input": args.input, "stencil_order": stencil, "seed": seed}
    if args.expect:
        params["expect"] = args.expect
    report = _report("fit", params, [check], wall)
    _write_report(args.out, report)
    print(f"family: {decision.family}  roundtrip={check['max_residual']:.3e}")
    return EXIT_OK if check["pass"] else EXIT_VERIFY_FAIL


# -- scan ---------------------------------------------------------------------------


def _cmd_scan(args, parser) -> int:
    seed = _resolve_int(args.seed, "seed", 0)
    margin = _resolve_float(args.margin, "margin", 0.05)
    if not 0.0 < margin < 0.5:
        raise ConfigError(f"margin must lie in (0, 0.5), got {margin!r}")
    tol = _positive(_resolve_float(args.tol, "tol", 1e-8), "tol")
    grid = int(_positive(args.grid, "grid"))
    fam = _family_for_verify(args)
    sampler = verifier.TripleSampler(seed=seed, count=grid * grid, margin=margin)
    rows = verifier.grid_scan(fam, sampler, grid)
    residuals = [r for _, _, r in rows]

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
    mx = max(residuals)
    check = {
        "name": "scan",
        "pass": mx <= tol,
        "max_residual": mx,
        "mean_residual": sum(residuals) / len(residuals),
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
    print(f"scan: {len(rows)} rows, max residual {mx:.3e}")
    return EXIT_OK if check["pass"] else EXIT_VERIFY_FAIL


# -- gen ----------------------------------------------------------------------------


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad grid range {text!r}") from exc
    if step <= 0 or stop <= start:
        raise ConfigError("grid needs stop > start and step > 0")
    n = int(math.floor((stop - start) / step + 0.5)) + 1
    return [start + i * step for i in range(n)]


def _cmd_gen(args, parser) -> int:
    family = args.family
    grid = _parse_grid(args.grid)
    if family == "wp":
        ctx = _context_from_args(args)
        values = [elliptic.wp(ctx, x) for x in grid]
    elif family == "exp":
        fam = verifier.Exponential(
            alpha=_parse_complex(args.alpha) if args.alpha else 1.0 + 0j,
            beta=_parse_complex(args.beta) if args.beta else 0j,
            delta=_parse_complex(args.delta) if args.delta else 1.0 + 0j,
        )
        values = [fam.jets(x, 0).values[0] for x in grid]
    elif family == "linear":
        fam = verifier.Linear(
            alpha=_parse_complex(args.alpha) if args.alpha else 1.0 + 0j,
            beta=_parse_complex(args.beta) if args.beta else 0j,
        )
        values = [fam.jets(x, 0).values[0] for x in grid]
    elif family == "constant":
        c = _parse_complex(args.c) if args.c else 1.0 + 0j
        values = [c for _ in grid]
    else:
        raise ConfigError(f"unknown family {family!r}")
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
    except (PoleProximity, SeriesNoConverge) as exc:
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

    p = sub.add_parser("symbolic", help="run the exact identity certifications")
    p.add_argument("--which", default="all", help="all or a comma list of "
                   + ",".join(identities.CHECK_NAMES))
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("verify", help="numerical verification on sampled triples")
    p.add_argument("kind", choices=["theorem1", "theorem2", "sigma", "derived", "factfun", "constant"])
    p.add_argument("--periods", help="four reals: w1_re,w1_im,w2_re,w2_im")
    p.add_argument("--g2", help="re,im")
    p.add_argument("--g3", help="re,im")
    p.add_argument("--shift-frac", help="shift as lattice fractions s,t (rationals allowed)")
    p.add_argument("--shift", help="absolute shift re,im")
    p.add_argument("--gammas", help="six lattice fractions s1,t1,s2,t2,s3,t3")
    p.add_argument("--family", choices=["wp", "exp", "linear"])
    p.add_argument("--delta", help="exponential rate re,im")
    p.add_argument("--case", choices=["exp", "zero", "mismatch"], help="constant-third-function case")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="sample count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--h-step", dest="h_step", type=float, default=None)
    p.add_argument("--expect", choices=["pass", "fail"], default=None)
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("fit", help="classify CSV samples")
    p.add_argument("--input", required=True)
    p.add_argument("--stencil-order", dest="stencil_order", type=int, choices=[2, 4], default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--expect", choices=["weierstrass", "exponential", "linear", "constant", "not_a_solution"])
    p.add_argument("--out", help="write the classification JSON here (default stdout)")

    p = sub.add_parser("scan", help="per-triple residual CSV over a grid")
    p.add_argument("--family", choices=["wp", "exp", "linear"], default="wp")
    p.add_argument("--periods", help="four reals: w1_re,w1_im,w2_re,w2_im")
    p.add_argument("--g2", help="re,im")
    p.add_argument("--g3", help="re,im")
    p.add_argument("--shift-frac", help="shift as lattice fractions s,t")
    p.add_argument("--shift", help="absolute shift re,im")
    p.add_argument("--delta", help="exponential rate re,im")
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", required=True, help="residual CSV path")
    p.add_argument("--summary", help="summary JSON path")

    p = sub.add_parser("gen", help="generate sample CSV for a family")
    p.add_argument("--family", required=True, choices=["wp", "exp", "linear", "constant"])
    p.add_argument("--g2", help="re,im")
    p.add_argument("--g3", help="re,im")
    p.add_argument("--periods", help="four reals")
    p.add_argument("--alpha", help="re,im")
    p.add_argument("--beta", help="re,im")
    p.add_argument("--delta", help="re,im")
    p.add_argument("--c", help="re,im")
    p.add_argument("--grid", required=True, help="start:stop:step (real axis)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="point evaluation for debugging")
    p.add_argument("--fn", required=True, choices=["wp", "wp-prime", "sigma", "zeta"])
    p.add_argument("--periods", help="four reals")
    p.add_argument("--g2", help="re,im")
    p.add_argument("--g3", help="re,im")
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
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SamplerExhausted, SeriesNoConverge, DegenerateLattice, FloatOverflow) as exc:
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
