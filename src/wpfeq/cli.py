"""Command-line front end.

Verbs: symbolic (exact identity certifications), verify (sampled numerical
verification), fit (classify samples from CSV), scan (residual grid to CSV),
gen (sample generator for round trips), eval (point evaluation).

Conventions: complex flags are comma-separated re,im pairs, and a value may
start with a minus sign (--z -0.3,0.1 as --z=-0.3,0.1); --periods takes
four reals (omega1 then omega2), or --g2/--g3 the invariants, whose AGM
basis then spans the lattice, or with zero discriminant (pi/k)Z or {0};
shift and gamma flags take lattice fractions (1/3 accepted), and one beyond
the lattice's rank exits 65. verify theorem1 runs as theorem2 with three
equal shifts, and --expect overrides each verify kind's own expectation.
A flag that the verb, verify kind or family does not read exits 64, as do
--periods with --g2/--g3 and --shift-frac with --shift. A flag not given
takes its default; no environment variable sets one. Reports are JSON
with shortest round-trip floats; fit without --out writes its summary line
to stderr; a closed stdout loses text only.
Exit codes: 0 success or expected outcome, 1 verification failure, 2
internal error, 64 usage, 65 configuration, 66 unreadable input.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
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

# the most points one command samples, evaluates or writes; a larger count
# is refused before any list or array is sized by it
MAX_POINTS = 1_000_000


class ConfigError(WpfeqError):
    pass


class InputError(WpfeqError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as a flag unless it
        # looks like a negative number, by default -2 or -0.5 alone; widened
        # to a minus sign before a digit, so "-0.3,0.1" and "-1/3,0" are values
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# -- the flags each run reads --------------------------------------------------------
#
# By argparse dest: a verb reads its own flags, a verify kind adds its own, and
# a run that reads --family adds the family's. Any other flag given exits 64.

_LATTICE = ("periods", "g2", "g3")

# wp samples in lattice fractions with the margin; exp and linear take the dataclass fields
_FAMILY_FLAGS = {
    "wp": (*_LATTICE, "shift_frac", "shift", "margin"),
    "exp": ("alpha", "beta", "delta"),
    "linear": ("alpha", "beta"),
    "constant": ("c",),
}

_VERB_FLAGS = {
    "symbolic": ("which", "out"),
    "verify": ("kind", "n", "seed", "tol", "expect", "out"),
    "fit": ("input", "stencil_order", "seed", "expect", "out"),
    "scan": ("family", "grid", "seed", "tol", "out", "summary"),
    "gen": ("family", "grid", "out"),
    "eval": (*_LATTICE, "fn", "z"),
}

# theorem1 is pe(x + shift) for f, g and h; sigma draws on its own spread, without the margin
_KIND_FLAGS = {
    "theorem1": _FAMILY_FLAGS["wp"],
    "theorem2": (*_LATTICE, "gammas", "margin"),
    "sigma": _LATTICE,
    "derived": ("family", "k", "l", "s"),
    "factfun": ("family", "h_step"),
    "constant": ("case",),
}


def _reads(args) -> set[str]:
    """The flags, by dest, that the run of `args` reads."""
    reads = {"command", *_VERB_FLAGS[args.command]}
    if args.command == "verify":
        reads.update(_KIND_FLAGS[args.kind])
    if "family" in reads:
        reads.update(_FAMILY_FLAGS[args.family or "wp"])
    return reads


def _refuse_unread(args, parser) -> None:
    """Exit 64 on a flag given that the run does not read, whatever its value."""
    given = {dest for dest, value in vars(args).items() if value is not None}
    if "periods" in given and given & {"g2", "g3"}:
        parser.error("argument --g2/--g3: not allowed with argument --periods")
    reads = _reads(args)
    unread = sorted(given - reads)
    if unread:
        run = [args.command, *([args.kind] if args.command == "verify" else [])]
        if "family" in reads:
            run.append(f"--family {args.family or 'wp'}")
        flags = ", ".join("--" + dest.replace("_", "-") for dest in unread)
        parser.error(f"{' '.join(run)} does not read {flags}")


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


def _positive(value: float, name: str) -> float:
    if not value > 0.0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return value


def _within_ceiling(points: int, name: str) -> int:
    if points > MAX_POINTS:
        raise ConfigError(f"{name} asks for {points} points, more than the {MAX_POINTS} one command may take")
    return points


def _context_from_args(args) -> elliptic.EllipticContext:
    periods, g2, g3 = args.periods, args.g2, args.g3
    if periods is not None:
        vals = _parse_fractions(periods, 4)
        try:
            return elliptic.from_periods(complex(vals[0], vals[1]), complex(vals[2], vals[3]))
        except DegenerateLattice as exc:
            raise ConfigError(str(exc)) from exc
    if g2 is not None or g3 is not None:
        return elliptic.from_invariants(*(0j if value is None else _parse_complex(value) for value in (g2, g3)))
    raise ConfigError("provide either --periods or --g2/--g3")


def _fraction_point(ctx, s: float, t: float) -> complex:
    """The point of lattice fractions s, t (`elliptic.lattice_point`); a nonzero one beyond the rank is refused."""
    if any((s, t)[len(ctx.reduced) :]):
        raise ConfigError(f"a nonzero lattice fraction beyond the rank {len(ctx.reduced)} of the lattice")
    return elliptic.lattice_point(ctx, s, t)


def _shift_from_args(args, ctx) -> complex:
    # gen has no shift flags
    frac, absolute = vars(args).get("shift_frac"), vars(args).get("shift")
    if frac is not None:
        return _fraction_point(ctx, *_parse_fractions(frac, 2))
    if absolute is not None:
        return _parse_complex(absolute)
    return 0j


# -- report serialisation ----------------------------------------------------------


def _plain(obj):
    """obj with complex numbers as [re, im], numpy scalars as Python ones and nan or infinities as None."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return [_plain(obj.real), _plain(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _say(text: str) -> None:
    """Write a line to stdout. A closed stdout drops it and points fd 1 at os.devnull, so no later write fails."""
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_report(path: str | None, report: dict):
    """The report as JSON: floats in the shortest text that reads back to the same double."""
    text = json.dumps(_plain(report), indent=2, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        _say(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    """CSV of the header and rows of floats at 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(value, ".17g") for value in row] for row in rows)


def _report(command: str, params: dict, checks: list[dict], wall_time: float | None) -> dict:
    report = {"command": command, "params": params, "checks": checks, "pass": all(c.get("pass", False) for c in checks),
              "max_residual": max((c.get("max_residual", 0.0) for c in checks), default=0.0)}
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
    names = list(identities.CHECK_NAMES) if which == ["all"] else which
    bad = [w for w in names if w not in identities.CHECK_NAMES]
    if bad:
        parser.error(f"unknown check(s): {', '.join(bad)}")
    start = time.perf_counter()
    rows = identities.run_checks(names)
    wall = time.perf_counter() - start
    checks = [{"name": name, "pass": rep.holds, "cofactor": rep.cofactor_text(), "note": rep.note,
               "max_residual": 0.0 if rep.holds else 1.0} for name, rep in rows]
    for check in checks:
        _say(f"{check['name']:18s} {'PASS' if check['pass'] else 'FAIL'}  cofactor={check['cofactor']!r}")
    report = _report("symbolic", {"which": names}, checks, wall)
    if args.out:
        _write_report(args.out, report)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


# -- verify -------------------------------------------------------------------------

# the constant-third-function cases: (f, g, expected outcome)
_CONSTANT_CASES = {
    "exp": (verifier.Exponential(), verifier.Exponential(), "pass"),
    "zero": (verifier.Constant(0j), verifier.Exponential(delta=2.0), "pass"),
    "mismatch": (verifier.Exponential(), verifier.Exponential(delta=2.0), "fail"),
}


def _seed(args) -> int:
    """The seed of verify, scan and fit: the flag or 0; a negative one is refused."""
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def _sampler(args, count: int) -> tuple[verifier.TripleSampler, dict]:
    """The run's sampler, and its lattice-fraction margin as a report param where the run reads one."""
    sampler = verifier.TripleSampler(seed=_seed(args), count=count)
    if "margin" not in _reads(args):
        return sampler, {}
    margin = sampler.margin if args.margin is None else args.margin
    if not 0.0 < margin < 0.5:
        raise ConfigError(f"margin must lie in (0, 0.5), got {margin!r}")
    return replace(sampler, margin=margin), {"margin": margin}


def _family(args, name: str) -> verifier.FunctionFamily:
    """Family `name` from its flags in _FAMILY_FLAGS; an absent --c reads 1."""
    if name == "wp":
        ctx = _context_from_args(args)
        return verifier.WeierstrassShifted(ctx, _shift_from_args(args, ctx))
    if name == "constant":
        return verifier.Constant(1.0 + 0j if args.c is None else _parse_complex(args.c))
    given = {flag: vars(args).get(flag) for flag in _FAMILY_FLAGS[name]}
    fields = {flag: _parse_complex(text) for flag, text in given.items() if text is not None}
    try:
        return {"exp": verifier.Exponential, "linear": verifier.Linear}[name](**fields)
    except ValueError as exc:  # a zero rate or slope
        raise ConfigError(str(exc)) from exc


def _cmd_verify(args, parser) -> int:
    start = time.perf_counter()
    count = _within_ceiling(int(_positive(1000 if args.n is None else args.n, "sample count")), "sample count")
    # each check's own default tolerance unless --tol is given
    tol = {} if args.tol is None else {"tol": _positive(args.tol, "tol")}
    sampler, margin = _sampler(args, count)
    params: dict = {"kind": args.kind, "seed": sampler.seed, "n": count, **margin}
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
            gammas = params["gammas"] = [_fraction_point(ctx, *vals[i : i + 2]) for i in (0, 2, 4)]
        rep = verifier.theorem2_shift_test(ctx, *gammas, sampler, **tol)
        expected = rep.details["expected"]
    elif args.kind == "sigma":
        name = "sigma-identity"
        rep = verifier.sigma_identity_scan(_context_from_args(args), count=count, seed=sampler.seed, **tol)
    elif args.kind == "derived":
        name = "derived-determinant"
        k, l = 1 if args.k is None else args.k, 2 if args.l is None else args.l
        if min(k, l, 1 if args.s is None else args.s) < 1 or (args.s is None and k == l):
            raise ConfigError("column indices must be at least 1, and --k and --l must differ without --s")
        family = args.family or "wp"
        fam = _family(args, family)
        params.update({"family": family, "k": k, "l": l, "s": args.s})
        rep = verifier.derived_determinant_check(fam, fam, fam, k, l, args.s, sampler, **tol)
    elif args.kind == "factfun":
        name = "factfun-operator"
        family = args.family or "wp"
        fam = _family(args, family)
        h_step = _positive(verifier.factfun_step(fam) if args.h_step is None else args.h_step, "h-step")
        params.update({"family": family, "h_step": h_step})
        rep = verifier.factfun_check(fam, sampler, h_step=h_step, **tol)
    else:
        case = args.case or "exp"
        name = f"constant-{case}"
        ff, fg, expected = _CONSTANT_CASES[case]
        params["case"] = case
        rep = verifier.constant_case_check(ff, fg, replace(sampler, unconstrained=True), **tol)
    params["tol"] = rep.tol

    check = _residual_check(name, rep, args.expect or expected)
    if name in ("theorem1", "theorem2"):
        check["lattice_expectation"] = expected
        if check["expected"] == "indeterminate":
            check["outcome"] = "indeterminate"
    report = _report("verify", params, [check], time.perf_counter() - start)
    if args.out:
        _write_report(args.out, report)
    status = "PASS" if check["pass"] else "FAIL"
    _say(f"{name:22s} {status}  max={check['max_residual']:.3e} expected={check['expected']}")
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
    try:
        samples = _read_samples_csv(args.input)
        seed = _seed(args)
        decision = cls.classify_samples(samples, stencil_order=args.stencil_order, seed=seed)
    except (DegenerateInput, TooFewPoints, GridNotUniform) as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    wall = time.perf_counter() - start
    check = {
        "name": "classification",
        "family": decision.family,
        "pass": args.expect is None or decision.family == args.expect,
        "max_residual": decision.roundtrip_residual or 0.0,
    }
    check.update(decision.params)
    for fit in decision.evidence:
        check[f"{fit.model}_residual"] = fit.residual
        check[f"{fit.model}_condition"] = fit.condition
    params = {"input": args.input, "stencil_order": args.stencil_order, "seed": seed}
    if args.expect:
        params["expect"] = args.expect
    report = _report("fit", params, [check], wall)
    _write_report(args.out, report)
    # stdout holds the report alone when there is no --out
    summary = f"family: {decision.family}  roundtrip={check['max_residual']:.3e}"
    if args.out:
        _say(summary)
    else:
        print(summary, file=sys.stderr)
    return EXIT_OK if check["pass"] else EXIT_VERIFY_FAIL


# -- scan ---------------------------------------------------------------------------


def _cmd_scan(args, parser) -> int:
    tol = {} if args.tol is None else {"tol": _positive(args.tol, "tol")}
    grid = int(_positive(args.grid, "grid"))
    _within_ceiling(grid * grid, "grid")
    sampler, margin = _sampler(args, grid * grid)
    fam = _family(args, args.family)
    rows, rep = verifier.grid_scan(fam, sampler, grid, **tol)
    _write_csv(args.out, ["x_re", "x_im", "y_re", "y_im", "residual"],
               ((x.real, x.imag, y.real, y.imag, r) for x, y, r in rows))
    check = {"name": "scan", "pass": rep.passed, "max_residual": rep.max_residual,
             "mean_residual": rep.mean_residual, "rows": len(rows), "tol": rep.tol}
    params = {"family": args.family, "grid": grid, "seed": sampler.seed, **margin, "tol": rep.tol, "out": args.out}
    # no wall time here: scan outputs are specified to be byte reproducible
    report = _report("scan", params, [check], None)
    if args.summary:
        _write_report(args.summary, report)
    _say(f"scan: {len(rows)} rows, max residual {rep.max_residual:.3e}")
    return EXIT_OK if check["pass"] else EXIT_VERIFY_FAIL


# -- gen ----------------------------------------------------------------------------


def _parse_grid(text: str) -> np.ndarray:
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
    return start + np.arange(n) * step


def _cmd_gen(args, parser) -> int:
    grid = _parse_grid(args.grid)
    fam = _family(args, args.family)
    # one family call per chunk, and every value checked before the file is opened
    chunk = verifier.CHUNK
    with np.errstate(all="ignore"):
        w = np.concatenate([fam.jets(grid[i : i + chunk] + 0j, 0)[0] for i in range(0, len(grid), chunk)])
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        i = bad[0]
        raise ConfigError(f"grid point {i} at x = {grid[i]} has no finite value: a pole, or beyond the float range")
    _write_csv(args.out, ["x_re", "x_im", "w_re", "w_im"], zip(grid, np.zeros_like(grid), w.real, w.imag))
    _say(f"wrote {len(grid)} samples to {args.out}")
    return EXIT_OK


# -- eval ---------------------------------------------------------------------------


def _cmd_eval(args, parser) -> int:
    ctx = _context_from_args(args)
    z = _parse_complex(args.z)
    fn = {"wp": elliptic.wp, "wp-prime": elliptic.wp_prime, "sigma": elliptic.sigma, "zeta": elliptic.zeta}[args.fn]
    try:
        value = fn(ctx, z)
    except PoleProximity as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    _say(f"{format(value.real, '.17g')} {format(value.imag, '.17g')}")
    return EXIT_OK


# -- parser -------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="wpfeq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # flag groups shared between verbs
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--periods", help="four reals: w1_re,w1_im,w2_re,w2_im")
    lattice.add_argument("--g2", help="re,im")
    lattice.add_argument("--g3", help="re,im")
    shift = argparse.ArgumentParser(add_help=False)
    shifts = shift.add_mutually_exclusive_group()
    shifts.add_argument("--shift-frac", help="shift in fractions s,t of the periods, the AGM basis or pi/k (1/3 allowed)")
    shifts.add_argument("--shift", help="absolute shift re,im")
    delta = argparse.ArgumentParser(add_help=False)
    delta.add_argument("--delta", help="exponential rate re,im")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    sampling = argparse.ArgumentParser(add_help=False, parents=[seed])
    sampling.add_argument("--margin", type=float, default=None)
    sampling.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("symbolic", help="run the exact identity certifications")
    p.add_argument("--which", default="all", help="all or a comma list of " + ",".join(identities.CHECK_NAMES))
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("verify", help="numerical verification on sampled triples",
                       parents=[lattice, shift, delta, sampling])
    p.add_argument("kind", choices=list(_KIND_FLAGS))
    p.add_argument("--gammas", help="six lattice fractions s1,t1,s2,t2,s3,t3")
    p.add_argument("--family", choices=["wp", "exp", "linear"])
    p.add_argument("--case", choices=list(_CONSTANT_CASES), help="constant-third-function case")
    p.add_argument("--k", type=int, default=None, help="derived's first column (default 1)")
    p.add_argument("--l", type=int, default=None, help="derived's second column (default 2)")
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
        _refuse_unread(args, parser)
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, DegenerateLattice, FloatOverflow, JetOrderOverflow, OverflowError, PoleProximity,
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
