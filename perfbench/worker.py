"""One workload process: import wpfeq, set up, run a fixed list of operations.

Started by run.py with PYTHONPATH pointing at the checkout's src/. It prints
READY once set-up is done (run.py times fresh process to READY as set-up),
then runs one warm-up round that is discarded, then the timed rounds, and
prints one JSON line with the operation times and everything the checks
need. Output checks run in run.py, outside the timed region and outside
this process.

With --spans the set-up is traced, every timed operation runs once
untraced and once traced, one traced round of every other workload follows
(so every layer has spans in every traced run), and the per-layer metrics
are derived from the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402

from wpfeq import classify, elliptic, identities, verifier  # noqa: E402
from wpfeq.errors import WpfeqError  # noqa: E402

def _c(z: complex) -> list[float]:
    return [z.real, z.imag]


def _report(rep, requested: int) -> dict:
    return {
        "passed": bool(rep.passed),
        "samples": rep.samples,
        "requested": requested,
        "max": rep.max_residual,
    }


# -- verify-battery ---------------------------------------------------------------


def verify_setup() -> dict:
    return {name: elliptic.from_periods(w1, w2) for name, w1, w2 in inputs.VERIFY_CONTEXTS}


def verify_run(state: dict, seed: int, op: int) -> dict:
    spec = inputs.verify_op(seed, op)
    ctx = state[spec["context"]]
    w1, w2 = ctx.periods.omega1, ctx.periods.omega2

    def at(frac):
        return float(frac[0]) * w1 + float(frac[1]) * w2

    def sampler(slot: int, count: int, **kw):
        return verifier.TripleSampler(seed=inputs.sampler_seed(seed, op, slot), count=count, **kw)

    out: dict = {"context": spec["context"], "periods": [_c(w1), _c(w2)]}
    out["certifications"] = [rep.holds for _, rep in identities.run_checks()]

    fam = verifier.WeierstrassShifted(ctx, at(spec["shift_frac"]))
    rep = verifier.scan(fam, fam, fam, sampler(0, inputs.SCAN_COUNT), tol=inputs.TOL)
    out["scan"] = _report(rep, inputs.SCAN_COUNT)
    out["scan"]["worst"] = [_c(p) for p in rep.worst_triple]

    for key, slot in (("theorem2_pass", 1), ("theorem2_fail", 2)):
        gammas = [at(g) for g in spec["gammas_" + key.split("_")[1]]]
        rep = verifier.theorem2_shift_test(ctx, *gammas, sampler(slot, inputs.THEOREM2_COUNT), tol=inputs.TOL)
        out[key] = _report(rep, inputs.THEOREM2_COUNT)
        out[key]["expected"] = rep.details["expected"]

    rep = verifier.sigma_identity_scan(
        ctx, count=inputs.SIGMA_COUNT, seed=inputs.sampler_seed(seed, op, 3), tol=inputs.TOL
    )
    out["sigma_identity"] = _report(rep, inputs.SIGMA_COUNT)

    rep = verifier.derived_determinant_check(
        fam, fam, fam, 1, 2, None, sampler(4, inputs.DERIVED_COUNT), tol=1e-7
    )
    out["derived"] = _report(rep, inputs.DERIVED_COUNT)

    rep = verifier.factfun_check(
        verifier.WeierstrassShifted(ctx, 0j),
        sampler(5, inputs.FACTFUN_COUNT),
        h_step=1e-2,
        tol=1e-6,
    )
    out["factfun"] = _report(rep, inputs.FACTFUN_COUNT)

    e = verifier.Exponential()
    for key, other in (("constant_exp", e), ("constant_mismatch", verifier.Exponential(delta=2.0))):
        rep = verifier.constant_case_check(
            e, other, sampler(6, inputs.CONSTANT_COUNT, unconstrained=True), tol=1e-12
        )
        out[key] = _report(rep, inputs.CONSTANT_COUNT)
    return out


# -- lattice-sweep ----------------------------------------------------------------


def sweep_setup() -> None:
    # the first context of a process pays for the shared exact sigma table
    elliptic.from_periods(1.0, 1.0j)


def sweep_run(state, seed: int, op: int) -> dict:
    spec = inputs.sweep_op(seed, op)
    w1, w2 = spec["omega"]
    ctx = elliptic.from_periods(w1, w2)
    xs = spec["segment"]
    ws = tuple(elliptic.wp(ctx, x) for x in xs)
    dec = classify.classify_samples(
        classify.SampleSet(xs, ws), seed=inputs.sampler_seed(seed, op, 7)
    )
    fam = verifier.WeierstrassShifted(ctx, ctx.periods.omega1 / 3.0)
    sampler = verifier.TripleSampler(seed=inputs.sampler_seed(seed, op, 8), count=inputs.SWEEP_SCAN_COUNT)
    rep = verifier.scan(fam, fam, fam, sampler, tol=inputs.TOL)
    return {
        "kind": spec["kind"],
        "periods": [_c(ctx.periods.omega1), _c(ctx.periods.omega2)],
        "g2": _c(ctx.invariants.g2),
        "g3": _c(ctx.invariants.g3),
        "wp": [[i, *_c(ws[i])] for i in inputs.SWEEP_CHECKED_POINTS],
        "family": dec.family,
        "fit_g2": _c(complex(dec.params.get("g2", 0j))),
        "fit_g3": _c(complex(dec.params.get("g3", 0j))),
        "roundtrip": dec.roundtrip_residual,
        "scan": _report(rep, inputs.SWEEP_SCAN_COUNT),
    }


WORKLOADS = {
    "verify-battery": (verify_setup, verify_run),
    "lattice-sweep": (sweep_setup, sweep_run),
}


def run_ops(run, state, seed: int, ops: range, tracer=None, label: str = ""):
    """Run each operation once; returns (wall ms per op or None, payloads, errors)."""
    times, payloads, errors = [], [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                payload = run(state, seed, op)
            else:
                with tracer.operation(op, label):
                    payload = run(state, seed, op)
        except (WpfeqError, ArithmeticError) as exc:
            times.append(None)
            payloads.append(None)
            errors.append(f"op {op}: {type(exc).__name__}: {exc}")
            continue
        times.append((time.perf_counter() - t0) * 1e3)
        payloads.append(payload)
    return times, payloads, errors


def _per_call(summary: dict, name: str, scale: float, skip_ns: int = 0, skip_calls: int = 0):
    """Mean inclusive time per call in units of `scale` ns, and the call count."""
    row = summary[name]
    calls = row["calls"] - skip_calls
    return (row["total_ns"] - skip_ns) / calls / scale, calls


def layer_metrics(tracer, untraced_ms: float, traced_ms: float) -> dict:
    """Per-layer metrics from the spans: name -> [value, unit]."""
    s = tracer.summary()
    first_ns = tracer.first("elliptic.from_periods")
    m: dict[str, list] = {"elliptic.first_context_s": [first_ns / 1e9, "s"]}
    value, calls = _per_call(s, "elliptic.from_periods", 1e6, skip_ns=first_ns, skip_calls=1)
    m["elliptic.from_periods_ms"] = [value, "ms"]
    m["elliptic.from_periods.calls"] = [calls, "count"]
    value, calls = _per_call(s, "elliptic.from_invariants", 1e6)
    m["elliptic.from_invariants_ms"] = [value, "ms"]
    m["elliptic.from_invariants.calls"] = [calls, "count"]
    for fn in ("jets", "lattice_distance", "zeta", "sigma", "wp"):
        value, calls = _per_call(s, f"elliptic.{fn}", 1e3)
        m[f"elliptic.{fn}_us"] = [value, "us"]
        m[f"elliptic.{fn}.calls"] = [calls, "count"]
    m["verifier.triples_us"] = [s["verifier.triples"]["self_ns"] / tracer.yields / 1e3, "us"]
    value, calls = _per_call(s, "verifier.residual", 1e3)
    m["verifier.residual_us"] = [value, "us"]
    m["verifier.residual.calls"] = [calls, "count"]
    m["verifier.scan_ms"] = [_per_call(s, "verifier.scan", 1e6)[0], "ms"]
    for check in (
        "theorem2_shift_test",
        "sigma_identity_scan",
        "derived_determinant_check",
        "factfun_check",
        "constant_case_check",
    ):
        m[f"verifier.{check}_ms"] = [_per_call(s, f"verifier.{check}", 1e6)[0], "ms"]
    m["identities.run_checks_ms"] = [_per_call(s, "identities.run_checks", 1e6)[0], "ms"]
    value, calls = _per_call(s, "jetpoly.evaluate", 1e3)
    m["jetpoly.evaluate_us"] = [value, "us"]
    m["jetpoly.evaluate.calls"] = [calls, "count"]
    for fn in ("classify_samples", "estimate_jets", "roundtrip_residual"):
        m[f"classify.{fn}_ms"] = [_per_call(s, f"classify.{fn}", 1e6)[0], "ms"]
    m["trace.overhead_pct"] = [100.0 * (traced_ms / untraced_ms - 1.0), "%"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round0", type=int, default=0, help="index of the first round")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--spans", help="trace, and write the span file here")
    args = ap.parse_args(argv)

    setup, run = WORKLOADS[args.workload]
    round_size = inputs.ROUND_SIZE[args.workload]
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    state = setup()
    print("READY", flush=True)
    if tracer is not None:
        tracer.uninstall()

    ops = range(args.round0 * round_size, (args.round0 + args.rounds) * round_size)
    run_ops(run, state, args.seed, ops[:round_size])  # warm-up, discarded
    if tracer is None:
        times, payloads, errors = run_ops(run, state, args.seed, ops)
        print(json.dumps({"op_ms": times, "payloads": payloads, "errors": errors}))
        return 0

    # each operation runs untraced and traced back to back, alternating which
    # goes first, so that drift in machine speed cancels out of the overhead
    times, payloads, errors = [], [], []
    t_times, t_payloads = [], []
    for op in ops:
        for traced in (False, True) if op % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            t, p, e = run_ops(run, state, args.seed, range(op, op + 1), tracer if traced else None, f"{args.workload}.op")
            if traced:
                tracer.uninstall()
            (t_times if traced else times).extend(t)
            (t_payloads if traced else payloads).extend(p)
            errors.extend(e)
    # one round of every other workload, so that every layer has spans
    tracer.install()
    extra = {}
    for name, (o_setup, o_run) in WORKLOADS.items():
        if name != args.workload:
            o_ops = range(inputs.ROUND_SIZE[name])
            _, o_payloads, o_errors = run_ops(o_run, o_setup(), args.seed, o_ops, tracer, f"{name}.op")
            extra[name] = {"payloads": o_payloads, "errors": o_errors}
    tracer.uninstall()
    ok = [i for i, (a, b) in enumerate(zip(times, t_times)) if a is not None and b is not None]
    untraced = sum(times[i] for i in ok)
    traced = sum(t_times[i] for i in ok)
    tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
    result = {
        "op_ms": times,
        "payloads": payloads,
        "errors": errors,
        "traced_payloads": t_payloads,
        "extra": extra,
        "layers": layer_metrics(tracer, untraced, traced),
        "spans": len(tracer.start),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
