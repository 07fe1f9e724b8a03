"""wpfeq benchmark: one command for every workload, metric and output check.

    python3 perfbench/run.py --workload verify-battery --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The program is imported from src/ of that
checkout; nothing is installed. With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics from a traced run, and the span file is written
under perfbench/out/. Every output is checked against the mpmath oracle in
oracle.py or against exact expectations; `correct` is false if any check
fails. See README.md for the workloads, the metrics and the steadiness rules.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402

# Measured seconds per round on a 2-core box (README). A run is a fixed
# count of rounds, --seconds / NOMINAL_ROUND_S rounded, never a time budget.
NOMINAL_ROUND_S = {"verify-battery": 0.8, "lattice-sweep": 0.6}
MIN_OPS = 40
WORK_PROCESSES = 3  # fresh workload processes per run; setup_s is their median set-up
TAIL_BEYOND = 10  # op_tail_ms: the slowest op with this many ops beyond it
WORKER_TIMEOUT_S = 150
ORACLE_TOL = 1e-9  # program values against the oracle, relative
FIT_TOL = 5e-3  # classify_samples invariants from finite differences

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

PER_LAYER = (
    ("elliptic.first_context_s", "s"),
    ("elliptic.from_periods_ms", "ms"),
    ("elliptic.from_periods.calls", "count"),
    ("elliptic.from_invariants_ms", "ms"),
    ("elliptic.from_invariants.calls", "count"),
    ("elliptic.jets_us", "us"),
    ("elliptic.jets.calls", "count"),
    ("elliptic.lattice_distance_us", "us"),
    ("elliptic.lattice_distance.calls", "count"),
    ("elliptic.zeta_us", "us"),
    ("elliptic.zeta.calls", "count"),
    ("elliptic.sigma_us", "us"),
    ("elliptic.sigma.calls", "count"),
    ("elliptic.wp_us", "us"),
    ("elliptic.wp.calls", "count"),
    ("verifier.triples_us", "us"),
    ("verifier.residual_us", "us"),
    ("verifier.residual.calls", "count"),
    ("verifier.scan_ms", "ms"),
    ("verifier.theorem2_shift_test_ms", "ms"),
    ("verifier.sigma_identity_scan_ms", "ms"),
    ("verifier.derived_determinant_check_ms", "ms"),
    ("verifier.factfun_check_ms", "ms"),
    ("verifier.constant_case_check_ms", "ms"),
    ("verifier.kept_per_requested", "ratio"),
    ("identities.run_checks_ms", "ms"),
    ("jetpoly.evaluate_us", "us"),
    ("jetpoly.evaluate.calls", "count"),
    ("classify.classify_samples_ms", "ms"),
    ("classify.estimate_jets_ms", "ms"),
    ("classify.roundtrip_residual_ms", "ms"),
    ("cli.import_s", "s"),
    ("cli.symbolic.cold_s", "s"),
    ("cli.verify.cold_s", "s"),
    ("cli.fit.cold_s", "s"),
    ("cli.scan.cold_s", "s"),
    ("cli.gen.cold_s", "s"),
    ("cli.eval.cold_s", "s"),
    ("trace.overhead_pct", "%"),
)


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _reap(proc: subprocess.Popen) -> float:
    """Wait for the process; returns its peak resident memory in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def spawn_worker(args: list[str]) -> tuple[float, dict, float]:
    """Run worker.py; returns (fresh process to READY in s, result, peak RSS MB)."""
    cmd = [sys.executable, "-u", os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        proc.stdout.close()
        rss = _reap(proc)
    finally:
        timer.cancel()
    if proc.returncode != 0 or ready is None or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return ready, json.loads(lines[-1]), rss


def timed_cli(argv: list[str], cwd: str) -> tuple[float, int, str]:
    """Fresh `python -m wpfeq.cli ...` (or -c) process: wall s, exit code, stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout


# -- output checks -------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.count = 0
        self._lattices: dict = {}

    def expect(self, ok: bool, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(what)

    def lattice(self, w1: complex, w2: complex) -> oracle.Lattice:
        key = (w1, w2)
        if key not in self._lattices:
            self._lattices[key] = oracle.Lattice(w1, w2)
        return self._lattices[key]


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


def check_verify(chk: Checks, seed: int, op: int, out: dict) -> None:
    spec = inputs.verify_op(seed, op)
    w1, w2 = spec["omega"]
    tag = f"verify op {op} ({spec['context']})"
    chk.expect([_cx(p) for p in out["periods"]] == [w1, w2], f"{tag}: periods")
    chk.expect(len(out["certifications"]) == 6 and all(out["certifications"]), f"{tag}: certifications")
    lat = chk.lattice(w1, w2)
    shift_frac = spec["shift_frac"]
    scan = out["scan"]
    chk.expect(scan["passed"] == oracle.on_lattice([shift_frac] * 3), f"{tag}: theorem-1 verdict")
    shift = float(shift_frac[0]) * w1 + float(shift_frac[1]) * w2
    worst = [_cx(p) for p in scan["worst"]]
    chk.expect(oracle.det3_residual(lat, worst, shift) <= inputs.TOL, f"{tag}: oracle residual at worst triple")
    for key in ("theorem2_pass", "theorem2_fail"):
        expected = oracle.on_lattice(spec["gammas_" + key.split("_")[1]])
        chk.expect(out[key]["passed"] == expected, f"{tag}: {key} verdict")
        chk.expect(out[key]["expected"] == ("pass" if expected else "fail"), f"{tag}: {key} expectation")
    for key in ("sigma_identity", "derived", "factfun"):
        chk.expect(out[key]["passed"], f"{tag}: {key}")
    # f g' - f' g vanishes iff the exponential rates agree: 1 = 1, then 1 != 2
    chk.expect(out["constant_exp"]["passed"], f"{tag}: constant case, equal rates")
    chk.expect(not out["constant_mismatch"]["passed"], f"{tag}: constant case, mismatched rates")
    for key, report in _reports(out).items():
        chk.expect(1 <= report["samples"] <= report["requested"], f"{tag}: {key} sample count")


def check_sweep(chk: Checks, seed: int, op: int, out: dict) -> None:
    spec = inputs.sweep_op(seed, op)
    w1, w2 = spec["omega"]
    tag = f"sweep op {op} ({spec['kind']})"
    chk.expect([_cx(p) for p in out["periods"]] == [w1, w2], f"{tag}: periods")
    lat = chk.lattice(w1, w2)
    chk.expect(oracle.invariants_close(lat, _cx(out["g2"]), _cx(out["g3"]), ORACLE_TOL), f"{tag}: g2, g3")
    s2 = float(lat.scale()) ** 2
    for i, re, im in out["wp"]:
        ref = lat.wp_dp(spec["segment"][i])[0]
        chk.expect(oracle.rel_close(complex(re, im), ref, s2, ORACLE_TOL), f"{tag}: wp at point {i}")
    chk.expect(out["family"] == "weierstrass", f"{tag}: classified as {out['family']}")
    chk.expect(
        oracle.invariants_close(lat, _cx(out["fit_g2"]), _cx(out["fit_g3"]), FIT_TOL),
        f"{tag}: fitted invariants",
    )
    chk.expect(out["scan"]["passed"], f"{tag}: theorem-1 scan")
    chk.expect(1 <= out["scan"]["samples"] <= out["scan"]["requested"], f"{tag}: scan sample count")


CHECKERS = {"verify-battery": check_verify, "lattice-sweep": check_sweep}


def _reports(out: dict) -> dict:
    """The ResidualReport summaries of one operation's output, by check."""
    return {k: v for k, v in out.items() if isinstance(v, dict) and "requested" in v}


def kept_per_requested(payloads) -> float:
    reports = [r for out in payloads if out is not None for r in _reports(out).values()]
    return sum(r["samples"] for r in reports) / sum(r["requested"] for r in reports)


def triples_of(out: dict) -> int:
    return sum(r["samples"] for r in _reports(out).values())


# -- cold command-line probes (traced run) ------------------------------------------------


def cli_probes(chk: Checks, seed: int) -> dict:
    """One fresh process per verb; wall seconds, with every output checked."""
    tmp = os.path.join(OUT, f"cli-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    cli = ["-m", "wpfeq.cli"]
    m = {}
    try:
        m["cli.import_s"], code, _ = timed_cli(["-c", "import wpfeq.cli"], tmp)
        chk.expect(code == 0, "cli import")
        m["cli.symbolic.cold_s"], code, text = timed_cli([*cli, "symbolic"], tmp)
        chk.expect(code == 0 and text.count("PASS") == 6, "cli symbolic: six certifications")
        m["cli.verify.cold_s"], code, _ = timed_cli(
            [*cli, "verify", "theorem1", "--periods", "2,0,0,2", "--shift-frac", "1/3,0",
             "--n", "200", "--seed", str(seed)], tmp)
        chk.expect(code == 0, "cli verify theorem1 passes")
        m["cli.gen.cold_s"], code, _ = timed_cli(
            [*cli, "gen", "--family", "wp", "--g2", "4,0", "--g3", "0,0",
             "--grid", "0.6:1.6:0.01", "--out", "wp.csv"], tmp)
        rows = []
        if code == 0:
            with open(os.path.join(tmp, "wp.csv"), encoding="utf-8") as fh:
                rows = fh.read().splitlines()
        chk.expect(len(rows) == 102, "cli gen: 101 samples")
        m["cli.fit.cold_s"], code, _ = timed_cli(
            [*cli, "fit", "--input", "wp.csv", "--expect", "weierstrass", "--out", "fit.json"], tmp)
        chk.expect(code == 0, "cli fit: classified weierstrass")
        m["cli.scan.cold_s"], code, _ = timed_cli(
            [*cli, "scan", "--periods", "2,0,0,2", "--grid", "8", "--seed", str(seed),
             "--out", "res.csv"], tmp)
        chk.expect(code == 0, "cli scan passes")
        # cold eval: function and point follow the seed, checked against theta functions
        fn = ("wp", "wp-prime", "zeta", "sigma")[seed % 4]
        name, w1, w2 = inputs.VERIFY_CONTEXTS[(0, 2)[(seed // 4) % 2]]
        rng = inputs.seeded_rng(seed, 0, 3)
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)) * w1
        periods = f"{w1.real!r},{w1.imag!r},{w2.real!r},{w2.imag!r}"
        m["cli.eval.cold_s"], code, text = timed_cli(
            [*cli, "eval", "--fn", fn, "--periods", periods, "--z", f"{z.real!r},{z.imag!r}"], tmp)
        ok = code == 0
        if ok:
            re, im = (float(v) for v in text.split())
            lat = chk.lattice(w1, w2)
            p, dp = lat.wp_dp(z)
            ref = {"wp": p, "wp-prime": dp, "zeta": lat.zeta(z), "sigma": lat.sigma(z)}[fn]
            ok = oracle.rel_close(complex(re, im), ref, 0.0, ORACLE_TOL)
        chk.expect(ok, f"cli eval --fn {fn} on the {name} lattice")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return m


# -- the run ----------------------------------------------------------------------------


def tail_ms(times: list[float]) -> float:
    """The slowest operation with TAIL_BEYOND operations slower than it."""
    ordered = sorted(times)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wpfeq", "__init__.py")):
        print(f"run.py: no wpfeq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # byte-compile first, so that every set-up sample starts from the same state
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)

    chk = Checks()
    for problem in oracle.self_test():
        chk.expect(False, f"oracle self-test: {problem}")

    # at least MIN_OPS operations, so that op_tail_ms is a real tail
    round_size = inputs.ROUND_SIZE[args.workload]
    rounds = max(-(-MIN_OPS // round_size), round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz")
        result = spawn_worker([*base, "--rounds", str(rounds), "--spans", spans])[1]
        times, payloads, errors = result["op_ms"], result["payloads"], result["errors"]
        errors += [e for extra in result["extra"].values() for e in extra["errors"]]
    else:
        # the rounds are split over WORK_PROCESSES fresh processes, run one
        # after another; the set-up time of each is one setup_s sample
        setups, times, payloads, errors, rss = [], [], [], [], 0.0
        for j in range(WORK_PROCESSES):
            r0, r1 = rounds * j // WORK_PROCESSES, rounds * (j + 1) // WORK_PROCESSES
            setup, part, part_rss = spawn_worker([*base, "--round0", str(r0), "--rounds", str(r1 - r0)])
            setups.append(setup)
            times += part["op_ms"]
            payloads += part["payloads"]
            errors += part["errors"]
            rss = max(rss, part_rss)
    attempted = len(times)
    failed = sum(t is None for t in times)
    for err in errors:
        print("operation failed:", err, file=sys.stderr)
    check = CHECKERS[args.workload]
    for op, out in enumerate(payloads):
        if out is not None:
            check(chk, args.seed, op, out)

    if args.trace:
        chk.expect(result["traced_payloads"] == payloads, "traced outputs equal untraced outputs")
        for name, extra in result["extra"].items():
            for op, out in enumerate(extra["payloads"]):
                if out is not None:
                    CHECKERS[name](chk, args.seed, op, out)
            attempted += len(extra["payloads"])
            failed += sum(out is None for out in extra["payloads"])
        layers = dict(result["layers"])
        layers["verifier.kept_per_requested"] = [kept_per_requested(payloads), "ratio"]
        probes = cli_probes(chk, args.seed)
        attempted += len(probes)
        layers.update({k: [v, "s"] for k, v in probes.items()})
        metrics = {name: {"value": layers[name][0], "unit": unit} for name, unit in PER_LAYER}
        print(f"spans: {result['spans']} written to {os.path.relpath(spans, ROOT)}")
    else:
        done = [t for t in times if t is not None]
        busy_s = sum(done) / 1e3
        triples = sum(triples_of(out) for out in payloads if out is not None)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(done), "unit": "ms"},
            "op_tail_ms": {"value": tail_ms(done), "unit": "ms"},
            "ops_per_s": {"value": len(done) / busy_s, "unit": "1/s"},
            "triples_per_s": {"value": triples / busy_s, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        pct = 100.0 * (len(done) - TAIL_BEYOND) / len(done)
        print(f"{len(done)} operations in {rounds} rounds; op_tail_ms is the p{pct:.1f} operation")

    for failure in chk.failures[:20]:
        print("CHECK FAILED:", failure, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"checks: {chk.count - len(chk.failures)}/{chk.count} passed")
    line = {"correct": not chk.failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
