"""The wrong verdicts that ROADMAP.md lists as open, each as a strict expected failure.

Each test asserts the right verdict: an exit code, a failed check, an exact
expectation, a family, a finite max, or the source lattice. Each is marked
xfail with strict=True, so a change that mends a defect by accident turns
tier-1 red: that change drops the marker, and the test becomes its
regression test. A marker is only ever removed, never added to another test.
"""

import cmath
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from wpfeq import classify as cls, cli, elliptic as el
from wpfeq.errors import FloatOverflow


def _defect(item: int, what: str, raises=AssertionError):
    return pytest.mark.xfail(strict=True, raises=raises, reason=f"ROADMAP item {item}; {what}")


def _verify(tmp_path, *argv):
    """(exit code, the one check of the JSON report) of `wpfeq verify argv`."""
    out = tmp_path / "report.json"
    code = cli.main(["verify", *argv, "--out", str(out)])
    return code, json.loads(out.read_text())["checks"][0]


def _fails_as_expected(code, check):
    assert code == 0 and check["expected"] == "fail" and not check["observed_pass"]


def _finite_within_tol_or_refused(code, report):
    """Exit 0 with a finite max within tol, or exit 65; the report writes a non-finite max as null."""
    if code != 65:
        check = json.loads(report.read_text())["checks"][0]
        assert code == 0 and check["max_residual"] is not None and check["max_residual"] <= check["tol"]


def _write_samples(path, xs, ws):
    """A sample CSV of the points and values, at 17 significant digits."""
    rows = [f"{x.real!r},{x.imag!r},{w.real!r},{w.imag!r}" for x, w in zip(map(complex, xs), map(complex, ws))]
    path.write_text("\n".join(["x_re,x_im,w_re,w_im", *rows]) + "\n")
    return str(path)


def _wpfeq(*argv):
    """`wpfeq argv` in a fresh process with warnings raised as errors: what C code writes to file descriptors 1 and 2 is captured too."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-W", "error", "-m", "wpfeq.cli", *argv]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


# -- item 16: draws deep in a tall cell cannot see a non-solution ------------------


@_defect(16, "theorem1 with shift 0.3 on (1, 60i) reads 3.761e-15")
def test_theorem1_shift_on_a_tall_lattice_fails(tmp_path):
    _fails_as_expected(*_verify(tmp_path, "theorem1", "--periods", "1,0,0,60", "--shift-frac", "0.3,0", "--n", "400"))


@_defect(16, "theorem1 with shift 0.3 on (1, 100i) reads 1.014e-16")
def test_theorem1_shift_on_a_taller_lattice_fails(tmp_path):
    _fails_as_expected(*_verify(tmp_path, "theorem1", "--periods", "1,0,0,100", "--shift-frac", "0.3,0", "--n", "400"))


@_defect(16, "theorem2 off the lattice by 0.1 on (1, 200i) reads 5.978e-10")
def test_theorem2_off_the_lattice_on_a_tall_lattice_fails(tmp_path):
    argv = ["theorem2", "--periods", "1,0,0,200", "--gammas", "0.1,0.2,0.3,0.1,-0.3,-0.3", "--n", "400"]
    _fails_as_expected(*_verify(tmp_path, *argv))


@_defect(16, "scan of the shift 0.3 on (1, 60i) passes at 2.665e-12")
def test_scan_of_a_shift_on_a_tall_lattice_fails(tmp_path):
    summary = tmp_path / "scan.json"
    argv = ["scan", "--family", "wp", "--periods", "1,0,0,60", "--shift-frac", "0.3,0", "--grid", "16"]
    cli.main([*argv, "--out", str(tmp_path / "scan.csv"), "--summary", str(summary)])
    assert json.loads(summary.read_text())["pass"] is False


# -- item 17: the shift expectation is decided in floats ---------------------------


@_defect(17, "an exact offset of 5e-10 is expected to pass, and passes at 4.613e-09")
def test_an_offset_below_the_lattice_tolerance_is_not_a_solution(tmp_path):
    argv = ["theorem2", "--periods", "1,0,0,1", "--gammas", "0.1,0.2,0.3,0.1,-0.3999999995,-0.3", "--n", "400"]
    code, check = _verify(tmp_path, *argv)
    assert check["expected"] == "fail"
    assert not (code == 0 and check["observed_pass"])


@_defect(17, "an exact offset of 3e-9 is expected indeterminate, and fails at 2.768e-08")
def test_an_offset_inside_the_indeterminate_band_is_expected_to_fail(tmp_path):
    argv = ["theorem2", "--periods", "1,0,0,1", "--gammas", "0.1,0.2,0.3,0.1,-0.399999997,-0.3", "--n", "400"]
    _fails_as_expected(*_verify(tmp_path, *argv))


# -- item 3: verdicts the numerics cannot decide -----------------------------------


@_defect(3, "underflow on (1e63, 1e63 i) passes the shift 0.49 at 9.061e-11")
def test_theorem1_shift_on_a_huge_lattice_fails(tmp_path):
    argv = ["theorem1", "--periods", "1e63,0,0,1e63", "--shift-frac", "0.49,0", "--n", "50"]
    _fails_as_expected(*_verify(tmp_path, *argv))


@_defect(3, "the sigma identity on (1e90, 1e90 i) reads max 0 from underflowed terms")
def test_sigma_identity_on_a_huge_lattice_measures_a_residual(tmp_path):
    code, check = _verify(tmp_path, "sigma", "--periods", "1e90,0,0,1e90")
    assert code == 0 and 0 < check["max_residual"] <= check["tol"]


@_defect(3, "factfun's clamp at one passes a non-solution on (1000, 1000i) at 3.662e-11")
def test_factfun_non_solution_on_a_large_lattice_fails(tmp_path):
    argv = ["factfun", "--family", "wp", "--periods", "1000,0,0,1000", "--shift-frac", "0.2,0.1", "--n", "40"]
    _fails_as_expected(*_verify(tmp_path, *argv, "--expect", "fail"))


@_defect(3, "factfun fails the solution on (1, 8i) at 1.913e-06")
def test_factfun_solution_on_a_tall_lattice_passes(tmp_path):
    code, check = _verify(tmp_path, "factfun", "--family", "wp", "--periods", "1,0,0,8", "--n", "40")
    assert code == 0 and check["observed_pass"]


@_defect(3, "the invariants of (1, 6i) build the lattice (1, 5.99877i)")
def test_invariants_of_a_tall_lattice_rebuild_it():
    ctx = el.from_periods(1.0, 6.0j)
    back = el.from_invariants(ctx.invariants.g2, ctx.invariants.g3)
    assert len(back.reduced) == 2
    for a, b in ((ctx, back), (back, ctx)):
        assert max(el.lattice_offset(a, w) for w in b.reduced) <= el.LATTICE_TOL


@_defect(3, "scan of the exponential with delta 400 reads max residual nan and exits 1")
def test_scan_of_a_steep_exponential_reads_a_finite_max(tmp_path):
    summary = tmp_path / "scan.json"
    argv = ["scan", "--family", "exp", "--delta", "400,0", "--grid", "4"]
    code = cli.main([*argv, "--out", str(tmp_path / "s.csv"), "--summary", str(summary)])
    _finite_within_tol_or_refused(code, summary)


# -- item 4: checks and constructions that leave the float range ---------------------


@_defect(4, "the derived check reads nan on (1e-20, 1e-20 i)")
def test_derived_check_on_a_small_lattice_reads_a_finite_max(tmp_path):
    code, check = _verify(tmp_path, "derived", "--family", "wp", "--periods", "1e-20,0,0,1e-20", "--n", "100")
    # the report writes a non-finite max as null
    assert check["max_residual"] is not None and code == 0


@_defect(4, "the derived check of the exponential with delta 700 reads nan and exits 1")
def test_derived_check_of_a_steep_exponential_reads_a_finite_max(tmp_path):
    report = tmp_path / "report.json"
    code = cli.main(["verify", "derived", "--family", "exp", "--delta", "700,0", "--n", "20", "--out", str(report)])
    _finite_within_tol_or_refused(code, report)


@_defect(4, "the basis of the invariants (1e300, 1e300) raises FloatOverflow", raises=FloatOverflow)
def test_the_basis_of_huge_invariants_rebuilds_its_context():
    ctx = el.from_invariants(1e300, 1e300)
    back = el.from_periods(*ctx.reduced)
    assert len(back.reduced) == 2


@_defect(4, "verify sigma on (1e300, 1e300) exits 65: a sigma quotient exceeds the float range")
def test_sigma_identity_on_huge_invariants_runs(tmp_path):
    code = cli.main(["verify", "sigma", "--g2", "1e300,0", "--g3", "1e300,0", "--n", "50"])
    assert code == 0


# -- item 13: classify holds every fit to fixed thresholds ---------------------------


@_defect(13, "fit of pe samples on a step of 0.02 gives not_a_solution")
def test_fit_on_a_coarse_stencil_finds_weierstrass(tmp_path):
    csv = str(tmp_path / "wp.csv")
    assert cli.main(["gen", "--family", "wp", "--periods", "2,0,0,2", "--grid", "0.3:0.9:0.02", "--out", csv]) == 0
    assert cli.main(["fit", "--input", csv, "--expect", "weierstrass"]) == 0


# on x = 0.5 + 0.2i + 0.005k, k < 30: a window short enough that the cubic fits a non-solution within TAU_CUB
_SHORT_WINDOW = tuple(0.5 + 0.2j + 0.005 * k for k in range(30))


@_defect(13, "exact tanh samples on a short window classify as weierstrass, at a cubic misfit of 7.5e-7")
def test_tanh_on_a_short_window_is_not_a_solution():
    samples = cls.SampleSet(_SHORT_WINDOW, tuple(cmath.tanh(x) for x in _SHORT_WINDOW))
    assert cls.classify_samples(samples).family == "not_a_solution"


@_defect(13, "exact e^x + e^2x samples on a short window classify as weierstrass, at a cubic misfit of 1.3e-7")
def test_a_sum_of_two_exponentials_on_a_short_window_is_not_a_solution():
    samples = cls.SampleSet(_SHORT_WINDOW, tuple(cmath.exp(x) + cmath.exp(2.0 * x) for x in _SHORT_WINDOW))
    assert cls.classify_samples(samples).family == "not_a_solution"


# mended: the fits run in w - mean(w) (item 26); kept as its regression test
def test_affine_samples_far_from_the_origin_are_linear():
    xs = tuple(1000.0 + 0.01 * k for k in range(15))
    assert cls.classify_samples(cls.SampleSet(xs, tuple(3.0 * x + 1.0 for x in xs))).family == "linear"


# mended: the orthogonal solve no longer squares the fit's condition; kept as its regression test
def test_affine_samples_of_a_small_slope_are_linear():
    xs = tuple(0.2 + 0.05 * k for k in range(15))
    assert cls.classify_samples(cls.SampleSet(xs, tuple(1e-3 * x + 1.0 for x in xs))).family == "linear"


# -- item 14: the round trip confirms any family it is given ------------------------
#
# Mended: classify names each family by a fit's leading coefficient alone, so a
# good cubic fit without p3 is not a solution. The test stays as its regression test.


def test_trigonometric_samples_are_not_a_solution(tmp_path, capsys):
    grids = [[0.3 + 0.01 * k for k in range(30)], [0.5 + 0.2j + 0.005 * k for k in range(30)],
             [1.1 + 0.02 * k for k in range(30)]]
    for fn in (cmath.sin, cmath.cos, cmath.cosh, cmath.sinh, lambda x: cmath.cosh(x) + 2.0):
        for xs in grids:
            samples = cls.SampleSet(tuple(xs), tuple(fn(x) for x in xs))
            assert cls.classify_samples(samples).family == "not_a_solution"
    csv = _write_samples(tmp_path / "sin.csv", grids[0], map(cmath.sin, grids[0]))
    assert cli.main(["fit", "--input", csv]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["family"] == "not_a_solution"


# -- item 25: gen writes values that are not finite --------------------------------
#
# Mended: gen evaluates its grid through the family's array body and refuses a
# value that is not finite. Each test stays as its regression test.


def _gen_refuses(tmp_path, capsys, *argv):
    """gen exits 65 without writing its file or reporting an internal error."""
    out = tmp_path / "samples.csv"
    code = cli.main(["gen", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 65 and not out.exists() and "internal error" not in err


def test_gen_of_an_exponential_with_an_infinite_phase_exits_65(tmp_path, capsys):
    _gen_refuses(tmp_path, capsys, "--family", "exp", "--delta", "0,1e300", "--grid", "1e10:2e10:1e10")


def test_gen_of_an_exponential_beyond_the_float_range_exits_65(tmp_path, capsys):
    _gen_refuses(tmp_path, capsys, "--family", "exp", "--delta", "1e300,0", "--grid", "1e10:2e10:1e10")


def test_gen_of_a_line_beyond_the_float_range_exits_65(tmp_path, capsys):
    _gen_refuses(tmp_path, capsys, "--family", "linear", "--alpha", "1e308,0", "--grid", "0.5:2.5:1")


def test_gen_of_an_exponential_at_the_float_top_exits_65(tmp_path, capsys):
    _gen_refuses(tmp_path, capsys, "--family", "exp", "--alpha", "1e308,0", "--grid", "0.5:0.6:0.02")


# -- item 25: fit exits 65 on a readable sample file -----------------------------------


@_defect(25, "fit of cosh rounded to 10 digits exits 65: the AGM lattice misses the invariants by 6.9e-12 of the scale")
def test_fit_of_rounded_cosh_samples_exits_as_documented(tmp_path, capsys):
    xs = [0.3 + 0.02 * k for k in range(25)]
    csv = _write_samples(tmp_path / "cosh.csv", xs, (float(f"{math.cosh(x):.10g}") for x in xs))
    code = cli.main(["fit", "--input", csv])
    assert code in (0, 1)
    json.loads(capsys.readouterr().out)


# -- item 25: a frame whose draws fix no point of the cell ----------------------------
#
# On the periods (-1 + 2i, 1e308 + i) the context evaluates (`eval --fn wp --z 0.3,0.1`
# exits 0), but the draws of every sampler lie far past 2^52 cells, and x + y overflows.
# Mended: every sampler checks its frame before it draws. Each test stays as its
# regression test.


def _refuses_the_frame(tmp_path, *argv):
    """`wpfeq argv` on the periods (-1 + 2i, 1e308 + i) exits 65 naming the frame, and writes no file."""
    out = tmp_path / "out"
    done = _wpfeq(*argv, "--periods", "-1,2,1e308,1", "--out", str(out))
    assert done.returncode == 65 and "fixes no point of the cell" in done.stderr, done.stderr
    assert not out.exists()


def test_theorem1_on_a_frame_past_the_float_top_exits_65(tmp_path):
    _refuses_the_frame(tmp_path, "verify", "theorem1", "--n", "5")


def test_derived_on_a_frame_past_the_float_top_exits_65(tmp_path):
    _refuses_the_frame(tmp_path, "verify", "derived", "--n", "5")


def test_factfun_on_a_frame_past_the_float_top_exits_65(tmp_path):
    _refuses_the_frame(tmp_path, "verify", "factfun", "--n", "5")


def test_theorem2_on_a_frame_past_the_float_top_exits_65(tmp_path):
    _refuses_the_frame(tmp_path, "verify", "theorem2", "--gammas", "0,0,0,0,0,0")


def test_sigma_identity_on_a_frame_past_the_float_top_exits_65(tmp_path):
    _refuses_the_frame(tmp_path, "verify", "sigma")


def test_scan_on_a_frame_past_the_float_top_exits_65(tmp_path):
    _refuses_the_frame(tmp_path, "scan", "--grid", "2")


# -- item 26: classify decides the same for alpha f + beta ---------------------------
#
# Mended: classify takes 2^E from the largest part of w, and fits in w - mean(w).
# Each test stays as its regression test.


def test_wp_with_a_large_offset_is_weierstrass():
    ctx = el.from_periods(1.0, 1.0j)
    xs = tuple(0.3 + 0.1j + 0.005 * k for k in range(40))
    ws = tuple(el.wp(ctx, x) + 1e3 for x in xs)
    assert cls.classify_samples(cls.SampleSet(xs, ws)).family == "weierstrass"


def test_a_constant_at_the_float_top_fits_as_constant_and_prints_one_json_document(tmp_path):
    csv = str(tmp_path / "k.csv")
    made = _wpfeq("gen", "--family", "constant", "--c", "1e308,1.7e308", "--grid", "0.6:1.6:0.1", "--out", csv)
    assert made.returncode == 0, made.stderr
    done = _wpfeq("fit", "--input", csv)
    report = json.loads(done.stdout)
    assert report["checks"][0]["family"] == "constant" and done.returncode == 0
    assert done.stderr.splitlines() == [done.stderr.strip()] and done.stderr.startswith("family: constant")
