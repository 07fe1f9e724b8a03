"""The wrong verdicts that ROADMAP.md lists as open, each as a strict expected failure.

Each test asserts the right verdict: an exit code, a failed check, an exact
expectation, a family, a finite max, or the source lattice. Each is marked
xfail with strict=True, so a change that mends a defect by accident turns
tier-1 red: that change drops the marker, and the test becomes its
regression test. A marker is only ever removed, never added to another test.
"""

import json

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


# -- item 4: checks and constructions that leave the float range ---------------------


@_defect(4, "the derived check reads nan on (1e-20, 1e-20 i)")
def test_derived_check_on_a_small_lattice_reads_a_finite_max(tmp_path):
    code, check = _verify(tmp_path, "derived", "--family", "wp", "--periods", "1e-20,0,0,1e-20", "--n", "100")
    # the report writes a non-finite max as null
    assert check["max_residual"] is not None and code == 0


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


@_defect(13, "3x + 1 far from the origin classifies as exponential")
def test_affine_samples_far_from_the_origin_are_linear():
    xs = tuple(1000.0 + 0.01 * k for k in range(15))
    assert cls.classify_samples(cls.SampleSet(xs, tuple(3.0 * x + 1.0 for x in xs))).family == "linear"


# mended: the orthogonal solve no longer squares the fit's condition; kept as its regression test
def test_affine_samples_of_a_small_slope_are_linear():
    xs = tuple(0.2 + 0.05 * k for k in range(15))
    assert cls.classify_samples(cls.SampleSet(xs, tuple(1e-3 * x + 1.0 for x in xs))).family == "linear"
