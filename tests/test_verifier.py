"""Determinant residuals, sampling determinism, and the closed-form cross-checks."""

import cmath
import math

import numpy as np
import pytest

from wpfeq import elliptic as el
from wpfeq import verifier as vr
from wpfeq.errors import DegenerateProbe, FloatOverflow, PoleProximity, SamplerExhausted


class TestFamilies:
    def test_linear_jets(self):
        j = vr.Linear(2.0, 1.0).jets(3.0, 3)
        assert j.values == (7.0, 2.0, 0.0, 0.0)

    def test_exponential_jets(self):
        j = vr.Exponential(1.0, 0.0, 1.0).jets(0.0, 3)
        assert j.values == pytest.approx((1.0, 1.0, 1.0, 1.0))

    def test_degenerate_wp_jets(self, degenerate_ctx):
        j = vr.WeierstrassShifted(degenerate_ctx, 0j).jets(0.5, 3)
        assert j.values == pytest.approx((4.0, -16.0, 96.0, -768.0))

    def test_invalid_families_rejected(self):
        with pytest.raises(ValueError):
            vr.Exponential(delta=0.0)
        with pytest.raises(ValueError):
            vr.Linear(alpha=0.0)

    def test_shifted_jets_hit_poles(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0.5)
        with pytest.raises(PoleProximity):
            fam.jets(-0.5, 2)

    def test_exponential_overflow_is_typed(self):
        with pytest.raises(FloatOverflow):
            vr.Exponential(delta=800).jets(1.0, 1)
        with pytest.raises(FloatOverflow):
            vr.Exponential().antiderivative(800)


class TestDet3:
    def test_repeated_columns_vanish(self):
        j = vr.Exponential().jets(0.37, 1)
        k = vr.Exponential().jets(-0.9, 1)
        assert vr.det3(j, j, k) == 0

    def test_antisymmetry_under_swap(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        ja = fam.jets(0.31 + 0.4j, 1)
        jb = fam.jets(0.9 + 1.1j, 1)
        jc = fam.jets(1.3 + 0.7j, 1)
        assert vr.det3(ja, jb, jc) == -vr.det3(jb, ja, jc)
        assert vr.det3(ja, jb, jc) == -vr.det3(ja, jc, jb)

    def test_exponential_unconstrained(self):
        fam = vr.Exponential()
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y, z = (complex(*rng.uniform(-1, 1, 2)) for _ in range(3))
            jf, jg, jh = (fam.jets(t, 1) for t in (x, y, z))
            assert abs(vr.det3(jf, jg, jh)) <= 1e-12 * vr.det3_scale(jf, jg, jh)

    def test_linear_unconstrained_exact(self):
        fam = vr.Linear(2.0, 1.0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y, z = (complex(*rng.uniform(-1, 1, 2)) for _ in range(3))
            jf, jg, jh = (fam.jets(t, 1) for t in (x, y, z))
            assert abs(vr.det3(jf, jg, jh)) <= 1e-12 * vr.det3_scale(jf, jg, jh)


class TestResidualAndScan:
    def test_wp_triple_solves(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        assert vr.residual(fam, fam, fam, 0.31 + 0.35j, 0.83 + 1.12j) <= 1e-8

    def test_lattice_third_shift_solves(self, square_ctx):
        d = square_ctx.periods.omega1 / 3.0
        fam = vr.WeierstrassShifted(square_ctx, d)
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=2, count=400), tol=1e-8)
        assert rep.passed

    def test_non_lattice_shift_fails(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0.2)
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=3, count=400), tol=1e-8)
        assert not rep.passed
        assert rep.max_residual > 1e-3

    def test_scan_determinism(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        a = vr.scan(fam, fam, fam, vr.TripleSampler(seed=9, count=100), tol=1e-8)
        b = vr.scan(fam, fam, fam, vr.TripleSampler(seed=9, count=100), tol=1e-8)
        assert a == b

    def test_exponential_scan(self):
        fam = vr.Exponential()
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=0, count=1000, unconstrained=True), 1e-10)
        assert rep.passed
        assert rep.samples == 1000
        assert rep.max_residual >= rep.mean_residual >= 0.0

    def test_report_invariants(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=5, count=50), tol=1e-8)
        assert rep.max_residual >= rep.mean_residual >= 0.0
        assert rep.worst_triple is not None
        x, y, z = rep.worst_triple
        assert abs(x + y + z) <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_residual_fails_and_is_named(self, bad):
        triples = [(0.1j, 0.2j, 0.3j), (0.4j, 0.5j, 0.6j), (0.7j, 0.8j, 0.9j)]
        rep = vr._aggregate([1e-15, bad, 1e-14], triples, tol=1e-8)
        assert not rep.passed
        assert rep.worst_triple == triples[1]
        assert not math.isfinite(rep.max_residual)


class TestSampling:
    def test_stream_is_keyed_by_seed_index_attempt(self):
        # without poles every first attempt is accepted: sample i comes from
        # the generator seeded with (seed, i, 0), drawing x then y in the box
        fam = vr.Exponential()
        got = list(vr.TripleSampler(seed=4, count=3).triples((fam, fam, fam)))
        want = []
        for index in range(3):
            rng = np.random.default_rng((4, index, 0))
            x, y = (complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2))
            want.append((x, y, -(x + y)))
        assert got == want

    def test_pole_radius_beyond_the_cell_starves(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        with pytest.raises(SamplerExhausted):
            vr.scan(fam, fam, fam, vr.TripleSampler(pole_radius=10.0), tol=1e-8)

    def test_skip_counts_add_up(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.factfun_check(fam, vr.TripleSampler(seed=10, count=80))
        skipped = {k: v for k, v in rep.details.items() if k.startswith("skipped_")}
        assert rep.details["skipped_guard"] > 0
        assert rep.details["skipped"] == sum(skipped.values())
        assert rep.samples + rep.details["skipped"] == 80

    def test_clean_scan_reports_zero_skipped(self):
        fam = vr.Exponential()
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=0, count=50), tol=1e-8)
        assert rep.details == {"skipped": 0}


class TestInvarianceClosure:
    def test_transformed_triples_still_solve(self, square_ctx):
        base = vr.WeierstrassShifted(square_ctx, 0j)
        rng = np.random.default_rng(21)
        for alpha, beta, delta in [(2.0, 0.3, 1.0), (0.5 - 1.1j, 2.0j, 1.0), (3.0, 0.0, 1.0)]:
            for _ in range(20):
                s, t = rng.uniform(0.1, 0.9, 2)
                x = complex(s * 2 + t * 2j)
                s, t = rng.uniform(0.1, 0.9, 2)
                y = complex(s * 2 + t * 2j)
                z = -(x + y)
                if el.lattice_distance(square_ctx, z) < 0.1:
                    continue
                jets = [base.jets(delta * p, 1) for p in (x, y, z)]
                tj = [vr.transform_jets(j, alpha, beta, delta) for j in jets]
                assert vr.residual_from_jets(*tj) <= 1e-8

    def test_delta_rescaling_through_homogeneity(self, square_ctx):
        # delta != 1 folds into the invariants: pe(2z; g2, g3) scales onto
        # pe(z; 16 g2, 64 g3) / 4, so the rescaled context must also solve
        g2, g3 = square_ctx.invariants.g2, square_ctx.invariants.g3
        scaled = el.from_invariants(16.0 * g2, 64.0 * g3)
        fam = vr.WeierstrassShifted(scaled, 0j)
        box = 0.4 * scaled.lambda_min
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=6, count=100, box=box), tol=1e-8)
        assert rep.passed


class TestSigmaQuotient:
    def test_repeated_argument_vanishes(self, square_ctx):
        a, b = 0.5 + 0.3j, 1.1 + 0.9j
        assert vr.sigma_quotient(square_ctx, a, a, b) == 0

    def test_lattice_sum_vanishes(self, square_ctx):
        a, b = 0.5 + 0.3j, 1.1 + 0.9j
        c = (2.0 + 2.0j) - a - b  # a+b+c = omega1 + omega2
        value = vr.sigma_quotient(square_ctx, a, b, c)
        ja, jb, jc = (el.jets(square_ctx, t, 1) for t in (a, b, c))
        assert abs(value) <= 1e-8 * vr.det3_scale(ja, jb, jc)

    def test_antisymmetry_exact(self, square_ctx):
        a, b, c = 0.5 + 0.3j, 1.1 + 0.9j, 0.4 + 1.3j
        assert vr.sigma_quotient(square_ctx, a, b, c) == -vr.sigma_quotient(square_ctx, b, a, c)

    def test_matches_det3(self, square_ctx):
        rep = vr.sigma_identity_scan(square_ctx, count=200, seed=0, tol=1e-8)
        assert rep.passed

    def test_tall_lattice_scan_passes_or_raises(self):
        # on a tall lattice sigma cancels badly off the real axis; the scan
        # must drop those draws or give up, never fail a true identity
        ctx = el.from_periods(1.0, 8j)
        try:
            rep = vr.sigma_identity_scan(ctx, count=50, seed=1)
        except SamplerExhausted:
            return
        assert rep.passed

    def test_det_and_quotient_agree_at_zero_shift(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.shifted_det_vs_sigma_scan(square_ctx, 0j, vr.TripleSampler(seed=1, count=100))
        # both sides are ~0 here; the relative gap is meaningless, so this
        # exercises the scan plumbing while the meat lives in the shifted case
        assert rep.samples > 0

    def test_shifted_residual_floor_agrees(self, square_ctx):
        rep = vr.shifted_det_vs_sigma_scan(
            square_ctx, 0.37 * 2.0 / 3.0, vr.TripleSampler(seed=8, count=200), tol=1e-6
        )
        assert rep.passed


    def test_shifted_scan_drops_draws_outside_sigma_radius(self, square_ctx):
        # shifted points beyond r_sigma raise SeriesNoConverge and are dropped
        rep = vr.shifted_det_vs_sigma_scan(
            square_ctx, 0.9 + 0.9j, vr.TripleSampler(seed=0, count=200)
        )
        assert rep.samples < 200
        assert rep.details["skipped_SeriesNoConverge"] > 0
        assert rep.samples + rep.details["skipped"] == 200
        assert rep.passed


class TestTheorem2:
    def test_zero_shifts_pass(self, square_ctx):
        rep = vr.theorem2_shift_test(
            square_ctx, 0j, 0j, 0j, vr.TripleSampler(seed=0, count=200)
        )
        assert rep.details["expected"] == "pass"
        assert rep.passed

    def test_nonzero_lattice_sum_passes(self, square_ctx):
        w1, w2 = square_ctx.periods.omega1, square_ctx.periods.omega2
        g1, g2_, g3_ = 0.2 * w1, 0.3 * w2, (w1 + w2) - 0.2 * w1 - 0.3 * w2
        rep = vr.theorem2_shift_test(square_ctx, g1, g2_, g3_, vr.TripleSampler(seed=1, count=200))
        assert rep.details["expected"] == "pass"
        assert rep.passed
        assert rep.details["gamma3_equivalent"] == -(g1 + g2_)

    def test_non_lattice_sum_fails(self, square_ctx):
        w1, w2 = square_ctx.periods.omega1, square_ctx.periods.omega2
        rep = vr.theorem2_shift_test(square_ctx, 0.2 * w1, 0.3 * w2, 0j, vr.TripleSampler(seed=2, count=200))
        assert rep.details["expected"] == "fail"
        assert not rep.passed

    def test_borderline_shift_is_indeterminate(self, square_ctx):
        w1 = square_ctx.periods.omega1
        eps = square_ctx.tol.lattice
        assert vr.theorem_shift_expectation(square_ctx, 3.0 * eps * w1) == "indeterminate"
        assert vr.theorem_shift_expectation(square_ctx, 0.1 * eps * w1) == "pass"


class TestDerivedDeterminants:
    def test_wp_triple_columns_123(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.derived_determinant_check(fam, fam, fam, 1, 2, 3, vr.TripleSampler(seed=0, count=150))
        assert rep.passed and rep.tol == 1e-7

    def test_wp_triple_differentiated_12(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.derived_determinant_check(fam, fam, fam, 1, 2, None, vr.TripleSampler(seed=1, count=150))
        assert rep.passed

    def test_exponential_triple(self):
        fam = vr.Exponential()
        rep = vr.derived_determinant_check(
            fam, fam, fam, 1, 2, None, vr.TripleSampler(seed=2, count=150), tol=1e-10
        )
        assert rep.passed


class TestFactfun:
    def test_exponential_control(self):
        fam = vr.Exponential()
        rep = vr.factfun_check(fam, vr.TripleSampler(seed=9, count=150), h_step=2e-2, tol=1e-9)
        assert rep.passed

    def test_wp_zero_shift(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.factfun_check(fam, vr.TripleSampler(seed=10, count=80), h_step=1e-2, tol=1e-6)
        assert rep.passed

    def test_wp_bad_shift_floor(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0.2)
        rep = vr.factfun_check(fam, vr.TripleSampler(seed=11, count=80), h_step=1e-2, tol=1e-6)
        assert not rep.passed
        assert rep.max_residual > 1e-3


class TestConstantCase:
    def test_matched_exponentials(self):
        fam = vr.Exponential()
        rep = vr.constant_case_check(fam, fam, vr.TripleSampler(seed=0, count=200, unconstrained=True))
        assert rep.passed

    def test_zero_function_anything(self):
        rep = vr.constant_case_check(
            vr.Constant(0j),
            vr.Exponential(delta=2.0),
            vr.TripleSampler(seed=1, count=100, unconstrained=True),
        )
        assert rep.max_residual == 0.0

    def test_mismatched_rates_fail(self):
        rep = vr.constant_case_check(
            vr.Exponential(),
            vr.Exponential(delta=2.0),
            vr.TripleSampler(seed=2, count=100, unconstrained=True),
        )
        assert not rep.passed
        assert rep.max_residual > 1e-3


class TestCFunctions:
    PROBES = [0.9 + 0.2j, 0.3 + 1.1j, 1.3 + 0.8j, 0.7 + 1.5j, 1.1 + 1.2j, 0.5 + 0.9j, 1.5 + 0.4j, 0.8 + 0.6j]

    def test_exponential_ratio_is_delta(self, square_ctx):
        rep = vr.c_function_check(
            square_ctx, 0.4 + 0.3j, self.PROBES, exp_family=vr.Exponential(delta=3.0)
        )
        assert rep.details["exponential_ratio_deviation"] <= 1e-12

    def test_degenerate_context_closed_form(self, degenerate_ctx):
        # pe = 1/x^2 at x=1: the closed form evaluates to -8
        probes = [0.7, 1.4 + 0.5j, 2.0 - 0.3j, 0.5 + 0.8j]
        rep = vr.c_function_check(degenerate_ctx, 1.0, probes)
        assert rep.details["closed_form"] == pytest.approx(-8.0)
        assert rep.details["bracket_vs_closed_form"] <= 1e-9

    def test_generic_context_constancy(self, square_ctx):
        rep = vr.c_function_check(square_ctx, 0.4 + 0.3j, self.PROBES)
        assert rep.details["bracket_spread"] <= 1e-6
        assert rep.passed

    def test_degenerate_probe_rejected(self, square_ctx):
        x = 0.4 + 0.3j
        with pytest.raises(DegenerateProbe):
            vr.c_function_check(square_ctx, x, [-x])
