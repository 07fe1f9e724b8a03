"""Jet estimation, ODE fitting, the decision tree, and the normal-form map."""

import cmath
import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from wpfeq import classify as cl
from wpfeq import elliptic as el
from wpfeq import verifier as vr
from wpfeq.errors import (
    DegenerateCubic,
    DegenerateInput,
    GridNotUniform,
    IllConditionedFit,
    TooFewPoints,
)

from oracles import reexpand_normal_form


def _samples(fn, lo, hi, h):
    n = int(round((hi - lo) / h)) + 1
    xs = tuple(lo + i * h for i in range(n))
    return cl.SampleSet(xs, tuple(complex(fn(x)) for x in xs))


def _exact_jets(ctx, xs):
    """Arrays w and w' of wp at the points xs."""
    jets = [el.jets(ctx, x, 1) for x in xs.tolist()]
    return np.array([j[0] for j in jets], dtype=complex), np.array([j[1] for j in jets], dtype=complex)


class TestSampleSet:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, -math.inf)], ids=["nan", "inf", "inf-im"])
    @pytest.mark.parametrize("where, given", [("x", False), ("w", False), ("x", True), ("w", True), ("dw", True)])
    def test_non_finite_value_is_degenerate_input(self, where, given, bad):
        # twelve samples of x^2: classify_samples would take them but for the one bad value
        xs = [0.5 + 0.01 * i for i in range(12)]
        cols = {"x": xs, "w": [x * x for x in xs], "dw": [2.0 * x for x in xs]}
        cols[where][5] = complex(bad)
        dws = tuple(cols["dw"]) if given else None
        with pytest.raises(DegenerateInput, match="non-finite"):
            cl.SampleSet(tuple(cols["x"]), tuple(cols["w"]), dws)


class TestEstimateJets:
    def test_linear_exact(self):
        s = _samples(lambda x: x, 0.0, 2.0, 0.1)
        _, _, dw = cl.estimate_jets(s, 2)
        for d in dw:
            assert d == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_exact_at_order_2(self):
        s = _samples(lambda x: x * x, 0.0, 2.0, 0.1)
        for x, w, dw in zip(*cl.estimate_jets(s, 2)):
            assert dw == pytest.approx(2.0 * x.real, abs=1e-12)

    def test_exponential_order4_error_bound(self):
        s = _samples(math.exp, 0.0, 2.0, 1e-2)
        x, _, dw = cl.estimate_jets(s, 4)
        worst = np.abs(dw - np.exp(x)).max()
        assert worst <= 1e-8

    def test_boundary_points_dropped(self):
        s = _samples(lambda x: x, 0.0, 1.0, 0.1)
        assert all(len(a) == len(s.xs) - 4 for a in cl.estimate_jets(s, 4))

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("step", [0.01, 0.01 + 0.003j])
    def test_matches_the_pointwise_stencil(self, generic_ctx, order, step):
        # the same arithmetic as a loop over points in Python complex numbers, bit for bit
        xs = tuple(0.3 + 0.2j + step * i for i in range(21))
        ws = tuple(el.wp(generic_ctx, x) for x in xs)
        h, half = xs[1] - xs[0], order // 2
        if order == 2:
            want = [(ws[i + 1] - ws[i - 1]) / (2.0 * h) for i in range(1, 20)]
        else:
            want = [(-ws[i + 2] + 8.0 * ws[i + 1] - 8.0 * ws[i - 1] + ws[i - 2]) / (12.0 * h) for i in range(2, 19)]
        x, w, dw = cl.estimate_jets(cl.SampleSet(xs, ws), order)
        assert x.tolist() == list(xs[half:-half]) and w.tolist() == list(ws[half:-half])
        assert dw.tolist() == want

    @pytest.mark.parametrize("scale", [1e306, 1e307])
    def test_silent_at_every_amplitude(self, scale):
        # the order-4 stencil's sums reach 18 max|w|: the pe samples times 1e307
        # passed the float range in 8 w (warnings are errors here)
        _, dw1 = _scaled_wp_pairs(1.0)
        _, dw = _scaled_wp_pairs(scale)
        assert np.abs(dw - scale * dw1).max() <= 1e-12 * np.abs(scale * dw1).max()

    @pytest.mark.parametrize("scale", [1.5e307, 4e307])
    def test_w_prime_beyond_the_float_range_is_inf(self, scale):
        # max|w| is 4.1 and |w'| 9 to 14 on these samples: inf in the component that
        # passes the float range, no nan, and no warning
        _, dw = _scaled_wp_pairs(scale)
        assert np.isinf(dw.real).any() and not np.isnan(dw).any()

    @pytest.mark.parametrize("power", [0, 1000, 1018, 1019, 1020])
    def test_powers_of_two_scale_w_prime_exactly(self, power):
        # bit for bit: the stencil divides w by a power of two only where its sums
        # could leave the float range, and multiplies w' back
        w1, dw1 = _scaled_wp_pairs(1.0)
        w, dw = _scaled_wp_pairs(2.0**power)
        assert w.tolist() == (w1 * 2.0**power).tolist() and dw.tolist() == (dw1 * 2.0**power).tolist()

    def test_non_uniform_grid_rejected(self):
        s = cl.SampleSet((0.0, 0.1, 0.25, 0.3, 0.4), (0.0,) * 5)
        with pytest.raises(GridNotUniform):
            cl.estimate_jets(s, 2)

    @pytest.mark.parametrize("x0", [0.5, 1e5])
    def test_grid_far_from_the_origin_is_uniform(self, x0):
        # the grid `wpfeq gen` writes: each x0 + i h rounds by up to ulp(x0)/2,
        # 7e-12 at x0 = 1e5, above 1e-9 h there; one x moved by 1e-6 h is not uniform
        h = 0.01
        xs = [x0 + i * h for i in range(20)]
        ws = tuple(math.exp(0.001 * x) for x in xs)
        x, _, _ = cl.estimate_jets(cl.SampleSet(tuple(xs), ws))
        assert x.tolist() == xs[2:-2]
        xs[7] += 1e-6 * h
        with pytest.raises(GridNotUniform):
            cl.estimate_jets(cl.SampleSet(tuple(xs), ws))

    def test_exponential_far_from_the_origin_classifies(self):
        # `wpfeq gen --family exp --delta 0.001,0 --grid 100000:100000.2:0.01`; w moves
        # by 2e-4 of itself over the grid, so the linear fit's condition is about 2e9
        xs = tuple(1e5 + i * 0.01 for i in range(21))
        dec = cl.classify_samples(cl.SampleSet(xs, tuple(cmath.exp(0.001 * x) for x in xs)))
        assert dec.family == "exponential" and dec.params["delta"] == pytest.approx(0.001, rel=1e-5)

    def test_too_few_points(self):
        s = cl.SampleSet((0.0, 0.1, 0.2), (0.0, 0.1, 0.2))
        with pytest.raises(TooFewPoints):
            cl.estimate_jets(s, 4)

    def test_provided_derivatives_pass_through(self):
        s = cl.SampleSet((0.0, 1.0), (1.0, 2.0), (5.0, 6.0))
        assert [a.tolist() for a in cl.estimate_jets(s)] == [[0.0, 1.0], [1.0, 2.0], [5.0, 6.0]]


def _scaled_wp_pairs(scale):
    """(w, w') from the pe samples of `wpfeq gen --family wp --periods 2,0,0,2 --grid 0.5:0.61:0.01`, times scale."""
    ctx = el.from_periods(2.0, 2.0j)
    xs = tuple(0.5 + 0.01 * k for k in range(12))
    return cl.estimate_jets(cl.SampleSet(xs, tuple(scale * el.wp(ctx, x) for x in xs)))[1:]


class TestFits:
    def test_exponential_cubic(self):
        s = _samples(math.exp, 0.0, 2.0, 0.05)
        fit = cl.fit_cubic(*cl.estimate_jets(s, 4)[1:])
        p0, p1, p2, p3 = fit.coefficients
        assert fit.residual <= 1e-10
        assert abs(p2 - 1.0) <= 1e-6
        assert max(abs(p0), abs(p1), abs(p3)) <= 1e-6

    def test_linear_function_cubic(self):
        s = _samples(lambda x: x, 0.0, 2.0, 0.05)
        fit = cl.fit_cubic(*cl.estimate_jets(s, 2)[1:])
        assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-9)
        assert max(abs(c) for c in fit.coefficients[1:]) <= 1e-9

    def test_wp_exact_jets(self, normal_form_ctx):
        fit = cl.fit_cubic(*_exact_jets(normal_form_ctx, 0.4 + 0.025 * np.arange(40)))
        p0, p1, p2, p3 = fit.coefficients
        assert abs(p3 - 4.0) <= 1e-8
        assert abs(p1 + 4.0) <= 1e-8
        assert max(abs(p0), abs(p2)) <= 1e-8

    def test_linear_fit_examples(self):
        s = _samples(lambda x: math.exp(3.0 * x), 0.0, 1.0, 0.01)
        l0, l1 = cl.fit_linear(*cl.estimate_jets(s, 4)[1:]).coefficients
        assert abs(l0) <= 1e-6 and abs(l1 - 3.0) <= 1e-6

        s = _samples(lambda x: x, 0.0, 1.0, 0.02)
        l0, l1 = cl.fit_linear(*cl.estimate_jets(s, 2)[1:]).coefficients
        assert abs(l0 - 1.0) <= 1e-10 and abs(l1) <= 1e-10

        s = _samples(lambda x: 2.0 * math.exp(x) + 5.0, 0.0, 1.0, 0.02)
        l0, l1 = cl.fit_linear(*cl.estimate_jets(s, 4)[1:]).coefficients
        assert abs(l0 + 5.0) <= 1e-5 and abs(l1 - 1.0) <= 1e-6

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            cl.fit_cubic(np.ones(10, complex), np.zeros(10, complex))

    def test_too_few_pairs(self):
        # distinct w: the cubic fit refuses one constant w before counting
        with pytest.raises(TooFewPoints, match="at least 5"):
            cl.fit_cubic(np.arange(4.0) + 0j, np.ones(4, complex))
        with pytest.raises(TooFewPoints, match="at least 3"):
            cl.fit_linear(np.ones(2, complex), np.ones(2, complex))

    def test_equilibration_on_wild_scales(self, normal_form_ctx):
        # samples near the pole spread the column scales over many decades
        fit = cl.fit_cubic(*_exact_jets(normal_form_ctx, 0.03 + 0.004 * np.arange(60)))
        assert fit.condition > 0
        p3 = fit.coefficients[3]
        assert abs(p3 - 4.0) <= 1e-6 * 4.0

    def test_condition_does_not_depend_on_the_unit_of_w(self):
        # alpha * wp satisfies the same kind of ODE whatever alpha: with the
        # columns scaled to unit norm, both fits report one condition number
        ctx = el.from_periods(2, 2j)
        xs = tuple(0.3 + 0.01 * k + 0.2j for k in range(41))
        conditions = []
        for alpha in (1e-3, 1.0, 1e3):
            samples = cl.SampleSet(xs, tuple(alpha * el.wp(ctx, x) for x in xs))
            dec = cl.classify_samples(samples)
            assert dec.family == "weierstrass"
            conditions.append({fit.model: fit.condition for fit in dec.evidence})
        for model in ("cubic", "linear"):
            ref = conditions[0][model]
            for other in conditions[1:]:
                assert other[model] == pytest.approx(ref, rel=1e-6)


    def test_exact_jets_recover_the_invariants_of_the_sweep_shapes(self):
        # the 160 shapes of the benchmark's lattice-sweep at seed 4242, with exact w':
        # the fit's error, in units of the lattice scale s (g2 ~ s^4, g3 ~ s^6), is round-off
        spec = importlib.util.spec_from_file_location("inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        for op in range(160):
            shape = inputs.sweep_op(4242, op)
            ctx = el.from_periods(*shape["omega"])
            xs = shape["segment"]
            w, dw = _exact_jets(ctx, np.array(xs))
            dec = cl.classify_samples(cl.SampleSet(xs, tuple(w.tolist()), tuple(dw.tolist())))
            g2, g3 = ctx.invariants.g2, ctx.invariants.g3
            s = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0))
            assert abs(dec.params["g2"] - g2) <= 1e-12 * s**4, shape["kind"]
            assert abs(dec.params["g3"] - g3) <= 1e-12 * s**6, shape["kind"]

    def test_condition_is_the_scaled_normal_matrix_eigenvalue_ratio(self):
        # the oracle forms the normal matrix of the unit-norm columns and takes its
        # eigenvalues; the fit's (smax/smin)^2 agrees to the oracle's own round-off, eps cond
        rng = np.random.default_rng(59)
        top = 0.0
        for _ in range(200):
            m = int(rng.integers(5, 42))
            w = 1.0 + 10.0 ** rng.uniform(-2.3, 0.5) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            dw = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            for fit, A in ((cl.fit_cubic, np.column_stack([np.ones_like(w), w, w**2, w**3])),
                           (cl.fit_linear, np.column_stack([np.ones_like(w), w]))):
                unit = A / np.linalg.norm(A, axis=0)
                eigenvalues = np.linalg.eigvalsh(unit.conj().T @ unit)
                oracle = eigenvalues[-1] / eigenvalues[0]
                bound = 8.0 * 2.0**-52 * oracle
                try:
                    condition = fit(w, dw).condition
                except IllConditionedFit:
                    assert oracle * (1.0 + bound) > cl.COND_REJECT
                    continue
                assert abs(condition / oracle - 1.0) <= bound
                top = max(top, condition)
        assert top >= 1e13

    @pytest.mark.parametrize("scale", [1e100, 1e150, 1e160, 1e200, 1e250, 1e300, 1e-200, 1e-300])
    @pytest.mark.parametrize("fit", [cl.fit_cubic, cl.fit_linear])
    def test_powers_beyond_the_float_range_are_refused_not_warned(self, scale, fit):
        # w^3 or w'^2 leaves the float range: a fit either holds finite
        # numbers or raises IllConditionedFit, without a numpy warning
        try:
            result = fit(*_scaled_wp_pairs(scale))
        except IllConditionedFit:
            return
        assert np.isfinite(result.coefficients).all()
        assert math.isfinite(result.residual) and math.isfinite(result.condition)

    @pytest.mark.parametrize("scale", [1e100, 1e150, 1e200])
    def test_cubic_fit_past_the_float_range_is_ill_conditioned(self, scale):
        with pytest.raises(IllConditionedFit):
            cl.fit_cubic(*_scaled_wp_pairs(scale))

    @pytest.mark.parametrize("fit", [cl.fit_cubic, cl.fit_linear])
    def test_non_finite_left_hand_side_is_ill_conditioned(self, fit):
        w, dw = _scaled_wp_pairs(1.0)
        fit(w, dw)
        dw[3] = complex(math.inf, 0.0)
        with pytest.raises(IllConditionedFit):
            fit(w, dw)


class TestNormalForm:
    def test_example(self):
        g2, g3, a, b = cl.to_normal_form(0.0, -4.0, 0.0, 4.0)
        assert (g2, g3, a, b) == (pytest.approx(4.0), pytest.approx(0.0), pytest.approx(1.0), pytest.approx(0.0))

    def test_quadratic_free_cubic(self):
        g2, g3, a, b = cl.to_normal_form(1.0, 2.0, 0.0, 4.0)
        assert b == 0.0 and a == 1.0

    def test_roundtrip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = [complex(*rng.normal(size=2)) for _ in range(4)]
            if abs(p[3]) < 0.1:
                p[3] += 1.0
            g2, g3, a, b = cl.to_normal_form(*p)
            back = reexpand_normal_form(g2, g3, a, b)
            for got, want in zip(back, p):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_degenerate_cubic_rejected(self):
        with pytest.raises(DegenerateCubic):
            cl.to_normal_form(1.0, 2.0, 3.0, 0.0)


class TestClassify:
    def test_exponential(self):
        s = _samples(math.exp, 0.0, 2.0, 0.05)
        dec = cl.classify_samples(s)
        assert dec.family == "exponential"
        assert abs(dec.params["delta"] - 1.0) <= 1e-6
        assert dec.roundtrip_residual <= 1e-10

    def test_linear(self):
        s = _samples(lambda x: 2.0 * x + 1.0, 0.0, 2.0, 0.05)
        dec = cl.classify_samples(s)
        assert dec.family == "linear"

    @pytest.mark.parametrize(
        "decision",
        [cl.Classification("constant", {"c": 1.0}), cl.Classification("not_a_solution")],
        ids=["constant", "not_a_solution"],
    )
    def test_roundtrip_of_a_family_without_a_scan_is_zero(self, decision):
        assert cl.roundtrip_residual(decision) == 0.0

    def test_weierstrass_exact_jets(self, normal_form_ctx):
        xs, ws, dws = [], [], []
        for i in range(40):
            x = 0.4 + 0.025 * i
            j = el.jets(normal_form_ctx, x, 1)
            xs.append(x)
            ws.append(j[0])
            dws.append(j[1])
        dec = cl.classify_samples(cl.SampleSet(tuple(xs), tuple(ws), tuple(dws)))
        assert dec.family == "weierstrass"
        assert abs(dec.params["g2"] - 4.0) <= 1e-6
        assert abs(dec.params["g3"]) <= 1e-6
        assert dec.roundtrip_residual <= 1e-7

    def test_a_cubic_design_without_full_rank_leaves_the_decision_to_the_linear_fit(self):
        # w = +-1 in turn: u = w, so u^3 = u and u^2 = 1, and the cubic fit is refused
        ws = tuple(float((-1) ** k) for k in range(8))
        dec = cl.classify_samples(cl.SampleSet(tuple(0.1 * k for k in range(8)), ws, tuple(2.0 * w + 3.0 for w in ws)))
        assert [fit.model for fit in dec.evidence] == ["linear"]
        assert dec.family == "exponential" and dec.params["delta"] == pytest.approx(2.0, rel=1e-12)

    def test_sine_is_not_a_solution(self):
        # w'^2 = 1 - w^2: a good cubic fit without p3, which names no family
        dec = cl.classify_samples(_samples(math.sin, -2.0, 2.0, 0.1))
        assert dec.family == "not_a_solution" and dec.params == {} and dec.roundtrip_residual is None
        assert dec.evidence[0].model == "cubic" and dec.evidence[0].residual <= cl.TAU_CUB

    @pytest.mark.parametrize("scale", [0.3, 0.2])
    def test_small_lattice_round_trip(self, scale):
        # the round trip's from_invariants table must stay finite at large g2
        w1, w2 = scale, scale * (0.3 + 1.1j)
        ctx = el.from_periods(w1, w2)
        xs = tuple(w1 * (0.2 + 0.005 * i) + 0.1 * w2 for i in range(41))
        dec = cl.classify_samples(cl.SampleSet(xs, tuple(el.wp(ctx, x) for x in xs)), seed=3)
        assert dec.family == "weierstrass"
        assert dec.roundtrip_residual <= 1e-10

    @pytest.mark.parametrize("exact", [False, True], ids=["fd", "exact"])
    @pytest.mark.parametrize("scale", [0.05, 0.01, 1e-3])
    def test_tiny_lattice_is_weierstrass(self, scale, exact):
        # p0 ~ -g3 grows like scale^-6 while p3 stays 4: significance must
        # weigh each term over the samples, not the raw coefficients
        w1, w2 = scale, scale * (0.3 + 1.1j)
        ctx = el.from_periods(w1, w2)
        xs = tuple(w1 * (0.2 + 0.005 * i) + 0.1 * w2 for i in range(41))
        dws = tuple(el.wp_prime(ctx, x) for x in xs) if exact else None
        dec = cl.classify_samples(cl.SampleSet(xs, tuple(el.wp(ctx, x) for x in xs), dws), seed=3)
        assert dec.family == "weierstrass"
        g2, g3 = ctx.invariants.g2, ctx.invariants.g3
        assert abs(dec.params["g2"] - g2) <= 1e-3 * abs(g2)
        assert abs(dec.params["g3"] - g3) <= 1e-3 * abs(g3)
        assert dec.roundtrip_residual <= 1e-10

    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, cmath.exp(1j * math.pi / 3.0)])
    @pytest.mark.parametrize("scale", [1e2, 1e3])
    def test_large_lattice_is_weierstrass(self, scale, tau):
        # w'^2 is about scale^-6: a misfit against a scale clamped at one lets the linear fit pass
        w1, w2 = scale, scale * tau
        ctx = el.from_periods(w1, w2)
        xs = tuple(w1 * (0.2 + 0.005 * i) + 0.1 * w2 for i in range(41))
        dec = cl.classify_samples(cl.SampleSet(xs, tuple(el.wp(ctx, x) for x in xs)), seed=3)
        assert dec.family == "weierstrass"

    @pytest.mark.parametrize("alpha", [1.0, 1e-3, 1e-6])
    def test_cube_is_no_solution_at_any_amplitude(self, alpha):
        # w'^2 = 9 alpha^(2/3) w^(4/3) is no cubic and no linear ODE, whatever alpha
        s = _samples(lambda x: alpha * x**3, 0.0, 2.0, 0.05)
        assert cl.classify_samples(s).family == "not_a_solution"

    @pytest.mark.parametrize("amplitude", [1e30, 1e-30, 1e100, 1e-100, 1e200, 1e-200, 1e300, 1e-300])
    @pytest.mark.parametrize("given", [False, True], ids=["stencil", "given-derivatives"])
    def test_verdict_does_not_depend_on_the_unit_of_w(self, amplitude, given):
        # alpha pe solves the same kind of ODE with the same invariants, and
        # w = a W + b maps back with a and b scaled by alpha. The samples
        # alpha w are rounded, which the fit amplifies to about 1e-8 here, so
        # the exact check is against the same samples in another unit: times
        # the power of two 2^-E that brings them to [0.5, 1), exactly
        ctx = el.from_periods(2.0, 2.0j)
        xs = tuple(0.5 + 0.01 * i for i in range(12))
        ws = [el.wp(ctx, x) for x in xs]
        dws = [el.wp_prime(ctx, x) for x in xs] if given else None
        unit = cl.classify_samples(cl.SampleSet(xs, tuple(ws), tuple(dws) if given else None))

        def at(scale):
            return cl.classify_samples(
                cl.SampleSet(xs, tuple(scale * w for w in ws), tuple(scale * d for d in dws) if given else None)
            )

        dec = at(amplitude)
        power = 2.0 ** -math.frexp(max(abs(amplitude * w) for w in ws))[1]
        ref = cl.classify_samples(
            cl.SampleSet(
                xs,
                tuple(amplitude * w * power for w in ws),
                tuple(amplitude * d * power for d in dws) if given else None,
            )
        )
        assert unit.family == dec.family == ref.family == "weierstrass"
        for key, weight in (("g2", 1.0), ("g3", 1.5)):
            assert abs(dec.params[key] - ref.params[key]) <= 1e-12 * abs(ref.params[key])
            # g3 of the square lattice is 0: its fit error is measured in units of g2^(3/2)
            assert abs(dec.params[key] - unit.params[key]) <= 1e-6 * abs(unit.params["g2"]) ** weight
        # b of the square lattice is 0: its fit error is measured in units of |a|
        for key in ("a", "b"):
            assert abs(dec.params[key] * power - ref.params[key]) <= 1e-12 * abs(ref.params["a"])

    def test_linear_alpha_is_in_the_unit_of_w(self):
        xs = tuple(0.1 * i for i in range(12))
        for amplitude in (1.0, 2.0**-700, 2.0**700):
            dec = cl.classify_samples(cl.SampleSet(xs, tuple(amplitude * (3.0 * x + 1.0) for x in xs)))
            assert dec.family == "linear" and dec.params["alpha"] == pytest.approx(3.0 * amplitude, rel=1e-12)

    @pytest.mark.parametrize("x0", [1000.0, 1e5])
    def test_linear_alpha_far_from_the_origin(self, x0):
        # the centred fit's l0 is the mean slope; l0 - l1 mean would carry l1's noise out to w = 0
        xs = tuple(x0 + 0.01 * k for k in range(15))
        dec = cl.classify_samples(cl.SampleSet(xs, tuple(3.0 * x + 1.0 for x in xs)))
        assert dec.family == "linear" and dec.params["alpha"] == pytest.approx(3.0, rel=1e-8)

    def test_absolute_value_rejected(self):
        s = _samples(abs, -1.0, 1.0, 0.05)
        assert cl.classify_samples(s).family == "not_a_solution"

    @pytest.mark.parametrize("n", [8, 12])
    def test_constant_detected_before_fitting(self, n):
        # eight samples leave four pairs after the order-4 stencil: too few to fit, but constant
        s = cl.SampleSet(tuple(float(i) for i in range(n)), (3.7 + 0j,) * n)
        dec = cl.classify_samples(s)
        assert dec.family == "constant"
        assert dec.params["c"] == pytest.approx(3.7)

    @pytest.mark.parametrize("stencil, given, need", [(4, False, 9), (2, False, 7), (4, True, 5)],
                             ids=["order-4", "order-2", "given-derivatives"])
    def test_sample_count_rule(self, normal_form_ctx, stencil, given, need):
        # the fits take five (w, w') pairs, and the stencil drops stencil_order samples
        def samples(n):
            xs = tuple(0.6 + 0.01 * i for i in range(n))
            ws = tuple(el.wp(normal_form_ctx, x) for x in xs)
            dws = tuple(el.wp_prime(normal_form_ctx, x) for x in xs) if given else None
            return cl.SampleSet(xs, ws, dws)

        with pytest.raises(TooFewPoints, match=f"at least {need} samples"):
            cl.classify_samples(samples(need - 1), stencil_order=stencil)
        assert cl.classify_samples(samples(need), stencil_order=stencil).family == "weierstrass"

    def test_exact_jets_beat_fd_jets(self, normal_form_ctx):
        xs = tuple(0.6 + 0.01 * i for i in range(101))
        ws = tuple(el.wp(normal_form_ctx, x) for x in xs)
        dws = tuple(el.wp_prime(normal_form_ctx, x) for x in xs)
        fd = cl.classify_samples(cl.SampleSet(xs, ws))
        exact = cl.classify_samples(cl.SampleSet(xs, ws, dws))
        fd_res = [f.residual for f in fd.evidence if f.model == "cubic"][0]
        exact_res = [f.residual for f in exact.evidence if f.model == "cubic"][0]
        assert exact_res <= fd_res
        assert exact_res <= 1e-10

    def test_invariance_equivariance(self, normal_form_ctx):
        # alpha f(delta x) + beta classifies to the same family tag as f
        alpha, beta, delta = 2.0 - 1.0j, 0.7j, 0.5
        xs, ws, dws = [], [], []
        for i in range(40):
            x = 0.8 + 0.05 * i
            j = el.jets(normal_form_ctx, delta * x, 1)
            xs.append(x)
            ws.append(alpha * j[0] + beta)
            dws.append(alpha * delta * j[1])
        dec = cl.classify_samples(cl.SampleSet(tuple(xs), tuple(ws), tuple(dws)))
        assert dec.family == "weierstrass"

        s = _samples(lambda x: 3.0 * math.exp(0.7 * x) - 2.0, 0.0, 2.0, 0.05)
        assert cl.classify_samples(s).family == "exponential"

    @pytest.mark.parametrize("family", ["weierstrass", "exponential", "linear", "constant"])
    def test_verdict_holds_for_alpha_w_plus_beta(self, family):
        # alpha w + beta solves the same ODE family: the verdict stays, as do g2, g3 and delta, while
        # a -> alpha a, b -> alpha b + beta, a linear slope -> alpha slope and c -> alpha c + beta.
        # beta = alpha r: the samples carry eps (1 + |r|) |alpha| of round-off, which the order-4
        # stencil and the fits amplify by up to about 3e4 on these grids; g3 of the square lattice
        # is 0, so its error is measured in units of g2^(3/2)
        ctx = el.from_periods(1.0, 1.0j)
        xs, fn = {
            "weierstrass": ([0.3 + 0.1j + 0.005 * k for k in range(40)], lambda x: el.wp(ctx, x)),
            "exponential": ([0.2 + 0.05 * k for k in range(20)], lambda x: cmath.exp((0.7 + 0.3j) * x)),
            "linear": ([0.2 + 0.05 * k for k in range(20)], lambda x: (1.5 - 0.5j) * x + 0.3),
            "constant": ([0.2 + 0.05 * k for k in range(20)], lambda x: 0.7 + 0.1j),
        }[family]
        ws = [complex(fn(x)) for x in xs]
        base = cl.classify_samples(cl.SampleSet(tuple(xs), tuple(ws)))
        assert base.family == family
        p = base.params
        for alpha in (1e-300 * (1 - 2j), 2.5 - 1.5j, -1e-5j, 1e150 * (0.6 + 0.8j), 1e300 * (-0.3 + 1j)):
            for r in (0, 1e-3j, -1e2 + 3e2j, 1e4, -1e4j):
                beta, tol = alpha * r, 1e5 * 2.0**-52 * (1 + abs(r))
                dec = cl.classify_samples(cl.SampleSet(tuple(xs), tuple(alpha * w + beta for w in ws)))
                assert dec.family == family
                q = dec.params
                if family == "weierstrass":
                    assert abs(q["g2"] - p["g2"]) <= tol * abs(p["g2"])
                    assert abs(q["g3"] - p["g3"]) <= tol * abs(p["g2"]) ** 1.5
                    assert abs(q["a"] - alpha * p["a"]) <= tol * abs(alpha * p["a"])
                    assert abs(q["b"] - (alpha * p["b"] + beta)) <= tol * abs(alpha * p["a"])
                elif family == "exponential":
                    assert abs(q["delta"] - p["delta"]) <= tol * abs(p["delta"])
                elif family == "linear":
                    assert abs(q["alpha"] - alpha * p["alpha"]) <= tol * abs(alpha * p["alpha"])
                else:
                    assert abs(q["c"] - (alpha * p["c"] + beta)) <= tol * abs(alpha * p["c"] + beta)

    def test_threshold_monotonicity(self, monkeypatch):
        s = _samples(math.exp, 0.0, 2.0, 0.05)

        def classify_at(tau):
            monkeypatch.setattr(cl, "TAU_LIN", tau)
            monkeypatch.setattr(cl, "TAU_CUB", tau)
            return cl.classify_samples(s)

        tight, loose = classify_at(1e-12), classify_at(1e-3)
        # loosening tau never turns an accepted family into a rejection
        if tight.family != "not_a_solution":
            assert loose.family != "not_a_solution"


# -- the fits as they were written with numpy's general-purpose calls, kept as the reference;
# the solve itself is `_least_squares`, whose unit-norm scales are pinned on their own


def _reference_spread(w):
    return float(vr.relative(np.abs(w - w.mean()).max(), np.abs(w).max()))


def _reference_fit(model, A, b):
    if len(b) <= A.shape[1]:
        raise TooFewPoints(f"{model} fit needs at least {A.shape[1] + 1} (w, w') pairs")
    coeffs, cond = cl._least_squares(A, b)
    misfit, size = (np.sqrt(np.mean(np.abs(v) ** 2)) for v in (A @ coeffs - b, b))
    residual = float(vr.relative(misfit, size))
    if not math.isfinite(residual):
        raise IllConditionedFit(f"{model} fit: w' or the misfit beyond the float range")
    lead = float(np.abs(A * coeffs).max(axis=0)[-1])
    return cl.FitResult(model, tuple(coeffs), residual, cond, lead, float(np.abs(b).max()))


def _reference_fit_cubic(w, dw):
    if _reference_spread(w) <= cl.SPREAD_EPS:
        raise DegenerateInput("w values are all one constant; nothing to fit")
    with np.errstate(over="ignore", invalid="ignore"):
        return _reference_fit("cubic", np.column_stack([np.ones_like(w), w, w**2, w**3]), dw**2)


def _reference_fit_linear(w, dw):
    with np.errstate(over="ignore", invalid="ignore"):
        return _reference_fit("linear", np.column_stack([np.ones_like(w), w]), dw)


def _trim_cases():
    """(family, samples of amplitude 1) on grids of 15 points, real and complex steps."""
    lattices = [el.from_periods(2.0, 2.0j), el.from_periods(2.0, 0.7 + 2.1j), el.from_periods(1.3, 0.4 + 1.4j)]
    grids = [(0.2, 0.05), (0.4, 0.001), (0.3 + 0.2j, 0.01 + 0.003j)]
    functions = {
        "wp": [functools.partial(el.wp, ctx) for ctx in lattices],
        "exponential": [lambda x, d=d: (1.0 + 0.5j) * cmath.exp(d * x) + 0.3 for d in (1.0, 0.7, -2.0 + 1j, 1e-3, 3j)],
        "affine": [lambda x, a=a, b=b: a * x + b for a in (3.0, 1.0 - 2j, 1e-3) for b in (1.0, -2j)],
        "cubic": [lambda x: x**3, lambda x: (x - 0.3) ** 3 + 1.0, lambda x: (1j * x) ** 3 - x],
        "constant": [lambda x: 3.7, lambda x: -2j, lambda x: 3.7 + 1e-13 * x],
    }
    for family, fns in functions.items():
        for fn in fns:
            for x0, h in grids:
                xs = tuple(x0 + i * h for i in range(15))
                yield family, xs, tuple(complex(fn(x)) for x in xs)


class TestTrimsMoveNoBit:
    """The fits' in-place design matrix and plain reductions give the numpy wrappers' bits."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("amplitude", [1e-200, 1.0, 1e200])
    def test_classification_is_the_references(self, monkeypatch, amplitude, order):
        monkeypatch.setattr(cl, "roundtrip_residual", lambda decision, seed=0: 0.0)
        families = set()
        for family, xs, ws in _trim_cases():
            samples = cl.SampleSet(xs, tuple(amplitude * w for w in ws))
            with monkeypatch.context() as m:
                got = cl.classify_samples(samples, order)
                for name, fn in (("_spread", _reference_spread), ("fit_cubic", _reference_fit_cubic),
                                 ("fit_linear", _reference_fit_linear)):
                    m.setattr(cl, name, fn)
                want = cl.classify_samples(samples, order)
            # repr spells every float to its last bit
            assert repr(got) == repr(want)
            families.add((family, got.family))
        # every kind of sample met the fits, and every outcome came up
        assert {f for f, _ in families} == {"wp", "exponential", "affine", "cubic", "constant"}
        assert {g for _, g in families} >= {"weierstrass", "exponential", "linear", "not_a_solution", "constant"}

    @pytest.mark.parametrize("amplitude", [1e-200, 1.0, 1e200])
    def test_each_fit_is_the_references(self, amplitude):
        for _, xs, ws in _trim_cases():
            _, w, dw = cl.estimate_jets(cl.SampleSet(xs, tuple(amplitude * w for w in ws)))
            for fit, reference in ((cl.fit_cubic, _reference_fit_cubic), (cl.fit_linear, _reference_fit_linear)):
                outcomes = []
                for fn in (fit, reference):
                    try:
                        outcomes.append(repr(fn(w, dw)))
                    except (DegenerateInput, IllConditionedFit) as exc:
                        outcomes.append(repr(exc))
                assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("amplitude", [1e-200, 1.0, 1e200])
    def test_unit_norm_columns_are_numpys(self, monkeypatch, amplitude):
        # the design that reaches lstsq is scaled by np.linalg.norm's column norms, to the bit
        lstsq, seen = np.linalg.lstsq, []

        def spy(a, b, rcond=None):
            seen.append(a)
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        for _, xs, ws in _trim_cases():
            _, w, dw = cl.estimate_jets(cl.SampleSet(xs, tuple(amplitude * w for w in ws)))
            with np.errstate(over="ignore", invalid="ignore"):
                for A in (np.column_stack([np.ones_like(w), w, w**2, w**3]), np.column_stack([np.ones_like(w), w])):
                    seen.clear()
                    try:
                        cl._least_squares(A, dw)
                    except IllConditionedFit:
                        pass
                    scales = np.linalg.norm(A, axis=0)
                    scales[scales == 0.0] = 1.0
                    assert len(seen) == 1 and seen[0].tobytes() == (A / scales).tobytes()
