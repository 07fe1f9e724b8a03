"""Evaluation paths against independent oracles: lattice sums, theta
functions, finite differences, the normal-form ODE, and symmetry."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from wpfeq import elliptic as el
from wpfeq.errors import (
    DegenerateLattice,
    FloatOverflow,
    NoPeriods,
    PoleProximity,
    SeriesNoConverge,
)


def brute_eisenstein_g2(w1, w2, cutoffs=(300, 600)):
    """Independent oracle: direct double sums at two cutoffs, Richardson tail."""

    def partial(M):
        s = 0j
        for m in range(-M, M + 1):
            for n in range(-M, M + 1):
                if m == 0 and n == 0:
                    continue
                lam = m * w1 + n * w2
                s += 1.0 / lam**4
        return s

    s_small, s_big = partial(cutoffs[0]), partial(cutoffs[1])
    ratio = (cutoffs[1] / cutoffs[0]) ** 2
    extrapolated = (ratio * s_big - s_small) / (ratio - 1.0)
    tail = abs(extrapolated - s_big)
    return 60.0 * extrapolated, 60.0 * tail


def convolution_sigma_table(n_max):
    """Reference: sigma(z)/z = exp(L(u)) by exact Fraction-dict convolutions.

    L(u) = sum_{k>=2} ell_k u^k with ell_k = -c_k/((2k-1)(2k)) integrates
    zeta - 1/z termwise, the c_k being the pe Laurent coefficients as
    polynomials in (g2, g3), and S = exp(L) obeys n s_n = sum_k k ell_k s_{n-k}.
    """
    zero = Fraction(0)
    c = [None, None, {(1, 0): Fraction(1, 20)}, {(0, 1): Fraction(1, 28)}]
    for k in range(4, n_max + 1):
        acc = {}
        for m in range(2, k - 1):
            for (a1, b1), q1 in c[m].items():
                for (a2, b2), q2 in c[k - m].items():
                    key = (a1 + a2, b1 + b2)
                    acc[key] = acc.get(key, zero) + q1 * q2
        scale = Fraction(3, (2 * k + 1) * (k - 3))
        c.append({key: q * scale for key, q in acc.items() if q})
    s = [{(0, 0): Fraction(1)}]
    for n in range(1, n_max + 1):
        acc = {}
        for k in range(2, n + 1):
            factor = Fraction(-k, (2 * k - 1) * (2 * k))
            for (a1, b1), q1 in c[k].items():
                for (a2, b2), q2 in s[n - k].items():
                    key = (a1 + a2, b1 + b2)
                    acc[key] = acc.get(key, zero) + factor * q1 * q2
        s.append({key: q / n for key, q in acc.items() if q})
    return s


class ThetaOracle:
    """sigma and zeta at 30 digits from Jacobi's theta1 (DLMF 23.6.8-23.6.9).

    With the half period w = omega1/2, q = exp(i pi omega2/omega1) and
    v = pi z/(2w): sigma(z) = (2w/pi) exp(eta1 z^2/(2w)) theta1(v)/theta1'(0)
    and zeta(z) = eta1 z/w + (pi/(2w)) theta1'(v)/theta1(v), where
    eta1 = -pi^2 theta1'''(0)/(12 w theta1'(0)).
    """

    def __init__(self, omega1, omega2):
        self.mp = pytest.importorskip("mpmath")
        with self.mp.workdps(30):
            self.w = self.mp.mpc(omega1) / 2
            self.q = self.mp.exp(1j * self.mp.pi * self.mp.mpc(omega2) / self.mp.mpc(omega1))
            self.t1 = self.mp.jtheta(1, 0, self.q, 1)
            t3 = self.mp.jtheta(1, 0, self.q, 3)
            self.eta1 = -(self.mp.pi**2) * t3 / (12 * self.w * self.t1)

    def sigma(self, z):
        mp = self.mp
        with mp.workdps(30):
            z = mp.mpc(z)
            v = mp.pi * z / (2 * self.w)
            value = (2 * self.w / mp.pi) * mp.exp(self.eta1 * z * z / (2 * self.w))
            return complex(value * mp.jtheta(1, v, self.q) / self.t1)

    def zeta(self, z):
        mp = self.mp
        with mp.workdps(30):
            z = mp.mpc(z)
            v = mp.pi * z / (2 * self.w)
            ratio = mp.jtheta(1, v, self.q, 1) / mp.jtheta(1, v, self.q)
            return complex(self.eta1 * z / self.w + (mp.pi / (2 * self.w)) * ratio)


class TestConstruction:
    @pytest.mark.parametrize("w", [0.1, 0.05])
    def test_small_lattice_overflow_is_typed(self, w):
        with pytest.raises(FloatOverflow):
            el.from_periods(w, w * 1j)

    def test_square_lattice_kills_g3(self, square_ctx):
        scale = square_ctx.lambda_min ** -6
        assert abs(square_ctx.invariants.g3) <= 1e-10 * scale

    def test_hexagonal_lattice_kills_g2(self, hex_ctx):
        scale = hex_ctx.lambda_min ** -4
        assert abs(hex_ctx.invariants.g2) <= 1e-9 * scale

    def test_g2_matches_brute_double_sum(self, square_ctx):
        oracle, tail = brute_eisenstein_g2(2.0, 2.0j)
        # the tail check: the extrapolation correction must already be small
        assert tail <= 1e-6 * abs(oracle)
        rel = abs(square_ctx.invariants.g2 - oracle) / abs(oracle)
        assert rel <= 1e-9

    def test_orientation_swap(self):
        ctx = el.from_periods(2.0j, 2.0)
        w1, w2 = ctx.periods.omega1, ctx.periods.omega2
        assert (w2 / w1).imag > 0

    def test_degenerate_lattice_rejected(self):
        with pytest.raises(DegenerateLattice):
            el.from_periods(2.0, 3.0)
        with pytest.raises(DegenerateLattice):
            el.from_periods(1.0, 0.0)

    def test_invariants_only_degeneracy_tags(self):
        assert el.from_invariants(0, 0).invariants.degeneracy == "fully-degenerate"
        ctx = el.from_invariants(4, 0)
        assert ctx.invariants.degeneracy == "generic"
        assert ctx.invariants.discriminant == pytest.approx(64.0)
        assert el.from_invariants(3, 1).invariants.degeneracy == "semi-degenerate"

    def test_laurent_coefficients_recomputable(self, square_ctx):
        g2, g3 = square_ctx.invariants.g2, square_ctx.invariants.g3
        table = square_ctx.laurent_coeffs
        assert table[0] == g2 / 20.0
        assert table[1] == g3 / 28.0
        for i in range(2, 12):
            k = i + 2
            acc = sum(table[m - 2] * table[k - m - 2] for m in range(2, k - 1))
            assert table[i] == pytest.approx(3.0 * acc / ((2 * k + 1) * (k - 3)), rel=1e-12)

    @pytest.mark.parametrize("tau", [1.9j, 3j, 8j, 0.5 + 8j])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 100.0])
    @pytest.mark.parametrize("flipped", [False, True])
    def test_tall_lattice_quasi_period_constants(self, tau, scale, flipped):
        # (scale*tau, -scale) spans the same lattice, but Gauss reduction
        # then swaps the pair into the opposite orientation
        periods = (scale * tau, -scale) if flipped else (scale, scale * tau)
        ctx = el.from_periods(*periods)
        oracle = ThetaOracle(scale, scale * tau)
        for half, eta in zip(ctx.reduced, ctx.eta_half):
            ref = oracle.zeta(half / 2.0)
            assert abs(eta - ref) <= 1e-9 * abs(ref)

    def test_invariant_context_has_no_lattice_queries(self, normal_form_ctx):
        with pytest.raises(NoPeriods):
            el.reduce_to_cell(normal_form_ctx, 0.5)
        with pytest.raises(NoPeriods):
            el.is_lattice_point(normal_form_ctx, 0.5)
        with pytest.raises(NoPeriods):
            el.lattice_sum_reference(normal_form_ctx, 0.5)


class TestWp:
    def test_fully_degenerate_closed_form(self, degenerate_ctx):
        assert el.wp(degenerate_ctx, 0.5) == pytest.approx(4.0, rel=1e-15)
        z = 0.37 - 1.21j
        assert el.wp(degenerate_ctx, z) == pytest.approx(1.0 / z**2, rel=1e-14)

    def test_homogeneity_t2(self, square_ctx):
        g2, g3 = square_ctx.invariants.g2, square_ctx.invariants.g3
        scaled = el.from_invariants(g2 / 16.0, g3 / 64.0)
        base = el.from_invariants(g2, g3)
        z = 0.3
        lhs = el.wp(scaled, 2.0 * z)
        rhs = el.wp(base, z) / 4.0
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_matches_lattice_sum(self, square_ctx):
        z = 0.31 + 0.17j
        ref = el.lattice_sum_reference(square_ctx, z)
        assert abs(el.wp(square_ctx, z) - ref) <= 1e-9 * abs(ref)

    def test_pole_proximity(self, square_ctx):
        with pytest.raises(PoleProximity):
            el.wp(square_ctx, 1e-9)
        with pytest.raises(PoleProximity):
            el.wp(square_ctx, 2.0 + 2.0j + 1e-9)

    def test_evenness_property(self, square_ctx):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s, t = rng.uniform(0.08, 0.92, 2)
            z = complex(s * 2.0 + t * 2.0j)
            a, b = el.wp(square_ctx, z), el.wp(square_ctx, -z)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_ode_property(self, square_ctx):
        g2, g3 = square_ctx.invariants.g2, square_ctx.invariants.g3
        rng = np.random.default_rng(12)
        for _ in range(25):
            s, t = rng.uniform(0.08, 0.92, 2)
            z = complex(s * 2.0 + t * 2.0j)
            p, dp = el.wp(square_ctx, z), el.wp_prime(square_ctx, z)
            res = dp * dp - (4.0 * p**3 - g2 * p - g3)
            assert abs(res) <= 1e-12 * max(1.0, abs(p) ** 3)

    def test_degeneration_continuity(self):
        z = 0.8 + 0.3j
        target = 1.0 / z**2
        for eps in (1e-3, 1e-5):
            ctx = el.from_invariants(eps, 0.0)
            diff = abs(el.wp(ctx, z) - target)
            # leading correction is (g2/20) z^2
            assert diff <= 1.5 * eps * abs(z) ** 2 / 20.0 + 1e-13


class TestWpPrime:
    def test_degenerate_closed_form(self, degenerate_ctx):
        assert el.wp_prime(degenerate_ctx, 0.5) == pytest.approx(-16.0, rel=1e-15)

    def test_oddness(self, square_ctx):
        for z in (0.31 + 0.17j, 0.9 + 1.3j, 1.4 + 0.6j):
            a, b = el.wp_prime(square_ctx, z), el.wp_prime(square_ctx, -z)
            assert abs(a + b) <= 1e-12 * abs(a)

    def test_normal_form_ode(self, normal_form_ctx):
        p = el.wp(normal_form_ctx, 0.3)
        dp = el.wp_prime(normal_form_ctx, 0.3)
        assert abs(dp * dp - (4.0 * p**3 - 4.0 * p)) <= 1e-9 * max(1.0, abs(p) ** 3)


class TestJets:
    def test_inverse_square_jets(self, degenerate_ctx):
        j = el.jets(degenerate_ctx, 1.0, 5)
        assert j.values == pytest.approx((1.0, -2.0, 6.0, -24.0, 120.0, -720.0))

    def test_third_derivative_vs_finite_differences(self, square_ctx):
        z = 0.47 + 0.71j
        h = 1e-4
        fd = (
            el.jets(square_ctx, z + h, 2).values[2]
            - el.jets(square_ctx, z - h, 2).values[2]
        ) / (2.0 * h)
        exact = el.jets(square_ctx, z, 3).values[3]
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_order_contract(self, square_ctx):
        j = el.jets(square_ctx, 0.31 + 0.17j, 2)
        assert len(j.values) == 3
        assert j.order == 2
        with pytest.raises(ValueError):
            el.jets(square_ctx, 0.3, 6)


class TestSigma:
    def test_exact_table_matches_convolution(self):
        table = el._sigma_exact_table()
        assert len(table) == 101
        assert list(table[:51]) == convolution_sigma_table(50)

    def test_weierstrass_coefficients_are_integers(self):
        # the table divides by 3 in integers; over the rationals nothing is lost
        a = {(0, 0): Fraction(1)}
        for weight in range(1, 101):
            for n in range(weight % 2, weight // 3 + 1, 2):
                m = (weight - 3 * n) // 2
                a[m, n] = Fraction(
                    9 * (m + 1) * a.get((m + 1, n - 1), 0)
                    + 16 * (n + 1) * a.get((m - 2, n + 1), 0)
                    - (2 * m + 3 * n - 1) * (4 * m + 6 * n - 1) * a.get((m - 1, n), 0),
                    3,
                )
        assert all(q.denominator == 1 for q in a.values())
        table = el._sigma_exact_table()
        for (m, n), q in a.items():
            weight = 2 * m + 3 * n
            expected = q * 2**n / (2**m * math.factorial(2 * weight + 1))
            assert table[weight].get((m, n), 0) == expected

    @pytest.mark.parametrize("name", ["square_ctx", "hex_ctx", "generic_ctx"])
    def test_matches_theta_oracle(self, name, request):
        ctx = request.getfixturevalue(name)
        w1, w2 = ctx.periods.omega1, ctx.periods.omega2
        oracle = ThetaOracle(w1, w2)
        for s, t in ((0.13, 0.29), (0.5, 0.5), (-0.71, 0.38), (1.37, 0.41), (-0.62, -1.45)):
            z = s * w1 + t * w2
            assert abs(z) < ctx.r_sigma
            ref = oracle.sigma(z)
            assert abs(el.sigma(ctx, z) - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize(
        "tau, scale",
        [(1.9j, 1.0), (3j, 1.0), (8j, 1.0), (0.5 + 8j, 1.0), (3j, 100.0), (8j, 100.0), (0.5 + 1.2j, 1e4)],
    )
    def test_tall_or_large_lattice_accurate_or_loud(self, tau, scale):
        # tall shapes make the terms cancel off the real axis, large scales
        # underflow the rows: sigma must be accurate there or raise, never wrong
        ctx = el.from_periods(scale, scale * tau)
        oracle = ThetaOracle(scale, scale * tau)
        evaluated = 0
        for frac in (0.3, 0.6, 0.9):
            for angle in (0.1, 0.7, 1.5):
                z = frac * ctx.r_sigma * cmath.exp(1j * angle)
                try:
                    value = el.sigma(ctx, z)
                except SeriesNoConverge:
                    continue
                ref = oracle.sigma(z)
                assert abs(value - ref) <= 1e-10 * abs(ref)
                evaluated += 1
        # near the real generator the terms do not cancel, so these evaluate
        assert evaluated >= 3

    def test_normalisation_at_origin(self, square_ctx):
        z = 1e-6
        assert abs(el.sigma(square_ctx, z) / z - 1.0) <= 1e-9

    def test_oddness(self, square_ctx):
        for z in (0.7 + 0.3j, 1.9 - 0.4j, 2.6 + 1.1j):
            assert el.sigma(square_ctx, z) + el.sigma(square_ctx, -z) == 0

    def test_vanishes_at_lattice_points(self, square_ctx):
        # limit along a shrinking neighbourhood of the lattice point 2
        direction = cmath.exp(0.3j)
        values = [abs(el.sigma(square_ctx, 2.0 + r * direction)) for r in (1e-1, 1e-3, 1e-6, 0.0)]
        assert values == sorted(values, reverse=True)
        scale = max(1.0, max(values))
        assert min(values) <= 1e-8 * scale

    def test_outside_validity_region(self, square_ctx):
        with pytest.raises(SeriesNoConverge):
            el.sigma(square_ctx, 8.0)

    def test_fully_degenerate_sigma_is_identity(self, degenerate_ctx):
        assert el.sigma(degenerate_ctx, 1.7 - 0.4j) == 1.7 - 0.4j


class TestZeta:
    def test_principal_part(self):
        # the default pole guard would veto 1e-6; the tolerance is overridable
        ctx = el.from_periods(2.0, 2.0j, pole_tol=1e-8)
        z = 1e-6
        assert abs(el.zeta(ctx, z) * z - 1.0) <= 1e-9

    def test_oddness(self, square_ctx):
        for z in (0.4 + 0.2j, 1.3 + 0.8j):
            a, b = el.zeta(square_ctx, z), el.zeta(square_ctx, -z)
            assert abs(a + b) <= 1e-12 * abs(a)

    def test_derivative_is_minus_wp(self, square_ctx):
        z = 0.6 + 0.4j
        h = 1e-4
        d1 = (el.zeta(square_ctx, z + h) - el.zeta(square_ctx, z - h)) / (2.0 * h)
        d2 = (el.zeta(square_ctx, z + h / 2) - el.zeta(square_ctx, z - h / 2)) / h
        richardson = (4.0 * d2 - d1) / 3.0
        target = -el.wp(square_ctx, z)
        assert abs(richardson - target) <= 1e-7 * abs(target)
        # the two step sizes already agree, so the Richardson limit is trusted
        assert abs(d2 - d1) <= 1e-4 * abs(target)

    def test_quasi_periodicity_consistency(self, square_ctx):
        # zeta extends beyond the series disc through the half-period constants
        z = 0.6 + 0.4j
        step = square_ctx.periods.omega1
        delta = el.zeta(square_ctx, z + step) - el.zeta(square_ctx, z)
        eta1 = el.zeta(square_ctx, step / 2.0)
        assert abs(delta - 2.0 * eta1) <= 1e-10 * max(1.0, abs(eta1))

    def test_log_sigma_derivative_is_zeta(self, square_ctx):
        z = 0.6 + 0.4j
        h = 1e-4
        ratio1 = cmath.log(el.sigma(square_ctx, z + h) / el.sigma(square_ctx, z - h)) / (2.0 * h)
        ratio2 = cmath.log(el.sigma(square_ctx, z + h / 2) / el.sigma(square_ctx, z - h / 2)) / h
        richardson = (4.0 * ratio2 - ratio1) / 3.0
        target = el.zeta(square_ctx, z)
        assert abs(richardson - target) <= 1e-7 * abs(target)


class TestLatticeOps:
    def test_reduce_identity(self, square_ctx):
        assert el.reduce_to_cell(square_ctx, 0.0) == 0.0

    def test_reduce_integer_shift(self, square_ctx):
        z = 3 * 2.0 + 0.2 * 2.0j
        assert el.reduce_to_cell(square_ctx, z) == pytest.approx(0.2 * 2.0j, abs=1e-12)

    def test_reduce_preserves_wp(self, square_ctx):
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
            if el.lattice_distance(square_ctx, z) < 0.1:
                continue
            a = el.wp(square_ctx, z)
            b = el.wp(square_ctx, el.reduce_to_cell(square_ctx, z))
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_is_lattice_point_examples(self, square_ctx):
        w1, w2 = square_ctx.periods.omega1, square_ctx.periods.omega2
        assert el.is_lattice_point(square_ctx, 2 * w1 - 5 * w2)
        assert not el.is_lattice_point(square_ctx, 0.5 * w1)
        eps_lat = square_ctx.tol.lattice
        assert el.is_lattice_point(square_ctx, w1 * (1.0 + eps_lat / 10.0))


class TestLatticeSumReference:
    def test_two_cutoffs_within_tail(self, square_ctx):
        z = 0.31 + 0.17j
        r1, tail1 = el.lattice_sum_reference(square_ctx, z, cutoff=100, return_tail=True)
        r2, tail2 = el.lattice_sum_reference(square_ctx, z, cutoff=200, return_tail=True)
        assert abs(r1 - r2) <= tail1
        assert tail2 < tail1

    def test_real_on_real_axis_of_square_lattice(self, square_ctx):
        value = el.lattice_sum_reference(square_ctx, 0.5 * 2.0, cutoff=100)
        assert abs(value.imag) <= 1e-9 * abs(value)

    def test_matches_wp_tightly(self, square_ctx):
        z = 0.31 + 0.17j
        ref = el.lattice_sum_reference(square_ctx, z, cutoff=200)
        w = el.wp(square_ctx, z)
        assert abs(w - ref) <= 1e-12 * abs(ref)

    def test_pole_rejected(self, square_ctx):
        with pytest.raises(PoleProximity):
            el.lattice_sum_reference(square_ctx, 2.0)
