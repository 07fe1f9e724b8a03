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
    eta1 = -pi^2 theta1'''(0)/(12 w theta1'(0)). The invariants come from the
    theta constants (DLMF 23.6.2-23.6.3), not from the q-series under test.
    """

    def __init__(self, omega1, omega2):
        self.mp = pytest.importorskip("mpmath")
        self.omega1, self.omega2 = omega1, omega2
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

    def invariants(self):
        mp = self.mp
        # 60 digits: on tall lattices g2^3 - 27 g3^2 cancels to 1e-22 relative
        with mp.workdps(60):
            w, q = mp.mpc(self.omega1) / 2, mp.exp(1j * mp.pi * mp.mpc(self.omega2) / mp.mpc(self.omega1))
            t2, t3, t4 = (mp.jtheta(k, 0, q) for k in (2, 3, 4))
            g2 = mp.pi**4 / (24 * w**4) * (t2**8 + t3**8 + t4**8)
            g3 = mp.pi**6 / (432 * w**6) * (t2**4 + t3**4) * (t3**4 + t4**4) * (t4**4 - t2**4)
            return complex(g2), complex(g3), complex(g2**3 - 27 * g3**2)

    def zeta(self, z):
        mp = self.mp
        with mp.workdps(30):
            z = mp.mpc(z)
            v = mp.pi * z / (2 * self.w)
            ratio = mp.jtheta(1, v, self.q, 1) / mp.jtheta(1, v, self.q)
            return complex(self.eta1 * z / self.w + (mp.pi / (2 * self.w)) * ratio)

    def wp_dp(self, z):
        """(pe, pe') = (-zeta', -zeta''), differentiating zeta above through v."""
        mp = self.mp
        with mp.workdps(30):
            a = mp.pi / (2 * self.w)
            t0, t1, t2, t3 = (mp.jtheta(1, a * mp.mpc(z), self.q, d) for d in range(4))
            r1, r2, r3 = t1 / t0, t2 / t0, t3 / t0
            pe = -self.eta1 / self.w - a**2 * (r2 - r1**2)
            return complex(pe), complex(-(a**3) * (r3 - 3 * r2 * r1 + 2 * r1**3))


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

    @pytest.mark.parametrize("tau", [1j, cmath.exp(1j * math.pi / 3), 0.35 + 1.05j, 1.9j, 3j, 8j, 0.5 + 8j])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 100.0])
    @pytest.mark.parametrize("pair", ["rotated", "swapped"])
    def test_invariants_and_discriminant_match_theta_oracle(self, tau, scale, pair):
        # a rotated pair turns the invariants; a swapped one must be reoriented
        turn = cmath.exp(0.7j) if pair == "rotated" else 1.0
        w1, w2 = turn * scale, turn * scale * tau
        ctx = el.from_periods(*((w1, w2) if pair == "rotated" else (w2, w1)))
        g2, g3, disc = ThetaOracle(w1, w2).invariants()
        s = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0))
        assert abs(ctx.invariants.g2 - g2) <= 1e-13 * s**4
        assert abs(ctx.invariants.g3 - g3) <= 1e-13 * s**6
        # a lattice is never degenerate, and its discriminant does not cancel
        assert abs(ctx.invariants.discriminant - disc) <= 1e-13 * abs(disc)
        assert ctx.invariants.degeneracy == "generic"

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
        # the recurrence is prefix-stable: a longer table only appends
        assert len(table) == 100
        assert el.laurent_coefficients(g2, g3, 300)[:100] == table

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

    @pytest.mark.parametrize("name", ["square_ctx", "hex_ctx", "generic_ctx", "tall_ctx"])
    def test_series_converges_on_disc_rim(self, name, request):
        # the Laurent table must reach round-off at |z| = r_safe
        ctx = request.getfixturevalue(name)
        for z in (ctx.r_safe * cmath.exp(0.3j), ctx.r_safe * cmath.exp(2.0j)):
            ref = el.lattice_sum_reference(ctx, z)
            series, _ = el._wp_series(ctx.laurent_coeffs, z, ctx.tol.series)
            assert abs(series - ref) <= 1e-11 * abs(ref)
            assert abs(el.wp(ctx, z) - ref) <= 1e-11 * abs(ref)

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


def cell_points(ctx, count, seed, im_cap=None):
    """Points over a 2x2 block of cells about the origin, lattice points included."""
    rng = np.random.default_rng(seed)
    w1, w2 = ctx.periods.omega1, ctx.periods.omega2
    st = rng.uniform(-1.0, 1.0, (count, 2))
    z = st[:, 0] * w1 + st[:, 1] * w2
    if im_cap is not None:
        z = z.real + 1j * np.clip(z.imag, -im_cap, im_cap)
    return np.concatenate((z, [0j, w1, w1 + w2, -w2]))


class TestWpArray:
    """The batch evaluator against scalar `_wp_dp` and the theta oracle."""

    @staticmethod
    def assert_matches_scalar(ctx, z):
        p, dp, fault = el._wp_dp_array(ctx, z)
        for zi, pi, dpi, fi in zip(z.tolist(), p.tolist(), dp.tolist(), fault.tolist()):
            try:
                sp, sdp = el._wp_dp(ctx, zi)
            except PoleProximity:
                assert fi == el._POLE and math.isnan(pi.real) and math.isnan(dpi.real)
                continue
            assert fi == 0
            assert abs(pi - sp) <= 1e-12 * max(1.0, abs(sp))
            assert abs(dpi - sdp) <= 1e-12 * max(1.0, abs(sdp))
        return fault

    @pytest.mark.parametrize("name", ["square_ctx", "hex_ctx", "generic_ctx", "tall_ctx"])
    def test_matches_scalar_over_cells(self, name, request):
        ctx = request.getfixturevalue(name)
        # on the tall lattice both paths lose digits deep in the cell, where
        # repeated duplication amplifies round-off: compare within |Im z| <= 1.2
        z = cell_points(ctx, 300, 1, im_cap=1.2 if name == "tall_ctx" else None)
        fault = self.assert_matches_scalar(ctx, z)
        assert (fault == el._POLE).sum() == 4  # the four lattice points
        if name == "tall_ctx":  # the others' cells lie inside the series disc
            reduced = np.array([el._reduce_near_zero(ctx, zi)[0] for zi in z.tolist()])
            assert (np.abs(reduced) > ctx.r_safe).sum() >= 10

    @pytest.mark.parametrize("name", ["normal_form_ctx", "degenerate_ctx"])
    def test_matches_scalar_without_periods(self, name, request):
        ctx = request.getfixturevalue(name)
        rng = np.random.default_rng(2)
        z = rng.uniform(-2.0, 2.0, (300, 2)).view(complex)[:, 0]
        fault = self.assert_matches_scalar(ctx, np.append(z, 0j))
        assert fault[-1] == el._POLE
        if ctx.r_safe < 2.0:
            assert (np.abs(z) > ctx.r_safe).sum() >= 10

    @pytest.mark.parametrize("tau, scale", [(1j, 1.0), (cmath.exp(1j * math.pi / 3), 3.0), (0.3 + 1.4j, 0.7)])
    def test_matches_theta_oracle(self, tau, scale):
        ctx = el.from_periods(scale, scale * tau)
        oracle = ThetaOracle(scale, scale * tau)
        z = cell_points(ctx, 12, 3)[:12]
        p, dp, fault = el._wp_dp_array(ctx, z)
        assert not fault.any()
        for zi, pi, dpi in zip(z.tolist(), p.tolist(), dp.tolist()):
            op, odp = oracle.wp_dp(zi)
            assert abs(pi - op) <= 1e-12 * max(1.0, abs(op))
            assert abs(dpi - odp) <= 1e-12 * max(1.0, abs(odp))

    def test_symmetric_lattices_sum_past_zero_coefficients(self, square_ctx, hex_ctx):
        # every second c_k vanishes on the square lattice, two of three on the
        # hexagonal one (to round-off): the terms that matter follow small ones
        for ctx in (square_ctx, hex_ctx):
            u = (0.74 * ctx.r_safe) ** 2
            size = [abs(c) * u ** (i + 2) for i, c in enumerate(ctx.laurent_coeffs)]
            last = max(i for i, m in enumerate(size) if m >= 1e-18)
            assert sum(m < 1e-18 for m in size[:last]) >= 10
            z = 0.74 * ctx.r_safe * np.exp(1j * np.linspace(0.1, 3.0, 7))
            self.assert_matches_scalar(ctx, z)

    def test_non_finite_value_is_pole_fault(self):
        # with no pole tolerance, 1/z^3 overflows next to the origin
        ctx = el.from_periods(2.0, 2.0j, pole_tol=0.0)
        p, dp, fault = el._wp_dp_array(ctx, np.array([1e-150 + 0j, 0.5 + 0.5j]))
        assert fault.tolist() == [el._POLE, 0]
        assert math.isnan(p[0].real) and math.isnan(dp[0].real) and math.isfinite(p[1].real)

    @pytest.mark.parametrize("name", ["square_ctx", "hex_ctx", "generic_ctx", "tall_ctx"])
    def test_lattice_distance_matches_scalar(self, name, request):
        ctx = request.getfixturevalue(name)
        z = cell_points(ctx, 500, 4)
        got = el._lattice_distance_array(ctx, z)
        assert got.tolist() == pytest.approx([el.lattice_distance(ctx, zi) for zi in z.tolist()], rel=1e-14)

    def test_empty_batch(self, square_ctx):
        p, dp, fault = el._wp_dp_array(square_ctx, np.empty(0, complex))
        assert p.shape == dp.shape == fault.shape == (0,)

    def test_too_many_halvings_is_series_fault(self, normal_form_ctx):
        z = np.array([0.5, 1e30 + 0j])
        with pytest.raises(SeriesNoConverge):
            el._wp_dp(normal_form_ctx, 1e30)
        _, _, fault = el._wp_dp_array(normal_form_ctx, z)
        assert fault.tolist() == [0, el._NO_CONVERGE]


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

    @pytest.mark.parametrize("tau", [1.5j, 0.5 + 1.5j, 1.9j, 3j])
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_matches_theta_oracle_across_the_cell(self, tau, scale):
        # reduced points beyond the series disc take one duplication step
        ctx = el.from_periods(scale, scale * tau)
        oracle = ThetaOracle(scale, scale * tau)
        rng = np.random.default_rng(6)
        for s, t in rng.uniform(0.0, 1.0, (40, 2)):
            z = scale * (s + t * tau)
            ref = oracle.zeta(z)
            assert abs(el.zeta(ctx, z) - ref) <= 1e-12 * max(abs(ref), 1.0 / scale)

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
