"""Evaluation paths against independent oracles: lattice sums, theta
functions, finite differences, the normal-form ODE, and symmetry."""

import cmath
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpfeq import elliptic as el
from wpfeq import jetpoly as jp
from wpfeq import verifier as vr
from wpfeq.errors import (
    DegenerateLattice,
    FloatOverflow,
    PoleProximity,
    SeriesNoConverge,
)

from oracles import ThetaOracle, brute_eisenstein_g2, lattice_sum_reference, reduce_to_cell


class TestConstruction:
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
    def test_invariants_match_theta_oracle(self, tau, scale, pair):
        # a rotated pair turns the invariants; a swapped one must be reoriented
        turn = cmath.exp(0.7j) if pair == "rotated" else 1.0
        w1, w2 = turn * scale, turn * scale * tau
        ctx = el.from_periods(*((w1, w2) if pair == "rotated" else (w2, w1)))
        g2, g3 = ThetaOracle(w1, w2).invariants()
        s = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0))
        assert abs(ctx.invariants.g2 - g2) <= 1e-13 * s**4
        assert abs(ctx.invariants.g3 - g3) <= 1e-13 * s**6
        assert len(ctx.reduced) == 2

    @pytest.mark.parametrize(
        "periods, g2, g3",
        [
            ((1.0, 1j), ("0x1.7a253b92a1a3fp+7", "0x0.0p+0"), ("-0x1.1cdb269329ffap-44", "0x0.0p+0")),
            (
                (1.0, cmath.exp(1j * math.pi / 3)),
                ("0x1.435dcecf367f2p-46", "-0x1.f09655a449c27p-44"),
                ("0x1.9a6987277b268p+9", "0x1.097beaac461dfp-41"),
            ),
            ((1.0, 8j), ("0x1.03c1f081b5ac3p+7", "0x0.0p+0"), ("0x1.1cdb269329ffap+8", "0x0.0p+0")),
            (
                (1e-20, (0.3 + 1.1j) * 1e-20),
                ("0x1.95040b5839686p+272", "0x1.8c526cb6fcb09p+270"),
                ("0x1.01c8a4fa5e3f9p+407", "-0x1.9cce13ed7461bp+405"),
            ),
            (
                (1e20, (0.3 + 1.1j) * 1e20),
                ("0x1.1cb53f16f6abbp-259", "0x1.1698bc409749ep-261"),
                ("0x1.adb9f9f5c3aeep-391", "-0x1.5812de5863681p-392"),
            ),
        ],
        ids=["square", "hexagonal", "tau-8i", "scale-1e-20", "scale-1e20"],
    )
    def test_series_invariants_are_pinned(self, periods, g2, g3):
        # the parts of g2 and g3 bit for bit, signed zeros too, as float.hex
        inv = el.from_periods(*periods).invariants
        assert [(g.real.hex(), g.imag.hex()) for g in (inv.g2, inv.g3)] == [g2, g3]

    def test_default_pole_tolerance_follows_the_shortest_vector(self):
        # (1, 0.999+0.001i) is far from reduced: its shortest vector has
        # length 1.41e-3, so 1e-3 of a given generator would cover b1/2
        ctx = el.from_periods(1.0, 0.999 + 0.001j)
        b1, b2 = ctx.reduced
        assert ctx.pole_tol == 1e-3 * ctx.lambda_min == 1e-3 * abs(b1)
        value = el.wp(ctx, b1 / 2.0)
        assert value == el.wp(el.from_periods(b1, b2), b1 / 2.0)
        same = el.from_invariants(ctx.invariants.g2, ctx.invariants.g3)
        assert same.pole_tol == 1e-3 * same.lambda_min
        assert abs(el.wp(same, b1 / 2.0) - value) <= 1e-9 * abs(value)

    def test_orientation_swap(self):
        ctx = el.from_periods(2.0j, 2.0)
        w1, w2 = ctx.periods.omega1, ctx.periods.omega2
        assert (w2 / w1).imag > 0

    def test_degenerate_lattice_rejected(self):
        with pytest.raises(DegenerateLattice):
            el.from_periods(2.0, 3.0)
        with pytest.raises(DegenerateLattice):
            el.from_periods(1.0, 0.0)

    @pytest.mark.parametrize("g2, g3", [(math.nan, 0), (math.inf, 0), (1, complex(0, -math.inf))])
    def test_non_finite_invariants_are_an_invalid_argument(self, g2, g3):
        with pytest.raises(ValueError, match="invariants must be finite"):
            el.from_invariants(g2, g3)

    @pytest.mark.parametrize("w1, w2", [(math.inf, 1j), (1, complex(math.nan, 1)), (1, complex(0, math.inf))])
    def test_non_finite_periods_are_an_invalid_argument(self, w1, w2):
        with pytest.raises(ValueError, match="periods must be finite"):
            el.from_periods(w1, w2)

    @pytest.mark.parametrize("s", [1e-26, 1e-27, 1e-30])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j])
    def test_small_lattices_build(self, s, tau):
        # g2(s L) = g2(L)/s^4 and g3(s L) = g3(L)/s^6 (DLMF 23.10(iv))
        unit, ctx = el.from_periods(1.0, tau).invariants, el.from_periods(s, s * tau).invariants
        scale = max(abs(unit.g2) ** 0.25, abs(unit.g3) ** (1.0 / 6.0))
        assert abs(ctx.g2 * s**4 - unit.g2) <= 1e-14 * scale**4
        assert abs(ctx.g3 * s**6 - unit.g3) <= 1e-14 * scale**6

    @pytest.mark.parametrize("s", [1e-60, 1e-160, 1e-300])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j])
    def test_invariants_beyond_the_float_range_are_typed(self, s, tau):
        # g3 passes 1e308 for |omega| below about 1e-51, and from about 1e-162
        # on the Gauss reduction's squared lengths leave the float range
        with pytest.raises(FloatOverflow):
            el.from_periods(s, s * tau)

    @pytest.mark.parametrize("s", [1e155, 1e200, 1e308])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j])
    def test_periods_at_the_top_of_the_float_range_are_typed(self, s, tau):
        # the Gauss reduction squares |b1|
        with pytest.raises(FloatOverflow):
            el.from_periods(s, s * tau)

    @pytest.mark.parametrize("g2, g3, rank", [(1e103, 0, 2), (12 * 2.0**340, 8 * 2.0**510, 1), (0, 1e155, 2)])
    def test_invariants_past_the_discriminants_range_build(self, g2, g3, rank):
        # g2^3 or 27 g3^2 passes 1e308 here, but only the rank test reads them, rescaled
        ctx = el.from_invariants(g2, g3)
        assert ctx.invariants == el.Invariants(g2, g3) and len(ctx.reduced) == rank

    def test_invariants_only_rank(self):
        assert len(el.from_invariants(0, 0).reduced) == 0
        ctx = el.from_invariants(4, 0)
        assert len(ctx.reduced) == 2
        assert ctx.invariants == el.Invariants(4, 0)
        assert len(el.from_invariants(3, 1).reduced) == 1

    def test_rank_one_and_zero_contexts(self):
        # the theta series at q = 0: no coefficients, eta = (pi k/6, 0)
        ctx = el.from_invariants(12, 8)
        k = cmath.sqrt(4.5 * (8 + 0j) / (12 + 0j))
        assert ctx.k == k and ctx.reduced == (math.pi / k,) and ctx.periods is None
        assert ctx.lambda_min == math.pi / abs(k)
        assert ctx.eta == (math.pi * k / 6.0, 0j) and ctx.series.a == ([], [])
        assert ctx.pole_tol == 1e-3 * math.pi / abs(k)
        assert ctx.invariants == el.Invariants(12, 8)
        ctx = el.from_invariants(0, 0)
        assert ctx.k == 0 and ctx.reduced == () and ctx.periods is None
        assert ctx.lambda_min == math.inf
        assert ctx.eta == (0j, 0j) and ctx.series.a == ([], [])
        assert ctx.pole_tol == 0.0

    @pytest.mark.parametrize("g2, g3", [(4, 1), (4, 0), (1 + 2j, 0.3 - 1j), (7e5, 2e8)])
    def test_invariants_and_periods_build_one_series(self, g2, g3):
        # the AGM basis, given as periods, gives the same theta series bit for bit
        ctx = el.from_invariants(g2, g3)
        same = el.from_periods(*ctx.reduced)
        assert same.reduced == ctx.reduced
        assert same.series.a == ctx.series.a and same.eta == ctx.eta

    @pytest.mark.parametrize("tau", [5j, 6j])
    def test_tall_lattice_invariants_have_rank_two(self, tau):
        # the discriminant is below 1e-9 of scale^12 here, yet nonzero: one rank decision, two generators
        inv = el.from_periods(1.0, tau).invariants
        assert len(el.from_invariants(inv.g2, inv.g3).reduced) == 2

    @pytest.mark.parametrize("tau", [1.9j, 3j, 8j, 0.5 + 8j])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 100.0])
    @pytest.mark.parametrize("flipped", [False, True])
    def test_tall_lattice_quasi_period_constants(self, tau, scale, flipped):
        # (scale*tau, -scale) spans the same lattice, but Gauss reduction
        # then swaps the pair into the opposite orientation
        periods = (scale * tau, -scale) if flipped else (scale, scale * tau)
        ctx = el.from_periods(*periods)
        oracle = ThetaOracle(scale, scale * tau)
        for half, eta in zip(ctx.reduced, ctx.eta):
            ref = oracle.zeta(half / 2.0)
            assert abs(eta - ref) <= 1e-13 * abs(ref)

    def test_lattice_queries_answer_at_every_rank(self, normal_form_ctx, degenerate_ctx):
        # rank zero: the lattice {0}, measured by |z|
        assert reduce_to_cell(degenerate_ctx, 0.5) == 0.5
        assert el.lattice_coordinates(degenerate_ctx, 0.3 - 0.4j) == (0.3, -0.4)
        assert el.lattice_offset(degenerate_ctx, 0.3 - 0.4j) == pytest.approx(0.5, rel=1e-15)
        assert el.lattice_offset(degenerate_ctx, 0j) <= el.LATTICE_TOL < el.lattice_offset(degenerate_ctx, 1e-6)
        # lattice_point maps fractions of the frame at every rank, and lattice_coordinates inverts it;
        # a family without a lattice takes the frame (1, i) too
        rank_one = el.from_invariants(3, 1)
        w = rank_one.reduced[0]
        frames = ((degenerate_ctx, (1, 1j)), (rank_one, (w, 1j * w)), (normal_form_ctx, normal_form_ctx.reduced))
        for ctx, (w1, w2) in frames:
            for s, t in ((0.0, 0.0), (0.5, 0.25), (-1.5, 0.75)):
                z = el.lattice_point(ctx, s, t)
                assert z == s * w1 + t * w2
                assert el.lattice_coordinates(ctx, z) == pytest.approx((s, t), abs=1e-15)
        assert el.lattice_point(None, 0.5, 0.25) == 0.5 + 0.25j
        with pytest.raises(ValueError, match="rank two"):
            lattice_sum_reference(degenerate_ctx, 0.5)
        # invariants (4, 0) keep their AGM basis as periods
        ctx = normal_form_ctx
        w1, w2 = ctx.periods.omega1, ctx.periods.omega2
        assert (w1, w2) == ctx.reduced
        assert el.lattice_point(ctx, 0.5, 0.25) == 0.5 * w1 + 0.25 * w2
        assert el.lattice_coordinates(ctx, 0.5 * w1 + 0.25 * w2) == pytest.approx((0.5, 0.25), abs=1e-15)
        assert el.lattice_offset(ctx, 2 * w1 - 5 * w2) <= el.LATTICE_TOL < el.lattice_offset(ctx, 0.5 * w1)
        assert reduce_to_cell(ctx, 3 * w1 + 0.2 * w2) == pytest.approx(0.2 * w2, abs=1e-12)
        z = 0.31 + 0.17j
        ref = lattice_sum_reference(ctx, z)
        assert abs(el.wp(ctx, z) - ref) <= 1e-10 * abs(ref)


SHAPES = [1j, cmath.exp(1j * math.pi / 3), 1.9j, 3j, 8j, 0.5 + 8j]


class TestThetaSeries:
    """pe, pe', zeta and sigma from the one theta series, against ThetaOracle."""

    @pytest.mark.parametrize("tau", SHAPES)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_theta_oracle_over_the_cells(self, tau, scale):
        # rotated generators; points over +-1.3 cells, deep in the tall cells too
        w1 = scale * cmath.exp(0.4j)
        ctx = el.from_periods(w1, w1 * tau)
        oracle = ThetaOracle(w1, w1 * tau)
        rng = np.random.default_rng(5)
        for s, t in rng.uniform(-1.3, 1.3, (25, 2)):
            z = complex(s * w1 + t * w1 * tau)
            p, dp, zt, sg = oracle.values(z)
            got = (*el._wp_dp(ctx, z), el.zeta(ctx, z))
            for value, ref in zip(got, (p, dp, zt)):
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))
            assert abs(el.sigma(ctx, z) - sg) <= 1e-12 * abs(sg)

    @pytest.mark.parametrize("tau", SHAPES)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_invariants_round_trip_through_the_agm(self, tau, scale):
        w1 = scale * cmath.exp(0.4j)
        lattice = el.from_periods(w1, w1 * tau)
        g2, g3 = lattice.invariants.g2, lattice.invariants.g3
        ctx = el.from_invariants(g2, g3)
        b1, b2 = ctx.reduced
        assert ctx.periods == el.Periods(b1, b2)
        series = el.from_periods(b1, b2).invariants
        h2, h3 = series.g2, series.g3
        s = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0))
        assert abs(h2 - g2) <= 1e-12 * s**4 and abs(h3 - g3) <= 1e-12 * s**6
        if tau.imag < 5:
            # the same lattice: each basis has integer coordinates in the other
            for a, b in ((ctx, lattice), (lattice, ctx)):
                for w in (b.periods.omega1, b.periods.omega2):
                    c = el.lattice_coordinates(a, w)
                    assert max(abs(x - round(x)) for x in c) <= 1e-9
        # the float invariants do not fix a tall tau, but pe near the origin
        for z in (0.1 + 0.07j, 0.3 - 0.2j, 0.05 + 0.3j, 0.4 * cmath.exp(2j)):
            z *= lattice.lambda_min
            for value, ref in zip(el._wp_dp(ctx, z), el._wp_dp(lattice, z)):
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize(
        "build, args",
        [
            (el.from_periods, (1e-27, 1e-27j)),
            (el.from_periods, (1e-45, (0.3 + 1.1j) * 1e-45)),
            (el.from_invariants, (1e300, 1e300)),
            (el.from_invariants, (1e103, 0)),
        ],
        ids=["periods-1e-27", "periods-1e-45", "invariants-1e300", "invariants-1e103"],
    )
    def test_lattices_past_the_discriminants_range_match_theta_oracle(self, build, args):
        # lattices whose g2^3 - 27 g3^2 leaves the float range; points over the reduced cell
        ctx = build(*args)
        b1, b2 = ctx.reduced
        oracle = ThetaOracle(b1, b2)
        for s, t in ((0.1, 0.07), (0.3, -0.2), (0.45, 0.4), (-0.2, 0.5), (-0.35, -0.45)):
            z = s * b1 + t * b2
            p, dp, zt, sg = oracle.values(z)
            for value, ref in zip((*el._wp_dp(ctx, z), el.zeta(ctx, z)), (p, dp, zt)):
                assert abs(value - ref) <= 1e-14 * abs(ref)
            # sigma's powers of two are exact, so its rounding does not grow with |ln|sigma||
            assert abs(el.sigma(ctx, z) - sg) <= 2.0**-52 * 8.0 * abs(sg)

    def test_failed_round_trip_raises(self, monkeypatch):
        # a basis whose invariants miss is never returned
        monkeypatch.setattr(el, "_INVARIANT_TOL", 0.0)
        with pytest.raises(SeriesNoConverge):
            el.from_invariants(4.0, 1.0)

    def test_invariants_only_context_is_periodic(self, normal_form_ctx):
        b1, b2 = normal_form_ctx.reduced
        z = 0.31 + 0.17j
        p = el.wp(normal_form_ctx, z)
        for lam in (b1, b2, 2 * b1 - 3 * b2):
            assert abs(el.wp(normal_form_ctx, z + lam) - p) <= 1e-12 * abs(p)
        with pytest.raises(PoleProximity):
            el.wp(normal_form_ctx, b1 + b2)

    def test_tiny_invariants_keep_their_lattice(self):
        # g2^3 - 27 g3^2 underflows to 0 here, yet the discriminant is not 0
        ctx = replace(el.from_invariants(1e-300, 1e-300), pole_tol=0.0)
        assert len(ctx.reduced) == 2
        assert el.wp(ctx, 0.3) == pytest.approx(1.0 / 0.09, rel=1e-14)

    @pytest.mark.parametrize("g2, g3", [(2.0**-1020, 0.0), (0.0, 2.0**-1020)])
    def test_invariants_near_the_float_minimum_build_their_lattice(self, g2, g3):
        # the rank test's rescaling by 2^(4e), 2^(6e) and the AGM's error scale^6 both left the float range
        unit = el.from_invariants(g2 and 1.0, g3 and 1.0)
        c = 2.0 ** (255 if g2 else 170)  # g2(c L) = g2(L) / c^4, g3(c L) = g3(L) / c^6
        ctx = el.from_invariants(g2, g3)
        assert ctx.invariants.g2 == g2 and ctx.invariants.g3 == g3 and len(ctx.reduced) == 2
        assert ctx.lambda_min == pytest.approx(c * unit.lambda_min, rel=1e-14)

    @pytest.mark.parametrize("g2, g3", [(1e-320, 1e-320), (1e-315, 1e-316)])
    def test_subnormal_invariants_build_their_lattice(self, g2, g3):
        # invariants on the subnormal grid, 2^-1074 apart, compared with the series ones at the unit scale
        ctx = el.from_invariants(g2, g3)
        assert ctx.invariants.g2 == g2 and ctx.invariants.g3 == g3 and len(ctx.reduced) == 2
        oracle = ThetaOracle(*ctx.reduced)
        for z in (0.1 + 0.07j, 0.3 - 0.2j, 0.05 + 0.3j, 0.4 * cmath.exp(2j)):
            z *= ctx.lambda_min
            for value, ref in zip(el._wp_dp(ctx, z), oracle.wp_dp(z)):
                assert abs(value - ref) <= 1e-12 * abs(ref)

    def test_trigonometric_degeneration(self):
        # Delta = 0: pe = k^2/sin^2(kz) - k^2/3, sigma = exp(k^2 z^2/6) sin(kz)/k
        ctx = el.from_invariants(3.0, 1.0)
        k = cmath.sqrt(1.5)
        assert ctx.reduced == (math.pi / k,) and ctx.lambda_min == pytest.approx(math.pi / abs(k))
        for z in (0.5, 0.37 - 1.21j, 1.4 + 0.2j, 0.8 + 0.3j):
            p = k * k / cmath.sin(k * z) ** 2 - k * k / 3.0
            dp = -2.0 * k**3 * cmath.cos(k * z) / cmath.sin(k * z) ** 3
            zt = k * cmath.cos(k * z) / cmath.sin(k * z) + k * k * z / 3.0
            sg = cmath.exp(k * k * z * z / 6.0) * cmath.sin(k * z) / k
            for value, ref in zip((*el._wp_dp(ctx, z), el.zeta(ctx, z), el.sigma(ctx, z)), (p, dp, zt, sg)):
                assert abs(value - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("height", [300.0, 500.0])
    def test_very_tall_lattice_is_the_trigonometric_limit(self, height):
        # every a_n underflows and |Im kz| passes 450 (sin overflows past 710):
        # pe = -pi^2/3, pe' underflows, zeta = pi^2 z/3 + pi cot(pi z), sigma underflows
        ctx = el.from_periods(1.0, height * 1j)
        for z in (0.3 + 0.48j * height, -0.3 - 0.48j * height):
            p, dp = el._wp_dp(ctx, z)
            assert p == pytest.approx(-math.pi**2 / 3.0, rel=1e-15) and dp == 0
            cot = -1j * math.copysign(1.0, z.imag)
            assert el.zeta(ctx, z) == pytest.approx(math.pi**2 * z / 3.0 + math.pi * cot, rel=1e-15)
            assert el.sigma(ctx, z) == 0
            assert [el.wp(ctx, np.array([z]))[0], el.wp_prime(ctx, np.array([z]))[0]] == [p, dp]


def _power_of_two(g2: complex, g3: complex) -> float:
    """The power of two t that `from_invariants` scales the invariants by: t max(|g2|^(1/4), |g3|^(1/6)) in [0.5, 1)."""
    return 2.0 ** -math.frexp(max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0)))[1]


def _roots(g2, g3):
    g2, g3 = complex(g2), complex(g3)
    return el._cubic_roots(g2, g3, _power_of_two(g2, g3))


def _random_lattices(n, seed):
    """n lattices (omega1, omega2) of every size and rotation, tau off the boundary of the fundamental domain."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        w1 = cmath.rect(10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-math.pi, math.pi))
        out.append((w1, w1 * complex(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 3.0))))
    return out


class TestAgmRoots:
    """The closed-form roots of 4t^3 - g2 t - g3 and the AGM basis built on them."""

    @staticmethod
    def _within_conditioning(g2, g3, roots):
        """Each root within 16 eps s^6/|f'(e)| of mpmath's, f = 4t^3 - g2 t - g3: the error
        of a solver whose backward error is a few eps of the polynomial's terms, each at
        most s^6 in size; the reference roots nearest to the roots given."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            refs = [complex(r) for r in mp.polyroots([4, 0, -mp.mpc(g2), -mp.mpc(g3)], maxsteps=100, extraprec=100)]
        s6 = max(abs(g2) ** 1.5, abs(g3))
        nearest = [min(refs, key=lambda r: abs(r - e)) for e in roots]
        for e, ref in zip(roots, nearest):
            assert abs(e - ref) * abs(12.0 * ref * ref - g2) <= 16.0 * 2.0**-52 * s6
        return nearest

    @staticmethod
    def _ordered(roots):
        e1, e2, e3 = roots
        assert abs(e1) >= max(abs(e2), abs(e3)) and (e2 - e3).real >= 0.0

    def test_roots_match_mpmath(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g2 = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-4.0, 4.0)
            g3 = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-4.0, 4.0)
            roots = _roots(g2, g3)
            self._ordered(roots)
            # well apart here: each reference root is found once
            assert len(set(self._within_conditioning(g2, g3, roots))) == 3

    @pytest.mark.parametrize("g3", [4.0, -36.0, 4j, 1.0 + 2j, 1e-300, 1e150])
    def test_g2_zero_gives_the_cube_roots(self, g3):
        mp = pytest.importorskip("mpmath")
        roots = _roots(0.0, g3)
        self._ordered(roots)
        # in mpmath: (g3/4) ** (1/3) in floats is off by |ln(g3/4)| times the rounding of 1/3
        c = complex(mp.cbrt(mp.mpc(g3) / 4))
        for e in roots:
            assert min(abs(e - c * cmath.exp(2j * math.pi * k / 3)) for k in range(3)) <= 4.0 * 2.0**-52 * abs(c)

    @pytest.mark.parametrize("g2", [4.0, -4.0, 4j, 1.0 - 3j, 1e-300, 1e100])
    def test_g3_zero_gives_zero_and_a_pair(self, g2):
        e1, e2, e3 = roots = _roots(g2, 0.0)
        self._ordered(roots)
        half = cmath.sqrt(g2) / 2.0
        assert min(abs(e1 - half), abs(e1 + half)) <= 4.0 * 2.0**-52 * abs(half)
        assert abs(e1 + e2 + e3) <= 4.0 * 2.0**-52 * abs(half)
        assert min(abs(e2), abs(e3)) <= 4.0 * 2.0**-52 * abs(half)

    @pytest.mark.parametrize("height", [3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    def test_near_double_roots_of_tall_lattices(self, height):
        # e2 - e3 falls like exp(-pi Im tau): 2e-3 of e1 at 3i and 2e-7 at 6i; from 7i on
        # the float invariants are those of a complex pair 5e-9 of e1 apart, which the
        # roots of the rounded polynomial only fix to about sqrt(eps) of e1
        inv = el.from_periods(1.0, height * 1j).invariants
        roots = e1, e2, e3 = _roots(inv.g2, inv.g3)
        self._ordered(roots)
        assert abs(e1 + e2 + e3) <= 2.0**-52 * abs(e1)
        self._within_conditioning(inv.g2, inv.g3, roots)

    @pytest.mark.parametrize("power", [125, -125])
    @pytest.mark.parametrize("g2, g3", [(4, 1), (1 + 2j, 0.3 - 1j), (0, 4), (4, 0), (7e5, 2e8)])
    def test_invariants_scaled_by_powers_of_two(self, g2, g3, power):
        # (c^4 g2, c^6 g3) has the roots c^2 e and the basis b/c, bit for bit: here
        # g2 moves by 2^+-500 and g3 by 2^+-750, where g2^3 leaves the float range
        c = 2.0**power
        base = _roots(g2, g3)
        scaled = _roots(g2 * c**4, g3 * c**6)
        assert scaled == tuple(e * c * c for e in base)
        assert el._agm_basis(*scaled) == tuple(b / c for b in el._agm_basis(*base))

    def test_every_order_of_the_roots_gives_one_basis(self):
        # not negated either: the sign rule picks Re b1 > 0
        for w1, w2 in _random_lattices(50, 7):
            inv = el.from_periods(w1, w2).invariants
            roots = _roots(inv.g2, inv.g3)
            b1, b2 = basis = el._agm_basis(*roots)
            assert b1.real > 0.0 or (b1.real == 0.0 and b1.imag > 0.0)
            for order in itertools.permutations(roots):
                for got, want in zip(el._agm_basis(*order), basis):
                    assert abs(got - want) <= 1e-13 * abs(want)

    def test_negated_basis_moves_no_value(self):
        rng = np.random.default_rng(3)
        for w1, w2 in _random_lattices(200, 3):
            b1, b2 = el.from_periods(w1, w2).reduced
            ctx, negated = el.from_periods(b1, b2), el.from_periods(-b1, -b2)
            assert negated.reduced == (-b1, -b2)
            z = abs(b1) * (rng.uniform(-2.0, 2.0, 50) + 1j * rng.uniform(-2.0, 2.0, 50))
            for fn in (el.wp, el.wp_prime, el.zeta, el.sigma):
                assert fn(ctx, z).tolist() == fn(negated, z).tolist()

    def test_outcomes_over_magnitudes_and_phases(self):
        # 14 magnitudes times 5 phases for each invariant: every pair builds a
        # lattice of rank two, 1e200 too, where g2^3 or 27 g3^2 passes the float range
        magnitudes = [10.0**k for k in (-300, -200, -100, -30, -10, -3, -1, 0, 1, 3, 10, 30, 100, 200)]
        values = [m * cmath.exp(2j * math.pi * k / 5) for m in magnitudes for k in range(5)]
        for g2 in values:
            for g3 in values:
                ctx = el.from_invariants(g2, g3)
                b1, _ = ctx.reduced
                assert b1.real > 0.0 or (b1.real == 0.0 and b1.imag > 0.0)
                assert ctx.invariants == el.Invariants(g2, g3)

    def test_subnormal_magnitudes_build(self):
        # each invariant 0 or one of 14 magnitudes from the subnormal range to the top
        # of the float range, times 5 phases: every pair builds and keeps its invariants
        magnitudes = [10.0**k for k in (-323, -320, -316, -312, -310, -308, -300, -200, -100, 0, 100, 200, 300, 308)]
        values = [0j] + [m * cmath.exp(2j * math.pi * k / 5) for m in magnitudes for k in range(5)]
        for g2 in values:
            for g3 in values:
                assert el.from_invariants(g2, g3).invariants == el.Invariants(g2, g3)


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
        ref = lattice_sum_reference(square_ctx, z)
        assert abs(el.wp(square_ctx, z) - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("name", ["square_ctx", "hex_ctx", "generic_ctx", "tall_ctx"])
    def test_matches_lattice_sum_across_the_cell(self, name, request):
        # an oracle free of theta functions, out to the edges of the reduced cell
        ctx = request.getfixturevalue(name)
        b1, b2 = ctx.reduced
        for z in (0.45 * b1 * cmath.exp(0.3j), 0.4 * b1 + 0.45 * b2, -0.3 * b1 + 0.5 * b2):
            ref, tail = lattice_sum_reference(ctx, z, return_tail=True)
            assert abs(el.wp(ctx, z) - ref) <= tail

    def test_pole_proximity(self, square_ctx):
        with pytest.raises(PoleProximity):
            el.wp(square_ctx, 1e-9)
        with pytest.raises(PoleProximity):
            el.wp(square_ctx, 2.0 + 2.0j + 1e-9)

    def test_zero_pole_tolerance_is_pole_proximity(self):
        # with no pole tolerance, 1/z^3 overflows next to a lattice point
        ctx = replace(el.from_periods(2.0, 2.0j), pole_tol=0.0)
        for z in (1e-150, 2.0 + 2.0j):
            with pytest.raises(PoleProximity):
                el._wp_dp(ctx, z)

    def test_accurate_next_to_a_pole(self):
        # pe(lam + h) = 1/h^2 + g2 h^2/20 + O(h^4): nothing cancels as h -> 0
        ctx = replace(el.from_periods(2.0, 2.0j), pole_tol=0.0)
        g2 = ctx.invariants.g2
        for lam, h in ((0.0, 1e-5), (0.0, 3e-7 * (1 + 2j)), (2.0 + 2.0j, -(2.0**-19) * 1j)):
            ref = 1.0 / h**2 + g2 * h**2 / 20.0
            assert abs(el.wp(ctx, lam + h) - ref) <= 1e-14 * abs(ref)

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


def cell_points(ctx, count, seed):
    """Points over a 2x2 block of cells about the origin, lattice points included."""
    rng = np.random.default_rng(seed)
    w1, w2 = ctx.periods.omega1, ctx.periods.omega2
    st = rng.uniform(-1.0, 1.0, (count, 2))
    return np.concatenate((st[:, 0] * w1 + st[:, 1] * w2, [0j, w1, w1 + w2, -w2]))


class TestWpArray:
    """pe and pe' on arrays against the number calls and the theta oracle."""

    @staticmethod
    def assert_matches_scalar(ctx, z):
        """Returns where the array holds nan; exactly where the number call raises."""
        p, dp = el.wp(ctx, z), el.wp_prime(ctx, z)
        for zi, pi, dpi in zip(z.tolist(), p.tolist(), dp.tolist()):
            try:
                sp, sdp = el.wp(ctx, zi), el.wp_prime(ctx, zi)
            except PoleProximity:
                assert math.isnan(pi.real) and math.isnan(dpi.real)
                continue
            assert abs(pi - sp) <= 1e-12 * max(1.0, abs(sp))
            assert abs(dpi - sdp) <= 1e-12 * max(1.0, abs(sdp))
        return np.isnan(p)

    @pytest.mark.parametrize("name", ["square_ctx", "hex_ctx", "generic_ctx", "tall_ctx"])
    def test_matches_scalar_over_cells(self, name, request):
        ctx = request.getfixturevalue(name)
        poles = self.assert_matches_scalar(ctx, cell_points(ctx, 300, 1))
        assert poles.sum() == 4  # the four lattice points

    @pytest.mark.parametrize("name", ["normal_form_ctx", "degenerate_ctx"])
    def test_matches_scalar_without_periods(self, name, request):
        ctx = request.getfixturevalue(name)
        rng = np.random.default_rng(2)
        z = rng.uniform(-2.0, 2.0, (300, 2)).view(complex)[:, 0]
        poles = self.assert_matches_scalar(ctx, np.append(z, 0j))
        assert poles[-1]

    @pytest.mark.parametrize("tau, scale", [(1j, 1.0), (cmath.exp(1j * math.pi / 3), 3.0), (0.3 + 1.4j, 0.7)])
    def test_matches_theta_oracle(self, tau, scale):
        ctx = el.from_periods(scale, scale * tau)
        oracle = ThetaOracle(scale, scale * tau)
        z = cell_points(ctx, 12, 3)[:12]
        p, dp = el.wp(ctx, z), el.wp_prime(ctx, z)
        assert not np.isnan(p).any()
        for zi, pi, dpi in zip(z.tolist(), p.tolist(), dp.tolist()):
            op, odp = oracle.wp_dp(zi)
            assert abs(pi - op) <= 1e-12 * max(1.0, abs(op))
            assert abs(dpi - odp) <= 1e-12 * max(1.0, abs(odp))

    def test_non_finite_value_is_pole_fault(self):
        # with no pole tolerance, 1/z^3 overflows next to the origin
        ctx = replace(el.from_periods(2.0, 2.0j), pole_tol=0.0)
        z = np.array([1e-150 + 0j, 0.5 + 0.5j])
        p, dp = el.wp(ctx, z), el.wp_prime(ctx, z)
        assert np.isnan(p).tolist() == [True, False]
        assert math.isnan(p[0].real) and math.isnan(dp[0].real) and math.isfinite(p[1].real)

    @pytest.mark.parametrize("name", ["square_ctx", "hex_ctx", "generic_ctx", "tall_ctx"])
    def test_lattice_distance_matches_scalar(self, name, request):
        ctx = request.getfixturevalue(name)
        z = cell_points(ctx, 500, 4)
        got = el.lattice_distance(ctx, z)
        assert got.tolist() == pytest.approx([el.lattice_distance(ctx, zi) for zi in z.tolist()], rel=1e-14)

    def test_empty_batch(self, square_ctx):
        empty = np.empty(0, complex)
        assert el.wp(square_ctx, empty).shape == el.wp_prime(square_ctx, empty).shape == (0,)

def _jet_scales(ctx, values):
    """Per order n, the size a jet value's round-off is relative to.

    That is the ODE formula of `jets` on magnitudes, its cancellation scale,
    but at least |k|^(n+2), the lattice's own size of pe^(n), since pe and
    pe' themselves have zeros.
    """
    p, dp = abs(values[0]), abs(values[1])
    s2 = 6.0 * p * p + 0.5 * abs(ctx.invariants.g2)
    s3 = 12.0 * p * dp
    sizes = (p, dp, s2, s3, 12.0 * dp * dp + 12.0 * p * s2, 36.0 * dp * s2 + 12.0 * p * s3)
    return [max(size, abs(ctx.k) ** (n + 2)) for n, size in enumerate(sizes)]


class TestArrayEntryPoints:
    """zeta, sigma, jets and lattice_distance on arrays against their scalar calls."""

    @pytest.mark.parametrize("tau", [1j, cmath.exp(1j * math.pi / 3.0), 8j], ids=["square", "hex", "tall"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_scalar_over_cells(self, tau, scale):
        ctx = el.from_periods(scale, scale * tau)
        w1, w2 = ctx.periods.omega1, ctx.periods.omega2
        st = np.random.default_rng(12).uniform(-1.3, 1.3, (150, 2))
        z = np.concatenate((st[:, 0] * w1 + st[:, 1] * w2, [0j, w1, w1 + w2, -w2]))
        zeta, sigma, jets = el.zeta(ctx, z), el.sigma(ctx, z), el.jets(ctx, z, 5)
        assert isinstance(jets, tuple) and len(jets) == 6
        poles = 0
        for i, zi in enumerate(z.tolist()):
            s = el.sigma(ctx, zi)
            assert abs(sigma[i] - s) <= 1e-13 * abs(s)
            try:
                sz, sj = el.zeta(ctx, zi), el.jets(ctx, zi, 5)
            except PoleProximity:
                poles += 1
                assert np.isnan(zeta[i]) and all(np.isnan(v[i]) for v in jets)
                with pytest.raises(PoleProximity):
                    el.jets(ctx, zi, 5)
                continue
            assert abs(zeta[i] - sz) <= 1e-13 * max(abs(sz), 1.0 / scale)
            for v, want, size in zip(jets, sj, _jet_scales(ctx, sj)):
                assert abs(v[i] - want) <= 1e-13 * size
        assert poles == 4  # the four lattice points

    def test_sigma_overflow_raises_for_the_batch(self, square_ctx):
        with pytest.raises(FloatOverflow):
            el.sigma(square_ctx, np.array([0.5 + 0.5j, 45.3 + 1.1j]))

    def test_invariants_only_contexts(self, normal_form_ctx, degenerate_ctx):
        z = np.random.default_rng(13).uniform(-1.0, 1.0, (50, 2)).view(complex)[:, 0]
        for ctx in (normal_form_ctx, degenerate_ctx):
            got = el.lattice_distance(ctx, z)
            assert got.tolist() == [el.lattice_distance(ctx, zi) for zi in z.tolist()]
        assert got.tolist() == np.abs(z).tolist()  # the lattice {0} of 1/z^2
        for ctx in (normal_form_ctx, degenerate_ctx):
            zeta, sigma, jets = el.zeta(ctx, z), el.sigma(ctx, z), el.jets(ctx, z, 3)
            for i, zi in enumerate(z.tolist()):
                sz, ss = el.zeta(ctx, zi), el.sigma(ctx, zi)
                assert abs(zeta[i] - sz) <= 1e-13 * abs(sz)
                assert abs(sigma[i] - ss) <= 1e-13 * abs(ss)
                want = el.jets(ctx, zi, 3)
                for v, w, size in zip(jets, want, _jet_scales(ctx, want)):
                    assert abs(v[i] - w) <= 1e-13 * size

    def test_empty_batch(self, square_ctx):
        empty = np.empty(0, complex)
        assert el.zeta(square_ctx, empty).shape == el.sigma(square_ctx, empty).shape == (0,)
        assert el.lattice_distance(square_ctx, empty).shape == (0,)


# per context, points with a lattice coordinate that is at least 2^52 or not
# finite: on (2, 2i) 5e307, 5e299 and 2^52 (2^53 + 0.3 rounds to 2^53); on the
# rank-one lattice pi/k = 2.57, where 2^53 + 0.3 lies below 2^52 lattice steps
_INF, _NAN = complex(math.inf, 0.0), complex(math.nan, 0.0)
_FAR = {
    "square": (el.from_periods(2.0, 2.0j), [1e308, 1e300, 2.0**53 + 0.3, 1e308 - 1e308j, _INF, _NAN]),
    "rank-1": (el.from_invariants(3.0, 1.0), [1e308, 1e300, 2.0**54, 1e308 - 1e308j, _INF, _NAN]),
}


class TestFloatTop:
    """Past 2^52 a lattice coordinate holds no fraction, so z fixes no point of the cell."""

    @pytest.mark.parametrize("name, z", [(name, z) for name, (_, zs) in _FAR.items() for z in zs])
    @pytest.mark.parametrize(
        "fn", [el.wp, el.wp_prime, el.zeta, el.sigma, lambda ctx, z: el.jets(ctx, z, 3)],
        ids=["wp", "wp_prime", "zeta", "sigma", "jets"],
    )
    def test_a_number_raises_float_overflow(self, fn, name, z):
        with pytest.raises(FloatOverflow, match="fixes no point of the cell"):
            fn(_FAR[name][0], z)

    @pytest.mark.parametrize("name", _FAR)
    def test_an_array_holds_nan_there(self, name):
        ctx, far = _FAR[name]
        z = np.array([0.3 + 0.2j, *far])
        for got in (el.wp(ctx, z), el.wp_prime(ctx, z), el.zeta(ctx, z), *el.jets(ctx, z, 3)):
            assert np.isfinite(got[0]) and np.isnan(got[1:]).all()

    def test_sigma_of_an_array_raises_as_it_does_beyond_the_float_range(self, square_ctx):
        with pytest.raises(FloatOverflow, match="fixes no point of the cell"):
            el.sigma(square_ctx, np.array([0.3 + 0.2j, 1e300]))

    @pytest.mark.parametrize(
        "z, z0", [(2.0**53 - 2.0 + 0.5j, 0.5j), (2.0**52 + 1.0 + 0.5j, 1.0 + 0.5j)], ids=["2^52-1", "2^51+1/2"]
    )
    def test_a_coordinate_below_2_52_still_fixes_its_point(self, square_ctx, z, z0):
        # z - m b1 is exact, so pe and pe' are their values at z0 bit for bit, for a
        # number and for an array
        for fn in (el.wp, el.wp_prime):
            assert fn(square_ctx, z) == fn(square_ctx, z0)
            assert fn(square_ctx, np.array([z])) == fn(square_ctx, np.array([z0]))


def _clear_radii(ctx):
    # one radius where the rounded lattice point decides, one where the 3x3 search does
    return (0.1, 0.4 * ctx.lambda_min)


class TestLatticeQueriesAtTheFloatTop:
    """The lattice queries keep the evaluators' rule: past 2^52 z fixes no point of the cell."""

    @pytest.mark.parametrize("name, z", [(name, z) for name, (_, zs) in _FAR.items() for z in zs])
    def test_a_number_is_no_lattice_point_and_has_no_distance(self, name, z):
        ctx = _FAR[name][0]
        with pytest.raises(FloatOverflow, match="fixes no point of the cell"):
            el.lattice_offset(ctx, z)
        assert math.isnan(el.lattice_distance(ctx, z))
        for radius in _clear_radii(ctx):
            assert el.clear_of_lattice(ctx, z, radius) is False

    @pytest.mark.parametrize("name", _FAR)
    def test_an_array_holds_nan_and_is_not_clear(self, name):
        ctx, far = _FAR[name]
        z = np.array([0.5 * (1 + 1j) * el._frame(ctx.reduced)[0], *far])
        dist = el.lattice_distance(ctx, z)
        assert np.isfinite(dist[0]) and np.isnan(dist[1:]).all()
        for radius in _clear_radii(ctx):
            assert el.clear_of_lattice(ctx, z, radius).tolist() == [True] + [False] * len(far)

    def test_only_coordinates_within_the_rank_count(self):
        # across the line of a rank-one lattice, and anywhere at rank zero, a coordinate is unbounded
        rank_one, rank_zero = _FAR["rank-1"][0], el.from_invariants(0.0, 0.0)
        (w,) = rank_one.reduced
        for ctx, z in ((rank_one, 1e300j * w), (rank_zero, 1e300 + 0j), (rank_zero, 1e308 - 1e308j)):
            assert el.lattice_offset(ctx, z) == pytest.approx(abs(z) / abs(el._frame(ctx.reduced)[0]), rel=1e-15)
            assert el.lattice_offset(ctx, z) > el.LATTICE_TOL
            assert el.lattice_distance(ctx, z) == pytest.approx(abs(z), rel=1e-15)
            assert el.clear_of_lattice(ctx, np.array([z]), 0.1).tolist() == [True]

    def test_a_coordinate_below_2_52_still_fixes_its_point(self, square_ctx):
        # z has the lattice coordinates (2^52 - 1, 1/4) on (2, 2i)
        z = 2.0**53 - 2.0 + 0.5j
        assert el.lattice_offset(square_ctx, z) == 0.25
        assert el.lattice_offset(square_ctx, 2.0**53 - 2.0) <= el.LATTICE_TOL
        assert el.lattice_distance(square_ctx, z) == 0.5
        assert el.clear_of_lattice(square_ctx, z, 0.4) and not el.clear_of_lattice(square_ctx, z, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        re_tau=st.floats(-0.5, 0.5),
        lift=st.floats(0.0, 3.0),
        angle=st.floats(0.0, 2 * math.pi),
        scale=st.integers(-60, 60),
    )
    def test_below_the_screen_every_coordinate_is_below_2_52(self, re_tau, lift, angle, scale):
        # the screen on max |z| that lets an array skip the 2^52 test: on a
        # Gauss-reduced basis |s|, |t| <= 2|z|/(sqrt(3) lambda_min); the
        # hexagonal corner (re_tau = +-1/2, lift = 0) is where that is tight
        tau = complex(re_tau, math.sqrt(1.0 - re_tau * re_tau) + lift)
        ctx = el.from_periods(2.0**scale, 2.0**scale * tau)
        z = math.nextafter(el._CELL_SCREEN * ctx.lambda_min, 0.0) * cmath.exp(1j * angle)
        s, t = el._lattice_coords(z, *ctx.reduced)
        assert abs(s) < 2.0**52 and abs(t) < 2.0**52


def _sample_points(ctx):
    """Points over +-1.3 cells with four lattice points, or a box about the origin and its poles."""
    rng = np.random.default_rng(14)
    if ctx.periods is not None:
        w1, w2 = ctx.periods.omega1, ctx.periods.omega2
        st = rng.uniform(-1.3, 1.3, (60, 2))
        return np.concatenate((st[:, 0] * w1 + st[:, 1] * w2, [0j, w1, w1 + w2, -w2]))
    scale = ctx.lambda_min if math.isfinite(ctx.lambda_min) else 1.0
    z = scale * rng.uniform(-0.8, 0.8, (60, 2)).view(complex)[:, 0]
    poles = [0j] + ([sum(ctx.reduced)] if ctx.reduced else [])
    return np.concatenate((z, poles))


def _family_jets(family):
    """(ctx, z) -> the jets to order 5 of the family that family(ctx) gives."""
    return lambda ctx, z: family(ctx).jets(z, 5)


def _residual(ctx, x):
    """residual of (pe, exp, pe) at (x, y, -x-y) with y = 0.37 x + 0.21i; a batch faults exactly at nan.

    `residual` takes arrays only: a number runs as an array of one and raises PoleProximity where it faults.
    """
    fam = vr.WeierstrassShifted(ctx, 0j)
    xs = np.atleast_1d(np.asarray(x, dtype=complex))
    r, faults = vr.residual(fam, vr.Exponential(delta=0.5), fam, xs, 0.37 * xs + 0.21j)
    assert np.array_equal(faults != 0, np.isnan(r))
    if np.ndim(x):
        return r
    if faults[0]:
        raise PoleProximity(complex(x), "residual faults")
    return float(r[0])


# each evaluator as (ctx, z) -> a value or a tuple of values
ELEMENTWISE = {
    "wp": el.wp,
    "wp_prime": el.wp_prime,
    "jets": lambda ctx, z: el.jets(ctx, z, 5),
    "zeta": el.zeta,
    "sigma": el.sigma,
    "lattice_distance": el.lattice_distance,
    "WeierstrassShifted.jets": _family_jets(lambda ctx: vr.WeierstrassShifted(ctx, 0.1 - 0.05j)),
    "Exponential.jets": _family_jets(lambda ctx: vr.Exponential(2.0, 0.5j, 1.0 - 0.5j)),
    "Linear.jets": _family_jets(lambda ctx: vr.Linear(1.5 - 1j, 2.0)),
    "Constant.jets": _family_jets(lambda ctx: vr.Constant(0.7 + 0.1j)),
    "residual": _residual,
}
# those that raise PoleProximity at a lattice point
POLED = {"wp", "wp_prime", "jets", "zeta", "residual"}


class TestArrayCallsMatchNumberCalls:
    """Every evaluator on an array equals its number calls, with nan where a number raises PoleProximity."""

    @pytest.mark.parametrize("name", list(ELEMENTWISE))
    @pytest.mark.parametrize(
        "ctx",
        [
            el.from_periods(2.0, 2.0j),
            el.from_periods(1.0, 8.0j),
            el.from_periods(0.01, 0.003 + 0.011j),
            el.from_invariants(4.0, 0.0),
            el.from_invariants(3.0, 1.0),
            el.from_invariants(12.0, 8.0),
            el.from_invariants(0.0, 0.0),
        ],
        ids=["square", "tall", "small", "agm", "trig-3-1", "trig-12-8", "g2-g3-0"],
    )
    def test_array_equals_elementwise_calls(self, name, ctx):
        call = ELEMENTWISE[name]
        z = _sample_points(ctx)
        batch = call(ctx, z)
        batch = batch if isinstance(batch, tuple) else (batch,)
        assert all(np.shape(v) == z.shape for v in batch)
        poles = 0
        for i, zi in enumerate(z.tolist()):
            try:
                want = call(ctx, zi)
            except PoleProximity:
                poles += 1
                assert all(np.isnan(v[i]) for v in batch)
                continue
            if name in ("sigma", "lattice_distance"):
                # a number runs as an array of one
                assert want == call(ctx, z[i : i + 1])[0]
            want = want if isinstance(want, tuple) else (want,)
            pe_jets = name in ("jets", "WeierstrassShifted.jets")
            sizes = _jet_scales(ctx, want) if pe_jets else [max(1.0, abs(w)) for w in want]
            for v, w, size in zip(batch, want, sizes):
                assert abs(v[i] - w) <= 1e-12 * size
        assert (poles > 0) == (name in POLED)

    @pytest.mark.parametrize("name", list(ELEMENTWISE))
    @pytest.mark.parametrize(
        "ctx",
        [el.from_periods(2.0, 2.0j), el.from_periods(2.0, 2.0 * cmath.exp(1j * math.pi / 3)), el.from_periods(1.0, 8.0j)],
        ids=["square", "hexagonal", "tall"],
    )
    def test_value_does_not_depend_on_the_batch(self, name, ctx):
        # every step is elementwise and none is in place, so a point alone
        # equals the same point in a batch, bit for bit
        call = ELEMENTWISE[name]
        z = _sample_points(ctx)
        batch = call(ctx, z)
        batch = batch if isinstance(batch, tuple) else (batch,)
        for i in range(len(z)):
            alone = call(ctx, z[i : i + 1])
            alone = alone if isinstance(alone, tuple) else (alone,)
            assert all(np.array_equal(a, v[i : i + 1], equal_nan=True) for a, v in zip(alone, batch))


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

    def test_a_derivative_past_the_float_range_is_pole_proximity(self, degenerate_ctx):
        # pe' = -2/z^3 overflows at 1e-104, where pe = 1/z^2 does not: a number raises, an array holds nan
        with pytest.raises(PoleProximity):
            el.wp_prime(degenerate_ctx, 1e-104)
        assert np.isnan(el.wp_prime(degenerate_ctx, np.array([1e-104 + 0j]))[0])


class TestJets:
    def test_inverse_square_jets(self, degenerate_ctx):
        j = el.jets(degenerate_ctx, 1.0, 5)
        assert j == pytest.approx((1.0, -2.0, 6.0, -24.0, 120.0, -720.0))

    def test_third_derivative_vs_finite_differences(self, square_ctx):
        z = 0.47 + 0.71j
        h = 1e-4
        fd = (
            el.jets(square_ctx, z + h, 2)[2]
            - el.jets(square_ctx, z - h, 2)[2]
        ) / (2.0 * h)
        exact = el.jets(square_ctx, z, 3)[3]
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_order_contract(self, square_ctx):
        j = el.jets(square_ctx, 0.31 + 0.17j, 2)
        assert isinstance(j, tuple) and len(j) == 3
        with pytest.raises(ValueError):
            el.jets(square_ctx, 0.3, 7)

    def test_sixth_derivative_is_the_jet_polynomials_cap(self, degenerate_ctx, square_ctx):
        # the cap of jetpoly's jet variables, so a derived determinant never asks for more
        assert len(el.jets(square_ctx, 0.3, jp.MAX_JET_ORDER)) == jp.MAX_JET_ORDER + 1
        assert el.jets(degenerate_ctx, 1.0, 6) == pytest.approx((1.0, -2.0, 6.0, -24.0, 120.0, -720.0, 5040.0))
        z, h = 0.47 + 0.71j, 1e-4
        fd = (el.jets(square_ctx, z + h, 5)[5] - el.jets(square_ctx, z - h, 5)[5]) / (2.0 * h)
        exact = el.jets(square_ctx, z, 6)[6]
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
        batch = el.jets(square_ctx, np.array([z, 0j]), 6)
        assert abs(batch[6][0] - exact) <= 1e-12 * abs(exact) and np.isnan(batch[6][1])


class TestSigma:
    @pytest.mark.parametrize("name", ["square_ctx", "hex_ctx", "generic_ctx"])
    def test_matches_theta_oracle(self, name, request):
        ctx = request.getfixturevalue(name)
        w1, w2 = ctx.periods.omega1, ctx.periods.omega2
        oracle = ThetaOracle(w1, w2)
        for s, t in ((0.13, 0.29), (0.5, 0.5), (-0.71, 0.38), (1.37, 0.41), (-0.62, -1.45)):
            z = s * w1 + t * w2
            ref = oracle.sigma(z)
            assert abs(el.sigma(ctx, z) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize(
        "build, args",
        [
            (el.from_invariants, (1e300, 1e300)),
            (el.from_periods, (1e-27, 1e-27j)),
            (el.from_periods, (2.0, 2.0j)),
            (el.from_periods, (2.0, 2.0 * cmath.exp(1j * math.pi / 3.0))),
            (el.from_periods, (2.0, 0.7 + 2.1j)),
        ],
        ids=["invariants-1e300", "periods-1e-27", "square", "hexagonal", "generic"],
    )
    def test_keeps_its_digits_at_every_scale(self, build, args):
        # |sigma| reaches e^-174 here; exponentiating ln|sigma| whole lost |ln|sigma|| units of 2^-53
        ctx = build(*args)
        b1, b2 = ctx.reduced
        oracle = ThetaOracle(b1, b2)
        st_ = np.random.default_rng(9).uniform(-1.5, 1.5, (80, 2))
        z = st_[:, 0] * b1 + st_[:, 1] * b2
        ref = np.array([oracle.sigma(p) for p in z])
        assert (np.abs(el.sigma(ctx, z) - ref) / np.abs(ref)).max() <= 4e-15

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

    def test_quasi_periodicity_far_from_the_origin(self, square_ctx):
        # sigma(z + w) = -exp(2 zeta(w/2) (z + w/2)) sigma(z), attached in log space
        w1, w2 = square_ctx.periods.omega1, square_ctx.periods.omega2
        oracle = ThetaOracle(w1, w2)
        for z in (8.3 + 0.1j, 8.0 + 7.3j, -11.1 + 0.4j):
            ref = oracle.sigma(z)
            assert abs(el.sigma(square_ctx, z) - ref) <= 1e-12 * abs(ref)

    def test_beyond_the_float_range_is_typed(self, square_ctx):
        # |sigma| grows like exp(pi |z|^2 / (2 area)): beyond 1e308 here
        with pytest.raises(FloatOverflow):
            el.sigma(square_ctx, 45.3 + 1.1j)

    def test_fully_degenerate_sigma_is_identity(self, degenerate_ctx):
        assert el.sigma(degenerate_ctx, 1.7 - 0.4j) == 1.7 - 0.4j


class TestZeta:
    def test_principal_part(self):
        # the default pole guard would veto 1e-6; the tolerance is overridable
        ctx = replace(el.from_periods(2.0, 2.0j), pole_tol=1e-8)
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


class TestThetaKernel:
    """The per-context cut of the theta series, and pe without pe'."""

    @pytest.mark.parametrize(
        "tau, terms, sigma_terms",
        [(1j, (14, 7), (3, 2)), (cmath.exp(1j * math.pi / 3), (16, 8), (3, 3)), (1.5j, (9, 5), (2, 2)),
         (3j, (5, 3), (1, 1)), (8j, (2, 1), (1, 0))],
        ids=["i", "hexagonal", "1.5i", "3i", "8i"],
    )
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_kept_terms(self, tau, terms, sigma_terms, scale):
        # after rounding |q| <= |e| <= 1: term n of the pe' sum is at most
        # n^2 |q|^(n-1) times term 1 at 1/e and n^2 |q|^(2n-2) at e, and sigma's
        # term j at most |q|^(j^2) and |q|^(j(j+1)); each keeps the terms where
        # its bound is at least 2^-53
        ctx = el.from_periods(scale, scale * tau)
        q, u = math.exp(-math.pi * tau.imag), 2.0**-53
        (n, low), (m, sigma_low) = terms, sigma_terms
        top_run, low_run = ctx.series.n2a
        assert len(top_run) + len(low_run) == n and len(low_run) == low
        assert n**2 * q ** (n - 1) >= u > (n + 1) ** 2 * q**n
        assert low**2 * q ** (2 * low - 2) >= u > (low + 1) ** 2 * q ** (2 * low)
        sigma_top, sigma_low_run = ctx.series.theta1[1]
        assert len(sigma_top) + len(sigma_low_run) == m and len(sigma_low_run) == sigma_low
        assert q ** (m**2) >= u > q ** ((m + 1) ** 2)
        assert q ** ((sigma_low + 1) * (sigma_low + 2)) < u <= q ** (sigma_low * (sigma_low + 1))

    @pytest.mark.parametrize(
        "ctx",
        [
            el.from_periods(2.0, 2.0j),
            el.from_periods(2.0, 2.0 * cmath.exp(1j * math.pi / 3)),
            el.from_periods(2.0, 0.7 + 2.1j),
            el.from_periods(1.0, 8.0j),
            el.from_periods(1e-20, 1e-20 * (0.3 + 1.1j)),
            replace(el.from_periods(2.0, 2.0j), pole_tol=0.0),
            el.from_invariants(3.0, 1.0),
            el.from_invariants(0.0, 0.0),
        ],
        ids=["square", "hexagonal", "generic", "tall", "omega-1e-20", "no-pole-tol", "rank-1", "rank-0"],
    )
    def test_pe_alone_equals_the_jets_and_faults_with_them(self, ctx):
        # over the cells, on lattice points, and next to them: just inside and
        # just outside the pole tolerance, and at 1e-150 of a lattice point
        z = _sample_points(ctx)
        poles = [0j] + ([sum(ctx.reduced)] if ctx.reduced else [])
        step = ctx.pole_tol or 1e-150
        near = [lam + step * f * cmath.exp(1j * a) for lam in poles for f in (1 - 2**-40, 1 + 2**-40, 3.0) for a in (0.3, 2.0)]
        z = np.concatenate((z, near))
        alone, jets0, jets1 = el.wp(ctx, z), el.jets(ctx, z, 0)[0], el.jets(ctx, z, 1)[0]
        assert np.array_equal(alone, jets1, equal_nan=True) and np.array_equal(alone, jets0, equal_nan=True)
        assert np.isnan(alone).any() and not np.isnan(alone).all()
        for zi in z.tolist():
            try:
                want = el.jets(ctx, zi, 1)[0]
            except PoleProximity:
                with pytest.raises(PoleProximity):
                    el.wp(ctx, zi)
                continue
            assert el.wp(ctx, zi) == want


# contexts of every rank and shape for the admission test
_ADMISSION_CONTEXTS = {
    "square": el.from_periods(2.0, 2.0j),
    "hexagonal": el.from_periods(2.0, 2.0 * cmath.exp(1j * math.pi / 3)),
    "generic": el.from_periods(2.0, 0.7 + 2.1j),
    "8i": el.from_periods(1.0, 8.0j),
    "0.5+8i": el.from_periods(1.0, 0.5 + 8.0j),
    "rank-1": el.from_invariants(3.0, 1.0),
    "rank-0": el.from_invariants(0.0, 0.0),
}


class TestClearOfLattice:
    """clear_of_lattice(ctx, z, r) is lattice_distance(ctx, z) > r, elementwise and exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(_ADMISSION_CONTEXTS)),
        coords=st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)),
            min_size=1,
            max_size=12,
        ),
        radius=st.floats(0.0, 0.6),
    )
    def test_equals_the_lattice_distance_test(self, name, coords, radius):
        # points anywhere, and points within radius-sized offsets of a lattice
        # point; radii in units of lambda_min (of 1 where it is infinite) from 0
        # to past the 0.3 where the rounded point stops deciding
        ctx = _ADMISSION_CONTEXTS[name]
        unit = ctx.lambda_min if math.isfinite(ctx.lambda_min) else 1.0
        w1, w2 = el._frame(ctx.reduced)
        z = np.array(
            [s * w1 + t * w2 for s, t, _, _ in coords]
            + [round(s) * w1 + round(t) * w2 + 1.5 * f * radius * unit * cmath.exp(1j * a) for s, t, f, a in coords]
        )
        r = radius * unit
        assert np.array_equal(el.clear_of_lattice(ctx, z, r), el.lattice_distance(ctx, z) > r)

    @pytest.mark.parametrize("name", sorted(_ADMISSION_CONTEXTS))
    def test_exact_at_the_distance_itself(self, name):
        # the rounded point's distance is lattice_distance's, bit for bit: a
        # radius equal to it admits nothing, and the next float below admits
        ctx = _ADMISSION_CONTEXTS[name]
        unit = ctx.lambda_min if math.isfinite(ctx.lambda_min) else 1.0
        w1, w2 = el._frame(ctx.reduced)
        rng = np.random.default_rng(21)
        st_ = rng.uniform(-2.0, 2.0, (200, 2))
        offsets = 0.29 * unit * rng.uniform(0.0, 1.0, 200) * np.exp(2j * math.pi * rng.uniform(size=200))
        z = np.round(st_[:, 0]) * w1 + np.round(st_[:, 1]) * w2 + offsets
        dist = el.lattice_distance(ctx, z)
        for zi, d in zip(z.tolist(), dist.tolist()):
            assert el.clear_of_lattice(ctx, zi, d) is False
            assert el.clear_of_lattice(ctx, zi, math.nextafter(d, -math.inf)) is True


class TestLatticeOps:
    @pytest.mark.parametrize("g2, g3", [(12.0, 8.0), (3.0, 1.0), (-3.0, -1j)])
    def test_rank_one_is_the_pole_line_of_the_trigonometric_form(self, g2, g3):
        # pe = k^2/sin^2(kz) - k^2/3 with k^2 = 9 g3/(2 g2) has its poles at (pi/k)Z
        ctx = el.from_invariants(g2, g3)
        w = math.pi / cmath.sqrt(4.5 * g3 / g2)
        assert ctx.reduced == (w,)
        z = np.random.default_rng(3).uniform(-6.0, 6.0, (200, 2)).view(complex)[:, 0]
        brute = np.abs(z[:, None] - np.arange(-40, 41) * w).min(axis=1)
        assert el.lattice_distance(ctx, z) == pytest.approx(brute, rel=1e-14)
        assert el.lattice_point(ctx, 2.5, 0) == 2.5 * w
        assert el.lattice_coordinates(ctx, (2.5 + 0.5j) * w) == pytest.approx((2.5, 0.5), abs=1e-15)
        assert reduce_to_cell(ctx, (3.2 + 0.4j) * w) == pytest.approx((0.2 + 0.4j) * w, abs=1e-14)
        assert el.lattice_offset(ctx, -3 * w) <= el.LATTICE_TOL
        assert el.lattice_offset(ctx, 0.5 * w) > el.LATTICE_TOL and el.lattice_offset(ctx, 1j * w) > el.LATTICE_TOL
        with pytest.raises(PoleProximity):
            el.wp(ctx, -3 * w)

    def test_lattice_membership_examples(self, square_ctx):
        # a lattice point is one whose offset is within LATTICE_TOL, the rule of `theorem_shift_expectation`
        w1, w2 = square_ctx.periods.omega1, square_ctx.periods.omega2
        assert el.lattice_offset(square_ctx, 2 * w1 - 5 * w2) <= el.LATTICE_TOL
        assert el.lattice_offset(square_ctx, 0.5 * w1) > el.LATTICE_TOL
        eps_lat = el.LATTICE_TOL
        assert el.lattice_offset(square_ctx, w1 * (1.0 + eps_lat / 10.0)) <= el.LATTICE_TOL
