"""Independent oracles that the tests judge the package by.

No command or check of the package runs these; each is slow, or computes
by another route what the package computes, or inverts one of its maps:

- `ThetaOracle`: sigma, zeta, pe, pe' and the invariants at 30 digits from
  mpmath's theta1 and theta constants;
- `brute_eisenstein_g2`: g2 by direct double sums over the lattice;
- `lattice_sum_reference`: pe by its defining lattice sum, Richardson
  accelerated;
- `reduce_to_cell`: the representative of z in the fundamental cell;
- `transform_jets`: the jets of alpha f(delta x) + beta by the chain rule;
- `reexpand_normal_form`: the inverse of `classify.to_normal_form`;
- `curve_add` and `exact_det3`: the chord-tangent law on
  y^2 = 4x^3 - g2 x - g3 over `Fraction`s, and det3 with its six-term
  scale, exactly, on rational points;
- `stream_uniforms`: the samplers' uniforms, SplitMix64 keyed by
  (seed, round), in Python ints;
- `leading_term`: the term of a jet polynomial with the largest packed
  monomial, which the tests hold to graded lex order;
- `shifted_det_vs_sigma_scan`: det3 of the shifted triple pe(. + shift)
  against its sigma quotient, which pins the residual floor of a shift
  sum off the lattice.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from wpfeq.elliptic import (
    EllipticContext,
    _frame,
    _generators,
    lattice_coordinates,
    lattice_distance,
    lattice_point,
)
from wpfeq.errors import PoleProximity
from wpfeq.jetpoly import DiffPolynomial, Scalar, _unpack
from wpfeq.verifier import ResidualReport, TripleSampler, WeierstrassShifted, _collect, _det_vs_sigma


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
        with mp.workdps(30):
            w, q = mp.mpc(self.omega1) / 2, mp.exp(1j * mp.pi * mp.mpc(self.omega2) / mp.mpc(self.omega1))
            t2, t3, t4 = (mp.jtheta(k, 0, q) for k in (2, 3, 4))
            g2 = mp.pi**4 / (24 * w**4) * (t2**8 + t3**8 + t4**8)
            g3 = mp.pi**6 / (432 * w**6) * (t2**4 + t3**4) * (t3**4 + t4**4) * (t4**4 - t2**4)
            return complex(g2), complex(g3)

    def zeta(self, z):
        mp = self.mp
        with mp.workdps(30):
            z = mp.mpc(z)
            v = mp.pi * z / (2 * self.w)
            ratio = mp.jtheta(1, v, self.q, 1) / mp.jtheta(1, v, self.q)
            return complex(self.eta1 * z / self.w + (mp.pi / (2 * self.w)) * ratio)

    def wp_dp(self, z):
        """(pe, pe') = (-zeta', -zeta''), differentiating zeta above through v."""
        return self.values(z)[:2]

    def values(self, z):
        """(pe, pe', zeta, sigma) at z from one set of theta1 derivatives."""
        mp = self.mp
        with mp.workdps(30):
            z = mp.mpc(z)
            a = mp.pi / (2 * self.w)
            t0, t1, t2, t3 = (mp.jtheta(1, a * z, self.q, d) for d in range(4))
            r1, r2, r3 = t1 / t0, t2 / t0, t3 / t0
            pe = -self.eta1 / self.w - a**2 * (r2 - r1**2)
            dpe = -(a**3) * (r3 - 3 * r2 * r1 + 2 * r1**3)
            zeta = self.eta1 * z / self.w + a * r1
            sigma = mp.exp(self.eta1 * z * z / (2 * self.w)) * t0 / (a * self.t1)
            return tuple(complex(v) for v in (pe, dpe, zeta, sigma))


# -- the reference lattice sum ---------------------------------------------------


def _richardson_best(values, p: int, step: float = 2.0):
    """Extrapolate cutoff-doubling partial results with error ~ M^(-p).

    The tail of a rectangle-truncated lattice sum expands in all integer
    powers M^(-p), M^(-p-1), ... (the odd powers enter through the boundary
    sums of the rectangle), so successive stages remove one power each.
    Returns the deepest diagonal entry and the last improvement as an error
    estimate.
    """
    rows = [list(values)]
    k = p
    while len(rows[-1]) > 1:
        fac = step**k
        prev = rows[-1]
        rows.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
        k += 1
    diag = [r[-1] for r in rows]
    err = abs(diag[-1] - diag[-2]) if len(diag) > 1 else math.inf
    return diag[-1], err


def _annulus_points(ctx: EllipticContext, inner: int, outer: int):
    """Yield numpy arrays of lattice points with inner < max(|m|,|n|) <= outer."""
    m = np.arange(-outer, outer + 1)
    block = max(1, int(2.0e5 / len(m)))
    for n0 in range(-outer, outer + 1, block):
        n = np.arange(n0, min(n0 + block, outer + 1))
        mm, nn = np.meshgrid(m, n)
        if inner:
            mask = (np.abs(mm) > inner) | (np.abs(nn) > inner)
        else:
            mask = (mm != 0) | (nn != 0)
        if not mask.any():
            continue
        yield lattice_point(ctx, mm[mask], nn[mask])


def lattice_sum_reference(
    ctx: EllipticContext,
    z: complex,
    cutoff: int = 200,
    levels: int = 3,
    return_tail: bool = False,
):
    """pe(z) through the defining lattice sum; slow, intended for tests.

    z^-2 + sum'[(z-lambda)^-2 - lambda^-2] over rectangular cutoffs
    (cutoff, 2*cutoff, ...), Richardson-extrapolated; the reported tail
    estimate is the last extrapolation improvement. ValueError below rank two.
    """
    if len(ctx.reduced) < 2:
        raise ValueError("the lattice sum needs a lattice of rank two")
    z = complex(z)
    if lattice_distance(ctx, z) <= ctx.pole_tol:
        raise PoleProximity(z)
    acc = 1.0 / (z * z)
    vals = []
    inner = 0
    for i in range(levels):
        outer = cutoff * 2**i
        for lam in _annulus_points(ctx, inner, outer):
            d = z - lam
            acc += (1.0 / (d * d) - 1.0 / (lam * lam)).sum()
        inner = outer
        vals.append(acc)
    best, err = _richardson_best(vals, p=2)
    if return_tail:
        # conservative: twice the last extrapolation improvement plus roundoff
        return complex(best), float(2.0 * err + 1e-14 * abs(best))
    return complex(best)


# -- lattice cell, jets and normal form --------------------------------------------


def reduce_to_cell(ctx: EllipticContext, z: complex) -> complex:
    """Representative s*omega1 + t*omega2 of z with its coordinates within the rank in [0, 1)."""
    coords, rank = lattice_coordinates(ctx, z), len(ctx.reduced)
    s, t = [c - math.floor(c) for c in coords[:rank]] + list(coords[rank:])
    w1, w2 = _frame(_generators(ctx))
    return s * w1 + t * w2


def transform_jets(j: tuple, alpha: complex = 1.0, beta: complex = 0j, delta: complex = 1.0) -> tuple:
    """Jets of alpha*f(delta x) + beta given jets j of f at delta*x (chain rule)."""
    vals = [alpha * j[0] + beta]
    scale = alpha
    for v in j[1:]:
        scale = scale * delta
        vals.append(scale * v)
    return tuple(vals)


def reexpand_normal_form(g2: complex, g3: complex, a: complex, b: complex):
    """Coefficients (p0, p1, p2, p3) of the cubic for w = a W + b.

    Substituting W = (w - b)/a into W'^2 = 4W^3 - g2 W - g3 and scaling by
    a^2 gives the round-trip oracle for to_normal_form.
    """
    p3 = 4.0 / a
    p2 = -12.0 * b / a
    p1 = 12.0 * b * b / a - g2 * a
    p0 = -4.0 * b**3 / a + g2 * a * b - g3 * a * a
    return p0, p1, p2, p3


# -- the chord-tangent law over the rationals ----------------------------------------
#
# A point of y^2 = 4x^3 - g2 x - g3 is a pair of Fractions, and None is the
# point at infinity O. Three points sum to O iff they lie on one line
# (Silverman, The Arithmetic of Elliptic Curves, III.2; DLMF 23.20(ii)).


def on_curve(point, g2, g3) -> bool:
    x, y = point
    return y * y == 4 * x**3 - g2 * x - g3


def curve_neg(point):
    return None if point is None else (point[0], -point[1])


def curve_add(p, q, g2):
    """p + q: minus the third point on the chord through p and q, or on the tangent at p = q."""
    if p is None or q is None:
        return q if p is None else p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2 and y1 == -y2:
        return None
    # y = s (x - x1) + y1 meets 4x^3 - g2 x - g3 where the roots sum to s^2/4
    s = (12 * x1 * x1 - g2) / (2 * y1) if p == q else (y2 - y1) / (x2 - x1)
    x3 = s * s / 4 - x1 - x2
    return x3, s * (x1 - x3) - y1


def exact_det3(p1, p2, p3):
    """det of the rows (1, 1, 1), (x1, x2, x3), (y1, y2, y3) of three affine points, and its six-term scale.

    The cofactor expansion along the first row, in Fractions: the exact
    value of `verifier.det3` and `verifier.det3_terms` on the jets
    (f, f') = (x, y).
    """
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    terms = (x2 * y3, -x3 * y2, -x1 * y3, x3 * y1, x1 * y2, -x2 * y1)
    return sum(terms), sum(map(abs, terms))


_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64's finaliser (Steele, Lea & Flood, OOPSLA 2014) of z mod 2^64."""
    z %= 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def stream_uniforms(seed: int, k: int, count: int) -> list[float]:
    """Uniforms 0..count-1 of round k of the sample stream of seed, in Python ints and floats, no numpy.

    The key folds the 64-bit limbs of seed, least significant first (at
    least one), then k, by h = mix64((h xor word) + gamma) from h = 0;
    uniform j is the top 53 bits of mix64(key + (j + 1) gamma), over 2^53.
    """
    words, rest = [], seed
    while True:
        rest, word = divmod(rest, 2**64)
        words.append(word)
        if rest == 0:
            break
    h = 0
    for word in [*words, k]:
        h = _mix64((h ^ word) + _GAMMA)
    return [(_mix64(h + (j + 1) * _GAMMA) >> 11) / 2**53 for j in range(count)]


def leading_term(poly: DiffPolynomial) -> tuple[tuple, Scalar]:
    """(exponents, coefficient) of the term of poly whose packed monomial is the largest."""
    mono = max(poly._terms)
    return _unpack(mono), poly._terms[mono]


def shifted_det_vs_sigma_scan(
    ctx: EllipticContext,
    shift: complex,
    sampler: TripleSampler,
    tol: float = 1e-6,
) -> ResidualReport:
    """Per-triple agreement of the shifted-triple determinant with its sigma form.

    For f = g = h = pe(. + shift) at (x, y, z = -x-y) the determinant equals
    the sigma quotient at (x+shift, y+shift, z+shift); the shift sum 3*shift
    controls whether the value vanishes. The gap is measured as in
    `_det_vs_sigma`, so where both sides vanish they agree to round-off.
    This is the oracle that pins the residual floor of non-lattice shifts.
    Triples whose sigma quotient has a zero denominator, at a lattice point
    or by underflow, are skipped.
    """
    shift = complex(shift)
    fam = WeierstrassShifted(ctx, shift)
    return _collect(
        sampler.triples((fam, fam, fam)),
        lambda x, y, z: _det_vs_sigma(ctx, x + shift, y + shift, z + shift),
        tol,
        "shifted determinant vs sigma quotient",
    )
