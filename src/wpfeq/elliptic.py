"""Numerical evaluation of the Weierstrass functions from periods or invariants.

Generators are Gauss-reduced to (b1, b2) with tau = b2/b1 in the fundamental
domain. pe, pe', zeta and sigma all come from series of Jacobi's theta1 in
the nome q = exp(i pi tau) (DLMF 20.2, 20.5, 23.6), and g2, g3 and the
discriminant from Lambert series in its coefficients (DLMF 23.8; see
`_context`), all in one loop. With k = pi/b1, v = k z, r = q^2 and
a_n = r^n/(1 - r^n),

    L(v) = theta1'(v)/theta1(v) = cot v + 4 sum_n a_n sin 2nv,
    pe = -2 eta1/b1 - k^2 L'(v),   pe' = -k^3 L''(v),
    zeta = 2 eta1 z/b1 + k L(v),
    sigma = exp(eta1 z^2/b1) (sin v / k) S(e)/S(1),
    S(e) = sum_{n>=0} (-1)^n r^(n(n+1)/2) sum_{|j|<=n} e^j,   e = e^(2iv),

where eta1 = zeta(b1/2) = (pi^2/(6 b1)) (1 - 24 sum_n n a_n) is the E2
series, and S(e) sin v is theta1(v) up to a constant (DLMF 20.2.1). Every
series is a polynomial in e and 1/e, summed by Horner's rule on both at
once (`_horner`), and cut per context where its terms fall below the unit
round-off (`_context`). The argument is first reduced by rounding both of
its lattice coordinates; zeta and sigma restore the shift through the
quasi-period constants, the second from Legendre's relation, sigma in log
space so that only a value beyond the float range raises. cot v,
1/sin^2 v and sin v are written in e = e^(2iu), u = +-v with |e| <= 1,
and e - 1 from expm1, so no lattice is too tall to evaluate (see
`_point`). Higher derivatives come from differentiating the normal-form
ODE  pe'^2 = 4 pe^3 - g2 pe - g3, never from numerical differentiation.

Each evaluator has one body for a complex number and for an ndarray,
evaluated elementwise, which is how the sampled checks score a whole batch
at a time; a point's value does not depend on its batch. Horner's rule is
one loop for both (`_horner`). The two part only in `_point` and at the
poles, so they may differ in the last bits: the rounding and e, e - 1 in
`_point` (`round` and `_exp_expm1` for a number, numpy's for an array),
and the poles, where a number raises PoleProximity (in `_point` next to a
lattice point, in `_pole_edge` where a value overflows) and an array holds
nan. Past 2^52 a lattice coordinate holds no fraction, so z fixes no point
of the cell: a number raises FloatOverflow there, and an array holds nan
(sigma's raises, as it does beyond the float range). `sigma` and
`lattice_distance` take a number as an array of one. The reference for
both is a theta oracle at 30 digits (`ThetaOracle` in tests/oracles.py,
and perfbench/oracle.py).

A context built from invariants alone takes its generators from the complex
AGM of the roots of 4t^3 - g2 t - g3 (Cremona and Thongjunthug, J. Number
Theory 133, 2013), kept as its periods when their series invariants give
(g2, g3) back. With zero discriminant the series runs at q = 0, where
pe = k^2/sin^2(kz) - k^2/3 with k^2 = 9 g3/(2 g2), on the lattice (pi/k)Z
of rank one, or pe = 1/z^2 on the lattice {0} when g2 = g3 = 0.

The lattice convention throughout: the generators span the lattice
directly, Lambda = {m*omega1 + n*omega2}.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateLattice,
    FloatOverflow,
    NoPeriods,
    PoleProximity,
    SeriesNoConverge,
)
from .jetpoly import MAX_JET_ORDER

# where the theta series are cut: the unit round-off, against their first term
_ROUNDOFF = 2.0**-53
# (n, n^2, n^3, n^5) of the theta terms; a reduced basis keeps at most 16 (see `_context`)
_TERMS = tuple((n, n * n, n**3, n**5) for n in range(1, 17))
_INVARIANT_TOL = 1e-12  # round trip of the AGM generators, relative to the scale
LATTICE_TOL = 1e-9  # lattice membership, and how near to real a period ratio may come


@dataclass(frozen=True)
class Periods:
    """Lattice generators; Im(omega2/omega1) > 0 after the canonical swap."""

    omega1: complex
    omega2: complex


@dataclass(frozen=True)
class Invariants:
    g2: complex
    g3: complex
    discriminant: complex  # g2^3 - 27 g3^2; from the q-product for a lattice


class _Series:
    """A context's theta_coeffs as Horner runs, with the constants its evaluators share.

    Built by `_context`, which also counts low, the terms taken at e as
    well as at 1/e. The polynomial sum_n c_n x^n is held as the runs
    (c_N, ..., c_{low+1}) and (c_low, ..., c_1), top term first, the second
    taken at both (see `_horner`): na, n2a and a are those of n a_n,
    n^2 a_n and a_n, the series of pe, pe' and zeta. With k that of the
    evaluation forms (1 when g2 = g3 = 0, see `_point`), k2 = k^2,
    k3 = -2 k^3 and pe0 = 2 eta1 k/pi. sigma's series is built on its first
    use (`theta1`).
    """

    def __init__(self, coeffs: list, low: int, r: complex, k: complex, eta1: complex):
        na = [n * a for n, a in enumerate(coeffs, 1)]
        n2a = [n * n * a for n, a in enumerate(coeffs, 1)]
        self.a, self.na, self.n2a = (_Series._runs(row, low) for row in (coeffs, na, n2a))
        self.r, k = r, k if k else 1.0
        self.k2, self.k3, self.pe0 = k * k, -2.0 * k**3, 2.0 * eta1 * k / math.pi

    @staticmethod
    def _runs(row: list, low: int) -> tuple[list, list]:
        """The coefficients c_1, ..., c_N of row as the runs (c_N, ..., c_{low+1}) and (c_low, ..., c_1)."""
        top = row[::-1]
        return top[: len(top) - low], top[len(top) - low :]

    @functools.cached_property
    def theta1(self) -> tuple[complex, tuple[list, list]]:
        """(S_0/S(1), the runs of S_j/S(1), j >= 1) of sigma's S(e) = sum_j S_j (e^j + e^-j) - S_0.

        From theta1's terms t_n = (-1)^n r^(n(n+1)/2) (DLMF 20.2.1),
        S_j = t_j + ... + t_M and S(1) = sum (2n + 1) t_n. After rounding
        |e| >= |q|, so term j at 1/e is at most |q|^(j^2) against S_0, and
        at e at most |q|^(j(j+1)); each keeps the terms where that is at
        least 2^-53: 3 on the square and hexagonal lattices, 1 at tau = 8i.
        """
        t, rn, q = [1.0 + 0j], 1.0 + 0j, math.sqrt(abs(self.r))
        while q ** (len(t) ** 2) >= _ROUNDOFF:
            rn *= self.r
            t.append(-t[-1] * rn)
        tails = [sum(t[j:]) for j in range(len(t))]
        norm = sum((2 * n + 1) * tn for n, tn in enumerate(t))
        low = sum(q ** (j * (j + 1)) >= _ROUNDOFF for j in range(1, len(t)))
        return tails[0] / norm, _Series._runs([sj / norm for sj in tails[1:]], low)


@dataclass(frozen=True)
class EllipticContext:
    """Immutable evaluation context; safe to share across concurrent readers.

    `periods` are the generators given or the AGM basis of the invariants,
    and `reduced` a Gauss-reduced pair (b1, b2) of them with Im(b2/b1) > 0;
    at zero discriminant periods is None and reduced is (pi/k,), or () if
    g2 = g3 = 0. The theta series runs on k = pi/b1 (0 if g2 = g3 = 0) and
    theta_coeffs[n-1] = a_n = q^(2n)/(1 - q^(2n)), cut where `_context`
    says, which also builds `series`, the same coefficients as the
    evaluators' Horner runs. eta holds the quasi-period constants
    (zeta(b1/2), zeta(b2/2)). lambda_min is the distance to the nearest
    lattice point: |b1|, pi/|k| or inf, and pole_tol the distance within
    which a lattice point counts as a pole.
    """

    invariants: Invariants
    periods: Periods | None
    pole_tol: float
    reduced: tuple[complex, ...]
    lambda_min: float
    k: complex
    theta_coeffs: tuple[complex, ...]
    eta: tuple[complex, complex]
    series: _Series = field(repr=False, compare=False)


# -- small lattice helpers ----------------------------------------------------


def _gauss_reduce(b1: complex, b2: complex) -> tuple[complex, complex]:
    """Lagrange-Gauss reduction: shortest generator pair of the same lattice, with Im(b2/b1) > 0.

    Generators whose squared lengths leave the float range (beyond about
    1e154, or below 1e-162) raise FloatOverflow.
    """
    try:
        if abs(b1) > abs(b2):
            b1, b2 = b2, b1
        while True:
            m = round((b2 * b1.conjugate()).real / abs(b1) ** 2)
            b2 = b2 - m * b1
            if abs(b2) < abs(b1):
                b1, b2 = b2, b1
            else:
                return (b1, b2) if (b2 / b1).imag > 0 else (b1, -b2)
    except (ArithmeticError, ValueError) as exc:
        raise FloatOverflow(f"the lattice on {b1} and {b2} leaves the float range") from exc


def _lattice_coords(z: complex, w1: complex, w2: complex) -> tuple[float, float]:
    """Real coordinates (s, t) with z = s*w1 + t*w2."""
    det = w1.real * w2.imag - w1.imag * w2.real
    s = (z.real * w2.imag - z.imag * w2.real) / det
    t = (w1.real * z.imag - w1.imag * z.real) / det
    return s, t


def _frame(basis: tuple[complex, ...]) -> tuple[complex, complex]:
    """The generators completed to a real basis of the plane: (w, i w) at rank one, (1, i) at rank zero."""
    w = basis[0] if basis else 1.0 + 0j
    return basis if len(basis) == 2 else (w, 1j * w)


# -- construction ----------------------------------------------------------------


def _context(
    invariants: Invariants | None, periods: Periods | None, reduced: tuple, k: complex, pole_tol: float | None
) -> EllipticContext:
    """The context on a reduced basis (`_gauss_reduce`) with k = pi/b1 (0 at rank zero); None: series invariants.

    At rank two one loop over r^n, r = exp(2 pi i tau), gives the theta
    coefficients a_n = r^n/(1 - r^n), the Lambert sums S_p = sum n^p a_n
    (DLMF 23.8): eta1 = (pi k/6)(1 - 24 S_1), g2 = (4/3) k^4 (1 + 240 S_3),
    g3 = (8/27) k^6 (1 - 504 S_5), and the discriminant (2k)^12 r
    prod (1 - r^n)^24, which does not cancel the way g2^3 - 27 g3^2 does on
    tall lattices; eta2 = zeta(b2/2) is Legendre's relation (DLMF 23.2.14).

    The series is cut here, per context, and built into the Horner runs of
    `_Series`. After rounding |q| <= |e| <= 1, so term n of the pe, pe' and
    zeta sums is at most n^2 |q|^(n-1) times term 1 at 1/e, and
    n^2 |q|^(2n-2) times it at e. The coefficients stop at the last n where
    the first is at least 2^-53: N = 16 at the hexagonal corner of the
    fundamental domain, 14 on the square lattice, 9 at tau = 1.5i, 5 at 3i
    and 2 at 8i. The low terms where the second is too are taken at e as
    well: 8, 7, 5, 3 and 1 of them. The Lambert sums run on the N terms,
    which reach round-off sooner.

    Invariants beyond the float range (|b1| below about 1e-26) raise
    FloatOverflow. Below rank two the series runs at q = 0: no coefficients,
    eta = (pi k/6, 0), lambda_min = pi/|k| or inf, and the invariants must
    be given. The default pole tolerance is 1e-3 lambda_min, 0 when
    g2 = g3 = 0.
    """
    coeffs, low, r, s1, s3, s5, prod = [], 0, 0j, 0, 0, 0, 1.0
    eta = (math.pi * k / 6.0, 0j)
    lam = math.pi / abs(k) if k else math.inf
    if len(reduced) == 2:
        b1, b2 = reduced
        r, rn, qn = cmath.exp(2j * math.pi * b2 / b1), 1.0 + 0j, 1.0
        q = math.sqrt(abs(r))
        for n, n2, n3, n5 in _TERMS:
            if n2 * qn < _ROUNDOFF:
                break
            rn *= r
            if rn == 0:
                break
            a = rn / (1.0 - rn)
            coeffs.append(a)
            low += n2 * qn * qn >= _ROUNDOFF
            s1 += n * a
            s3 += n3 * a
            s5 += n5 * a
            prod *= 1.0 - rn
            qn *= q
        eta1 = math.pi * k / 6.0 * (1.0 - 24.0 * s1)
        eta, lam = (eta1, (eta1 * b2 - math.pi * 1j) / b1), abs(b1)
        if invariants is None:
            try:
                g2, g3 = 4.0 / 3.0 * k**4 * (1.0 + 240.0 * s3), 8.0 / 27.0 * k**6 * (1.0 - 504.0 * s5)
                disc = (2.0 * k) ** 12 * r * prod**24
            except OverflowError:
                disc = math.inf
            # a complex power past the float range raises, or comes out nan
            if not cmath.isfinite(disc):
                raise FloatOverflow(f"the invariants of the lattice on {b1} exceed the float range")
            invariants = Invariants(g2, g3, disc)
    if pole_tol is None:
        pole_tol = 1e-3 * lam if math.isfinite(lam) else 0.0
    series = _Series(coeffs, low, r, k, eta[0])
    return EllipticContext(invariants, periods, pole_tol, reduced, lam, k, tuple(coeffs), eta, series)


def from_periods(omega1: complex, omega2: complex, *, pole_tol: float | None = None) -> EllipticContext:
    """Context from lattice generators; invariants from the q-series of the reduced tau."""
    w1, w2 = complex(omega1), complex(omega2)
    if w1 == 0 or w2 == 0:
        raise DegenerateLattice("zero period generator")
    ratio = w2 / w1
    if abs(ratio.imag) <= LATTICE_TOL:
        raise DegenerateLattice("period ratio is real within tolerance")
    if ratio.imag < 0:
        w1, w2 = w2, w1
    b1, b2 = _gauss_reduce(w1, w2)
    return _context(None, Periods(w1, w2), (b1, b2), math.pi / b1, pole_tol)


def _agm(a: complex, b: complex) -> complex:
    """Arithmetic-geometric mean by principal square roots.

    For a and b in the right half-plane, as principal square roots are, the
    principal root is the optimal choice at every step (Cremona and
    Thongjunthug).
    """
    for _ in range(64):
        if abs(a - b) <= 1e-15 * abs(a):
            break
        a, b = 0.5 * (a + b), cmath.sqrt(a * b)
    return a


def _agm_context(g2: complex, g3: complex, scale: float, pole_tol: float | None) -> EllipticContext:
    """Context on the oriented reduced generators of the lattice with invariants (g2, g3).

    With e1, e2, e3 the roots of 4t^3 - g2 t - g3, pi/M(sqrt(e1 - e3),
    sqrt(e1 - e2)) and pi i/M(sqrt(e1 - e3), sqrt(e2 - e3)) span the lattice,
    M the optimal AGM (Cremona and Thongjunthug). The context's series
    invariants must give (g2, g3) back to 1e-12 of the scale
    max(|g2|^(1/4), |g3|^(1/6)), or this raises:
    on tall lattices the float invariants no longer fix tau, so that round
    trip, not the basis, is what is guaranteed.
    """
    e1, e2, e3 = np.roots([4.0, 0.0, -g2, -g3]).tolist()
    m1 = _agm(cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2))
    m2 = _agm(cmath.sqrt(e1 - e3), cmath.sqrt(e2 - e3))
    # the generators' ratio i m1/m2 must not be real
    if not (m2 and abs((m1 / m2).real) > LATTICE_TOL * abs(m1 / m2)):
        raise SeriesNoConverge("the AGM periods of the invariants span no lattice")
    b1, b2 = _gauss_reduce(math.pi / m1, math.pi * 1j / m2)
    ctx = _context(None, Periods(b1, b2), (b1, b2), math.pi / b1, pole_tol)
    # in two divisions: scale**6 underflows for invariants near the float minimum
    err = max(abs(ctx.invariants.g2 - g2) / scale**2 / scale**2, abs(ctx.invariants.g3 - g3) / scale**3 / scale**3)
    if not err <= _INVARIANT_TOL:
        raise SeriesNoConverge(f"the AGM lattice misses the invariants by {err:.3g} of the scale")
    return ctx


def from_invariants(g2: complex, g3: complex, *, pole_tol: float | None = None) -> EllipticContext:
    """Context from invariants; a lattice of rank two unless the discriminant vanishes.

    A nonzero discriminant takes its periods from the AGM (`_agm_context`),
    which raises SeriesNoConverge rather than return a lattice with other
    invariants. Otherwise periods is None, and the theta series runs at
    q = 0 with k^2 = 9 g3/(2 g2), on (pi/k)Z, or k = 0 when g2 = g3 = 0.
    The context carries the invariants given; a discriminant beyond the
    float range raises FloatOverflow.
    """
    g2, g3 = complex(g2), complex(g3)
    try:
        invariants = Invariants(g2, g3, g2**3 - 27.0 * g3**2)
    except OverflowError as exc:
        raise FloatOverflow("the discriminant g2^3 - 27 g3^2 exceeds the float range") from exc
    # g2^3 = 27 g3^2 tested on invariants rescaled by a power of two: the
    # same roundings as the discriminant, without its underflow; this alone
    # decides the rank (t**6 itself overflows for invariants near 1e-308)
    scale = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0))
    t = 2.0 ** -math.frexp(scale)[1]
    if (g2 * t**2 * t**2) ** 3 != 27.0 * (g3 * t**3 * t**3) ** 2:
        return replace(_agm_context(g2, g3, scale, pole_tol), invariants=invariants)
    k = cmath.sqrt(4.5 * g3 / g2) if g2 else 0j
    return _context(invariants, None, (math.pi / k,) if k else (), k, pole_tol)


# -- evaluation -------------------------------------------------------------------


def _elementwise(arrays_only: bool = False):
    """Decorator: a public evaluator body(ctx, z, ...) for a number and elementwise for an ndarray.

    A number, or an array of no dimensions, goes in as one complex number.
    Any other ndarray goes in as a complex array with numpy's floating-point
    warnings off, since its poles come out as nan (see `_pole_edge`). With
    `arrays_only`, the body takes arrays alone, and a number is evaluated as
    an array of one.
    """

    def wrap(body):
        @functools.wraps(body)
        def evaluate(ctx, z, *args, **kwargs):
            if not (isinstance(z, np.ndarray) and z.ndim):
                if not arrays_only:
                    return body(ctx, complex(z), *args, **kwargs)
                return evaluate(ctx, np.array([complex(z)]), *args, **kwargs)[0].item()
            with np.errstate(all="ignore"):
                return body(ctx, np.asarray(z, dtype=complex), *args, **kwargs)

        return evaluate

    return wrap


def _point(ctx: EllipticContext, z):
    """(z0, m, n, k, sign, 2iu, e, d, near) at v = k*z0, for a number or elementwise.

    z = z0 + m*b1 + n*b2 with the lattice coordinates of z within the rank rounded away.
    u = sign*v is oriented so that Im u >= 0; then e = e^(2iu) has |e| <= 1
    and d = e - 1 comes from expm1. The callers build cot u = i(e + 1)/d,
    1/sin^2 u = -4e/d^2 and sin u = e^(-iu) d/(2i) from them, so nothing
    overflows however tall the lattice, and nothing cancels next to a lattice
    point. pe is even in v and pe', zeta and sigma of z0 are odd, so `sign`
    alone maps back from u. With g2 = g3 = 0 the same forms give the k -> 0
    limit: k = 1, iu = 0, e = 1, d = 2i z0 (cot = 1/z0, 1/sin^2 = 1/z0^2,
    sin = z0), and no series terms. `near` holds within the pole tolerance of
    a lattice point and where d^3 underflows to zero; a number there raises
    PoleProximity at once, before anything divides by d. A coordinate that
    is not below 2^52 fixes no point of the cell: a number raises
    FloatOverflow, and an array rounds it to nan (`_cell_round`), so every
    value there is nan. The rounding and e, d are where a number and an
    array part: `round` and `_exp_expm1` for a number, numpy's elementwise
    functions for an array.
    """
    batch = isinstance(z, np.ndarray)
    z0, m, n = z, 0, 0
    if len(ctx.reduced) == 2:
        b1, b2 = ctx.reduced
        s, t = _lattice_coords(z, b1, b2)
        if batch:
            m, n = _cell_round(s), _cell_round(t)
        elif -(2.0**52) < s < 2.0**52 and -(2.0**52) < t < 2.0**52:
            m, n = round(s), round(t)
        else:
            raise FloatOverflow(f"{z} {_NO_POINT}")
        z0 = z - m * b1 - n * b2
    elif ctx.reduced:  # rank one: the coordinate along pi/k
        m = (z / ctx.reduced[0]).real
        if batch:
            m = _cell_round(m)
        elif -(2.0**52) < m < 2.0**52:
            m = round(m)
        else:
            raise FloatOverflow(f"{z} {_NO_POINT}")
        z0 = z - m * ctx.reduced[0]
    if not ctx.k:
        k, sign, iu2, e, d = 1.0, 1.0, 0j, 1.0 + 0j, 2j * z0
    else:
        k, v = ctx.k, ctx.k * z0
        # the sign of Im v, or of Re v on the real axis, where v and -v then
        # share u, so the parities hold bit for bit (v = 0 is a pole either way)
        if batch:
            sign = np.copysign(1.0, np.where(v.imag == 0.0, v.real, v.imag))
        else:
            sign = -1.0 if v.imag < 0.0 or (v.imag == 0.0 and v.real < 0.0) else 1.0
        iu2 = 2j * (sign * v)
        e, d = (np.exp(iu2), np.expm1(iu2)) if batch else _exp_expm1(iu2)
    near = (abs(z0) <= ctx.pole_tol) | (d * d * d == 0)
    if near is True:
        raise PoleProximity(z)
    return z0, m, n, k, sign, iu2, e, d, near


# past 2^52 a lattice coordinate holds no fraction (`_point`)
_NO_POINT = "fixes no point of the cell: a lattice coordinate is not below 2^52"


def _cell_round(x: np.ndarray) -> np.ndarray:
    """x rounded to integers, nan where |x| is not below 2^52: there x holds no fraction, and z no point of the cell."""
    return np.where(abs(x) < 2.0**52, x.round(), np.nan)


def _exp_expm1(x: complex) -> tuple[complex, complex]:
    """(e^x, e^x - 1) for Re x <= 0, the second without cancellation near x = 0."""
    e = cmath.exp(x)
    return e, complex(math.expm1(x.real) * math.cos(x.imag) - 2.0 * math.sin(0.5 * x.imag) ** 2, e.imag)


def _pole_edge(z, pole, *values) -> tuple:
    """values at z, where `pole` holds a pole: a number raises PoleProximity, an array holds nan.

    pole is a bool for a number and a mask for an array.
    """
    if isinstance(pole, np.ndarray):
        for v in values:
            v[pole] = np.nan
    elif pole:
        raise PoleProximity(z)
    return values


def _horner(rows: tuple, e) -> list:
    """(P(e), P(1/e)) for each polynomial P(x) = sum_n c_n x^n of rows, a number or elementwise.

    rows holds the runs of each polynomial (`_Series`): P(1/e) takes both,
    P(e) the second alone, since |e| <= 1. Horner's rule, one body for both:
    Python arithmetic for a number, numpy's elementwise for an array, never
    in place (numpy's in-place complex product rounds otherwise in a batch
    than alone). |e| >= |q| after rounding, so 1/e stays finite wherever a
    series has a term, and Horner's partial sums stay below the terms.
    Without terms both sums are 0j, and nothing divides by e, which
    underflows to 0 on very tall lattices.
    """
    if not (rows[0][0] or rows[0][1]):
        return [(0j, 0j)] * len(rows)
    ei, sums = 1.0 / e, []
    for top, low in rows:
        s = t = 0j
        for c in top:
            t = (t + c) * ei
        for c in low:
            s = (s + c) * e
            t = (t + c) * ei
        sums.append((s, t))
    return sums


def _wp_dp(ctx: EllipticContext, z, prime: bool = True) -> tuple:
    """(pe, pe') = (-2 eta1/b1 - k^2 L'(v), -k^3 L''(v)) at the rounded representative; (pe, None) without prime.

    Without prime neither pe' nor its series is computed. A value that
    overflows next to a lattice point is a pole too.
    """
    _, _, _, _, sign, _, e, d, near = _point(ctx, z)
    series = ctx.series
    sums = _horner((series.na, series.n2a) if prime else (series.na,), e)
    csc2 = -4.0 * e / (d * d)
    p = series.k2 * (csc2 - 4.0 * (sums[0][0] + sums[0][1])) - series.pe0
    # x - x is 0 exactly where x is finite
    if not prime:
        return _pole_edge(z, near | (p - p != 0), p)[0], None
    dp = sign * series.k3 * (1j * (e + 1.0) / d * csc2 + 4j * (sums[1][0] - sums[1][1]))
    return _pole_edge(z, near | ((p - p) + (dp - dp) != 0), p, dp)


@_elementwise()
def wp(ctx: EllipticContext, z):
    """Weierstrass pe at z for the context invariants.

    Elementwise on an array, nan where a number raises PoleProximity.
    """
    return _wp_dp(ctx, z, False)[0]


@_elementwise()
def wp_prime(ctx: EllipticContext, z):
    """Derivative pe'(z); odd, satisfies pe'^2 = 4 pe^3 - g2 pe - g3."""
    return _wp_dp(ctx, z)[1]


@_elementwise()
def jets(ctx: EllipticContext, z, order: int = 5) -> tuple:
    """The tuple (pe, pe', ..., pe^(order)) at z with order <= MAX_JET_ORDER, the jet polynomials' cap.

    Everything above pe' comes from differentiating the normal-form ODE
    (`_ode_jets`); order 0 computes no pe'. Elementwise on an array, every
    value nan where a number raises PoleProximity.
    """
    if not 0 <= order <= MAX_JET_ORDER:
        raise ValueError(f"jet order must be between 0 and {MAX_JET_ORDER}")
    p, dp = _wp_dp(ctx, z, prime=order > 0)
    return _ode_jets(ctx, p, dp, order)


def _ode_jets(ctx: EllipticContext, p, dp, order: int) -> tuple:
    """(pe, pe', ..., pe^(order)) from pe and pe', numbers or arrays, order <= 6.

    pe'' = 6 pe^2 - g2/2, pe''' = 12 pe pe', pe'''' = 12 pe'^2 + 12 pe pe'',
    pe''''' = 36 pe' pe'' + 12 pe pe''', pe^(6) = 36 pe''^2 + 48 pe' pe''' + 12 pe pe''''.
    """
    vals = [p, dp]
    g2 = ctx.invariants.g2
    if order >= 2:
        vals.append(6.0 * p * p - 0.5 * g2)
    if order >= 3:
        vals.append(12.0 * p * dp)
    if order >= 4:
        vals.append(12.0 * dp * dp + 12.0 * p * vals[2])
    if order >= 5:
        vals.append(36.0 * dp * vals[2] + 12.0 * p * vals[3])
    if order >= 6:
        vals.append(36.0 * vals[2] * vals[2] + 48.0 * dp * vals[3] + 12.0 * p * vals[4])
    return tuple(vals[: order + 1])


@_elementwise(arrays_only=True)
def sigma(ctx: EllipticContext, z):
    """Entire odd sigma, zero on the lattice; FloatOverflow beyond the float range.

    sigma(z0 + lam) = (-1)^(m+n+mn) exp(H (z0 + lam/2)) sigma(z0) for
    lam = m b1 + n b2 and H = 2 m eta1 + 2 n eta2; the exponent and
    log|sigma(z0)| are added before anything is exponentiated, and the
    parity sign is applied exactly, so sigma(-z) = -sigma(z) bit for bit.
    Elementwise on an array, which raises FloatOverflow if any value does,
    or if any point fixes no point of the cell (see `_point`).
    """
    z0, m, n, k, sign, iu2, e, d, _ = _point(ctx, z)
    if np.isnan(z0).any():
        raise FloatOverflow(f"z {_NO_POINT}")
    # sin u = e^(-iu) d/(2i): the factor e^(-iu) joins the exponent; S is
    # even in e, so u and v share it
    s0, runs = ctx.series.theta1
    (s,) = _horner((runs,), e)
    lead = d / (2j * k) * (s0 + s[0] + s[1])
    eta1, eta2 = ctx.eta
    power = eta1 * k * z0 * z0 / math.pi + (m * eta1 + n * eta2) * (z + z0) - 0.5 * iu2
    size = np.exp(power.real + np.log(np.abs(lead)))
    zero = lead == 0
    if np.isinf(size[~zero]).any():
        raise FloatOverflow("|sigma| exceeds the float range")
    sign = np.where((m + n + m * n) % 2 != 0, -sign, sign)
    out = sign * size * (lead / np.abs(lead)) * np.exp(1j * power.imag)
    out[zero] = 0
    return out


@_elementwise()
def zeta(ctx: EllipticContext, z):
    """Odd zeta function with zeta' = -pe and principal part 1/z.

    zeta(z0) = 2 eta1 z0/b1 + k L(v) at the rounded representative; the
    lattice shift m b1 + n b2 adds 2 m eta1 + 2 n eta2. Elementwise on an
    array, nan where a number raises PoleProximity.
    """
    z0, m, n, k, sign, _, e, d, near = _point(ctx, z)
    eta1, eta2 = ctx.eta
    (odd,) = _horner((ctx.series.a,), e)
    value = (
        sign * k * (1j * (e + 1.0) / d - 2j * (odd[0] - odd[1]))
        + 2.0 * eta1 * k * z0 / math.pi
        + 2.0 * (m * eta1 + n * eta2)
    )
    return _pole_edge(z, near, value)[0]


def _generators(ctx: EllipticContext) -> tuple[complex, ...]:
    """The generators that lattice fractions refer to: the periods at rank two, else `reduced`."""
    return (ctx.periods.omega1, ctx.periods.omega2) if ctx.periods is not None else ctx.reduced


def lattice_point(ctx: EllipticContext, s, t):
    """s*omega1 + t*omega2 from lattice fractions, numbers or arrays; NoPeriods for one beyond the rank."""
    gens = _generators(ctx)
    if any(np.any(f) for f in (s, t)[len(gens) :]):
        raise NoPeriods(f"a nonzero lattice fraction beyond the rank {len(gens)} of the lattice")
    w1, w2 = _frame(gens)
    return s * w1 + t * w2


def lattice_coordinates(ctx: EllipticContext, z: complex) -> tuple[float, float]:
    """Coordinates of z in the generators of lattice fractions, by `_frame` below rank two."""
    return _lattice_coords(complex(z), *_frame(_generators(ctx)))


def lattice_offset(ctx: EllipticContext, z: complex) -> float:
    """Largest distance of a lattice coordinate of z from an integer, or length of those beyond the rank."""
    coords, rank = lattice_coordinates(ctx, z), len(ctx.reduced)
    return max([abs(c - round(c)) for c in coords[:rank]] + [math.hypot(*coords[rank:])])


def is_lattice_point(ctx: EllipticContext, z: complex) -> bool:
    """True when z is a lattice point within LATTICE_TOL (`lattice_offset`)."""
    return lattice_offset(ctx, z) <= LATTICE_TOL


# the 3x3 neighbour shifts (dm, dn) of the rounded lattice coordinates
_NEAR_DM, _NEAR_DN = np.repeat([-1, 0, 1], 3), np.tile([-1, 0, 1], 3)

# Rounding finds the nearest lattice point of every point within this many
# lambda_min of it. On a Gauss-reduced basis the angle between b1 and b2
# lies in [60, 120] degrees, so an offset w = s b1 + t b2 has |s|, |t| <=
# 2|w|/(sqrt(3) lambda_min): below sqrt(3)/4 = 0.433 lambda_min both round to
# 0. 0.3 leaves a margin for the rounding of s and t.
_ROUNDING_EXACT = 0.3


@_elementwise(arrays_only=True)
def lattice_distance(ctx: EllipticContext, z):
    """Euclidean distance from z to the nearest lattice point; elementwise on an array.

    The nearest point is one of the 3x3 about the rounded coordinates of z
    in `_frame` of the reduced basis, with the generators beyond the rank 0.
    """
    b1, b2 = (*ctx.reduced, 0j, 0j)[:2]
    s, t = _lattice_coords(z, *_frame(ctx.reduced))
    m = s.round()[..., None] + _NEAR_DM
    n = t.round()[..., None] + _NEAR_DN
    return np.abs(z[..., None] - m * b1 - n * b2).min(axis=-1)


@_elementwise(arrays_only=True)
def clear_of_lattice(ctx: EllipticContext, z, radius: float):
    """lattice_distance(ctx, z) > radius elementwise, bit for bit, from the rounded lattice point alone where it decides.

    At rank two with radius below `_ROUNDING_EXACT` lambda_min, a lattice
    point within the radius of z is the one its rounded coordinates name,
    and `lattice_distance` takes that candidate's distance by the same
    arithmetic; elsewhere this asks `lattice_distance`.
    """
    if len(ctx.reduced) != 2 or not radius < _ROUNDING_EXACT * ctx.lambda_min:
        return lattice_distance(ctx, z) > radius
    b1, b2 = ctx.reduced
    s, t = _lattice_coords(z, b1, b2)
    return np.abs(z - s.round() * b1 - t.round() * b2) > radius
