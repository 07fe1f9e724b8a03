"""Numerical evaluation of the Weierstrass functions from periods or invariants.

The pe function is evaluated through its Laurent expansion about the origin,

    pe(z) = 1/z^2 + sum_{k>=2} c_k z^(2k-2),
    c_2 = g2/20,  c_3 = g3/28,
    c_k = 3/((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_{k-m}   (k >= 4),

inside a safe disc, extended to the rest of the plane by repeated argument
halving plus the duplication formula, and, when period generators are known,
by first translating the argument to its representative nearest the origin.
Higher derivatives come from successive differentiation of the normal-form
ODE  pe'^2 = 4 pe^3 - g2 pe - g3,  never from numerical differentiation.

zeta integrates -pe termwise (principal part 1/z, odd) and extends over the
plane by its quasi-period constants, the second from Legendre's relation.
sigma comes from a Taylor table on a validated disc whose coefficients are
exact polynomials in g2, g3 from Weierstrass's integer recurrence (DLMF
23.9.7-23.9.8), built once per process.

A slow, Richardson-accelerated lattice double sum is included as an
independent cross-check oracle for pe. The lattice convention throughout:
the generators span the lattice directly, Lambda = {m*omega1 + n*omega2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateLattice,
    FloatOverflow,
    NoPeriods,
    PoleProximity,
    SeriesNoConverge,
)

_LAURENT_TERMS = 300  # c_k table length; sized for the sigma construction
_DISC_REL_TOL = 1e-9  # relative tolerance classifying the discriminant


@dataclass(frozen=True)
class ToleranceSet:
    """Evaluation tolerances: series truncation, pole exclusion, lattice test."""

    series: float = 1e-12
    pole: float = 1e-6
    lattice: float = 1e-9


@dataclass(frozen=True)
class Periods:
    """Lattice generators; Im(omega2/omega1) > 0 after the canonical swap."""

    omega1: complex
    omega2: complex


@dataclass(frozen=True)
class Invariants:
    g2: complex
    g3: complex
    discriminant: complex  # g2^3 - 27 g3^2, always recomputed at construction
    degeneracy: str  # "generic" | "semi-degenerate" | "fully-degenerate"


@dataclass(frozen=True)
class JetValues:
    """Function value and derivatives (f, f', ..., f^(order)) at one point."""

    at: complex
    values: tuple[complex, ...]

    @property
    def order(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class EllipticContext:
    """Immutable evaluation context; safe to share across concurrent readers.

    laurent_coeffs[i] holds c_(i+2) of the pe expansion; sigma_coeffs[n] is
    the coefficient of u^n in sigma(z)/z with u = z^2. The remaining fields
    are derived once at construction: a Gauss-reduced generator pair, the
    lattice minimum, the safe series disc, the sigma validity radius and the
    zeta quasi-period constants for the reduced generators.
    """

    invariants: Invariants
    periods: Periods | None
    laurent_coeffs: tuple[complex, ...]
    sigma_coeffs: tuple[complex, ...]
    tol: ToleranceSet
    reduced: tuple[complex, complex] | None
    lambda_min: float
    r_safe: float
    r_sigma: float
    eta_half: tuple[complex, complex] | None


# -- small lattice helpers ----------------------------------------------------


def _gauss_reduce(b1: complex, b2: complex) -> tuple[complex, complex]:
    """Lagrange-Gauss reduction: shortest generator pair of the same lattice."""
    if abs(b1) > abs(b2):
        b1, b2 = b2, b1
    while True:
        m = round((b2 * b1.conjugate()).real / abs(b1) ** 2)
        b2 = b2 - m * b1
        if abs(b2) < abs(b1):
            b1, b2 = b2, b1
        else:
            return b1, b2


def _lattice_coords(z: complex, w1: complex, w2: complex) -> tuple[float, float]:
    """Real coordinates (s, t) with z = s*w1 + t*w2."""
    det = w1.real * w2.imag - w1.imag * w2.real
    s = (z.real * w2.imag - z.imag * w2.real) / det
    t = (w1.real * z.imag - w1.imag * z.real) / det
    return s, t


def _reduce_near_zero(ctx: EllipticContext, z: complex) -> tuple[complex, int, int]:
    """Representative of z mod Lambda nearest the origin, with the shift."""
    b1, b2 = ctx.reduced
    s, t = _lattice_coords(z, b1, b2)
    m0, n0 = round(s), round(t)
    best = None
    for dm in (-1, 0, 1):
        for dn in (-1, 0, 1):
            m, n = m0 + dm, n0 + dn
            cand = z - m * b1 - n * b2
            if best is None or abs(cand) < abs(best[0]):
                best = (cand, m, n)
    return best


# -- series machinery ----------------------------------------------------------


def laurent_coefficients(g2: complex, g3: complex, count: int = _LAURENT_TERMS) -> tuple[complex, ...]:
    """Table (c_2, c_3, ..., c_(count+1)) from the standard recurrence."""
    c = [0j] * (count + 2)
    if count >= 1:
        c[2] = g2 / 20.0
    if count >= 2:
        c[3] = g3 / 28.0
    for k in range(4, count + 2):
        acc = 0j
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    return tuple(c[2:])


def _lambda_min_estimate(ctable) -> float:
    """Nearest-lattice-point distance inferred from coefficient decay.

    c_k ~ (2k-1) * N * lambda^(-2k) with N >= 2 minimal vectors; using N = 2
    slightly underestimates the true distance, which is the safe direction.
    """
    best = math.inf
    for i in range(len(ctable) - 1, max(len(ctable) - 12, 0), -1):
        k = i + 2
        mag = abs(ctable[i])
        if mag > 0.0:
            best = min(best, (2.0 * (2 * k - 1) / mag) ** (1.0 / (2 * k)))
    return best


def _safe_radius(ctable, eps: float, cap: float) -> float:
    """Largest series radius whose 60-term tail bound stays below eps.

    The bound is relative to the principal part: the k-th term contributes
    |c_k| r^(2k) compared with r^(-2), so the 60th term must satisfy
    |c_60| r^120 <= eps.
    """
    k = min(60, len(ctable) + 1)
    mag = abs(ctable[k - 2])
    if mag == 0.0:
        return cap
    r = (eps / mag) ** (1.0 / (2.0 * k))
    return min(r, cap)


def _wp_series(ctable, z: complex, eps: float) -> tuple[complex, complex]:
    u = z * z
    p = 1.0 / u
    dp = -2.0 / (u * z)
    scale = abs(p)
    # sum past the requested tolerance to the machine floor: downstream
    # identities amplify the truncated tail by roughly the invariant size
    cut = max(1e-16, 1e-4 * eps)
    zpow = 1.0 + 0j
    good = 0
    for i, ck in enumerate(ctable):
        k = i + 2
        zpow *= u
        term = ck * zpow
        p += term
        dp += (2 * k - 2) * ck * zpow / z
        if abs(term) <= cut * max(abs(p), scale):
            good += 1
            if good >= 3:
                return p, dp
        else:
            good = 0
    raise SeriesNoConverge("pe series did not converge within the coefficient table")


def _zeta_series(ctable, z: complex, eps: float) -> complex:
    acc = 1.0 / z
    u = z * z
    cut = max(1e-16, 1e-4 * eps)
    zpow = z
    good = 0
    for i, ck in enumerate(ctable):
        k = i + 2
        zpow *= u
        term = ck * zpow / (2 * k - 1)
        acc -= term
        if abs(term) <= cut * max(1.0, abs(acc)):
            good += 1
            if good >= 3:
                return acc
        else:
            good = 0
    raise SeriesNoConverge("zeta series did not converge; argument too far from the origin")


_SIGMA_TERMS = 100


@lru_cache(maxsize=2)
def _sigma_exact_table(n_max: int = _SIGMA_TERMS):
    """Exact u-coefficients of sigma(z)/z as sparse polynomials in (g2, g3).

    Row N maps (m, n), standing for g2^m g3^n with 2m + 3n = N, to
    a_(m,n) 2^(n-m) / (2N+1)! with Weierstrass's integers (DLMF 23.9.7-23.9.8):
    a_(0,0) = 1, 3 a_(m,n) = 9(m+1) a_(m+1,n-1) + 16(n+1) a_(m-2,n+1)
    - (2m+3n-1)(4m+6n-1) a_(m-1,n), negative indices counting as zero. Exact:
    a float recurrence has a noise floor far above the superexponentially
    decaying coefficients. Built once per process, shared by every context.
    """
    a = {(0, 0): 1}
    rows: list[dict[tuple[int, int], Fraction]] = [{(0, 0): Fraction(1)}]
    for weight in range(1, n_max + 1):
        row = {}
        for n in range(weight % 2, weight // 3 + 1, 2):
            m = (weight - 3 * n) // 2
            a[m, n] = (
                9 * (m + 1) * a.get((m + 1, n - 1), 0)
                + 16 * (n + 1) * a.get((m - 2, n + 1), 0)
                - (2 * m + 3 * n - 1) * (4 * m + 6 * n - 1) * a.get((m - 1, n), 0)
            ) // 3
            row[m, n] = Fraction(a[m, n] * 2**n, 2**m * math.factorial(2 * weight + 1))
        rows.append(row)
    return tuple(rows)


def _sigma_table(g2: complex, g3: complex, r_target: float, eps: float):
    """Numeric Taylor table of sigma(z)/z in u = z^2 with a validated radius.

    Evaluates the exact coefficient table at the context invariants, then
    truncates where the terms at the target radius fall below eps relative
    to the largest term; if the table is too short for that radius, the
    radius is shrunk to where the trailing terms are safe.
    """
    coeffs = []
    for poly in _sigma_exact_table():
        val = 0j
        for (m, n), q in poly.items():
            try:
                val += float(q) * g2**m * g3**n
            except OverflowError as exc:
                raise FloatOverflow(f"sigma table overflows at g2 = {g2:.3g}; lattice too small") from exc
        # a row near underflow may pass for a converged tail: the table ends
        # there (a stopgap until scale normalisation, ROADMAP 4(b))
        if abs(val) < 1e-292 and any((g2 or not m) and (g3 or not n) for m, n in poly):
            break
        coeffs.append(val)
    log_mags = [math.log(abs(v)) if abs(v) > 0.0 else -math.inf for v in coeffs]
    log_eps = math.log(eps) - math.log(100.0)
    r = r_target
    for _ in range(200):
        lr2 = 2.0 * math.log(r)
        logs = [log_mags[n] + n * lr2 for n in range(len(log_mags))]
        top = max(range(len(logs)), key=logs.__getitem__)
        small = [lt <= log_eps + logs[top] for lt in logs]
        # truncate at the first run of five small terms past the largest one
        for n in range(max(top + 5, 10), len(logs)):
            if all(small[n - 4 : n + 1]):
                return tuple(coeffs[: n + 1]), r
        if all(small[-5:]):
            return tuple(coeffs), r
        r *= 0.95
    raise SeriesNoConverge("sigma table does not stabilise at any useful radius")


# -- Eisenstein sums and the reference lattice sum ------------------------------


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


def _annulus_points(w1: complex, w2: complex, inner: int, outer: int):
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
        yield mm[mask] * w1 + nn[mask] * w2


def _eisenstein_invariants(w1: complex, w2: complex, eps: float, lam_min: float):
    """g2 = 60 sum' lambda^-4 and g3 = 140 sum' lambda^-6.

    Rectangular cutoffs |m|, |n| <= M with M doubled, Richardson-extrapolated
    (tails shrink like M^-2 and M^-4) until the estimates move by less than
    eps relative to the result, floored at the summation roundoff scale
    (machine epsilon times the sum of term magnitudes, which matters when a
    lattice symmetry sends the sum itself to zero). Raw doubling alone
    cannot reach eps at feasible cutoffs.
    """
    s4 = s6 = 0j
    abs4 = abs6 = 0.0
    vals4: list[complex] = []
    vals6: list[complex] = []
    inner = 0
    for outer in (24, 48, 96, 192, 384, 768, 1536):
        for lam in _annulus_points(w1, w2, inner, outer):
            inv2 = 1.0 / (lam * lam)
            inv4 = inv2 * inv2
            inv6 = inv4 * inv2
            s4 += inv4.sum()
            s6 += inv6.sum()
            abs4 += float(np.abs(inv4).sum())
            abs6 += float(np.abs(inv6).sum())
        inner = outer
        vals4.append(s4)
        vals6.append(s6)
        if len(vals4) >= 3:
            best4, err4 = _richardson_best(vals4, p=2)
            best6, err6 = _richardson_best(vals6, p=4)
            floor4 = max(eps * abs(best4), 100.0 * 2.3e-16 * abs4)
            floor6 = max(eps * abs(best6), 100.0 * 2.3e-16 * abs6)
            if err4 <= floor4 and err6 <= floor6:
                return complex(60.0 * best4), complex(140.0 * best6)
    raise SeriesNoConverge("Eisenstein sums did not reach the requested tolerance")


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
    estimate is the last extrapolation improvement.
    """
    if ctx.periods is None:
        raise NoPeriods("the reference sum needs period generators")
    z = complex(z)
    zred, _, _ = _reduce_near_zero(ctx, z)
    if abs(zred) <= ctx.tol.pole:
        raise PoleProximity(z)
    w1, w2 = ctx.periods.omega1, ctx.periods.omega2
    acc = 1.0 / (z * z)
    vals = []
    inner = 0
    for i in range(levels):
        outer = cutoff * 2**i
        for lam in _annulus_points(w1, w2, inner, outer):
            d = z - lam
            acc += (1.0 / (d * d) - 1.0 / (lam * lam)).sum()
        inner = outer
        vals.append(acc)
    best, err = _richardson_best(vals, p=2)
    if return_tail:
        # conservative: twice the last extrapolation improvement plus roundoff
        return complex(best), float(2.0 * err + 1e-14 * abs(best))
    return complex(best)


# -- construction ----------------------------------------------------------------


def _classify_invariants(g2: complex, g3: complex) -> Invariants:
    disc = g2**3 - 27.0 * g3**2
    scale = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0))
    if scale == 0.0:
        tag = "fully-degenerate"
    elif abs(disc) <= _DISC_REL_TOL * scale**12:
        tag = "semi-degenerate"
    else:
        tag = "generic"
    return Invariants(complex(g2), complex(g3), disc, tag)


def from_periods(
    omega1: complex,
    omega2: complex,
    *,
    series_tol: float = 1e-12,
    lattice_tol: float = 1e-9,
    pole_tol: float | None = None,
) -> EllipticContext:
    """Context from lattice generators; invariants via Eisenstein sums."""
    w1, w2 = complex(omega1), complex(omega2)
    if w1 == 0 or w2 == 0:
        raise DegenerateLattice("zero period generator")
    ratio = w2 / w1
    if abs(ratio.imag) <= lattice_tol:
        raise DegenerateLattice("period ratio is real within tolerance")
    if ratio.imag < 0:
        w1, w2 = w2, w1
    b1, b2 = _gauss_reduce(w1, w2)
    lam_min = abs(b1)
    g2, g3 = _eisenstein_invariants(w1, w2, series_tol, lam_min)
    ctable = laurent_coefficients(g2, g3)
    tol = ToleranceSet(
        series=series_tol,
        pole=pole_tol if pole_tol is not None else 1e-3 * min(abs(w1), abs(w2)),
        lattice=lattice_tol,
    )
    # reduction brings every argument within the covering radius (<= 0.77
    # lambda for a reduced basis), so the series disc can cover it and the
    # error-amplifying duplication step is normally never needed here
    r_safe = _safe_radius(ctable, series_tol, 0.78 * lam_min)
    sigma_coeffs, r_sigma = _sigma_table(g2, g3, 1.3 * (abs(w1) + abs(w2)), series_tol)
    # b2/2 may leave the zeta series disc: Legendre's relation (DLMF 23.2.14)
    e1 = _zeta_series(ctable, b1 / 2.0, series_tol)
    orient = math.copysign(1.0, (b2 / b1).imag)
    eta_half = (e1, (e1 * b2 - orient * math.pi * 1j) / b1)
    return EllipticContext(
        invariants=_classify_invariants(g2, g3),
        periods=Periods(w1, w2),
        laurent_coeffs=ctable,
        sigma_coeffs=sigma_coeffs,
        tol=tol,
        reduced=(b1, b2),
        lambda_min=lam_min,
        r_safe=r_safe,
        r_sigma=r_sigma,
        eta_half=eta_half,
    )


def from_invariants(
    g2: complex,
    g3: complex,
    *,
    series_tol: float = 1e-12,
    lattice_tol: float = 1e-9,
    pole_tol: float | None = None,
) -> EllipticContext:
    """Context from invariants only; lattice queries are unavailable.

    The implied nearest-pole distance is inferred from the decay of the
    Laurent coefficients, so series evaluation keeps honest error control
    even though the lattice itself is unknown.
    """
    g2, g3 = complex(g2), complex(g3)
    ctable = laurent_coefficients(g2, g3)
    lam_est = _lambda_min_estimate(ctable)
    if math.isinf(lam_est):
        r_safe = 1e18
        r_sigma = 1e18
        pole_default = 0.0
    else:
        r_safe = _safe_radius(ctable, series_tol, 0.6 * lam_est)
        pole_default = 1e-3 * lam_est
    tol = ToleranceSet(
        series=series_tol,
        pole=pole_tol if pole_tol is not None else pole_default,
        lattice=lattice_tol,
    )
    if math.isinf(lam_est):
        sigma_coeffs: tuple[complex, ...] = (1.0 + 0j,)
    else:
        sigma_coeffs, r_sigma = _sigma_table(g2, g3, 2.5 * lam_est, series_tol)
    return EllipticContext(
        invariants=_classify_invariants(g2, g3),
        periods=None,
        laurent_coeffs=ctable,
        sigma_coeffs=sigma_coeffs,
        tol=tol,
        reduced=None,
        lambda_min=lam_est,
        r_safe=r_safe,
        r_sigma=r_sigma,
        eta_half=None,
    )


# -- evaluation -------------------------------------------------------------------


def _finite(*vals: complex) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals)


def _wp_dp(ctx: EllipticContext, z: complex) -> tuple[complex, complex]:
    """(pe, pe') by series inside the safe disc, halving + duplication outside."""
    z = complex(z)
    if ctx.periods is not None:
        z, _, _ = _reduce_near_zero(ctx, z)
    if abs(z) <= ctx.tol.pole:
        raise PoleProximity(z)
    zz = z
    halvings = 0
    while abs(zz) > ctx.r_safe:
        zz *= 0.5
        halvings += 1
        if halvings > 60:
            raise SeriesNoConverge("argument cannot be halved into the series disc")
    p, dp = _wp_series(ctx.laurent_coeffs, zz, ctx.tol.series)
    g2 = ctx.invariants.g2
    for _ in range(halvings):
        if dp == 0:
            raise SeriesNoConverge("duplication passed through a critical point")
        w = 6.0 * p * p - 0.5 * g2
        dp2 = dp * dp
        p, dp = (w * w) / (4.0 * dp2) - 2.0 * p, 3.0 * p * w / dp - w**3 / (4.0 * dp2 * dp) - dp
    if not _finite(p, dp):
        raise PoleProximity(z, "evaluation landed on a lattice pole")
    return p, dp


def wp(ctx: EllipticContext, z: complex) -> complex:
    """Weierstrass pe at z for the context invariants."""
    return _wp_dp(ctx, z)[0]


def wp_prime(ctx: EllipticContext, z: complex) -> complex:
    """Derivative pe'(z); odd, satisfies pe'^2 = 4 pe^3 - g2 pe - g3."""
    return _wp_dp(ctx, z)[1]


def jets(ctx: EllipticContext, z: complex, order: int = 5) -> JetValues:
    """(pe, pe', ..., pe^(order)) at z with order <= 5.

    Everything above pe' comes from differentiating the normal-form ODE:
    pe'' = 6 pe^2 - g2/2, pe''' = 12 pe pe', pe'''' = 12 pe'^2 + 12 pe pe'',
    pe''''' = 36 pe' pe'' + 12 pe pe'''.
    """
    if not 0 <= order <= 5:
        raise ValueError("jet order must be between 0 and 5")
    p, dp = _wp_dp(ctx, z)
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
    return JetValues(at=complex(z), values=tuple(vals[: order + 1]))


def sigma(ctx: EllipticContext, z: complex) -> complex:
    """Entire odd sigma, zero on the lattice; raises where its table falls short."""
    z = complex(z)
    if abs(z) > ctx.r_sigma:
        raise SeriesNoConverge(
            f"|z| = {abs(z):.3g} outside the sigma validity radius {ctx.r_sigma:.3g}"
        )
    u = z * z
    au = abs(u)
    acc, mag = 0j, 0.0
    for c in reversed(ctx.sigma_coeffs):
        acc = acc * u + c
        mag = mag * au + abs(c)
    # S = sigma(z)/z errs by at most `rate` times its sum of |terms| (Horner
    # rounding, Higham eq. 5.3, plus the tail). Off the real axis of tall
    # lattices the terms cancel far below both S and sigma' = S + 2u S'(u)
    # and sigma raises; next to a lattice point only S is small, so it answers
    rate = 2 * len(ctx.sigma_coeffs) * 2.0**-53 + ctx.tol.series / 100.0
    target = 100.0 * ctx.tol.series
    if rate * mag > target * abs(acc):
        slope = sum(n * c * u ** (n - 1) for n, c in enumerate(ctx.sigma_coeffs) if n)
        if rate * mag > target * max(abs(acc), abs(acc + 2.0 * u * slope)):
            raise SeriesNoConverge(f"sigma series cancels at z = {z:.3g}; too few digits remain")
    return z * acc


def zeta(ctx: EllipticContext, z: complex) -> complex:
    """Odd zeta function with zeta' = -pe and principal part 1/z.

    With periods available the argument is reduced to the representative
    nearest the origin and the quasi-period constants restore the value.
    """
    z = complex(z)
    if ctx.periods is not None:
        zred, m, n = _reduce_near_zero(ctx, z)
        if abs(zred) <= ctx.tol.pole:
            raise PoleProximity(z)
        base = _zeta_series(ctx.laurent_coeffs, zred, ctx.tol.series)
        e1, e2 = ctx.eta_half
        return base + 2.0 * m * e1 + 2.0 * n * e2
    if abs(z) <= ctx.tol.pole:
        raise PoleProximity(z)
    return _zeta_series(ctx.laurent_coeffs, z, ctx.tol.series)


def reduce_to_cell(ctx: EllipticContext, z: complex) -> complex:
    """Representative s*omega1 + t*omega2 with s, t in [0, 1)."""
    if ctx.periods is None:
        raise NoPeriods("cell reduction needs period generators")
    w1, w2 = ctx.periods.omega1, ctx.periods.omega2
    s, t = _lattice_coords(complex(z), w1, w2)
    return (s - math.floor(s)) * w1 + (t - math.floor(t)) * w2


def lattice_coordinates(ctx: EllipticContext, z: complex) -> tuple[float, float]:
    """Coordinates of z in the stored generator basis."""
    if ctx.periods is None:
        raise NoPeriods("lattice coordinates need period generators")
    return _lattice_coords(complex(z), ctx.periods.omega1, ctx.periods.omega2)


def is_lattice_point(ctx: EllipticContext, z: complex) -> bool:
    """True when both lattice coordinates are integers within the tolerance."""
    s, t = lattice_coordinates(ctx, z)
    return max(abs(s - round(s)), abs(t - round(t))) <= ctx.tol.lattice


def lattice_distance(ctx: EllipticContext, z: complex) -> float:
    """Euclidean distance from z to the nearest lattice point."""
    if ctx.periods is None:
        raise NoPeriods("lattice distance needs period generators")
    zred, _, _ = _reduce_near_zero(ctx, complex(z))
    return abs(zred)
