"""Fit the necessary first-order ODE to samples and decide the solution family.

Any nonconstant solution of the determinant functional equation satisfies

    w'^2 = p3 w^3 + p2 w^2 + p1 w + p0,

with the linear sector  w' = l1 w + l0  covering the exponential and affine
degenerations. Both fits are linear least squares in the coefficients, so
classification reduces to comparing equation residuals and testing which
coefficients are significant. Recovered cubic coefficients map onto the
normal form W'^2 = 4 W^3 - g2 W - g3 through an affine substitution, which
identifies the invariants of the underlying function up to the manifest
scaling invariance. The shift parameter is not yet recovered from the
samples and is not reported. The fits are small (five to a few dozen
pairs, two or four coefficients), so they build their design matrix in
place and take norms and means as the plain sums that numpy's wrappers
take, to the same bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import verifier
from .elliptic import from_invariants
from .errors import (
    DegenerateCubic,
    DegenerateInput,
    GridNotUniform,
    IllConditionedFit,
    TooFewPoints,
)

# decision thresholds, an order of magnitude above the residuals observed with exact jets
TAU_LIN = 1e-6  # misfit of a linear-sector fit
TAU_CUB = 1e-6  # misfit of a cubic fit
COEFF_EPS = 1e-8  # significance of a term, against the left-hand side
SPREAD_EPS = 1e-10  # constant detection
COND_REJECT = 1e14  # condition of the scaled normal matrix, (smax/smin)^2, above which a fit is refused
ROUNDTRIP_COUNT = 64  # triples the round trip scores the reconstructed family on
_EPS = 2.0**-52  # the spacing of floats at 1


@dataclass(frozen=True)
class SampleSet:
    """Samples (x_i, w_i), optionally with provided derivative values.

    Every value must be finite and the x values distinct, and on a uniform
    grid when derivatives are absent; `classify_samples` says how many it
    needs.
    """

    xs: tuple[complex, ...]
    ws: tuple[complex, ...]
    dws: tuple[complex, ...] | None = None

    def __post_init__(self):
        if len(self.xs) == 0:
            raise DegenerateInput("no samples")
        if len(self.xs) != len(self.ws):
            raise DegenerateInput("xs and ws must have equal length")
        if self.dws is not None and len(self.dws) != len(self.xs):
            raise DegenerateInput("dws must match xs in length")
        if not np.isfinite(np.array([*self.xs, *self.ws, *(self.dws or ())], dtype=complex)).all():
            raise DegenerateInput("non-finite x, w or w'")
        if len(set(self.xs)) != len(self.xs):
            raise DegenerateInput("sample points must be distinct")


@dataclass(frozen=True)
class FitResult:
    """Least-squares ODE coefficients with the relative RMS equation misfit.

    term_sizes[k] is the largest magnitude of term k over the samples, such
    as max |p3 w^3|; target_size is that of the left-hand side, max |w'^2|
    or max |w'|. The misfit is relative to the RMS of the left-hand side.
    """

    model: str  # "cubic" | "linear"
    coefficients: tuple[complex, ...]  # (p0, p1, p2, p3) or (l0, l1)
    residual: float
    condition: float  # (smax/smin)^2 of the unit-norm design, the scaled normal matrix's condition
    term_sizes: tuple[float, ...]
    target_size: float

    def significant(self, eps: float) -> list[bool]:
        """Per term, whether its size passes eps of the target's."""
        return [size > eps * self.target_size for size in self.term_sizes]


@dataclass(frozen=True)
class Classification:
    family: str  # "weierstrass" | "exponential" | "linear" | "constant" | "not_a_solution"
    params: dict = field(default_factory=dict)
    evidence: tuple[FitResult, ...] = ()
    roundtrip_residual: float | None = None


def _spread(w: np.ndarray) -> float:
    return float(verifier.relative(np.abs(w - w.sum() / len(w)).max(), np.abs(w).max()))


def estimate_jets(samples: SampleSet, stencil_order: int = 4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays x, w and w' by central differences on a uniform grid.

    The grid is uniform where every step is within 1e-9 |h| of the first,
    h, plus 8 eps max|x| for the rounding of the x values themselves: a
    grid written from x0 + i h at x0 = 1e5 is uniform. Provided
    derivatives pass straight through. Boundary points without a
    full stencil are dropped; the truncation error is O(h^stencil_order).
    The stencil's sums reach 18 times the largest component of w. Where
    that could pass the float range, the stencil runs on w/2^E, the least
    power of two that keeps it in, and w' is multiplied back by 2^E: the
    powers are exact, so only a w' that itself passes the float range
    moves, to inf, without a numpy warning.
    """
    xs, ws = np.array(samples.xs, dtype=complex), np.array(samples.ws, dtype=complex)
    if samples.dws is not None:
        return xs, ws, np.array(samples.dws, dtype=complex)
    if stencil_order not in (2, 4):
        raise ValueError("stencil_order must be 2 or 4")
    if len(xs) < stencil_order + 1:
        raise TooFewPoints(f"need at least {stencil_order + 1} points for the order-{stencil_order} stencil")
    h = complex(xs[1] - xs[0])
    # each x rounds by up to ulp(x)/2, so a step may differ from h by four of those
    tol = 1e-9 * max(abs(h), 1e-300) + 8.0 * _EPS * np.abs(xs).max()
    if np.any(np.abs(xs[1:] - xs[:-1] - h) > tol):
        raise GridNotUniform("sample grid is not uniform")
    # 18 max|w| < 2^1024 where every component is below 2^1019
    exponent = max(math.frexp(np.abs(ws.view(float)).max())[1] - 1019, 0)
    scaled = ws * 2.0**-exponent if exponent else ws
    if stencil_order == 2:
        diff, step = scaled[2:] - scaled[:-2], 2.0 * h
    else:
        diff, step = -scaled[4:] + 8.0 * scaled[3:-1] - 8.0 * scaled[1:-3] + scaled[:-4], 12.0 * h
    # divide as Python complex numbers: numpy's complex division rounds otherwise in the
    # last bit, and the fits amplify that by their condition
    dw = np.array([d / step for d in diff.tolist()], dtype=complex)
    if exponent:
        # each component alone: a complex product would make inf * 0 a nan
        with np.errstate(over="ignore"):
            dw = np.ldexp(dw.view(float), exponent).view(complex)
    half = stencil_order // 2
    return xs[half:-half], ws[half:-half], dw


def _least_squares(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthogonal least squares on unit-norm columns, with its condition number.

    Columns span scales like w^3 versus 1, so each is scaled to unit norm
    first (the sum that np.linalg.norm takes, without its dispatch). One
    np.linalg.lstsq call gives the coefficients and the singular values of
    the scaled design; the condition is (smax/smin)^2, that of the scaled
    normal matrix, which does not depend on the unit of w, while the solve
    never forms that matrix and so does not square the design's condition.
    A fit above COND_REJECT raises, as does one whose design is not
    finite, where LAPACK fails or gives singular values that are not finite.
    """
    scales = np.sqrt(np.add.reduce((A.conj() * A).real, axis=0))
    scales[scales == 0.0] = 1.0
    try:
        coeffs, _, _, singular = np.linalg.lstsq(A / scales, b, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedFit("design beyond the float range") from exc
    ratio = float(singular[0] / singular[-1]) if singular[-1] > 0.0 else math.inf
    # a product, not a power: a float ** raises OverflowError where this is inf
    cond = ratio * ratio
    if not cond <= COND_REJECT:
        raise IllConditionedFit(f"least-squares condition {cond:.3g}")
    return coeffs / scales, cond


def fit_cubic(w: np.ndarray, dw: np.ndarray) -> FitResult:
    """Least squares for w'^2 = p3 w^3 + p2 w^2 + p1 w + p0."""
    if _spread(w) <= SPREAD_EPS:
        raise DegenerateInput("w values are all one constant; nothing to fit")
    # a power past the float range is refused by `_least_squares`, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        return _fit("cubic", _design(w, w**2, w**3), dw**2)


def fit_linear(w: np.ndarray, dw: np.ndarray) -> FitResult:
    """Least squares for w' = l1 w + l0."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _fit("linear", _design(w), dw)


def _design(*columns: np.ndarray) -> np.ndarray:
    """The design matrix: a column of ones, then the columns given."""
    A = np.empty((len(columns[0]), len(columns) + 1), dtype=complex)
    A[:, 0] = 1.0
    for j, column in enumerate(columns, 1):
        A[:, j] = column
    return A


def _fit(model: str, A: np.ndarray, b: np.ndarray) -> FitResult:
    """Least squares A p = b, with the misfit relative to the RMS of b."""
    if len(b) <= A.shape[1]:
        raise TooFewPoints(f"{model} fit needs at least {A.shape[1] + 1} (w, w') pairs")
    coeffs, cond = _least_squares(A, b)
    misfit, size = (np.sqrt((np.abs(v) ** 2).sum() / len(v)) for v in (A @ coeffs - b, b))
    residual = float(verifier.relative(misfit, size))
    if not math.isfinite(residual):
        raise IllConditionedFit(f"{model} fit: w' or the misfit beyond the float range")
    sizes = tuple(np.abs(A * coeffs).max(axis=0).tolist())
    return FitResult(model, tuple(coeffs), residual, cond, sizes, float(np.abs(b).max()))


def to_normal_form(p0: complex, p1: complex, p2: complex, p3: complex):
    """Affine change w = a W + b mapping the cubic onto W'^2 = 4W^3 - g2 W - g3.

    a = 4/p3 kills the leading coefficient mismatch and b = -p2/(3 p3)
    removes the quadratic term; returns (g2, g3, a, b). Only p3 = 0 raises:
    whether a nonzero p3 is significant depends on the samples, which
    `classify` weighs.
    """
    if p3 == 0:
        raise DegenerateCubic("leading coefficient p3 is zero")
    a = 4.0 / p3
    b = -p2 / (3.0 * p3)
    g2 = -(3.0 * p3 * b * b + 2.0 * p2 * b + p1) / a
    g3 = -(p3 * b**3 + p2 * b * b + p1 * b + p0) / (a * a)
    return g2, g3, a, b


def classify(cubic: FitResult | None, linear: FitResult | None) -> Classification:
    """Decision tree over the two fits.

    A fit is good when its misfit is within TAU_LIN or TAU_CUB. A good
    linear fit gives Linear (l1 w insignificant) or Exponential(delta = l1).
    A good cubic fit with significant p3 is the Weierstrass family in
    normal form; with p3 insignificant but p2 significant it is the
    trigonometric sector, folded into Exponential with delta = sqrt(p2).
    A term of either fit is significant where its largest size over the
    samples passes COEFF_EPS of the largest left-hand side: the raw
    coefficients span scales like |omega|^-6 (p0 ~ -g3) against 4 (p3) on
    small lattices. Everything else is NotASolution, a valid outcome, not
    an error. Constant samples never get here: `classify_samples` decides
    them by spread first.
    """
    evidence = tuple(r for r in (cubic, linear) if r is not None)
    if linear is not None and linear.residual <= TAU_LIN:
        l0, l1 = linear.coefficients
        if not linear.significant(COEFF_EPS)[1]:
            return Classification("linear", {"alpha": l0}, evidence)
        return Classification("exponential", {"delta": l1}, evidence)
    if cubic is not None and cubic.residual <= TAU_CUB:
        p0, p1, p2, p3 = cubic.coefficients
        significant = cubic.significant(COEFF_EPS)
        if significant[3]:
            g2, g3, a, b = to_normal_form(p0, p1, p2, p3)
            return Classification(
                "weierstrass", {"g2": g2, "g3": g3, "a": a, "b": b}, evidence
            )
        if significant[2]:
            return Classification("exponential", {"delta": cmath.sqrt(p2)}, evidence)
    return Classification("not_a_solution", {}, evidence)


def classify_samples(samples: SampleSet, stencil_order: int = 4, seed: int = 0) -> Classification:
    """Full pipeline: jets, both fits, decision, and the round-trip residual.

    Constant samples are decided by their spread (SPREAD_EPS) first.
    Otherwise the fits need 5 (w, w') pairs, and the stencil drops
    stencil_order of the samples: so 5 samples with derivatives, 7 at order
    2 and 9 at order 4.

    w, and w' where given, are divided by 2^E with 2^(E-1) <= max |w| < 2^E
    (E within +-1021) before the spread, the stencil and the fits, so that
    no power of w leaves the float range: alpha w solves an ODE of the same
    family with the same g2, g3 and delta, and a, b and a linear alpha are
    scaled back. The power of two is exact, so nothing else moves; the
    evidence holds the fits of w/2^E.

    The round trip rebuilds the decided family and scans the functional
    equation on it, attaching the max residual as independent evidence that
    the classified family really solves the equation.
    """
    ws = np.array(samples.ws, dtype=complex)
    # 2^E and 2^-E stay normal floats, so both scalings are exact
    exponent = min(max(math.frexp(np.abs(ws).max())[1], -1021), 1021)
    unit = 2.0**-exponent
    ws = ws * unit
    if _spread(ws) < SPREAD_EPS:
        return Classification("constant", {"c": sum(samples.ws) / len(samples.ws)}, ())
    need = 5 if samples.dws is not None else 5 + stencil_order
    if len(samples.xs) < need:
        stencil = "" if samples.dws is not None else f" after the order-{stencil_order} stencil"
        raise TooFewPoints(f"classification needs at least {need} samples, to leave 5 (w, w') pairs{stencil}")
    dws = None if samples.dws is None else tuple((np.array(samples.dws, dtype=complex) * unit).tolist())
    _, w, dw = estimate_jets(SampleSet(samples.xs, tuple(ws.tolist()), dws), stencil_order)
    fits = []
    for fit in (fit_cubic, fit_linear):
        try:
            fits.append(fit(w, dw))
        except (DegenerateInput, IllConditionedFit):
            fits.append(None)
    decision = classify(*fits)
    params = dict(decision.params)
    for key in ("a", "b", "alpha"):
        if key in params:
            params[key] = params[key] / unit
    if decision.family != "not_a_solution":
        rt = roundtrip_residual(Classification(decision.family, params), seed=seed)
        return Classification(decision.family, params, decision.evidence, rt)
    return decision


def roundtrip_residual(decision: Classification, seed: int = 0) -> float:
    """Max functional-equation residual of the reconstructed family, on triples drawn in its lattice's frame."""
    if decision.family == "exponential":
        fam = verifier.Exponential(delta=decision.params["delta"])
    elif decision.family == "linear":
        fam = verifier.Linear(alpha=decision.params.get("alpha", 1.0) or 1.0)
    elif decision.family == "weierstrass":
        fam = verifier.WeierstrassShifted(from_invariants(decision.params["g2"], decision.params["g3"]), 0j)
    else:
        return 0.0
    sampler = verifier.TripleSampler(seed=seed, count=ROUNDTRIP_COUNT)
    report = verifier.scan(fam, fam, fam, sampler, tol=math.inf)
    return report.max_residual
