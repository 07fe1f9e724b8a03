"""Numerical verification of the determinant functional equation.

The object under test is the 3x3 determinant with rows (1, 1, 1),
(f(x), g(y), h(z)) and (f'(x), g'(y), h'(z)) on triples constrained by
x + y + z = 0. Candidate solutions are closed-form function families
(shifted pe, exponential, linear, constant) whose jets are exact, so any
residual measures the identity itself rather than differentiation noise.

Residuals are normalised by the product over rows of the largest entry
magnitude clamped below by one: the determinant grows like |pe|*|pe'| near
poles, and the clamp keeps near-pole triples from passing or failing
trivially. Sampling is deterministic: each sample index seeds its own
generator, so reports are reproducible and order independent.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import elliptic, jetpoly
from .elliptic import EllipticContext, JetValues
from .errors import (
    DegenerateProbe,
    FloatOverflow,
    PoleProximity,
    SamplerExhausted,
    SeriesNoConverge,
)


# -- function families ---------------------------------------------------------


@dataclass(frozen=True)
class WeierstrassShifted:
    """f(x) = pe(x + shift) on the invariants of the context."""

    ctx: EllipticContext
    shift: complex = 0j

    def jets(self, x: complex, order: int = 5) -> JetValues:
        inner = elliptic.jets(self.ctx, complex(x) + self.shift, order)
        return JetValues(at=complex(x), values=inner.values)

    def antiderivative(self, x: complex) -> complex:
        # F with F' = pe(. + shift) is -zeta(. + shift)
        return -elliptic.zeta(self.ctx, complex(x) + self.shift)


@dataclass(frozen=True)
class Exponential:
    """f(x) = alpha * exp(delta x) + beta with delta != 0."""

    alpha: complex = 1.0 + 0j
    beta: complex = 0j
    delta: complex = 1.0 + 0j

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("delta must be nonzero; use Constant instead")
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero; use Constant instead")

    def _exp(self, x: complex) -> complex:
        try:
            return cmath.exp(self.delta * x)
        except OverflowError as exc:
            raise FloatOverflow(f"exp({self.delta} * {x}) overflows") from exc

    def jets(self, x: complex, order: int = 5) -> JetValues:
        e = self._exp(complex(x))
        vals = [self.alpha * e + self.beta]
        d = self.alpha * e
        for _ in range(order):
            d = d * self.delta
            vals.append(d)
        return JetValues(at=complex(x), values=tuple(vals))

    def antiderivative(self, x: complex) -> complex:
        x = complex(x)
        return self.alpha / self.delta * self._exp(x) + self.beta * x


@dataclass(frozen=True)
class Linear:
    """f(x) = alpha x + beta with alpha != 0."""

    alpha: complex = 1.0 + 0j
    beta: complex = 0j

    def __post_init__(self):
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero; use Constant instead")

    def jets(self, x: complex, order: int = 5) -> JetValues:
        vals = [self.alpha * complex(x) + self.beta, self.alpha] + [0j] * max(0, order - 1)
        return JetValues(at=complex(x), values=tuple(vals[: order + 1]))

    def antiderivative(self, x: complex) -> complex:
        x = complex(x)
        return self.alpha * x * x / 2.0 + self.beta * x


@dataclass(frozen=True)
class Constant:
    value: complex = 0j

    def jets(self, x: complex, order: int = 5) -> JetValues:
        return JetValues(at=complex(x), values=(complex(self.value),) + (0j,) * order)

    def antiderivative(self, x: complex) -> complex:
        return complex(self.value) * complex(x)


FunctionFamily = WeierstrassShifted | Exponential | Linear | Constant


def transform_jets(j: JetValues, alpha: complex = 1.0, beta: complex = 0j, delta: complex = 1.0) -> JetValues:
    """Jets of alpha*f(delta x) + beta given jets of f at delta*x (chain rule)."""
    vals = [alpha * j.values[0] + beta]
    scale = alpha
    for k in range(1, len(j.values)):
        scale = scale * delta
        vals.append(scale * j.values[k])
    return JetValues(at=j.at, values=tuple(vals))


# -- determinant and residual ----------------------------------------------------


def det3(jf: JetValues, jg: JetValues, jh: JetValues) -> complex:
    """Determinant of rows (1,1,1), (f,g,h), (f',g',h') from first-order jets."""
    fv, gv, hv = jf.values[0], jg.values[0], jh.values[0]
    fp, gp, hp = jf.values[1], jg.values[1], jh.values[1]
    return (gv - fv) * hp - (gp - fp) * hv + (fv * gp - gv * fp)


def det3_scale(jf: JetValues, jg: JetValues, jh: JetValues) -> float:
    """Row-magnitude normalisation, each row clamped below by one."""
    row1 = max(1.0, abs(jf.values[0]), abs(jg.values[0]), abs(jh.values[0]))
    row2 = max(1.0, abs(jf.values[1]), abs(jg.values[1]), abs(jh.values[1]))
    return row1 * row2


def residual_from_jets(jf: JetValues, jg: JetValues, jh: JetValues) -> float:
    return abs(det3(jf, jg, jh)) / det3_scale(jf, jg, jh)


def residual(
    ff: FunctionFamily,
    fg: FunctionFamily,
    fh: FunctionFamily,
    x: complex,
    y: complex,
    z: complex | None = None,
) -> float:
    """Scale-normalised determinant residual at (x, y, z = -x-y)."""
    if z is None:
        z = -(complex(x) + complex(y))
    return residual_from_jets(ff.jets(x, 1), fg.jets(y, 1), fh.jets(z, 1))


# -- sampling ----------------------------------------------------------------------


def _draws(seed: int, indices, budget: int, draw, accept):
    """Yield (draw, value) for the first accepted draw of every sample index.

    Attempt k of sample i draws from the generator seeded with (seed, i, k).
    `accept` maps a draw to its value, or to None (or PoleProximity or
    SeriesNoConverge) to reject it. All indices share one budget of draws.
    """
    spent = 0
    for index in indices:
        for attempt in itertools.count():
            if spent == budget:
                raise SamplerExhausted(f"no accepted draw for sample {index} within {budget} draws")
            spent += 1
            drawn = draw(np.random.default_rng((seed, index, attempt)))
            try:
                value = accept(drawn)
            except (PoleProximity, SeriesNoConverge):
                value = None
            if value is not None:
                yield drawn, value
                break


@dataclass(frozen=True)
class TripleSampler:
    """Deterministic rejection sampler for admissible triples.

    Points are drawn in lattice coordinates (s, t) uniform on
    [margin, 1-margin]^2 when a periodic context is available, otherwise in
    a complex box of half-width `box`. z is -x-y unless `unconstrained`,
    in which case all three points are independent. Pole-proximal draws are
    rejected and retried with a budget of 100 per sample on average.
    """

    seed: int = 0
    count: int = 1000
    margin: float = 0.05
    pole_radius: float | None = None
    unconstrained: bool = False
    box: float = 1.0

    def _draw(self, rng, ctx: EllipticContext | None) -> complex:
        if ctx is not None and ctx.periods is not None:
            s, t = rng.uniform(self.margin, 1.0 - self.margin, 2)
            return complex(s * ctx.periods.omega1 + t * ctx.periods.omega2)
        re, im = rng.uniform(-self.box, self.box, 2)
        return complex(re, im)

    def effective_pole_radius(self, ctx: EllipticContext | None) -> float:
        if self.pole_radius is not None:
            return self.pole_radius
        if ctx is not None and ctx.periods is not None:
            return max(ctx.tol.pole, 0.03 * ctx.lambda_min)
        return 1e-6

    def admissible(self, ctx: EllipticContext | None, shift: complex, z: complex) -> bool:
        if ctx is None or ctx.periods is None:
            return True
        return elliptic.lattice_distance(ctx, z + shift) > self.effective_pole_radius(ctx)

    def triples(self, families: Sequence[FunctionFamily]):
        """Yield `count` admissible (x, y, z); raises SamplerExhausted."""
        ctx = _first_context(families)
        shifts = [
            (fam.ctx, fam.shift) if isinstance(fam, WeierstrassShifted) else (None, 0j)
            for fam in families
        ]

        def draw(rng):
            x = self._draw(rng, ctx)
            y = self._draw(rng, ctx)
            return x, y, self._draw(rng, ctx) if self.unconstrained else -(x + y)

        def accept(points):
            return all(
                self.admissible(fctx, shift, p) for (fctx, shift), p in zip(shifts, points)
            ) or None

        drawn = _draws(self.seed, range(self.count), 100 * self.count, draw, accept)
        yield from (points for points, _ in drawn)


def _first_context(families) -> EllipticContext | None:
    for fam in families:
        if isinstance(fam, WeierstrassShifted):
            return fam.ctx
    return None


# -- reports ------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Aggregate of a sampled verification run; max >= mean >= 0.

    A sampled check's `details` count the sampled triples it could not score:
    `skipped`, then `skipped_<Error>` per exception type seen and
    `skipped_guard` for triples it declined (factfun's stencil guard).
    """

    samples: int
    max_residual: float
    mean_residual: float
    worst_triple: tuple[complex, complex, complex] | None
    tol: float
    passed: bool
    note: str = ""
    details: dict = field(default_factory=dict)


def _aggregate(residuals, triples, tol, note="", details=None) -> ResidualReport:
    worst = max(range(len(residuals)), key=lambda i: (not math.isfinite(residuals[i]), residuals[i]))
    mx = residuals[worst]
    return ResidualReport(
        samples=len(residuals),
        max_residual=mx,
        mean_residual=sum(residuals) / len(residuals),
        worst_triple=triples[worst],
        tol=tol,
        passed=mx <= tol,
        note=note,
        details=dict(details or {}),
    )


def _collect(triples, evaluate, tol, note="") -> ResidualReport:
    """Report of evaluate(x, y, z) over the triples, skipping the ones it cannot score.

    A triple is skipped when `evaluate` raises PoleProximity or
    SeriesNoConverge, or returns None; the skips are counted in `details`.
    """
    residuals: list[float] = []
    kept: list[tuple[complex, complex, complex]] = []
    skipped: Counter = Counter()
    for triple in triples:
        try:
            r = evaluate(*triple)
        except (PoleProximity, SeriesNoConverge) as exc:
            skipped[type(exc).__name__] += 1
            continue
        if r is None:
            skipped["guard"] += 1
            continue
        residuals.append(r)
        kept.append(triple)
    if not residuals:
        raise SamplerExhausted("no admissible triples survived evaluation")
    details = {"skipped": sum(skipped.values())}
    details.update((f"skipped_{why}", n) for why, n in sorted(skipped.items()))
    return _aggregate(residuals, kept, tol, note, details)


def scan(
    ff: FunctionFamily,
    fg: FunctionFamily,
    fh: FunctionFamily,
    sampler: TripleSampler,
    tol: float,
) -> ResidualReport:
    """Residual report over sampled admissible triples; pass iff max <= tol."""
    return _collect(
        sampler.triples((ff, fg, fh)), lambda x, y, z: residual(ff, fg, fh, x, y, z), tol
    )


def grid_scan(
    fam: FunctionFamily, sampler: TripleSampler, grid: int
) -> list[tuple[complex, complex, float]]:
    """Rows (x, y, residual) of the triple (fam, fam, fam) with x on a grid.

    x runs over a grid x grid mesh: [margin, 1-margin]^2 in lattice
    coordinates for a periodic family, else the box [-1, 1]^2. Grid point
    (i, j) is sample i*grid + j of the sampler's stream: its partner y is
    redrawn, at most 200 times, while a point of (x, y, -x-y) lies near a
    pole or the residual cannot be evaluated; SamplerExhausted then.
    """
    ctx = _first_context((fam,))
    shift = fam.shift if ctx is not None else 0j
    lo, width = (sampler.margin, 1.0 - 2.0 * sampler.margin) if ctx is not None else (-1.0, 2.0)
    ticks = [lo + width * i / max(grid - 1, 1) for i in range(grid)]

    def row(index: int, s: float, t: float):
        x = s * ctx.periods.omega1 + t * ctx.periods.omega2 if ctx is not None else complex(s, t)

        def accept(y):
            z = -(x + y)
            ok = all(sampler.admissible(ctx, shift, p) for p in (x, y, z))
            return residual(fam, fam, fam, x, y, z) if ok else None

        ((y, r),) = _draws(sampler.seed, (index,), 200, lambda rng: sampler._draw(rng, ctx), accept)
        return x, y, r

    return [row(i * grid + j, s, t) for i, s in enumerate(ticks) for j, t in enumerate(ticks)]


# -- closed-form cross-checks ----------------------------------------------------------


def sigma_quotient(ctx: EllipticContext, a: complex, b: complex, c: complex) -> complex:
    """2 sigma(a+b+c) sigma(a-b) sigma(b-c) sigma(c-a) / (sigma(a) sigma(b) sigma(c))^3.

    Equals the determinant det3 on pe jets at (a, b, c); antisymmetric under
    swapping any two arguments because sigma is odd. The arguments are
    ordered canonically before evaluation and the permutation sign attached
    afterwards, so the antisymmetry holds exactly in floating point too.
    """
    points = [complex(a), complex(b), complex(c)]
    key = [(p.real, p.imag) for p in points]
    sign = 1.0
    # three-element sort by adjacent swaps, tracking the parity
    for i in (0, 1, 0):
        if key[i] > key[i + 1]:
            key[i], key[i + 1] = key[i + 1], key[i]
            points[i], points[i + 1] = points[i + 1], points[i]
            sign = -sign
    a, b, c = points
    num = (
        2.0
        * elliptic.sigma(ctx, a + b + c)
        * elliptic.sigma(ctx, a - b)
        * elliptic.sigma(ctx, b - c)
        * elliptic.sigma(ctx, c - a)
    )
    den = (elliptic.sigma(ctx, a) * elliptic.sigma(ctx, b) * elliptic.sigma(ctx, c)) ** 3
    if den == 0:
        raise PoleProximity(a, "sigma quotient denominator vanished")
    return sign * num / den


def _det_vs_sigma(ctx: EllipticContext, a: complex, b: complex, c: complex) -> float:
    """Relative gap between det3 on pe jets at (a, b, c) and the sigma quotient."""
    det = det3(*(elliptic.jets(ctx, p, 1) for p in (a, b, c)))
    quo = sigma_quotient(ctx, a, b, c)
    return abs(det - quo) / max(abs(det), abs(quo), 1e-300)


def sigma_identity_scan(
    ctx: EllipticContext,
    count: int = 500,
    seed: int = 0,
    tol: float = 1e-8,
    spread: float = 0.35,
) -> ResidualReport:
    """Relative agreement of det3 on pe jets with the sigma quotient.

    Points a, b, c are drawn in lattice coordinates uniform on
    [-spread, spread]^2 about the origin. Draws are rejected and redrawn
    when any point, any pairwise difference, or the sum lies near the
    lattice (where both sides vanish and relative comparison is
    meaningless) or outside the sigma validity radius, so none is skipped.
    """
    if ctx.periods is None:
        raise ValueError("the sigma identity scan needs a periodic context")
    w1, w2 = ctx.periods.omega1, ctx.periods.omega2
    pole = max(ctx.tol.pole, 0.04 * ctx.lambda_min)

    def draw(rng):
        st = rng.uniform(-spread, spread, 6)
        return st[0] * w1 + st[1] * w2, st[2] * w1 + st[3] * w2, st[4] * w1 + st[5] * w2

    def accept(abc):
        a, b, c = abc
        probes = (a, b, c, a - b, b - c, c - a, a + b + c)
        if any(elliptic.lattice_distance(ctx, p) <= pole for p in probes):
            return None
        return _det_vs_sigma(ctx, a, b, c)

    triples, residuals = zip(*_draws(seed, range(count), 200 * count, draw, accept))
    return _aggregate(residuals, triples, tol, "det3 vs sigma quotient", {"skipped": 0})


def shifted_det_vs_sigma_scan(
    ctx: EllipticContext,
    shift: complex,
    sampler: TripleSampler,
    tol: float = 1e-6,
) -> ResidualReport:
    """Per-triple agreement of the shifted-triple determinant with its sigma form.

    For f = g = h = pe(. + shift) at (x, y, z = -x-y) the determinant equals
    the sigma quotient at (x+shift, y+shift, z+shift); the shift sum 3*shift
    controls whether the value vanishes. This is the oracle that pins the
    residual floor of non-lattice shifts. Triples that take sigma beyond its
    validity radius are skipped.
    """
    shift = complex(shift)
    fam = WeierstrassShifted(ctx, shift)
    return _collect(
        sampler.triples((fam, fam, fam)),
        lambda x, y, z: _det_vs_sigma(ctx, x + shift, y + shift, z + shift),
        tol,
        note="shifted determinant vs sigma quotient",
    )


def theorem_shift_expectation(ctx: EllipticContext, total_shift: complex) -> str:
    """'pass' / 'fail' / 'indeterminate' from lattice membership of the shift sum.

    Borderline sums within a factor ten of the lattice tolerance are
    reported indeterminate instead of being forced to a side.
    """
    s, t = elliptic.lattice_coordinates(ctx, total_shift)
    dist = max(abs(s - round(s)), abs(t - round(t)))
    if dist <= ctx.tol.lattice:
        return "pass"
    if dist <= 10.0 * ctx.tol.lattice:
        return "indeterminate"
    return "fail"


def theorem2_shift_test(
    ctx: EllipticContext,
    gamma1: complex,
    gamma2: complex,
    gamma3: complex,
    sampler: TripleSampler,
    tol: float = 1e-8,
) -> ResidualReport:
    """Scan the triple pe(.+gamma_i); expected to pass iff the sum is a lattice point.

    The report's details carry the expectation and the equivalent
    representative gamma3' = -(gamma1+gamma2) that realises a zero shift sum.
    """
    total = complex(gamma1) + complex(gamma2) + complex(gamma3)
    expected = theorem_shift_expectation(ctx, total)
    report = scan(
        WeierstrassShifted(ctx, complex(gamma1)),
        WeierstrassShifted(ctx, complex(gamma2)),
        WeierstrassShifted(ctx, complex(gamma3)),
        sampler,
        tol,
    )
    return replace(
        report,
        note=f"shift sum expectation: {expected}",
        details={
            **report.details,
            "shift_sum": total,
            "expected": expected,
            "gamma3_equivalent": -(complex(gamma1) + complex(gamma2)),
        },
    )


def derived_determinant_check(
    ff: FunctionFamily,
    fg: FunctionFamily,
    fh: FunctionFamily,
    k: int,
    l: int,
    s: int | None,
    sampler: TripleSampler,
    tol: float = 1e-7,
) -> ResidualReport:
    """Evaluate the eliminated symbolic determinants on solution jets.

    With s given, the plain three-column determinant over columns (k, l, s);
    without it, the differentiated two-column determinant for (k, l). Both
    are consequences of the functional equation, so they must vanish on
    solution families within tolerance. The residual is the evaluated value
    over the same polynomial evaluated on absolute values (the cancellation
    scale).
    """
    poly = jetpoly.abc_det(k, l, s) if s is not None else jetpoly.build_addet(k, l)
    order = max(poly.jet_order("f"), poly.jet_order("g"), 1)

    def evaluate(x, y, z):
        fv, gv = ff.jets(x, order).values, fg.jets(y, order).values
        value = jetpoly.evaluate(poly, fv, gv)
        return abs(value) / max(jetpoly.evaluate(poly, fv, gv, absolute=True), 1e-100)

    label = f"columns ({k}, {l}, {s})" if s is not None else f"columns ({k}, {l})"
    return _collect(sampler.triples((ff, fg, fh)), evaluate, tol, note=label)


def _third_order_operator(S, x: complex, y: complex, h: float) -> complex:
    """(d/dx - d/dy) d/dx d/dy applied to S by second-order central differences."""

    def mixed(a: complex, b: complex) -> complex:
        return (S(a + h, b + h) - S(a + h, b - h) - S(a - h, b + h) + S(a - h, b - h)) / (
            4.0 * h * h
        )

    return (mixed(x + h, y) - mixed(x - h, y) - mixed(x, y + h) + mixed(x, y - h)) / (2.0 * h)


def factfun_check(
    fam: FunctionFamily,
    sampler: TripleSampler,
    h_step: float = 1e-2,
    tol: float = 1e-6,
) -> ResidualReport:
    """Annihilation test for the paired-product form of the equation.

    With F the antiderivative of the family (F' = f) build
    S(x, y) = F(x)F(y) + F(y)F(z) + F(z)F(x) at z = -x-y and apply the
    third-order operator (d/dx - d/dy) d/dx d/dy by central differences with
    one Richardson level. The operator value equals minus the determinant of
    the triple (f, f, f), so it must vanish for solutions; the residual is
    normalised by the same row scale as the determinant.
    """

    def S(a: complex, b: complex) -> complex:
        c = -(a + b)
        Fa, Fb, Fc = (fam.antiderivative(t) for t in (a, b, c))
        return Fa * Fb + Fb * Fc + Fc * Fa

    ctx = _first_context((fam,))
    clearance = sampler.effective_pole_radius(ctx) + 4.0 * h_step
    # the finite-difference stencil must stay clear of the poles; without
    # periods the origin is the only known one
    near = abs if ctx is None or ctx.periods is None else lambda p: elliptic.lattice_distance(ctx, p)

    def evaluate(x, y, z):
        if ctx is not None and any(near(p + fam.shift) <= clearance for p in (x, y, z)):
            return None
        d1 = _third_order_operator(S, x, y, h_step)
        d2 = _third_order_operator(S, x, y, h_step / 2.0)
        value = (4.0 * d2 - d1) / 3.0
        return abs(value) / det3_scale(*(fam.jets(t, 1) for t in (x, y, z)))

    note = f"h = {h_step:g}, one Richardson level"
    return _collect(sampler.triples((fam, fam, fam)), evaluate, tol, note)


def constant_case_check(
    ff: FunctionFamily,
    fg: FunctionFamily,
    sampler: TripleSampler,
    tol: float = 1e-12,
) -> ResidualReport:
    """Residual of (d/dy - d/dx) f(x) g(y) = f(x) g'(y) - f'(x) g(y), normalised.

    This is the two-function reduction that remains when the third function
    is the zero constant: it vanishes when f and g are proportional
    exponentials with equal rates, or when either function is identically
    zero, and has a floor for mismatched rates.
    """

    def evaluate(x, y, z):
        fv, gv = ff.jets(x, 1).values, fg.jets(y, 1).values
        p, q = fv[0] * gv[1], fv[1] * gv[0]
        return abs(p - q) / max(1.0, abs(p), abs(q))

    return _collect(sampler.triples((ff, fg, Constant(0j))), evaluate, tol)


def c_function_check(
    ctx: EllipticContext,
    x: complex,
    probes: Sequence[complex],
    exp_family: Exponential | None = None,
    tol: float = 1e-6,
) -> ResidualReport:
    """Constancy checks for the two integration functions of the elimination.

    Cubic branch, f = g = pe: for every probe y the bracket

        B(x, y) = f'(f'^2 - g'^2)/(f-g)^3 - 2 f' f''/(f-g)^2 + f'''/(f-g)

    must not depend on y, and must equal the closed form
    (f' f'''' - f'' f''')/(3 f'^2) at x. Linear branch on an exponential
    family: (f'(x) - g'(y))/(f(x) - g(y)) must equal delta for every probe.
    """
    x = complex(x)
    jf = elliptic.jets(ctx, x, 4)
    f0, f1, f2, f3, f4 = jf.values
    target = (f1 * f4 - f2 * f3) / (3.0 * f1 * f1)
    values = []
    for y in probes:
        jg = elliptic.jets(ctx, complex(y), 1)
        g0, g1 = jg.values
        diff = f0 - g0
        if abs(diff) <= 1e-9 * max(1.0, abs(f0)):
            raise DegenerateProbe(f"pe({x}) and pe({y}) coincide")
        values.append(
            f1 * (f1 * f1 - g1 * g1) / diff**3 - 2.0 * f1 * f2 / diff**2 + f3 / diff
        )
    scale = max(1.0, abs(target))
    spread = max(abs(v - w) for v in values for w in values) / scale
    mismatch = max(abs(v - target) for v in values) / scale
    exp_fam = exp_family if exp_family is not None else Exponential(delta=1.0)
    exp_dev = 0.0
    for y in probes:
        je = exp_fam.jets(complex(y), 1)
        jx = exp_fam.jets(x, 1)
        diff = jx.values[0] - je.values[0]
        if abs(diff) <= 1e-12 * max(1.0, abs(jx.values[0])):
            raise DegenerateProbe("exponential probe coincides with the base point")
        ratio = (jx.values[1] - je.values[1]) / diff
        exp_dev = max(exp_dev, abs(ratio - exp_fam.delta) / max(1.0, abs(exp_fam.delta)))
    worst = max(spread, mismatch, exp_dev)
    return ResidualReport(
        samples=len(values),
        max_residual=worst,
        mean_residual=worst,
        worst_triple=None,
        tol=tol,
        passed=worst <= tol,
        note="constancy of the integration functions",
        details={
            "bracket_spread": spread,
            "bracket_vs_closed_form": mismatch,
            "exponential_ratio_deviation": exp_dev,
            "closed_form": target,
        },
    )
