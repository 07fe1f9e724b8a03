"""Numerical verification of the determinant functional equation.

The object under test is the 3x3 determinant with rows (1, 1, 1),
(f(x), g(y), h(z)) and (f'(x), g'(y), h'(z)) on triples constrained by
x + y + z = 0. Candidate solutions are closed-form function families
(shifted pe, exponential, linear, constant) whose jets are exact, so any
residual measures the identity itself rather than differentiation noise.

Residuals are relative to the size of their own terms (`relative`; the
operator check's, see `factfun_check`, excepted); det3's is the sum of the
magnitudes of its six terms, homogeneous in alpha and delta of
alpha f(delta x) + beta, so no verdict depends on the unit of f or x.
Sampling is deterministic: round k of rejection draws one block from the
counter-based stream keyed by (seed, k) (see `_Stream`), and sample i takes
row i of it, so a draw depends only on (seed, sample, attempt) and reports
are reproducible.
Rejection rounds test the geometry alone, the distance to the lattice.
Every sampled check then scores its admitted triples once, by one path: its
evaluation gives (value, scale, faults), `_score` divides, and `_report`
skips and counts a faulted triple, picks the worst and decides. A batch is
scored in as few evaluator calls as it allows: pe families on one context share one
`elliptic.jets` call on the stacked points, and the operator check
evaluates the antiderivative once, on the 22 distinct points of its
two-level finite-difference stencil.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from functools import cache, reduce
from typing import Sequence

import numpy as np

from . import elliptic, jetpoly
from .elliptic import EllipticContext
from .errors import FloatOverflow, PoleProximity, SamplerExhausted


# -- function families ---------------------------------------------------------
#
# Each family gives exact jets, `jets(x, order)` -> the tuple (f, f', ...,
# f^(order)), and an antiderivative, `antiderivative(x)`, at a number or
# elementwise over an ndarray, by one body. Where a number raises
# PoleProximity, an array holds nan, and a batch reads its faults from that
# (`_pole_faults`).


def _as_complex(x):
    """An ndarray of one or more dimensions as it is, anything else as one complex number."""
    return x if isinstance(x, np.ndarray) and x.ndim else complex(x)


def _filled(x, value: complex):
    """value at x: the number itself, or an array of x's shape."""
    return np.full(x.shape, value, dtype=complex) if isinstance(x, np.ndarray) else value


@dataclass(frozen=True)
class WeierstrassShifted:
    """f(x) = pe(x + shift) on the invariants of the context."""

    ctx: EllipticContext
    shift: complex = 0j

    def jets(self, x, order: int = 5) -> tuple:
        return elliptic.jets(self.ctx, _as_complex(x) + self.shift, order)

    def antiderivative(self, x):
        # F with F' = pe(. + shift) is -zeta(. + shift)
        return -elliptic.zeta(self.ctx, _as_complex(x) + self.shift)


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

    def _exp(self, x):
        """exp(delta x) of a number or elementwise; FloatOverflow if any value overflows."""
        if not isinstance(x, np.ndarray):
            try:
                return cmath.exp(self.delta * x)
            except OverflowError as exc:
                raise FloatOverflow(f"exp({self.delta} * {x}) overflows") from exc
        with np.errstate(all="ignore"):
            e = np.exp(self.delta * x)
        if not np.isfinite(e).all():
            raise FloatOverflow(f"exp({self.delta} * x) overflows on the batch")
        return e

    def jets(self, x, order: int = 5) -> tuple:
        d = self.alpha * self._exp(_as_complex(x))
        vals = [d + self.beta]
        for _ in range(order):
            d = d * self.delta
            vals.append(d)
        return tuple(vals)

    def antiderivative(self, x):
        x = _as_complex(x)
        return self.alpha / self.delta * self._exp(x) + self.beta * x


@dataclass(frozen=True)
class Linear:
    """f(x) = alpha x + beta with alpha != 0."""

    alpha: complex = 1.0 + 0j
    beta: complex = 0j

    def __post_init__(self):
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero; use Constant instead")

    def jets(self, x, order: int = 5) -> tuple:
        x = _as_complex(x)
        vals = [self.alpha * x + self.beta, _filled(x, self.alpha)] + [_filled(x, 0j)] * max(0, order - 1)
        return tuple(vals[: order + 1])

    def antiderivative(self, x):
        x = _as_complex(x)
        return self.alpha * x * x / 2.0 + self.beta * x


@dataclass(frozen=True)
class Constant:
    value: complex = 0j

    def jets(self, x, order: int = 5) -> tuple:
        x = _as_complex(x)
        return (_filled(x, complex(self.value)),) + (_filled(x, 0j),) * order

    def antiderivative(self, x):
        return complex(self.value) * _as_complex(x)


FunctionFamily = WeierstrassShifted | Exponential | Linear | Constant


# -- determinant and residual ----------------------------------------------------


def det3(jf: tuple, jg: tuple, jh: tuple) -> complex:
    """Determinant of rows (1,1,1), (f,g,h), (f',g',h') from jets (f, f', ...)."""
    (fv, fp), (gv, gp), (hv, hp) = jf[:2], jg[:2], jh[:2]
    return (gv - fv) * hp - (gp - fp) * hv + (fv * gp - gv * fp)


def det3_terms(jf: tuple, jg: tuple, jh: tuple):
    """det3's cancellation scale: the sum of the magnitudes of its six terms."""
    (fv, fp), (gv, gp), (hv, hp) = jf[:2], jg[:2], jh[:2]
    return abs(gv * hp) + abs(fv * hp) + abs(gp * hv) + abs(fp * hv) + abs(fv * gp) + abs(gv * fp)


def relative(value, scale):
    """|value| / scale elementwise, scale being the size of value's terms; all-zero terms give 0."""
    return np.abs(value) / np.maximum(scale, 1e-300)


def _score(evaluate, *args):
    """(residuals, faults) of evaluate(*args), which gives (value, scale, faults): |value| / scale.

    The one place a sampled check divides; evaluate runs under one errstate,
    so an overflow or a nan it meets lands in the residual or the faults.
    """
    with np.errstate(all="ignore"):
        value, scale, faults = evaluate(*args)
        return relative(value, scale), faults


def residual(
    ff: FunctionFamily,
    fg: FunctionFamily,
    fh: FunctionFamily,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None = None,
):
    """(residuals, faults) of det3 at the triples (x, y, z = -x-y) of complex arrays, relative to its six terms.

    faults[i] is nonzero where a family's value at triple i is nan (see `_pole_faults`).
    """

    def evaluate(x, y, z):
        jets = _family_jets((ff, fg, fh), (x, y, z), 1)
        return det3(*jets), det3_terms(*jets), _pole_faults(*(j[0] for j in jets))

    return _score(evaluate, x, y, -(x + y) if z is None else z)


def _family_jets(families: Sequence[FunctionFamily], points: Sequence, order: int) -> list[tuple]:
    """Jets of family j at points[j]; pe families on one context share one `elliptic.jets` call on arrays.

    That call takes the stacked points plus shifts; it works elementwise, so
    the values are the per-family calls'.
    """
    ctx = getattr(families[0], "ctx", None)
    if not all(isinstance(fam, WeierstrassShifted) and fam.ctx is ctx for fam in families):
        return [fam.jets(p, order) for fam, p in zip(families, points)]
    values = elliptic.jets(ctx, np.array([p + fam.shift for fam, p in zip(families, points)]), order)
    return list(zip(*values))


# -- sampling ----------------------------------------------------------------------

# why a batch element was not scored, by fault code; 0: it was. _POLE
# marks where a number call raises PoleProximity
_SKIPS = ("", "PoleProximity", "guard")
_POLE, _GUARD = 1, 2


def _pole_faults(*values: np.ndarray) -> np.ndarray:
    """Elementwise _POLE where any of the families' values is nan, else 0."""
    nan = np.isnan(values[0])
    for v in values[1:]:
        nan |= np.isnan(v)
    return np.where(nan, _POLE, 0)


# -- the sample stream ----------------------------------------------------------------
#
# A counter-based generator (Salmon et al., "Parallel random numbers: as easy
# as 1, 2, 3", SC 2011) on SplitMix64's finaliser mix64 (Steele, Lea & Flood,
# OOPSLA 2014). Round k of seed s reads uniform j as
# (mix64(key(s, k) + (j + 1) gamma) >> 11) 2^-53, all mod 2^64, where key
# folds each 64-bit limb of s, least significant first, and then k, by
# h <- mix64((h ^ word) + gamma) from h = 0. The stream is a function of its
# integers alone, so seeded reports depend on no library's generator.

_GAMMA, _M1, _M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
# the same constants, and mix64's shifts, as numpy scalars: uint64 arrays wrap mod 2^64 by themselves
_GAMMA_U, _M1_U, _M2_U = (np.uint64(c) for c in (_GAMMA, _M1, _M2))
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _fold(h: int, word: int) -> int:
    """mix64((h ^ word) + gamma) of two ints below 2^64."""
    z = (h ^ word) + _GAMMA & _MASK64
    z = (z ^ z >> 30) * _M1 & _MASK64
    z = (z ^ z >> 27) * _M2 & _MASK64
    return z ^ z >> 31


def _seed_key(seed) -> int:
    """The 64-bit limbs of seed, least significant first, folded from 0.

    A seed is a non-negative integer of any size (bool and numpy integers
    included): a float raises TypeError, a negative one ValueError.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return reduce(_fold, (seed >> shift & _MASK64 for shift in range(0, max(seed.bit_length(), 1), 64)), 0)


class _Stream:
    """Round k of a seed's stream: its uniforms 0, 1, 2, ... in C order."""

    __slots__ = ("_key",)

    def __init__(self, seed_key: int, k: int):
        self._key = np.uint64(_fold(seed_key, k))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=1) -> np.ndarray:
        """An array of shape size, low + (high - low) u elementwise, as numpy's Generator.uniform computes it."""
        z = np.arange(1, (math.prod(size) if isinstance(size, tuple) else size) + 1, dtype=np.uint64)
        z *= _GAMMA_U
        z += self._key
        z ^= z >> _S30
        z *= _M1_U
        z ^= z >> _S27
        z *= _M2_U
        z ^= z >> _S31
        u = (z >> _S11).astype(float)
        u *= 2.0**-53
        return (low + (high - low) * u).reshape(size)


# every sampler's budget: it runs out after this many draws per requested sample, pooled
_DRAWS_PER_SAMPLE = 200


def _draws(seed: int, count: int, draw, admit) -> np.ndarray:
    """The first admitted row of each of samples 0..count-1.

    Round k draws one block, draw(stream, n), from round k of the seed's
    `_Stream`, and sample i takes row i of it: a draw depends only on (seed,
    sample, attempt). admit(rows), a bool per row, is the geometric test, and
    the samples it rejects are redrawn in the next round until every one
    holds an admitted row. Every draw spends one unit of a budget of
    `_DRAWS_PER_SAMPLE` draws per sample, pooled over the samples, so it runs
    out, with SamplerExhausted, exactly when drawing sample by sample would.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    seed_key, budget = _seed_key(seed), _DRAWS_PER_SAMPLE * count
    pending, drawn, spent, k = np.arange(count), None, 0, 0
    while pending.size:
        if spent + pending.size > budget:
            raise SamplerExhausted(f"no accepted draw for sample {pending[0]} within the pooled {budget} draws")
        spent += pending.size
        block = draw(_Stream(seed_key, k), pending[-1] + 1)
        rows = block if drawn is None else block[pending]
        ok = admit(rows)
        if drawn is None:
            # round 0 draws a row for every sample; later rounds overwrite the rejected ones
            drawn = block
        else:
            drawn[pending[ok]] = rows[ok]
        pending, k = pending[~ok], k + 1
    return drawn


@dataclass(frozen=True)
class TripleSampler:
    """Deterministic rejection sampler for admissible triples.

    Points are drawn as fractions (s, t) uniform on [margin, 1-margin]^2 of
    the frame of the first pe family's lattice, at every rank, or of (1, i)
    without one (`elliptic.lattice_point`). z is -x-y unless `unconstrained`, in
    which case all three points are independent. Triple i is row i of the
    block that round k of the seed's `_Stream` gives. Draws within
    `effective_pole_radius` of the lattice, of any rank, are rejected and
    redrawn in the next round, within `_draws`' pooled budget. The seed is
    a non-negative integer of any size; drawing with a negative one raises
    ValueError, with a float TypeError.
    """

    seed: int = 0
    count: int = 1000
    margin: float = 0.05
    unconstrained: bool = False

    def _points(self, rng, n: int, k: int, ctx: EllipticContext | None) -> np.ndarray:
        """An (n, k) block of points, each from two uniform fractions (s, t) of the frame of ctx."""
        st = rng.uniform(self.margin, 1.0 - self.margin, (n, k, 2))
        return elliptic.lattice_point(ctx, st[..., 0], st[..., 1])

    def effective_pole_radius(self, ctx: EllipticContext) -> float:
        """max(pole_tol, 0.03 lambda_min) of the context; 1e-6 at rank zero, where lambda_min is infinite."""
        return 1e-6 if math.isinf(ctx.lambda_min) else max(ctx.pole_tol, 0.03 * ctx.lambda_min)

    def _admission(self, families: Sequence[FunctionFamily]):
        """admit(points): the rows of the (n, len(families)) points where each point j + shift clears family j's poles.

        Worked out once per call of a sampler: one `elliptic.clear_of_lattice`
        call per context object, on the columns of its families (a slice, not
        a copy, where one context covers them all) plus their shifts as an
        array. A family without a context admits everything.
        """
        groups: dict = {}
        for j, fam in enumerate(families):
            ctx = getattr(fam, "ctx", None)
            if ctx is not None:
                groups.setdefault(id(ctx), (ctx, []))[1].append(j)
        tests = [
            (
                ctx,
                slice(None) if len(cols) == len(families) else cols,
                np.array([families[j].shift for j in cols]),
                self.effective_pole_radius(ctx),
            )
            for ctx, cols in groups.values()
        ]

        def admit(points: np.ndarray) -> np.ndarray:
            clear = [
                elliptic.clear_of_lattice(ctx, points[:, cols] + shifts, radius).all(axis=1)
                for ctx, cols, shifts, radius in tests
            ]
            return reduce(np.logical_and, clear) if clear else np.ones(len(points), bool)

        return admit

    def triples(self, families: Sequence[FunctionFamily]):
        """Yield `count` admissible (x, y, z); raises SamplerExhausted."""
        ctx = next((fam.ctx for fam in families if isinstance(fam, WeierstrassShifted)), None)

        def draw(rng, n):
            if self.unconstrained:
                return self._points(rng, n, 3, ctx)
            block = np.empty((n, 3), complex)
            block[:, :2] = self._points(rng, n, 2, ctx)
            np.negative(block[:, 0] + block[:, 1], out=block[:, 2])
            return block

        drawn = _draws(self.seed, self.count, draw, self._admission(families))
        # tuples from the columns' lists: one list per column, not one per row
        yield from zip(*drawn.T.tolist())


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
    worst_triple: tuple[complex, complex, complex]
    tol: float
    passed: bool
    note: str = ""
    details: dict = field(default_factory=dict)


def _report(points: np.ndarray, residuals: np.ndarray, faults: np.ndarray, tol: float, note: str) -> ResidualReport:
    """Report of the residuals at the rows of points; pass iff the max is within tol.

    A row with a nonzero fault is skipped, and the skips are counted in
    `details` by their `_SKIPS` name. Of the rest, the worst is the first
    non-finite residual, else the first largest.
    """
    faulted = faults.any()
    r = (residuals[faults == 0] if faulted else residuals).tolist()
    if not r:
        raise SamplerExhausted("no admissible triples survived evaluation")
    details = {"skipped": len(faults) - len(r)}
    if faulted:
        counts = np.bincount(faults, minlength=len(_SKIPS)).tolist()
        details.update((f"skipped_{why}", n) for why, n in sorted(zip(_SKIPS[1:], counts[1:])) if n)
        # skipped rows rank below every kept one, a non-finite kept residual above
        worst = int(np.argmax(np.where(faults == 0, np.where(np.isfinite(residuals), residuals, np.inf), -np.inf)))
    else:
        # argmax names the first largest residual (none is negative) or the
        # first nan; where it names a nan or inf, the first of those is the worst
        worst = int(np.argmax(residuals))
        if not math.isfinite(residuals[worst]):
            worst = int(np.argmax(~np.isfinite(residuals)))
    mx = float(residuals[worst])
    return ResidualReport(
        samples=len(r),
        max_residual=mx,
        mean_residual=sum(r) / len(r),
        worst_triple=tuple(points[worst].tolist()),
        tol=tol,
        passed=mx <= tol,
        note=note,
        details=details,
    )


def _stacked(triples) -> np.ndarray:
    """The sampled triples as an (n, 3) complex array."""
    return np.fromiter(itertools.chain.from_iterable(triples), complex).reshape(-1, 3)


def _collect(triples, evaluate, tol: float, note: str) -> ResidualReport:
    """Report of evaluate(x, y, z) over the triples' columns as one batch (see `_score`)."""
    points = _stacked(triples)
    return _report(points, *_score(evaluate, *points.T), tol, note)


def scan(
    ff: FunctionFamily,
    fg: FunctionFamily,
    fh: FunctionFamily,
    sampler: TripleSampler,
    tol: float,
) -> ResidualReport:
    """Residual report over sampled admissible triples; pass iff max <= tol."""
    points = _stacked(sampler.triples((ff, fg, fh)))
    return _report(points, *residual(ff, fg, fh, *points.T), tol, "")


def grid_scan(
    fam: FunctionFamily, sampler: TripleSampler, grid: int, tol: float = 1e-8
) -> tuple[list[tuple[complex, complex, float]], ResidualReport]:
    """Rows (x, y, residual) of the triple (fam, fam, fam) with x on a grid, and their report.

    x runs over a grid x grid mesh of the fractions [margin, 1-margin]^2 of
    the frame that `TripleSampler` draws the partners in. Grid points pass
    the admission their partners pass: one within
    `effective_pole_radius` of a pole (x + shift near the lattice) raises
    SamplerExhausted at once, naming it. Grid point (i, j) is sample
    i*grid + j of the sampler's seed, drawn from its `_Stream` as `_draws`
    reads it: the row (x, y, -x-y) with x pinned, its partner y redrawn while
    a point of it lies near a pole, within `_draws`' pooled budget. The
    admitted rows are scored once, as one batch; a triple whose residual
    faults has no row, and the report counts it as skipped.
    """
    ctx = getattr(fam, "ctx", None)
    ticks = sampler.margin + (1.0 - 2.0 * sampler.margin) * np.arange(grid) / max(grid - 1, 1)
    xs = elliptic.lattice_point(ctx, np.repeat(ticks, grid), np.tile(ticks, grid))
    near = np.flatnonzero(~sampler._admission((fam,))(xs[:, None]))
    if near.size:
        i, radius = near[0], sampler.effective_pole_radius(ctx)
        raise SamplerExhausted(f"grid point {i} at x = {xs[i]} lies within {radius} of a pole of the family")

    def draw(rng, n):
        x, y = xs[:n], sampler._points(rng, n, 1, ctx)[:, 0]
        return np.column_stack((x, y, -(x + y)))

    drawn = _draws(sampler.seed, len(xs), draw, sampler._admission((fam,) * 3))
    residuals, faults = residual(fam, fam, fam, *drawn.T)
    report = _report(drawn, residuals, faults, tol, "")
    kept = faults == 0
    return list(zip(drawn[kept, 0].tolist(), drawn[kept, 1].tolist(), residuals[kept].tolist())), report


# -- closed-form cross-checks ----------------------------------------------------------


def sigma_quotient(ctx: EllipticContext, a, b, c):
    """2 sigma(a+b+c) sigma(a-b) sigma(b-c) sigma(c-a) / (sigma(a) sigma(b) sigma(c))^3.

    Equals the determinant det3 on pe jets at (a, b, c); antisymmetric under
    swapping any two arguments because sigma is odd. The arguments are
    ordered canonically before evaluation and the permutation sign attached
    afterwards, so the antisymmetry holds exactly in floating point too.
    Takes numbers, or arrays elementwise. Where the denominator vanishes, at
    a lattice point or by underflow, a number raises PoleProximity and an
    array holds nan; a quotient beyond the float range raises FloatOverflow.
    """
    scalar = not any(isinstance(p, np.ndarray) and p.ndim for p in (a, b, c))
    # a number runs as an array of one, so both take the same arithmetic
    points = list(np.broadcast_arrays(*(np.atleast_1d(np.asarray(p, dtype=complex)) for p in (a, b, c))))
    sign = np.ones(points[0].shape)
    # three-element sort on (real, imag) by adjacent compare-swaps, tracking the parity
    for i in (0, 1, 0):
        p, q = points[i], points[i + 1]
        swap = (p.real > q.real) | ((p.real == q.real) & (p.imag > q.imag))
        points[i], points[i + 1] = np.where(swap, q, p), np.where(swap, p, q)
        sign = np.where(swap, -sign, sign)
    a, b, c = points
    # each sigma is split as mantissa * 2^exponent, so the products below
    # cannot underflow or overflow where the quotient itself does not; the
    # power-of-two scaling is exact, so elsewhere the result is unchanged
    (n1, n2, n3, n4, da, db, dc), (e1, e2, e3, e4, ea, eb, ec) = _split(
        elliptic.sigma(ctx, np.stack((a + b + c, a - b, b - c, c - a, a, b, c)))
    )
    num = 2.0 * n1 * n2 * n3 * n4
    den = da * db * dc
    den = den * den * den
    pole = den == 0
    if scalar and pole[0]:
        raise PoleProximity(complex(a[0]), "sigma quotient denominator vanished")
    with np.errstate(all="ignore"):
        quotient = _ldexp(sign * num / den, e1 + e2 + e3 + e4 - 3 * (ea + eb + ec))
    if not np.isfinite(quotient[~pole]).all():
        raise FloatOverflow("a sigma quotient exceeds the float range")
    return complex(quotient[0]) if scalar else quotient


def _split(value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mantissa, exponent) with value = mantissa * 2^exponent and |mantissa| in [0.5, 1)."""
    exponent = np.frexp(np.abs(value))[1]
    return _ldexp(value, -exponent), exponent


def _ldexp(value: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """value * 2^exponent, exact wherever nothing under- or overflows."""
    out = np.empty(np.shape(value), complex)
    out.real, out.imag = np.ldexp(value.real, exponent), np.ldexp(value.imag, exponent)
    return out


def _det_vs_sigma(ctx: EllipticContext, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """(gap, scale, faults): det3 on pe jets at (a, b, c) minus the sigma quotient, scaled by `det3_terms`.

    Not by det3 itself: where pe is flat, deep in the cell of a tall
    lattice, det3 cancels far below its terms to their round-off, so a gap
    relative to det3 would fail a true identity. A triple next to a pole,
    or whose quotient has no denominator, gets PoleProximity.
    """
    jets = _family_jets((WeierstrassShifted(ctx),) * 3, (a, b, c), 1)
    quotient = sigma_quotient(ctx, a, b, c)
    return det3(*jets) - quotient, det3_terms(*jets), _pole_faults(*(j[0] for j in jets), quotient)


_SIGMA_SPREAD = 0.35


def sigma_identity_scan(ctx: EllipticContext, count: int = 500, seed: int = 0, tol: float = 1e-8) -> ResidualReport:
    """Agreement of det3 on pe jets with the sigma quotient (see `_det_vs_sigma`).

    Points a, b, c are drawn as fractions uniform on [-0.35, 0.35]^2
    (`_SIGMA_SPREAD`) of the lattice's frame (`elliptic.lattice_point`),
    sample i from row i of round k of the seed's `_Stream`, as `_draws`
    reads it. Draws are rejected and redrawn when any point, any pairwise
    difference, or the sum lies within max(pole_tol, 0.04 lambda_min) of
    the lattice, 0.04 at rank zero (where the quotient divides by a
    vanishing sigma or both sides vanish), within `_draws`' pooled budget.
    An admitted triple whose gap faults is skipped. A negative seed raises
    ValueError, a float TypeError.
    """
    pole = max(ctx.pole_tol, 0.04 * ctx.lambda_min) if ctx.reduced else 0.04

    def draw(rng, n):
        st = rng.uniform(-_SIGMA_SPREAD, _SIGMA_SPREAD, (n, 3, 2))
        return elliptic.lattice_point(ctx, st[..., 0], st[..., 1])

    def admit(abc):
        a, b, c = abc.T
        probes = np.stack((a, b, c, a - b, b - c, c - a, a + b + c))
        return elliptic.clear_of_lattice(ctx, probes, pole).all(axis=0)

    drawn = _draws(seed, count, draw, admit)
    residuals, faults = _score(lambda a, b, c: _det_vs_sigma(ctx, a, b, c), *drawn.T)
    return _report(drawn, residuals, faults, tol, "det3 vs sigma quotient")


def theorem_shift_expectation(ctx: EllipticContext, total_shift: complex) -> str:
    """'pass' / 'fail' / 'indeterminate' from lattice membership of the shift sum (`lattice_offset`).

    Borderline sums within a factor ten of `elliptic.LATTICE_TOL` are
    reported indeterminate instead of being forced to a side.
    """
    dist = elliptic.lattice_offset(ctx, total_shift)
    if dist <= elliptic.LATTICE_TOL:
        return "pass"
    if dist <= 10.0 * elliptic.LATTICE_TOL:
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


@cache
def _derived_determinant(k: int, l: int, s: int | None) -> tuple[jetpoly.DiffPolynomial, int]:
    """The polynomial of `derived_determinant_check` and the jet order it needs; built once per (k, l, s)."""
    poly = jetpoly.abc_det(k, l, s) if s is not None else jetpoly.build_addet(k, l)
    return poly, max(poly.jet_order("f"), poly.jet_order("g"), 1)


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
    scale). The polynomial is built once per (k, l, s) and process.
    """
    poly, order = _derived_determinant(k, l, s)

    def evaluate(x, y, z):
        fv, gv = _family_jets((ff, fg), (x, y), order)
        value = jetpoly.evaluate(poly, fv, gv)
        return value, jetpoly.evaluate(poly, fv, gv, absolute=True), _pole_faults(fv[0], gv[0])

    label = f"columns ({k}, {l}, {s})" if s is not None else f"columns ({k}, {l})"
    return _collect(sampler.triples((ff, fg, fh)), evaluate, tol, label)


# the operator's stencil in units of h/2: at the steps h and h/2 alike,
# (d/dx - d/dy) takes mixed differences about 4 centres and d/dx d/dy each
# from 4 corners, (a, b) = centre + corner in units of the step; a = x + A h/2
# and b = y + B h/2 take A, B from _AB, and c = z + C h/2 takes C = -A-B
# from _C. _STENCIL holds the rows of (a, b, c) per step, centre and corner
_AB, _C = np.array([-4, -2, -1, 0, 1, 2, 4]), np.array([-6, -3, -2, -1, 1, 2, 3, 6])
_AB_OFFSETS = np.array([2, 1])[:, None, None, None] * (
    np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])[:, None] + np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])
)
_STENCIL = np.stack((
    np.searchsorted(_AB, _AB_OFFSETS[..., 0]),
    len(_AB) + np.searchsorted(_AB, _AB_OFFSETS[..., 1]),
    2 * len(_AB) + np.searchsorted(_C, -_AB_OFFSETS.sum(axis=-1)),
))


def _third_order_operator(F, x: np.ndarray, y: np.ndarray, z: np.ndarray, h: float):
    """(d/dx - d/dy) d/dx d/dy of S(a, b) = F(a)F(b) + F(b)F(c) + F(c)F(a), c = -a-b.

    Second-order central differences of steps h and h/2 at every (x, y, z),
    the mixed ones first, then the outer one, combined by one Richardson
    level; F takes the 22 stencil points in one call. Returns the values and
    where any stencil value of F is nan.
    """
    half = h / 2.0
    values = F(np.concatenate((x + _AB[:, None] * half, y + _AB[:, None] * half, z + _C[:, None] * half)))
    Fa, Fb, Fc = values[_STENCIL]
    S = Fa * Fb + Fb * Fc + Fc * Fa
    step = np.array([h, half])[:, None, None]
    mixed = (S[:, :, 0] - S[:, :, 1] - S[:, :, 2] + S[:, :, 3]) / (4.0 * step * step)
    d1, d2 = (mixed[:, 0] - mixed[:, 1] - mixed[:, 2] + mixed[:, 3]) / (2.0 * step[:, 0])
    return (4.0 * d2 - d1) / 3.0, np.isnan(values).any(axis=0)


def factfun_step(fam: FunctionFamily) -> float:
    """factfun's default step: 5e-3 lambda_min of the family's lattice where that is finite, else 1e-2."""
    ctx = getattr(fam, "ctx", None)
    return 1e-2 if ctx is None or math.isinf(ctx.lambda_min) else 5e-3 * ctx.lambda_min


def factfun_check(
    fam: FunctionFamily,
    sampler: TripleSampler,
    h_step: float | None = None,
    tol: float = 1e-6,
) -> ResidualReport:
    """Annihilation test for the paired-product form of the equation.

    With F the antiderivative of the family (F' = f) build
    S(x, y) = F(x)F(y) + F(y)F(z) + F(z)F(x) at z = -x-y and apply the
    third-order operator (d/dx - d/dy) d/dx d/dy by central differences with
    one Richardson level. The operator value equals minus the determinant of
    the triple (f, f, f), so it must vanish for solutions; the residual is
    relative to the row maxima of |f| and |f'|, each clamped below by one.
    The step defaults to `factfun_step`, so the stencil scales with the lattice.
    """
    ctx = getattr(fam, "ctx", None)
    h_step = factfun_step(fam) if h_step is None else h_step

    def evaluate(x, y, z):
        points = np.stack((x, y, z))
        value, scale, faults = np.zeros(len(x), complex), np.zeros(len(x)), np.zeros(len(x), int)
        if ctx is not None:
            # the finite-difference stencil must stay clear of the poles
            near = elliptic.lattice_distance(ctx, points + fam.shift)
            faults[(near <= sampler.effective_pole_radius(ctx) + 4.0 * h_step).any(axis=0)] = _GUARD
        ok = faults == 0
        fv, fp = fam.jets(points[:, ok], 1)
        value[ok], pole = _third_order_operator(fam.antiderivative, x[ok], y[ok], z[ok], h_step)
        # not det3_terms: against it, stencil round-off fails true solutions on Im tau 5 to 8
        # until factfun has a noise floor
        scale[ok] = np.maximum(np.abs(fv).max(axis=0), 1.0) * np.maximum(np.abs(fp).max(axis=0), 1.0)
        faults[ok] = np.where(pole | np.isnan(fv).any(axis=0), _POLE, 0)
        return value, scale, faults

    note = f"h = {h_step:g}, one Richardson level"
    return _collect(sampler.triples((fam, fam, fam)), evaluate, tol, note)


def constant_case_check(
    ff: FunctionFamily,
    fg: FunctionFamily,
    sampler: TripleSampler,
    tol: float = 1e-12,
) -> ResidualReport:
    """Residual of (d/dy - d/dx) f(x) g(y) = f(x) g'(y) - f'(x) g(y), relative to |f g'| + |f' g|.

    This is the two-function reduction that remains when the third function
    is the zero constant: it vanishes when f and g are proportional
    exponentials with equal rates, or when either function is identically
    zero, and has a floor for mismatched rates. It is `scan` with h the zero
    constant, whose det3 and six-term scale are exactly these.
    """
    return scan(ff, fg, Constant(0j), sampler, tol)
