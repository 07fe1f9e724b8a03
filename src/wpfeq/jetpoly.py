"""Exact polynomial arithmetic in the jet variables of two functions.

Variables f0..f6 stand for the successive derivatives of a function
evaluated at x, g0..g6 for those of a second function evaluated at y;
p0..p3 and l0, l1 are free scalar parameters used by the ODE substitution
checks. Coefficients are exact rationals, so equality of two polynomials
certifies an identity instead of approximating it.

Three derivations act on the ring:

    d/dx : f_i -> f_{i+1},  g_i -> 0
    d/dy : g_i -> g_{i+1},  f_i -> 0
    bar  : d/dy - d/dx

and the columns of the eliminated determinants are built from

    a_k = bar^(k-1)(g0 - f0),  b_k = bar^k(g0 + f0),  c_k = bar^k(g0*f0),

one bar derivation per column from the last (`abc_columns`), so the
determinants that share columns share one build of them.

The jet order is capped at 6, and `elliptic.jets` takes the same cap: the
deepest certification needs f5, and one spare order gives the derivations
headroom. A monomial is one int: variable i
owns the 9-bit field at bit 9*i, 8 bits of exponent under one guard bit,
and the total degree sits above all 20 fields. Multiplying monomials adds
their ints, and an exponent past 255 sets a guard bit (ExponentOverflow).
Comparing the ints is the graded-lexicographic order with
f0 < f1 < ... < f6 < g0 < ... < g6 < p0 < ... < l1, fixed once so that
leading terms, exact division and rendered reports are reproducible.
A coefficient is an int, or a Fraction where it is not integral.

Per process, only the atoms (f_i, g_i and the parameters) are built once,
and `evaluate` keeps a polynomial's exponent matrix and coefficient vector
on the polynomial. Every other result is computed on every call. Sums and
products hand over the dict they fill; zeros are dropped and integral
Fractions turned into ints only where coefficients meet or a Fraction
occurs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import add, mul, or_
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import ExponentOverflow, JetOrderOverflow, MissingJet

MAX_JET_ORDER = 6
_JETS = MAX_JET_ORDER + 1

PARAMETERS = ("p0", "p1", "p2", "p3", "l0", "l1")
VARIABLES = (
    tuple(f"f{i}" for i in range(_JETS))
    + tuple(f"g{i}" for i in range(_JETS))
    + PARAMETERS
)
NVARS = len(VARIABLES)

_VARIDX = {name: i for i, name in enumerate(VARIABLES)}
_F_BLOCK = 0
_G_BLOCK = _JETS
_PARAM_BLOCK = 2 * _JETS
_W = 9  # bits of one variable's field
_EXP = 255  # the exponent bits of a field; the bit above them is its guard
_DEG = _W * NVARS  # shift of the total degree
_SHIFTS = tuple(range(0, _DEG, _W))
_GUARD = sum(1 << s + 8 for s in _SHIFTS)

Scalar = Union[int, Fraction]


def _pack(mono) -> int:
    if len(mono) != NVARS or min(mono) < 0:
        raise ValueError(f"a monomial is {NVARS} nonnegative exponents, got {mono!r}")
    if max(mono) > _EXP:
        raise ExponentOverflow(f"exponent above {_EXP} in {mono!r}")
    return sum(e << s for e, s in zip(mono, _SHIFTS)) | sum(mono) << _DEG


def _unpack(m: int) -> tuple:
    return tuple(m >> s & _EXP for s in _SHIFTS)


def _scalar(q) -> Scalar:
    q = q if type(q) in (int, Fraction) else Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _new(terms: dict) -> "DiffPolynomial":
    # trusted constructor: takes canonical terms as they are
    p = object.__new__(DiffPolynomial)
    p._terms = terms
    return p


def _poly(terms: dict, cancel: bool = True) -> "DiffPolynomial":
    """Canonical form of freshly accumulated terms, in their order.

    No exponent may pass _EXP: a guard bit set raises ExponentOverflow.
    With cancel, zero coefficients are dropped; integral Fractions become
    ints where a Fraction occurs at all.
    """
    if terms and reduce(or_, terms) & _GUARD:
        raise ExponentOverflow(f"an exponent passes {_EXP}")
    if cancel and 0 in terms.values():
        terms = {m: q for m, q in terms.items() if q}
    if Fraction in map(type, terms.values()):
        for m, q in terms.items():
            if type(q) is Fraction and q.denominator == 1:
                terms[m] = q.numerator
    return _new(terms)


def _combine(terms: dict, other: dict, sign: int) -> "DiffPolynomial":
    # terms (a fresh copy) plus sign * other; only where two coefficients
    # meet can a zero or an integral Fraction arise
    for m, q in other.items():
        if m in terms:
            q = terms[m] + q if sign > 0 else terms[m] - q
            if not q:
                del terms[m]
            else:
                terms[m] = q.numerator if type(q) is Fraction and q.denominator == 1 else q
        else:
            terms[m] = q if sign > 0 else -q
    return _new(terms)


class DiffPolynomial:
    """Multivariate polynomial over the jet variables with exact coefficients.

    Instances are immutable after construction and safe to share; all
    arithmetic returns new objects in canonical form (no zero coefficient is
    ever stored, equality is structural). `evaluate` keeps a polynomial's
    exponent matrix and coefficient vector on it after the first call.
    """

    __slots__ = ("_terms", "_table")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        self._terms = _poly({_pack(mono): _scalar(q) for mono, q in (terms or {}).items()})._terms

    @classmethod
    def zero(cls) -> "DiffPolynomial":
        return _new({})

    @classmethod
    def constant(cls, q: Scalar) -> "DiffPolynomial":
        q = _scalar(q)
        return _new({0: q} if q else {})

    @classmethod
    def variable(cls, name: str) -> "DiffPolynomial":
        return _new({1 << _SHIFTS[_VARIDX[name]] | 1 << _DEG: 1})

    def terms(self) -> list[tuple[tuple, Scalar]]:
        return [(_unpack(m), q) for m, q in self._terms.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        return max(self._terms, default=0) >> _DEG

    def jet_order(self, prefix: str) -> int:
        """Highest derivative index of the given block ('f' or 'g') that occurs."""
        used = _unpack(reduce(or_, self._terms, 0))[_F_BLOCK if prefix == "f" else _G_BLOCK :]
        return max((i for i in range(_JETS) if used[i]), default=-1)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DiffPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return DiffPolynomial.constant(other)
        return None

    def __add__(self, other):
        if not isinstance(other, DiffPolynomial):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _combine(dict(self._terms), other._terms, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new({m: -q for m, q in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, DiffPolynomial):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _combine(dict(self._terms), other._terms, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _combine(dict(other._terms), self._terms, -1)

    def __mul__(self, other):
        if not isinstance(other, DiffPolynomial):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        big, small = self, other
        if len(big._terms) < len(small._terms):
            big, small = small, big
        if len(small._terms) == 1:
            ((m2, q2),) = small._terms.items()
            if m2 == 0 and q2 == 1:
                return big
            # distinct monomials stay distinct and no product of two nonzero
            # coefficients is zero: nothing cancels
            return _poly({m1 + m2: q1 * q2 for m1, q1 in big._terms.items()}, cancel=False)
        terms: dict[int, Scalar] = {}
        _add_product(terms, big._terms, small._terms)
        return _poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return DiffPolynomial.constant(1) if result is None else result

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for m in sorted(self._terms, reverse=True):
            q = self._terms[m]
            factors = [VARIABLES[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(_unpack(m)) if e]
            body = "*".join(factors)
            mag = abs(q)
            chunk = str(mag) if not factors else body if mag == 1 else f"{mag}*{body}"
            parts.append(("- " if q < 0 else "+ ") + chunk)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"DiffPolynomial({self})"


_ONE = _new({0: 1})


@cache
def _jet(block: str, i: int) -> DiffPolynomial:
    # the atoms are built once and shared, as every polynomial may be
    if i > MAX_JET_ORDER:
        raise JetOrderOverflow(f"{block}{i} exceeds jet order {MAX_JET_ORDER}")
    return DiffPolynomial.variable(f"{block}{i}")


def f(i: int) -> DiffPolynomial:
    """Jet variable f_i (i-th derivative of the x-function); JetOrderOverflow past MAX_JET_ORDER."""
    return _jet("f", i)


def g(i: int) -> DiffPolynomial:
    """Jet variable g_i (i-th derivative of the y-function); JetOrderOverflow past MAX_JET_ORDER."""
    return _jet("g", i)


@cache
def param(name: str) -> DiffPolynomial:
    if name not in PARAMETERS:
        raise KeyError(name)
    return DiffPolynomial.variable(name)


def _add_product(acc: dict, terms: dict, factor: dict, shift: int = 0) -> None:
    """acc += terms * factor, every monomial moved by shift; factor's terms outermost."""
    get = acc.get
    items = terms.items()
    for mf, qf in factor.items():
        mf += shift
        for m, q in items:
            m += mf
            acc[m] = get(m, 0) + q * qf


# per derivation, (block, sign) of each shifted block, g before f
_DIRECTIONS = {"x": ((_F_BLOCK, 1),), "y": ((_G_BLOCK, 1),), "bar": ((_G_BLOCK, 1), (_F_BLOCK, -1))}


def derive(p: DiffPolynomial, direction: str) -> DiffPolynomial:
    """Apply one of the derivations d/dx, d/dy or bar = d/dy - d/dx.

    Leibniz-linear; parameters differentiate to zero. Raises
    JetOrderOverflow if the shift would pass the supported jet order.
    Only the fields that occur in some term are visited.
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    used = reduce(or_, p._terms, 0)
    terms: dict[int, Scalar] = {}
    get = terms.get
    for block, sign in _DIRECTIONS[direction]:
        if used >> _SHIFTS[block + MAX_JET_ORDER] & _EXP:
            name = VARIABLES[block + MAX_JET_ORDER]
            raise JetOrderOverflow(f"derivative of {name} exceeds jet order {MAX_JET_ORDER}")
        # one f_i becomes f_{i+1}, or g_i g_{i+1}: add the step to the monomial
        fields = [(s, (1 << s + _W) - (1 << s)) for s in _SHIFTS[block : block + _JETS] if used >> s & _EXP]
        for mono, q in p._terms.items():
            for s, step in fields:
                e = mono >> s & _EXP
                if e:
                    m = mono + step
                    terms[m] = get(m, 0) + sign * e * q
    return _poly(terms)


def substitute(p: DiffPolynomial, mapping: Mapping[str, DiffPolynomial | Scalar]) -> DiffPolynomial:
    """Substitution homomorphism replacing whole variables by polynomials.

    The replacements act at once, so a replacement's own variables are not
    replaced again. Terms are grouped by their exponents in the replaced
    variables, so each replacement is raised to each power at most once per
    call.
    """
    table = {
        _SHIFTS[_VARIDX[name]]: v if isinstance(v, DiffPolynomial) else DiffPolynomial.constant(v)
        for name, v in mapping.items()
    }
    mask = sum(_EXP << s for s in table)
    groups: dict[int, dict[int, Scalar]] = {}
    for m, q in p._terms.items():
        groups.setdefault(m & mask, {})[m & ~mask] = q
    powers: dict[tuple[int, int], DiffPolynomial] = {}
    acc: dict[int, Scalar] = {}
    for key, rest in groups.items():
        factor = _ONE
        for s in table:
            e = key >> s & _EXP
            if e:
                if (s, e) not in powers:
                    powers[s, e] = table[s] ** e
                factor = factor * powers[s, e]
        # key's fields left the monomials; so does their share of the degree
        degree = sum(key >> s & _EXP for s in table) << _DEG
        _add_product(acc, rest, factor._terms, -degree)
    return _poly(acc)


def substitute_g_to_f(p: DiffPolynomial) -> DiffPolynomial:
    """Identify the two functions: g_i -> f_i for every jet index.

    The g fields shift down onto the f fields, adding each exponent of g_i
    to that of f_i; the total degree stays.
    """
    g_fields = sum(_EXP << s for s in _SHIFTS[_G_BLOCK:_PARAM_BLOCK])
    terms: dict[int, Scalar] = {}
    get = terms.get
    for m, q in p._terms.items():
        k = (m & ~g_fields) + ((m & g_fields) >> _SHIFTS[_G_BLOCK])
        terms[k] = get(k, 0) + q
    return _poly(terms)


def reduce_power(p: DiffPolynomial, name: str, square: DiffPolynomial) -> DiffPolynomial:
    """Rewrite name^e as square^(e//2) * name^(e%2) in every term.

    Used for normal-form reduction against a first-order ODE, e.g. replacing
    f1^2 by the cubic in f0; `square` must not contain `name`.
    """
    s = _SHIFTS[_VARIDX[name]]
    groups: dict[int, dict[int, Scalar]] = {}
    for m, q in p._terms.items():
        even = m >> s & _EXP & ~1
        groups.setdefault(even, {})[m - (even << s) - (even << _DEG)] = q
    acc: dict[int, Scalar] = {}
    for even, rest in groups.items():
        _add_product(acc, rest, (square ** (even // 2))._terms)
    return _poly(acc)


def divide_exact(numerator: DiffPolynomial, denominator: DiffPolynomial) -> DiffPolynomial | None:
    """Exact quotient q with numerator == q*denominator, or None.

    Single-divisor multivariate division in the fixed monomial order. When
    the division is exact the quotient is recovered term by term; a leading
    monomial that the divisor's leading monomial does not divide proves
    inexactness. The divisor's lead divides m iff no field of
    (m | guards) - lead borrows from its guard bit.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    divisor = denominator._terms
    lead = max(divisor)
    rem = dict(numerator._terms)
    quotient: dict[int, Scalar] = {}
    while rem:
        m = max(rem)
        if (m | _GUARD) - lead & _GUARD != _GUARD:
            return None
        qc = quotient[m - lead] = _scalar(Fraction(rem[m]) / divisor[lead])
        step = _poly({m - lead + dm: qc * dq for dm, dq in divisor.items()}, cancel=False)
        for k, s in step._terms.items():
            left = rem.pop(k, 0) - s
            if left:
                rem[k] = left
    return _new(quotient)


def _evaluation_table(p: DiffPolynomial) -> tuple:
    """(used variables, exponent matrix, coefficients, |coefficients|) of p, kept on p."""
    try:
        return p._table
    except AttributeError:
        pass
    monos = list(p._terms)
    used = [(n, s) for n, s, e in zip(VARIABLES, _SHIFTS, _unpack(reduce(or_, monos, 0))) if e]
    exps = np.array([[m >> s & _EXP for _, s in used] for m in monos], dtype=np.intp)
    coeffs = np.array([complex(q) for q in p._terms.values()], dtype=complex)
    names = tuple(name for name, _ in used)
    p._table = (names, exps.reshape(len(monos), len(used)), coeffs, np.abs(coeffs))
    return p._table


def evaluate(
    p: DiffPolynomial,
    f_jets: Iterable[complex] | None = None,
    g_jets: Iterable[complex] | None = None,
    params: Mapping[str, complex] | None = None,
    absolute: bool = False,
) -> complex:
    """Substitute numeric jets; exact in the coefficients, floating in the jets.

    f_jets[i] supplies f_i and g_jets[i] supplies g_i, each a number or an
    array of one shape (one value per point of a batch). With absolute=True
    the sum of |coefficient| * prod |value|^e is returned instead, which is
    the natural cancellation scale for residual normalisation. The
    (terms x variables) exponent matrix picks from a table of powers; the
    factors are multiplied and the terms added one elementwise operation
    each, so every point of a batch is evaluated in one order, and its value
    does not depend on the batch. The matrix and the coefficient vector are
    built at p's first evaluation and kept on p.
    """
    supplied = dict(zip(VARIABLES[:_G_BLOCK], [] if f_jets is None else f_jets))
    supplied.update(zip(VARIABLES[_G_BLOCK:_PARAM_BLOCK], [] if g_jets is None else g_jets))
    supplied.update((name, v) for name, v in (params or {}).items() if name in PARAMETERS)
    names, exps, coeffs, abs_coeffs = _evaluation_table(p)
    for name in names:
        if name not in supplied:
            raise MissingJet(f"no value supplied for {name}")
    if not names:
        # a constant, such as the zero of a repeated column, in the shape of the supplied batch
        shape = np.broadcast(0j, *supplied.values()).shape
        return np.full(shape, (abs_coeffs if absolute else coeffs).sum())[()]
    # the leading 0j makes the stack complex
    base = np.stack(np.broadcast_arrays(0j, *(supplied[name] for name in names)))[1:]
    if absolute:
        base, coeffs = np.abs(base), abs_coeffs
    # powers[k] = base**k by repeated products: a complex ** costs more
    powers = np.ones((exps.max(initial=0) + 1,) + base.shape, base.dtype)
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] * base
    # the factors multiplied, then the terms added, one elementwise operation each: one order for
    # every point, where numpy's reductions would order a short batch's products and sums otherwise
    terms = reduce(mul, (powers[exps[:, j], j] for j in range(len(names))))
    return reduce(add, (terms.T * coeffs).T)[()]


# -- building blocks of the eliminated determinants --------------------------


Column = tuple[DiffPolynomial, DiffPolynomial, DiffPolynomial]


def abc_columns(n: int) -> tuple[Column, ...]:
    """Columns 1..n, (a_k, b_k, c_k), of the derived linear relations.

    The first column is (g0 - f0, bar(g0 + f0), bar(g0 f0)), and each next
    one is the bar derivation of the last, entry by entry.
    """
    if n < 1:
        raise ValueError("k must be >= 1")
    column = (g(0) - f(0), derive(g(0) + f(0), "bar"), derive(g(0) * f(0), "bar"))
    columns = [column]
    for _ in range(n - 1):
        column = tuple(derive(p, "bar") for p in column)
        columns.append(column)
    return tuple(columns)


def _pick(columns: tuple[Column, ...] | None, *indices: int) -> list[Column]:
    # columns k of abc_columns, built up to the largest index when not given
    if min(indices) < 1:
        raise ValueError("k must be >= 1")
    columns = columns or abc_columns(max(indices))
    return [columns[k - 1] for k in indices]


def det3_poly(rows) -> DiffPolynomial:
    """Determinant of a 3x3 matrix of polynomials by cofactor expansion."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    return (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )


def abc_det(k: int, l: int, s: int, columns: tuple[Column, ...] | None = None) -> DiffPolynomial:
    """Determinant over columns (k, l, s) of the (a, b, c) rows; `columns` from `abc_columns`, or built here."""
    return det3_poly(zip(*_pick(columns, k, l, s)))


def addet_matrix(k: int, l: int, columns: tuple[Column, ...] | None = None) -> list[list[DiffPolynomial]]:
    """The unexpanded 3x3 matrix of `build_addet`; `columns` from `abc_columns`, or built here."""
    if k == l:
        raise ValueError("column indices must differ")
    (ak, bk, ck), (al, bl, cl) = _pick(columns, k, l)
    t1 = ak * derive(al, "y") - al * derive(ak, "y")
    t2 = ak * derive(bl, "y") - al * derive(bk, "y")
    t3 = ak * derive(cl, "y") - al * derive(ck, "y") + bk * cl - bl * ck
    return [[ak, al, t1], [bk, bl, t2], [ck, cl, t3]]


def build_addet(k: int, l: int, columns: tuple[Column, ...] | None = None) -> DiffPolynomial:
    """Two-column eliminated determinant with the differentiated third column.

    Columns (a_k, b_k, c_k) and (a_l, b_l, c_l), third column
    (a_k dy a_l - a_l dy a_k,
     a_k dy b_l - a_l dy b_k,
     a_k dy c_l - a_l dy c_k + b_k c_l - b_l c_k),
    expanded into a single exact polynomial.
    """
    return det3_poly(addet_matrix(k, l, columns))
