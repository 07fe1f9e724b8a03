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

    a_k = bar^(k-1)(g0 - f0),  b_k = bar^k(g0 + f0),  c_k = bar^k(g0*f0).

The jet order is capped at 6: the deepest check needs f5, and one spare
order gives the derivations headroom. A monomial is one int: variable i
owns the 9-bit field at bit 9*i, 8 bits of exponent under one guard bit,
and the total degree sits above all 20 fields. Multiplying monomials adds
their ints, and an exponent past 255 sets a guard bit (ExponentOverflow).
Comparing the ints is the graded-lexicographic order with
f0 < f1 < ... < f6 < g0 < ... < g6 < p0 < ... < l1, fixed once so that
leading terms, exact division and rendered reports are reproducible.
A coefficient is an int, or a Fraction where it is not integral.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import or_
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


def _poly(acc: dict, guard: bool = False) -> "DiffPolynomial":
    # canonical form of accumulated terms: no zero coefficient, integral ones
    # as ints; with guard (after adding monomials) no exponent past _EXP
    if guard and reduce(or_, acc, 0) & _GUARD:
        raise ExponentOverflow(f"an exponent passes {_EXP}")
    return DiffPolynomial._raw(
        {m: q.numerator if type(q) is Fraction and q.denominator == 1 else q for m, q in acc.items() if q}
    )


class DiffPolynomial:
    """Multivariate polynomial over the jet variables with exact coefficients.

    Instances are immutable after construction and safe to share; all
    arithmetic returns new objects in canonical form (no zero coefficient is
    ever stored, equality is structural).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        parts = (DiffPolynomial._raw({_pack(mono): _scalar(q)}) for mono, q in (terms or {}).items())
        self._terms = _sum(parts)._terms

    @classmethod
    def _raw(cls, terms: dict) -> "DiffPolynomial":
        # trusted constructor: takes terms as they are
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "DiffPolynomial":
        return cls._raw({})

    @classmethod
    def constant(cls, q: Scalar) -> "DiffPolynomial":
        q = _scalar(q)
        return cls._raw({0: q} if q else {})

    @classmethod
    def variable(cls, name: str) -> "DiffPolynomial":
        return cls._raw({1 << _SHIFTS[_VARIDX[name]] | 1 << _DEG: 1})

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

    def leading_term(self) -> tuple[tuple, Scalar]:
        mono = max(self._terms)
        return _unpack(mono), self._terms[mono]

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
        terms = dict(self._terms)
        for m, q in other._terms.items():
            terms[m] = terms.get(m, 0) + q
        return _poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return DiffPolynomial._raw({m: -q for m, q in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        if not isinstance(other, DiffPolynomial):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        if len(small) == 1:
            ((m2, q2),) = small.items()
            return _poly({m1 + m2: q1 * q2 for m1, q1 in big.items()}, guard=True)
        terms: dict[int, Scalar] = {}
        for m2, q2 in small.items():
            for m1, q1 in big.items():
                m = m1 + m2
                terms[m] = terms.get(m, 0) + q1 * q2
        return _poly(terms, guard=True)

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


def _jet(block: str, i: int) -> DiffPolynomial:
    if i > MAX_JET_ORDER:
        raise JetOrderOverflow(f"{block}{i} exceeds jet order {MAX_JET_ORDER}")
    return DiffPolynomial.variable(f"{block}{i}")


def f(i: int) -> DiffPolynomial:
    """Jet variable f_i (i-th derivative of the x-function); JetOrderOverflow past MAX_JET_ORDER."""
    return _jet("f", i)


def g(i: int) -> DiffPolynomial:
    """Jet variable g_i (i-th derivative of the y-function); JetOrderOverflow past MAX_JET_ORDER."""
    return _jet("g", i)


def param(name: str) -> DiffPolynomial:
    if name not in PARAMETERS:
        raise KeyError(name)
    return DiffPolynomial.variable(name)


def _sum(parts: Iterable[DiffPolynomial]) -> DiffPolynomial:
    acc: dict[int, Scalar] = {}
    for part in parts:
        for m, q in part._terms.items():
            acc[m] = acc.get(m, 0) + q
    return _poly(acc)


def derive(p: DiffPolynomial, direction: str) -> DiffPolynomial:
    """Apply one of the derivations d/dx, d/dy or bar = d/dy - d/dx.

    Leibniz-linear; parameters differentiate to zero. Raises
    JetOrderOverflow if the shift would pass the supported jet order.
    """
    signs = {"x": ((_F_BLOCK, 1),), "y": ((_G_BLOCK, 1),), "bar": ((_G_BLOCK, 1), (_F_BLOCK, -1))}
    if direction not in signs:
        raise ValueError(f"unknown direction {direction!r}")
    terms: dict[int, Scalar] = {}
    for block, sign in signs[direction]:
        for mono, q in p._terms.items():
            for i, s in enumerate(_SHIFTS[block : block + _JETS]):
                e = mono >> s & _EXP
                if e and i == MAX_JET_ORDER:
                    raise JetOrderOverflow(f"derivative of {VARIABLES[block + i]} exceeds jet order {i}")
                if e:
                    m = mono + (1 << s + _W) - (1 << s)  # one f_i becomes f_{i+1}, or g_i g_{i+1}
                    terms[m] = terms.get(m, 0) + sign * e * q
    return _poly(terms, guard=True)


def substitute(p: DiffPolynomial, mapping: Mapping[str, DiffPolynomial | Scalar]) -> DiffPolynomial:
    """Substitution homomorphism replacing whole variables by polynomials.

    Terms are grouped by their exponents in the replaced variables, so each
    replacement is raised to each power at most once per call.
    """
    table = {
        _SHIFTS[_VARIDX[name]]: v if isinstance(v, DiffPolynomial) else DiffPolynomial.constant(v)
        for name, v in mapping.items()
    }
    mask = sum(_EXP << s for s in table)
    groups: dict[int, dict[int, Scalar]] = {}
    for m, q in p._terms.items():
        groups.setdefault(m & mask, {})[m & ~mask] = q
    power = cache(lambda s, e: table[s] ** e)
    parts = []
    for key, rest in groups.items():
        # key's fields left the monomials; so does their share of the degree
        degree = sum(_unpack(key)) << _DEG
        part = DiffPolynomial._raw({r - degree: q for r, q in rest.items()})
        for s in table:
            if key >> s & _EXP:
                part = part * power(s, key >> s & _EXP)
        parts.append(part)
    return _sum(parts)


def substitute_g_to_f(p: DiffPolynomial) -> DiffPolynomial:
    """Identify the two functions: g_i -> f_i for every jet index.

    The g fields shift down onto the f fields, adding each exponent of g_i
    to that of f_i; the total degree stays.
    """
    g_fields = sum(_EXP << s for s in _SHIFTS[_G_BLOCK:_PARAM_BLOCK])
    terms: dict[int, Scalar] = {}
    for m, q in p._terms.items():
        k = (m & ~g_fields) + ((m & g_fields) >> _SHIFTS[_G_BLOCK])
        terms[k] = terms.get(k, 0) + q
    return _poly(terms, guard=True)


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
    return _sum(DiffPolynomial._raw(rest) * square ** (even // 2) for even, rest in groups.items())


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
        step = _poly({m - lead + dm: qc * dq for dm, dq in divisor.items()}, guard=True)
        for k, s in step._terms.items():
            left = rem.pop(k, 0) - s
            if left:
                rem[k] = left
    return DiffPolynomial._raw(quotient)


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
    (terms x variables) exponent matrix picks from a table of powers, and
    one product and one sum finish every point at once.
    """
    supplied = dict(zip(VARIABLES[:_G_BLOCK], [] if f_jets is None else f_jets))
    supplied.update(zip(VARIABLES[_G_BLOCK:_PARAM_BLOCK], [] if g_jets is None else g_jets))
    supplied.update((name, v) for name, v in (params or {}).items() if name in PARAMETERS)
    monos = list(p._terms)
    used = [(n, s) for n, s, e in zip(VARIABLES, _SHIFTS, _unpack(reduce(or_, monos, 0))) if e]
    for name, _ in used:
        if name not in supplied:
            raise MissingJet(f"no value supplied for {name}")
    exps = np.array([[m >> s & _EXP for _, s in used] for m in monos], dtype=np.intp)
    # the leading 0j fixes dtype and shape when no variable occurs
    base = np.stack(np.broadcast_arrays(0j, *(supplied[name] for name, _ in used)))[1:]
    coeffs = np.array([complex(q) for q in p._terms.values()], dtype=complex)
    if absolute:
        base, coeffs = np.abs(base), np.abs(coeffs)
    # powers[k] = base**k by repeated products: a complex ** costs more
    powers = np.ones((exps.max(initial=0) + 1,) + base.shape, base.dtype)
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] * base
    picked = powers[exps.reshape(len(monos), len(used)), np.arange(len(used))]
    return np.tensordot(coeffs, picked.prod(axis=1), axes=1)[()]


# -- building blocks of the eliminated determinants --------------------------


def build_abc(k: int) -> tuple[DiffPolynomial, DiffPolynomial, DiffPolynomial]:
    """The k-th column (a_k, b_k, c_k) of the derived linear relations."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a = g(0) - f(0)
    for _ in range(k - 1):
        a = derive(a, "bar")
    b = g(0) + f(0)
    c = g(0) * f(0)
    for _ in range(k):
        b = derive(b, "bar")
        c = derive(c, "bar")
    return a, b, c


def det3_poly(rows) -> DiffPolynomial:
    """Determinant of a 3x3 matrix of polynomials by cofactor expansion."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    return (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )


def abc_det(k: int, l: int, s: int) -> DiffPolynomial:
    """Determinant over columns (k, l, s) of the (a, b, c) rows."""
    ak, bk, ck = build_abc(k)
    al, bl, cl = build_abc(l)
    as_, bs, cs = build_abc(s)
    return det3_poly([[ak, al, as_], [bk, bl, bs], [ck, cl, cs]])


def build_addet(k: int, l: int) -> DiffPolynomial:
    """Two-column eliminated determinant with the differentiated third column.

    Columns (a_k, b_k, c_k) and (a_l, b_l, c_l), third column
    (a_k dy a_l - a_l dy a_k,
     a_k dy b_l - a_l dy b_k,
     a_k dy c_l - a_l dy c_k + b_k c_l - b_l c_k),
    expanded into a single exact polynomial.
    """
    if k == l:
        raise ValueError("column indices must differ")
    ak, bk, ck = build_abc(k)
    al, bl, cl = build_abc(l)
    t1 = ak * derive(al, "y") - al * derive(ak, "y")
    t2 = ak * derive(bl, "y") - al * derive(bk, "y")
    t3 = ak * derive(cl, "y") - al * derive(ck, "y") + bk * cl - bl * ck
    return det3_poly([[ak, al, t1], [bk, bl, t2], [ck, cl, t3]])
