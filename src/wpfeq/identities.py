"""Certified symbolic identities behind the elimination argument.

Every check builds both sides of an identity as exact jet polynomials and
follows one rule: divide exactly, then confirm the division by re-expanding
lhs - cofactor*rhs to zero. The cofactor is reported, never assumed, because
the source identities are stated as "0 = product" without fixing a scale.
(The ODE coefficient block reduces each formula to zero instead.) A report
with holds=False is a valid outcome, not an error.

The hand-written statements (the factors, the rewrite quotients, the ODE
rules and formulas, the central-difference relations) are built once per
process; polynomials are immutable, so sharing them is safe. Everything
that comes from the determinant definition is recomputed on every call:
the columns, derivations, products, exact divisions, re-expansions and
ODE reductions. No certified result is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .jetpoly import (
    DiffPolynomial,
    abc_columns,
    abc_det,
    addet_matrix,
    build_addet,
    det3_poly,
    derive,
    divide_exact,
    f,
    g,
    param,
    reduce_power,
    substitute,
    substitute_g_to_f,
)


@dataclass(frozen=True)
class CofactorReport:
    """Outcome of one exact-division certification.

    When holds is true, lhs - cofactor*rhs re-expands to the zero polynomial;
    the note carries human-readable detail for the run report.
    """

    holds: bool
    cofactor: DiffPolynomial | None
    note: str = ""

    def cofactor_text(self) -> str:
        return str(self.cofactor) if self.cofactor is not None else ""


def _certify(lhs: DiffPolynomial, rhs: DiffPolynomial, holds_note: str, fails_note: str) -> CofactorReport:
    """Divide lhs by rhs exactly and confirm by re-expansion.

    holds=True only when lhs - cofactor*rhs re-expands to zero; holds_note
    may name the cofactor as {cofactor}.
    """
    cofactor = divide_exact(lhs, rhs)
    if cofactor is None or not (lhs - cofactor * rhs).is_zero():
        return CofactorReport(False, None, fails_note)
    return CofactorReport(True, cofactor, holds_note.format(cofactor=cofactor))


# -- quadratic-in-g2 factorization -------------------------------------------


def elimination_polynomial() -> DiffPolynomial:
    """The combined determinant with the third-derivative column cancelled.

    Linear combination of the differentiated two-column determinant for
    columns (1, 2) and -a_1 times the plain determinant over columns
    (1, 2, 3); the combination removes every g3 from the third column.
    Both share one build of the three columns.
    """
    columns = abc_columns(3)
    a1 = columns[0][0]
    return build_addet(1, 2, columns) - a1 * abc_det(1, 2, 3, columns)


@cache
def factor_one() -> DiffPolynomial:
    """First factor: quadratic in the jets, linear in g2; built once."""
    return f(1) * g(1) - g(1) ** 2 - f(0) * g(2) + g(0) * g(2)


@cache
def factor_two() -> DiffPolynomial:
    """Second factor: cubic in the jets, carries the third x-derivative; built once."""
    return (
        3 * f(1) ** 3
        - 3 * f(1) * g(1) ** 2
        - 4 * f(0) * f(1) * f(2)
        + 4 * g(0) * f(1) * f(2)
        + g(0) ** 2 * f(3)
        - 2 * f(0) * f(1) * g(2)
        + 2 * g(0) * f(1) * g(2)
        + f(0) ** 2 * f(3)
        - 2 * f(0) * g(0) * f(3)
    )


def factorization_check(factors: tuple[DiffPolynomial, DiffPolynomial] | None = None) -> CofactorReport:
    """Certify that the eliminated determinant splits into the two factors.

    Builds the combined elimination polynomial E and divides it exactly by
    the product of the two candidate factors (the canonical ones unless a
    pair is supplied, e.g. a deliberately corrupted control). Returns the
    computed cofactor; holds=False simply reports a failed division.
    """
    t1, t2 = factors if factors is not None else (factor_one(), factor_two())
    return _certify(
        elimination_polynomial(), t1 * t2,
        "eliminated determinant = ({cofactor}) * factor1 * factor2", "no exact cofactor exists",
    )


# -- quotient-rule rewrites of the two factors --------------------------------


@cache
def _rewrite_quotients() -> tuple[DiffPolynomial, DiffPolynomial, DiffPolynomial]:
    """f0 - g0 and the numerators over it of the two rewrites, as `factor_rewrite_check` states them; built once."""
    den = f(0) - g(0)
    num2 = f(1) * (f(1) ** 2 - g(1) ** 2) - 2 * f(1) * f(2) * den + f(3) * den**2
    return den, f(1) - g(1), num2


def factor_rewrite_check(direction: str = "y") -> tuple[CofactorReport, CofactorReport]:
    """Certify the derivative-quotient rewrites of the two factors.

    First rewrite:  (f0-g0)^2 * d/dy[(f1-g1)/(f0-g0)]          == factor one.
    Second rewrite: ((f0-g0)^4/g1) * d/dy[ f1(f1^2-g1^2)/(f0-g0)^3
                     - 2 f1 f2/(f0-g0)^2 + f3/(f0-g0) ]        == factor two.

    Denominators are cleared symbolically (quotient rule on the numerator
    and denominator separately) and the numerators compared as polynomials.
    Passing direction='x' is the sanity control: the wrong derivation
    direction must break both identities.
    """
    den, num1, num2 = _rewrite_quotients()
    # d/dy[(f1-g1)/(f0-g0)] multiplied through by (f0-g0)^2
    lhs1 = derive(num1, direction) * den - num1 * derive(den, direction)
    # inner rational function has denominator (f0-g0)^3; after the quotient
    # rule and multiplication by (f0-g0)^4/g1 the cleared comparison is
    #   derive(N)* (f0-g0) - 3*N*derive(f0-g0)  ==  g1 * factor two
    lhs2 = derive(num2, direction) * den - 3 * num2 * derive(den, direction)
    return (
        _certify(lhs1, factor_one(), "first factor rewrite", "first factor rewrite does not hold"),
        _certify(lhs2, g(1) * factor_two(), "second factor rewrite", "second factor rewrite does not hold"),
    )


# -- single-function specialisation of the (2, 4) determinant ------------------


@cache
def diagonal_first_factor() -> DiffPolynomial:
    """Cleared numerator of (f''/f')' in the jets: f3 f1 - f2^2; built once."""
    return f(3) * f(1) - f(2) ** 2


@cache
def diagonal_second_factor() -> DiffPolynomial:
    """Cleared numerator of ((1/f')(f'''/f')')' in the jets; built once."""
    return (
        f(5) * f(1) ** 2
        - f(3) ** 2 * f(1)
        - 3 * f(2) * f(4) * f(1)
        + 3 * f(2) ** 2 * f(3)
    )


def diagonal_product_check() -> CofactorReport:
    """Certify the single-function form of the (2, 4) eliminated determinant.

    Specialising the two-column determinant for columns (2, 4) to a single
    function (g_i -> f_i) must reproduce the cleared-denominator expansion of

        (f')^6 * (f''/f')' * ((1/f') (f'''/f')')'

    up to a rational-constant-times-monomial cofactor found by division.
    """
    return _certify(
        diagonal_determinant(), diagonal_first_factor() * diagonal_second_factor(),
        "diagonal determinant = ({cofactor}) * product form", "no exact cofactor exists",
    )


def diagonal_determinant() -> DiffPolynomial:
    """substitute_g_to_f(build_addet(2, 4)), with g_i -> f_i applied to the nine entries before expansion.

    The substitution is a ring homomorphism, so it commutes with the
    cofactor expansion, and the entries collapse before they are multiplied.
    """
    rows = addet_matrix(2, 4)
    return det3_poly([[substitute_g_to_f(entry) for entry in row] for row in rows])


# -- ODE coefficient block -----------------------------------------------------


@cache
def _cubic_rules() -> tuple[tuple[dict[str, DiffPolynomial], ...], dict[str, DiffPolynomial]]:
    """The cubic ODE's substitutions in two passes, and the cubic in f0 and in g0; built once.

    No rule of the first pass holds f3 or f4, so f4 and f3 are replaced at
    once. f2 goes last: the half in its rule brings Fractions, which then
    meet the fewest products.
    """
    p0, p1, p2, p3 = (param(n) for n in ("p0", "p1", "p2", "p3"))
    substitutions = (
        {"f4": (3 * p3 * f(0) + p2) * f(2) + 3 * p3 * f(1) ** 2, "f3": (3 * p3 * f(0) + p2) * f(1)},
        {"f2": Fraction(1, 2) * (3 * p3 * f(0) ** 2 + 2 * p2 * f(0) + p1)},
    )
    squares = {
        "f1": p3 * f(0) ** 3 + p2 * f(0) ** 2 + p1 * f(0) + p0,
        "g1": p3 * g(0) ** 3 + p2 * g(0) ** 2 + p1 * g(0) + p0,
    }
    return substitutions, squares


def cubic_branch_reduce(p: DiffPolynomial) -> DiffPolynomial:
    """Reduce a polynomial modulo the cubic first-order ODE.

    Substitutes the successive derivatives of w'^2 = p3 w^3 + p2 w^2 + p1 w + p0:

        f2 -> (3 p3 f0^2 + 2 p2 f0 + p1)/2
        f3 -> (3 p3 f0 + p2) f1
        f4 -> (3 p3 f0 + p2) f2 + 3 p3 f1^2

    (f4 and f3 first, so the f2 of f4's replacement is itself reduced),
    then rewrites every f1^2 as the cubic itself, and every g1^2 as the
    cubic in g0: the second function follows the same ODE.
    """
    substitutions, squares = _cubic_rules()
    for mapping in substitutions:
        p = substitute(p, mapping)
    for name, square in squares.items():
        p = reduce_power(p, name, square)
    return p


@cache
def _linear_rules() -> dict[str, DiffPolynomial]:
    """The linear ODE's substitution of f2, f1 and g1 in one pass, f2's rule already reduced; built once."""
    l0, l1 = param("l0"), param("l1")
    f1 = l1 * f(0) + l0
    return {"f2": l1 * f1, "f1": f1, "g1": l1 * g(0) + l0}


def linear_branch_reduce(p: DiffPolynomial) -> DiffPolynomial:
    """Reduce modulo the linear first-order ODE w' = l1 w + l0, followed by both functions."""
    return substitute(p, _linear_rules())


def cubic_block_formulas() -> dict[str, DiffPolynomial]:
    """Cleared-denominator coefficient formulas of the cubic branch, as a fresh dict.

    Each entry is (formula minus its coefficient symbol) multiplied through
    by the power of f1 that clears it, so that reduction modulo the ODE must
    yield the zero polynomial. The entry "B" is the integration function of
    the second factor rewrite (`factor_rewrite_check`),

        B = f1(f1^2 - g1^2)/(f0-g0)^3 - 2 f1 f2/(f0-g0)^2 + f3/(f0-g0),

    cleared by (f0-g0)^3: B = p3 f1 for every g on the same cubic, which
    the "p3" entry turns into the closed form (f1 f4 - f2 f3)/(3 f1^2).
    """
    return dict(_cubic_formulas())


@cache
def _cubic_formulas() -> dict[str, DiffPolynomial]:
    """The formulas of `cubic_block_formulas`, built once; `DiffPolynomial` is immutable."""
    p0, p1, p2, p3 = (param(n) for n in ("p0", "p1", "p2", "p3"))
    bracket = f(1) * f(4) - f(2) * f(3)
    den = f(0) - g(0)
    return {
        "p3": bracket - 3 * p3 * f(1) ** 3,
        "p2": p2 * f(1) ** 3 - (f(3) * f(1) ** 2 - f(0) * bracket),
        "p1": p1 * f(1) ** 3
        - (2 * f(2) * f(1) ** 3 - 2 * f(0) * f(3) * f(1) ** 2 + f(0) ** 2 * bracket),
        "p0": 3 * p0 * f(1) ** 3
        - (
            3 * f(1) ** 5
            - 6 * f(0) * f(2) * f(1) ** 3
            + 3 * f(0) ** 2 * f(3) * f(1) ** 2
            - f(0) ** 3 * bracket
        ),
        "B": f(1) * (f(1) ** 2 - g(1) ** 2) - 2 * f(1) * f(2) * den + f(3) * den**2 - p3 * f(1) * den**3,
    }


def linear_block_formulas() -> dict[str, DiffPolynomial]:
    """Cleared coefficient formulas of the linear branch, as a fresh dict.

    The entry "ratio" is the integration function of the first factor
    rewrite, (f1 - g1)/(f0 - g0) = l1, cleared by f0 - g0.
    """
    return dict(_linear_formulas())


@cache
def _linear_formulas() -> dict[str, DiffPolynomial]:
    """The formulas of `linear_block_formulas`, built once."""
    l0, l1 = param("l0"), param("l1")
    return {
        "l1": l1 * f(1) - f(2),
        "l0": l0 * f(1) - (f(1) ** 2 - f(0) * f(2)),
        "ratio": (f(1) - g(1)) - l1 * (f(0) - g(0)),
    }


def ode_coefficient_check() -> CofactorReport:
    """Certify the six coefficient formulas and the two integration functions.

    Cubic branch: each cleared formula for p0..p3 reduces to zero under the
    ODE substitutions, so the quotient formula equals the constant symbol
    exactly, and so does the bracket B of the second factor rewrite, which
    equals p3 f1. Linear branch: same for l0 and l1 under w' = l1 w + l0,
    and for the ratio (f1 - g1)/(f0 - g0) = l1 of the first rewrite. The
    coefficient symbols are carried as extra polynomial variables.
    """
    branches = (
        (cubic_block_formulas(), cubic_branch_reduce),
        (linear_block_formulas(), linear_branch_reduce),
    )
    failures = [name for formulas, reduce in branches for name, cleared in formulas.items()
                if not reduce(cleared).is_zero()]
    if failures:
        return CofactorReport(False, None, "formulas failed: " + ", ".join(failures))
    note = "all six coefficient formulas reduce exactly to their symbols, B to p3 f1 and the ratio to l1"
    return CofactorReport(True, DiffPolynomial.constant(1), note)


# -- central-difference expansion ----------------------------------------------


def central_difference_series(order: int, derivative: int = 0) -> tuple[list, list]:
    """(difference, average) coefficient lists for the derivative-th jet.

    Entry j multiplies eta^j. The Taylor list f_(j+derivative)/j! of
    f(xi+eta) and its sign-flipped copy for f(xi-eta) give their difference
    and mean, so the parity (odd difference, even mean) comes out of the
    subtraction, which the parity test exercises.
    """
    plus = [f(j + derivative) * Fraction(1, math.factorial(j)) for j in range(order + 1)]
    minus = [-c if j % 2 else c for j, c in enumerate(plus)]
    half = Fraction(1, 2)
    return [p - m for p, m in zip(plus, minus)], [(p + m) * half for p, m in zip(plus, minus)]


def central_difference_check() -> CofactorReport:
    """Certify the two lowest relations of the central-difference expansion.

    Expanding  diff(f)*avg(f') - diff(f')*avg(f)  in powers of eta yields,
    at order eta^(2k-1), a relation  A_k F' - B_k F + C_k = 0  in the value F
    and derivative F' of the function at the doubled opposite point. The
    check confirms, up to one per-order rational normalisation reported in
    the note, that

        A_1 = f1, B_1 = f2, C_1 = f0 f2 - f1^2,
        A_2 = f3, B_2 = f4, C_2 = -4 f1 f3 + f0 f4 + 3 f2^2.

    Both relations sit at eta^1 and eta^3, so the series stop at eta^3.
    """
    diff0, avg0 = central_difference_series(3, 0)
    diff1, avg1 = central_difference_series(3, 1)
    norms = []
    for k, (exp_a, exp_b, exp_c) in enumerate(_central_difference_relations(), start=1):
        j = 2 * k - 1
        # eta^j coefficient of diff(f')*avg(f) - diff(f)*avg(f')
        terms = (diff1[i] * avg0[j - i] - diff0[i] * avg1[j - i] for i in range(j + 1))
        c_raw = sum(terms, DiffPolynomial.zero())
        q = divide_exact(diff0[j], exp_a)
        if q is None or q.total_degree() != 0:
            return CofactorReport(False, None, f"order {k}: no constant normalisation")
        if diff1[j] != q * exp_b or c_raw != q * exp_c:
            return CofactorReport(False, None, f"order {k}: coefficients do not match")
        norms.append(f"order {k}: {q}")
    note = "coefficients confirmed; per-order normalisations " + "; ".join(norms)
    return CofactorReport(True, DiffPolynomial.constant(1), note)


@cache
def _central_difference_relations() -> tuple[tuple[DiffPolynomial, DiffPolynomial, DiffPolynomial], ...]:
    """(A_k, B_k, C_k) for k = 1, 2 as `central_difference_check` states them; built once."""
    return (
        (f(1), f(2), f(0) * f(2) - f(1) ** 2),
        (f(3), f(4), -4 * f(1) * f(3) + f(0) * f(4) + 3 * f(2) ** 2),
    )


_ROWS = {
    "factorization": lambda: [("factorization", factorization_check())],
    "rewrites": lambda: list(zip(("rewrites/first", "rewrites/second"), factor_rewrite_check())),
    "eqf": lambda: [("eqf", diagonal_product_check())],
    "coefficients": lambda: [("coefficients", ode_coefficient_check())],
    "eta": lambda: [("eta", central_difference_check())],
}
CHECK_NAMES = tuple(_ROWS)


def run_checks(names=CHECK_NAMES) -> list[tuple[str, CofactorReport]]:
    """Run the named certifications and return (label, report) rows; an unknown name raises KeyError."""
    return [row for name in names for row in _ROWS[name]()]
