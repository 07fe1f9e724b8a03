"""The packed-int monomials and int/Fraction coefficients of the jet polynomials."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpfeq import identities, jetpoly as jp
from wpfeq.errors import ExponentOverflow, JetOrderOverflow, MissingJet

from oracles import leading_term


def grlex_key(mono):
    # graded lex with later-listed variables dominant, i.e. f0 the smallest
    return (sum(mono), mono[::-1])


exponents = st.tuples(*[st.integers(min_value=0, max_value=255)] * jp.NVARS)
small_exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * jp.NVARS)


def monomial(mono, coeff=1):
    return jp.DiffPolynomial({tuple(mono): coeff})


class TestOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(exponents, small_exponents), st.one_of(exponents, small_exponents))
    def test_packed_order_is_grlex(self, a, b):
        pa, pb = jp._pack(a), jp._pack(b)
        assert (pa < pb) == (grlex_key(a) < grlex_key(b))
        assert (pa == pb) == (a == b)
        assert jp._unpack(pa) == a

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_exponents, min_size=1, max_size=8, unique=True))
    def test_leading_term_and_text_follow_grlex(self, monos):
        p = jp.DiffPolynomial({m: i + 1 for i, m in enumerate(monos)})
        lead = max(monos, key=grlex_key)
        assert leading_term(p) == (lead, monos.index(lead) + 1)
        ordered = sorted(monos, key=grlex_key, reverse=True)
        assert str(p) == " + ".join(str(monomial(m, monos.index(m) + 1)) for m in ordered)


class TestOverflow:
    def test_255_is_the_largest_exponent(self):
        p = jp.f(0) ** 255
        assert str(p) == "f0^255"
        assert p.total_degree() == 255

    def test_256_raises(self):
        with pytest.raises(ExponentOverflow):
            jp.f(0) ** 256
        with pytest.raises(ExponentOverflow):
            jp.f(0) ** 200 * jp.f(0) ** 56
        with pytest.raises(ExponentOverflow):
            (jp.f(0) + jp.g(3)) ** 200 * jp.g(3) ** 56
        with pytest.raises(ExponentOverflow):
            monomial((256,) + (0,) * (jp.NVARS - 1))

    def test_derivation_into_a_full_field_raises(self):
        with pytest.raises(ExponentOverflow):
            jp.derive(jp.f(0) * jp.f(1) ** 255, "x")
        with pytest.raises(JetOrderOverflow):
            jp.derive(jp.g(jp.MAX_JET_ORDER) ** 255, "bar")

    def test_field_shift_matches_the_general_substitution(self):
        p = jp.build_addet(2, 4) * jp.param("p1") + jp.g(3) ** 2
        mapping = {f"g{i}": jp.f(i) for i in range(jp.MAX_JET_ORDER + 1)}
        assert jp.substitute_g_to_f(p) == jp.substitute(p, mapping)

    def test_substitution_onto_a_full_field_raises(self):
        with pytest.raises(ExponentOverflow):
            jp.substitute_g_to_f(jp.f(2) ** 255 * jp.g(2))
        assert jp.substitute_g_to_f(jp.f(2) ** 254 * jp.g(2)) == jp.f(2) ** 255


class TestDivisibility:
    @pytest.mark.parametrize("i", range(jp.NVARS))
    def test_one_larger_divisor_exponent_is_no_quotient(self, i):
        numerator = [5] * jp.NVARS
        divisor = [2] * jp.NVARS
        divisor[i] = 6
        assert jp.divide_exact(monomial(numerator), monomial(divisor)) is None
        divisor[i] = 5
        assert jp.divide_exact(monomial(numerator), monomial(divisor)) == monomial(
            [3] * i + [0] + [3] * (jp.NVARS - 1 - i)
        )

    def test_neighbouring_fields_do_not_lend(self):
        # f1^2 outranks f0*f1 as an int, but f0 does not divide it: the f0
        # field must not borrow from the f1 field
        assert jp.divide_exact(jp.f(1) ** 2, jp.f(0) * jp.f(1)) is None
        assert jp.divide_exact(jp.g(0) ** 3, jp.f(6) ** 2 * jp.g(0)) is None
        assert jp.divide_exact(jp.param("l1"), jp.f(0) ** 255) is None

    def test_integral_quotients_are_ints(self):
        q = jp.divide_exact(6 * jp.f(0) ** 2 + 4 * jp.f(0), 2 * jp.f(0))
        assert q == 3 * jp.f(0) + 2
        assert all(type(c) is int for _, c in q.terms())
        half = jp.divide_exact(jp.f(0), 2 * jp.f(0))
        assert half.terms() == [((0,) * jp.NVARS, Fraction(1, 2))]


class TestCoefficients:
    def test_integral_fractions_are_stored_as_ints(self):
        p = (Fraction(1, 2) * jp.f(0)) * 2 + Fraction(4, 2) * jp.g(1)
        assert all(type(c) is int for _, c in p.terms())
        assert p == jp.f(0) + 2 * jp.g(1)
        assert hash(p) == hash(jp.DiffPolynomial({m: Fraction(c) for m, c in p.terms()}))
        assert str(p) == "2*g1 + f0"

    def test_fractions_stay_fractions(self):
        p = Fraction(1, 3) * jp.f(0) - Fraction(2, 3) * jp.g(0)
        assert sorted(c for _, c in p.terms()) == [Fraction(-2, 3), Fraction(1, 3)]
        assert str(p) == "-2/3*g0 + 1/3*f0"


def loop_evaluate(p, fv, gv, params, absolute):
    # one term and one variable at a time, in Python complex arithmetic
    values = {**dict(zip(jp.VARIABLES[:7], fv)), **dict(zip(jp.VARIABLES[7:14], gv)), **params}
    total = 0
    for mono, q in p.terms():
        term = abs(complex(q)) if absolute else complex(q)
        for name, e in zip(jp.VARIABLES, mono):
            if e:
                term *= (abs(values[name]) if absolute else values[name]) ** e
        total += term
    return total


class TestEvaluateMatrix:
    @pytest.mark.parametrize("absolute", [False, True])
    @pytest.mark.parametrize("build", [lambda: jp.build_addet(1, 2), lambda: jp.abc_det(1, 2, 3),
                                       lambda: identities.cubic_block_formulas()["p0"]])
    def test_matches_a_loop_over_terms(self, build, absolute):
        p = build()
        rng = np.random.default_rng(5)
        fv, gv = (list(rng.standard_normal(5) + 1j * rng.standard_normal(5)) for _ in range(2))
        params = dict(zip(jp.PARAMETERS, rng.standard_normal(6) + 1j * rng.standard_normal(6)))
        scale = loop_evaluate(p, fv, gv, params, True)
        got = jp.evaluate(p, fv, gv, params, absolute=absolute)
        # summation order differs: allow double round-off over some hundred terms
        assert abs(got - loop_evaluate(p, fv, gv, params, absolute)) <= 1e-13 * scale

    def test_batch_matches_points(self):
        p = jp.build_addet(1, 2) + jp.param("p1") * jp.f(0) ** 2 - 3
        rng = np.random.default_rng(4)
        fv = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        gv = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        params = {"p1": 0.5 - 0.25j}
        for absolute in (False, True):
            batch = jp.evaluate(p, fv, gv, params, absolute=absolute)
            assert batch.shape == (6,)
            for k in range(6):
                point = jp.evaluate(p, fv[:, k], gv[:, k], params, absolute=absolute)
                assert abs(batch[k] - point) <= 1e-12 * abs(point)

    def test_a_point_has_its_value_in_any_batch(self):
        # bit for bit: numpy's reductions would order a short batch's products and sums otherwise
        p = jp.build_addet(1, 2)
        rng = np.random.default_rng(7)
        fv, gv = rng.standard_normal((2, 4, 40_000, 2)).view(complex)[..., 0]
        for absolute in (False, True):
            whole = jp.evaluate(p, fv, gv, absolute=absolute)
            for n in (1, 2, 7, 100):
                for start in (0, 12_345, 40_000 - n):
                    part = jp.evaluate(p, fv[:, start : start + n], gv[:, start : start + n], absolute=absolute)
                    assert part.tobytes() == whole[start : start + n].tobytes(), (absolute, n, start)
            assert jp.evaluate(p, fv[:, 5], gv[:, 5], absolute=absolute) == whole[5]

    def test_unused_jets_may_be_nan(self):
        assert jp.evaluate(jp.f(0) * jp.g(1) + 1, [2.0, np.nan], [np.nan, 3.0]) == 7.0

    def test_missing_parameter(self):
        with pytest.raises(MissingJet):
            jp.evaluate(jp.param("l0") * jp.f(0), [1.0], [], {"p0": 1.0})


# -- the ring operations against a plain-dict reference ------------------------

# a few variables of each kind, small exponents, so that terms meet and cancel
_REF_VARS = (0, 1, 7, 8, 14)
ref_monos = st.tuples(*[st.integers(min_value=0, max_value=2)] * len(_REF_VARS)).map(
    lambda es: tuple(dict(zip(_REF_VARS, es)).get(i, 0) for i in range(jp.NVARS))
)
ref_coeffs = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
ref_polys = st.dictionaries(ref_monos, ref_coeffs, max_size=6)


def ref_canonical(terms):
    return {m: Fraction(q) for m, q in terms.items() if q}


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, q in b.items():
        out[m] = out.get(m, 0) + sign * q
    return ref_canonical(out)


def ref_mul(a, b):
    out = {}
    for ma, qa in a.items():
        for mb, qb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + qa * qb
    return ref_canonical(out)


def as_ref(p):
    # the terms of p, after checking that p is canonical
    for _, q in p.terms():
        assert q != 0
        assert type(q) is int or (type(q) is Fraction and q.denominator != 1)
    return {m: Fraction(q) for m, q in p.terms()}


class TestRingOperationsMatchAReference:
    @settings(max_examples=200, deadline=None)
    @given(ref_polys, ref_polys)
    def test_sum_difference_and_product(self, a, b):
        pa, pb = jp.DiffPolynomial(a), jp.DiffPolynomial(b)
        ra, rb = ref_canonical(a), ref_canonical(b)
        assert as_ref(pa + pb) == ref_add(ra, rb)
        assert as_ref(pa - pb) == ref_add(ra, rb, -1)
        assert as_ref(pa - pa) == {}
        assert as_ref(-pa) == {m: -q for m, q in ra.items()}
        assert as_ref(pa * pb) == ref_mul(ra, rb)

    @settings(max_examples=200, deadline=None)
    @given(ref_polys, st.one_of(ref_coeffs, st.sampled_from([0, 1, 2, Fraction(1, 2), Fraction(4, 2)])))
    def test_scalar_operations(self, a, c):
        pa, ra = jp.DiffPolynomial(a), ref_canonical(a)
        const = {(0,) * jp.NVARS: Fraction(c)} if c else {}
        assert as_ref(pa * c) == as_ref(c * pa) == ref_mul(ra, const)
        assert as_ref(pa + c) == as_ref(c + pa) == ref_add(ra, const)
        assert as_ref(pa - c) == ref_add(ra, const, -1)
        assert as_ref(c - pa) == ref_add(const, ra, -1)

    def test_halves_that_meet_become_ints(self):
        half = Fraction(1, 2) * jp.f(0) * jp.g(1)
        for p in (half + half, 2 * half, half * 2, (jp.f(0) + half) - (jp.f(0) - half),
                  half * (2 * jp.f(1) + 4), jp.DiffPolynomial.constant(Fraction(4, 2)) * jp.f(0)):
            assert all(type(q) is int for _, q in p.terms()), p


# -- compiled evaluation -----------------------------------------------------------


def rebuilt_evaluate(p, f_jets=None, g_jets=None, params=None, absolute=False):
    # the formula that rebuilds the exponent matrix and coefficients on each call
    from functools import reduce
    from operator import or_

    supplied = dict(zip(jp.VARIABLES[:7], [] if f_jets is None else f_jets))
    supplied.update(zip(jp.VARIABLES[7:14], [] if g_jets is None else g_jets))
    supplied.update((name, v) for name, v in (params or {}).items() if name in jp.PARAMETERS)
    monos = list(p._terms)
    used = [(n, s) for n, s, e in zip(jp.VARIABLES, jp._SHIFTS, jp._unpack(reduce(or_, monos, 0))) if e]
    exps = np.array([[m >> s & jp._EXP for _, s in used] for m in monos], dtype=np.intp)
    base = np.stack(np.broadcast_arrays(0j, *(supplied[name] for name, _ in used)))[1:]
    coeffs = np.array([complex(q) for q in p._terms.values()], dtype=complex)
    if absolute:
        base, coeffs = np.abs(base), np.abs(coeffs)
    powers = np.ones((exps.max(initial=0) + 1,) + base.shape, base.dtype)
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] * base
    if not used:
        # a polynomial without variables takes the shape of the supplied batch
        return np.broadcast_to(coeffs.sum(), np.broadcast(0j, *supplied.values()).shape)[()]
    # evaluate's fixed order: the factors multiplied, then the terms added, one elementwise operation each
    picked = powers[exps.reshape(len(monos), len(used)), np.arange(len(used))]
    terms = picked[:, 0]
    for j in range(1, len(used)):
        terms = terms * picked[:, j]
    terms = coeffs.reshape((-1,) + (1,) * (terms.ndim - 1)) * terms
    value = terms[0]
    for t in range(1, len(monos)):
        value = value + terms[t]
    return value[()]


class TestCompiledEvaluation:
    @pytest.mark.parametrize("absolute", [False, True])
    @pytest.mark.parametrize("build", [lambda: jp.build_addet(1, 2), lambda: jp.abc_det(1, 2, 3),
                                       lambda: identities.cubic_block_formulas()["p0"],
                                       lambda: jp.DiffPolynomial.constant(Fraction(-3, 7)), jp.DiffPolynomial.zero])
    def test_bit_identical_to_the_rebuilt_formula(self, build, absolute):
        p = build()
        rng = np.random.default_rng(8)
        fv = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        gv = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        params = dict(zip(jp.PARAMETERS, rng.standard_normal(6) + 1j * rng.standard_normal(6)))
        want = rebuilt_evaluate(p, fv, gv, params, absolute)
        # the first call builds the tables, the later ones reuse them
        for _ in range(2):
            got = jp.evaluate(p, fv, gv, params, absolute=absolute)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
        point = jp.evaluate(p, fv[:, 0], gv[:, 0], params, absolute=absolute)
        assert point == rebuilt_evaluate(p, fv[:, 0], gv[:, 0], params, absolute)

    def test_a_missing_jet_is_named_on_every_call(self):
        p = jp.f(0) * jp.g(2)
        assert jp.evaluate(p, [2.0], [0.0, 0.0, 3.0]) == 6.0
        for _ in range(2):
            with pytest.raises(MissingJet, match="g2"):
                jp.evaluate(p, [2.0], [1.0])


# sha256 of the rendered polynomials and of every run_checks() row's repr,
# as the tuple-keyed Fraction implementation printed them; the coefficients
# row's note has since come to name the two integration functions
GOLDEN = {
    "elimination_polynomial": "09e47d751a492f97a6ebb5511c8986ea8943a9f60846a3390071db530fc7b30a",
    "build_addet(2, 4)": "725accee2d9e25173a51ff8b55823b4ed1c2936e787597f96c9976671986e36a",
    "substitute_g_to_f(build_addet(2, 4))": "59925136d442169291bd9a3a74c0cb1addf69ae195ebf8a4033b983f1074c55d",
    "row factorization": "520297cfd003c14f731af1178616cd962a68e47c2a1008052259d588b4d3eed6",
    "row rewrites/first": "f12a3543995572a8c837113cb4d43db617a73487ac7a35f7af132b782297e6b3",
    "row rewrites/second": "38e81997e5a6b8df38ea8b1e9a83f2f446d29b6675e07633df284dcf0e179cf0",
    "row eqf": "3b9c6bfed3a1c7cf663647ce3c7290320952edf51f4e3b9743ece6064f55916d",
    "row coefficients": "1979bb0b768e518d9a7b4b0aca4cb6a15b353f5cb86cc364c2488efed48c082b",
    "row eta": "08e4203b4b16117f84775b2a6d3d3c8f2f5d793d01377fbc6dfaf0dc11c6ee34",
}


def test_golden_text_is_unchanged():
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    got = {
        "elimination_polynomial": digest(str(identities.elimination_polynomial())),
        "build_addet(2, 4)": digest(str(jp.build_addet(2, 4))),
        "substitute_g_to_f(build_addet(2, 4))": digest(str(jp.substitute_g_to_f(jp.build_addet(2, 4)))),
    }
    got.update((f"row {name}", digest(repr((name, rep)))) for name, rep in identities.run_checks())
    assert got == GOLDEN
