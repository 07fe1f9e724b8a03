"""Ring laws, derivations and exact division of the jet polynomials."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpfeq import jetpoly as jp
from wpfeq.errors import JetOrderOverflow, MissingJet

from oracles import leading_term


def _small_poly(names=("f0", "f1", "g0", "g1"), max_terms=4):
    mono = st.tuples(
        st.sampled_from(names), st.integers(min_value=0, max_value=3)
    )
    term = st.tuples(
        st.lists(mono, min_size=0, max_size=3),
        st.fractions(min_value=-5, max_value=5),
    )

    def build(terms):
        p = jp.DiffPolynomial.zero()
        for factors, coeff in terms:
            t = jp.DiffPolynomial.constant(coeff)
            for name, e in factors:
                t = t * jp.DiffPolynomial.variable(name) ** e
            p = p + t
        return p

    return st.lists(term, min_size=0, max_size=max_terms).map(build)


polys = _small_poly()


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(polys, polys, polys)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    def test_additive_identity_and_powers(self):
        p = jp.f(0) * jp.g(1) - 2 * jp.f(1)
        assert p + 0 == p
        assert (jp.f(0) + jp.g(0)) * (jp.f(0) - jp.g(0)) == jp.f(0) ** 2 - jp.g(0) ** 2
        assert jp.f(1) ** 3 * jp.f(1) ** 2 == jp.f(1) ** 5

    @settings(max_examples=40, deadline=None)
    @given(polys, polys)
    def test_derive_is_a_derivation(self, p, q):
        for direction in ("x", "y", "bar"):
            lhs = jp.derive(p * q, direction)
            rhs = jp.derive(p, direction) * q + p * jp.derive(q, direction)
            assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(polys)
    def test_mixed_partials_commute(self, p):
        assert jp.derive(jp.derive(p, "x"), "y") == jp.derive(jp.derive(p, "y"), "x")


class TestDerive:
    def test_product_rule_example(self):
        assert jp.derive(jp.f(0) * jp.g(0), "bar") == jp.g(1) * jp.f(0) - jp.g(0) * jp.f(1)

    def test_difference_example(self):
        assert jp.derive(jp.g(0) - jp.f(0), "bar") == jp.g(1) + jp.f(1)

    def test_order_overflow(self):
        with pytest.raises(JetOrderOverflow):
            jp.derive(jp.f(jp.MAX_JET_ORDER), "x")

    def test_variable_past_the_jet_order(self):
        # the same overflow as deriving f_MAX, not a bare KeyError from the variable table
        for var in (jp.f, jp.g):
            assert var(jp.MAX_JET_ORDER).total_degree() == 1
            with pytest.raises(JetOrderOverflow):
                var(jp.MAX_JET_ORDER + 1)


class TestBuilders:
    def test_abc_k1(self):
        a, b, c = jp.abc_columns(1)[0]
        assert a == jp.g(0) - jp.f(0)
        assert b == jp.g(1) - jp.f(1)
        assert c == jp.g(1) * jp.f(0) - jp.g(0) * jp.f(1)

    def test_abc_k2(self):
        a, b, c = jp.abc_columns(2)[1]
        assert a == jp.g(1) + jp.f(1)
        assert c == jp.g(2) * jp.f(0) - 2 * jp.g(1) * jp.f(1) + jp.g(0) * jp.f(2)

    def test_abc_k3(self):
        assert jp.abc_columns(3)[2][0] == jp.g(2) - jp.f(2)

    def test_bar_consistency(self):
        # a_k = bar^(k-1)(g0 - f0), b_k = bar^k(g0 + f0), c_k = bar^k(g0 f0)
        a, b, c = jp.g(0) - jp.f(0), jp.g(0) + jp.f(0), jp.g(0) * jp.f(0)
        for column in jp.abc_columns(4):
            b, c = jp.derive(b, "bar"), jp.derive(c, "bar")
            assert column == (a, b, c)
            a = jp.derive(a, "bar")
        assert jp.abc_columns(4)[:2] == jp.abc_columns(2)
        with pytest.raises(ValueError):
            jp.abc_columns(0)
        with pytest.raises(ValueError):
            jp.abc_det(0, 1, 2)

    def test_det3_identity_and_repeats(self):
        one = jp.DiffPolynomial.constant(1)
        zero = jp.DiffPolynomial.zero()
        eye = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
        assert jp.det3_poly(eye) == one
        col = [jp.f(0), jp.f(1), jp.g(0)]
        mat = [[col[i], col[i], jp.g(1)] for i in range(3)]
        assert jp.det3_poly(mat).is_zero()
        assert jp.abc_det(1, 2, 2).is_zero()

    def test_addet_orders_and_determinism(self):
        p = jp.build_addet(1, 2)
        assert p.jet_order("f") <= 3
        assert p.jet_order("g") <= 3
        assert p == jp.build_addet(1, 2)

    def test_addet_vanishes_on_exponential_jets(self):
        import math

        p = jp.build_addet(1, 2)
        x, y = 0.7, -0.3
        fj = [math.exp(x)] * 7
        gj = [math.exp(y)] * 7
        value = jp.evaluate(p, fj, gj)
        scale = jp.evaluate(p, fj, gj, absolute=True)
        assert abs(value) <= 1e-10 * scale

    def test_addet_rejects_equal_columns(self):
        with pytest.raises(ValueError):
            jp.build_addet(2, 2)


class TestDivision:
    def test_exact_quotient(self):
        a = jp.f(0) ** 2 - jp.g(0) ** 2
        b = jp.f(0) - jp.g(0)
        q = jp.divide_exact(a, b)
        assert q == jp.f(0) + jp.g(0)

    def test_inexact_returns_none(self):
        assert jp.divide_exact(jp.f(0) ** 2 + 1, jp.f(0)) is None

    @settings(max_examples=40, deadline=None)
    @given(polys, polys)
    def test_division_inverts_multiplication(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        q = jp.divide_exact(a * b, b)
        assert q == a


class TestEvaluate:
    def test_simple_substitution(self):
        p = jp.f(0) * jp.g(1)
        assert jp.evaluate(p, [2.0], [0.0, 3.0]) == pytest.approx(6.0)

    def test_zero_polynomial(self):
        assert jp.evaluate(jp.DiffPolynomial.zero(), [], []) == 0

    @pytest.mark.parametrize("p, value, scale", [(jp.DiffPolynomial.zero(), 0, 0), (jp.DiffPolynomial.constant(-3), -3, 3)])
    def test_polynomial_without_variables_keeps_the_batch_shape(self, p, value, scale):
        batch = np.array([0.5, 1.0 + 2.0j, -3.0, 4.0j])
        fj, gj = [batch, 2 * batch], [batch[::-1]]
        for absolute, want in ((False, value), (True, scale)):
            got = jp.evaluate(p, fj, gj, absolute=absolute)
            assert got.shape == (4,) and (got == want).all()
        assert jp.evaluate(p, [batch.reshape(2, 2)], []).shape == (2, 2)
        assert jp.evaluate(p, [1.5], [2.0]) == value

    def test_missing_jet(self):
        with pytest.raises(MissingJet):
            jp.evaluate(jp.f(3), [1.0, 2.0], [])
        with pytest.raises(MissingJet):
            jp.evaluate(jp.param("p3"), [], [])

    @settings(max_examples=40, deadline=None)
    @given(polys, polys)
    def test_evaluate_is_a_homomorphism(self, p, q):
        fj = [0.7, -1.3, 0.4, 2.1]
        gj = [1.9, 0.3, -0.8, 1.1]
        lhs = jp.evaluate(p * q, fj, gj)
        rhs = jp.evaluate(p, fj, gj) * jp.evaluate(q, fj, gj)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_evaluate_on_wp_jets_vanishes(self, square_ctx):
        from wpfeq import elliptic

        p = jp.build_addet(1, 2)
        x, y = 0.43 + 0.31j, 0.91 + 1.17j
        fj = elliptic.jets(square_ctx, x, 5)
        gj = elliptic.jets(square_ctx, y, 5)
        value = jp.evaluate(p, fj, gj)
        scale = jp.evaluate(p, fj, gj, absolute=True)
        assert abs(value) <= 1e-9 * scale


class TestOrderingAndText:
    def test_leading_term_follows_grlex(self):
        p = jp.f(0) ** 3 + jp.g(2) * jp.f(1)
        mono, coeff = leading_term(p)
        assert coeff == Fraction(1)
        # total degrees tie at 3 vs 2: the cubic term wins on degree
        assert sum(mono) == 3

    def test_str_roundtrip_style(self):
        p = jp.f(1) * jp.g(1) - 2 * jp.f(0)
        text = str(p)
        assert "f1*g1" in text and "2*f0" in text
        assert str(jp.DiffPolynomial.zero()) == "0"
