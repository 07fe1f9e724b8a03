"""Certification checks: each must hold, and each corruption control must fail."""

from fractions import Fraction

import pytest

from wpfeq import identities as idn
from wpfeq import jetpoly as jp


class TestFactorization:
    def test_holds_with_recorded_cofactor(self):
        rep = idn.factorization_check()
        assert rep.holds
        assert rep.cofactor == jp.DiffPolynomial.constant(1)

    def test_recheck_is_zero(self):
        rep = idn.factorization_check()
        lhs = idn.elimination_polynomial()
        rhs = rep.cofactor * idn.factor_one() * idn.factor_two()
        assert (lhs - rhs).is_zero()

    def test_corruption_control(self):
        bad = (idn.factor_one() + jp.f(0), idn.factor_two())
        rep = idn.factorization_check(factors=bad)
        assert (rep.holds, rep.cofactor, rep.note) == (False, None, "no exact cofactor exists")

    def test_first_factor_vanishes_on_the_diagonal(self):
        diag = jp.substitute_g_to_f(idn.factor_one())
        # identifying the two functions and the two points kills the factor
        assert diag == jp.f(1) ** 2 - jp.f(1) ** 2 - jp.f(0) * jp.f(2) + jp.f(0) * jp.f(2)
        assert diag.is_zero()


class TestFactorRewrites:
    def test_both_hold_with_cofactor_one(self):
        one = jp.DiffPolynomial.constant(1)
        first, second = idn.factor_rewrite_check()
        assert first.holds and first.cofactor == one
        assert second.holds and second.cofactor == one

    def test_wrong_direction_control(self):
        first, second = idn.factor_rewrite_check(direction="x")
        assert (first.holds, first.cofactor, first.note) == (False, None, "first factor rewrite does not hold")
        assert (second.holds, second.cofactor, second.note) == (False, None, "second factor rewrite does not hold")


class TestDiagonalProduct:
    def test_holds_with_recorded_cofactor(self):
        rep = idn.diagonal_product_check()
        assert rep.holds
        assert rep.cofactor is not None
        assert rep.cofactor.total_degree() == 0  # a pure rational constant

    def test_first_factor_dies_on_exponential_jets(self):
        # all jets equal kills f3*f1 - f2^2
        c = 1.7
        value = jp.evaluate(idn.diagonal_first_factor(), [c] * 6, [])
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_second_factor_dies_on_inverse_square_jets(self):
        # jets of 1/x^2 at x=1: the arithmetic recomputed term by term
        jets = [1.0, -2.0, 6.0, -24.0, 120.0, -720.0]
        f5f1sq = (-720.0) * 4.0
        f3sqf1 = (-24.0) ** 2 * (-2.0)
        three_f2f4f1 = 3.0 * 6.0 * 120.0 * (-2.0)
        three_f2sqf3 = 3.0 * 36.0 * (-24.0)
        assert f5f1sq - f3sqf1 - three_f2f4f1 + three_f2sqf3 == 0.0
        assert jp.evaluate(idn.diagonal_second_factor(), jets, []) == pytest.approx(0.0, abs=1e-9)


    def test_entrywise_substitution_equals_the_substituted_expansion(self):
        # g_i -> f_i is a ring homomorphism, so it commutes with the expansion
        early = idn.diagonal_determinant()
        assert early == jp.substitute_g_to_f(jp.build_addet(2, 4))
        assert not early.is_zero()


class TestOdeCoefficients:
    def test_all_six_reduce(self):
        assert idn.ode_coefficient_check().holds

    def test_cubic_formulas_are_a_fresh_dict_per_call(self):
        corrupted = idn.cubic_block_formulas()
        corrupted["p3"] = jp.f(0)
        assert idn.cubic_block_formulas()["p3"] != jp.f(0)
        assert idn.ode_coefficient_check().holds

    def test_p3_formula_reduces_exactly(self):
        cleared = idn.cubic_block_formulas()["p3"]
        assert idn.cubic_branch_reduce(cleared).is_zero()

    def test_l1_formula_reduces_exactly(self):
        cleared = idn.linear_block_formulas()["l1"]
        assert idn.linear_branch_reduce(cleared).is_zero()

    def test_corrupted_p3_fails(self):
        bad = jp.substitute(idn.cubic_block_formulas()["p3"], {"f4": jp.f(4) + jp.f(1)})
        assert not idn.cubic_branch_reduce(bad).is_zero()

    def test_integration_bracket_reduces_exactly(self):
        # B (f0-g0)^3 - p3 f1 (f0-g0)^3 with f and g on one cubic
        cleared = idn.cubic_block_formulas()["B"]
        assert idn.cubic_branch_reduce(cleared).is_zero()

    def test_bracket_over_the_square_fails(self):
        # (f0-g0)^2 in place of (f0-g0)^3 under p3 f1
        den, p3f1 = jp.f(0) - jp.g(0), jp.param("p3") * jp.f(1)
        bad = idn.cubic_block_formulas()["B"] + p3f1 * den**3 - p3f1 * den**2
        assert not idn.cubic_branch_reduce(bad).is_zero()

    def test_bracket_is_the_closed_form_on_inverse_square_jets(self):
        # pe = 1/x^2 solves w'^2 = 4 w^3: at x = 1 the bracket is p3 f1 = -8 = (f1 f4 - f2 f3)/(3 f1^2)
        fj = [1.0, -2.0, 6.0, -24.0, 120.0]
        assert (fj[1] * fj[4] - fj[2] * fj[3]) / (3 * fj[1] ** 2) == -8.0
        ys = (0.7, 1.4 + 0.5j, 2.0 - 0.3j, 0.5 + 0.8j)
        gj = [[y**-2 for y in ys], [-2 * y**-3 for y in ys]]
        params = {"p0": 0.0, "p1": 0.0, "p2": 0.0, "p3": 4.0}
        values = jp.evaluate(idn.cubic_block_formulas()["B"], fj, gj, params)
        assert max(abs(values)) <= 1e-12

    def test_integration_ratio_reduces_exactly(self):
        cleared = idn.linear_block_formulas()["ratio"]
        assert idn.linear_branch_reduce(cleared).is_zero()

    def test_ratio_against_l0_fails(self):
        bad = jp.substitute(idn.linear_block_formulas()["ratio"], {"l1": jp.param("l0")})
        assert not idn.linear_branch_reduce(bad).is_zero()

    @pytest.mark.parametrize("block, name", [("cubic_block_formulas", "B"), ("linear_block_formulas", "ratio")])
    def test_corrupted_integration_function_fails_the_row(self, monkeypatch, block, name):
        formulas = getattr(idn, block)()
        formulas[name] = formulas[name] + jp.f(0) - jp.g(0)
        monkeypatch.setattr(idn, block, lambda: formulas)
        rep = idn.ode_coefficient_check()
        assert (rep.holds, rep.cofactor, rep.note) == (False, None, f"formulas failed: {name}")


class TestCentralDifference:
    def test_confirms_both_levels(self):
        rep = idn.central_difference_check()
        assert rep.holds
        assert "order 1: 2" in rep.note
        assert "order 2: 1/3" in rep.note

    def test_difference_of_even_series_is_odd(self):
        diff, avg = idn.central_difference_series(5, 0)
        for j in range(0, 6, 2):
            assert diff[j].is_zero()
        # and the average keeps only even coefficients
        for j in range(1, 6, 2):
            assert avg[j].is_zero()

    def test_expected_first_order_coefficients(self):
        diff0 = idn.central_difference_series(5, 0)[0]
        diff1 = idn.central_difference_series(5, 1)[0]
        # raw eta^1 coefficients carry the common factor 2
        assert diff0[1] == 2 * jp.f(1)
        assert diff1[1] == 2 * jp.f(2)

    @pytest.mark.parametrize(
        "corrupt, note",
        [
            (lambda a, b, c: (a * jp.f(0), b, c), "order 1: no constant normalisation"),
            (lambda a, b, c: (a, b, c + jp.f(0)), "order 1: coefficients do not match"),
        ],
        ids=["A1-times-f0", "C1-plus-f0"],
    )
    def test_corrupted_relation_fails(self, monkeypatch, corrupt, note):
        first, second = idn._central_difference_relations()
        monkeypatch.setattr(idn, "_central_difference_relations", lambda: (corrupt(*first), second))
        rep = idn.central_difference_check()
        assert (rep.holds, rep.cofactor, rep.note) == (False, None, note)


def test_run_checks_all_pass():
    # every row exactly: label, verdict, cofactor and note
    rows = [(name, rep.holds, rep.cofactor_text(), rep.note) for name, rep in idn.run_checks()]
    assert rows == [
        ("factorization", True, "1", "eliminated determinant = (1) * factor1 * factor2"),
        ("rewrites/first", True, "1", "first factor rewrite"),
        ("rewrites/second", True, "1", "second factor rewrite"),
        ("eqf", True, "24", "diagonal determinant = (24) * product form"),
        (
            "coefficients", True, "1",
            "all six coefficient formulas reduce exactly to their symbols, B to p3 f1 and the ratio to l1",
        ),
        ("eta", True, "1", "coefficients confirmed; per-order normalisations order 1: 2; order 2: 1/3"),
    ]


def test_failed_reexpansion_does_not_hold(monkeypatch):
    # a quotient that does not re-expand to lhs is reported, never trusted
    monkeypatch.setattr(idn, "divide_exact", lambda lhs, rhs: jp.DiffPolynomial.constant(2))
    for rep in (idn.factorization_check(), *idn.factor_rewrite_check(), idn.diagonal_product_check()):
        assert not rep.holds and rep.cofactor is None


def test_run_checks_unknown_name():
    with pytest.raises(KeyError):
        idn.run_checks(["bogus"])


def test_certifications_recompute_on_every_call(monkeypatch):
    # nothing certified is kept: two calls derive the same number of times
    derive_calls, column_calls = [], []

    def counting(calls, fn):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapped

    counted_derive = counting(derive_calls, jp.derive)
    counted_columns = counting(column_calls, jp.abc_columns)
    for module in (jp, idn):
        monkeypatch.setattr(module, "derive", counted_derive)
        monkeypatch.setattr(module, "abc_columns", counted_columns)
    first = idn.run_checks()
    per_call = len(derive_calls)
    second = idn.run_checks()
    assert per_call > 0 and len(derive_calls) == 2 * per_call
    assert repr(first) == repr(second)
    # the columns are built once by each check that needs them, and only there
    for name, builds in [("factorization", 1), ("rewrites", 0), ("eqf", 1), ("coefficients", 0), ("eta", 0)]:
        column_calls.clear()
        idn.run_checks([name])
        assert len(column_calls) == builds, name
