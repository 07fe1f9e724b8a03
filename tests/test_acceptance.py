"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines as the
criteria complete; `pytest -v` lists one verdict per criterion through the
test names.
"""

import cmath
import math

import numpy as np
import pytest

from wpfeq import classify as cl
from wpfeq import elliptic as el
from wpfeq import identities as idn
from wpfeq import jetpoly as jp
from wpfeq import verifier as vr

from oracles import lattice_sum_reference, reexpand_normal_form, shifted_det_vs_sigma_scan


def _line(number: int, ok: bool, text: str):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_01_symbolic_factorization():
    import time

    start = time.perf_counter()
    rep = idn.factorization_check()
    corrupted = idn.factorization_check(
        factors=(idn.factor_one() + jp.f(0), idn.factor_two())
    )
    elapsed = time.perf_counter() - start
    ok = rep.holds and rep.cofactor is not None and not corrupted.holds and elapsed < 10.0
    _line(1, ok, f"factorization certified, cofactor {rep.cofactor_text()}, {elapsed:.2f}s")


def test_criterion_02_symbolic_factor_rewrites():
    one = jp.DiffPolynomial.constant(1)
    first, second = idn.factor_rewrite_check()
    ok = first.holds and second.holds and first.cofactor == one and second.cofactor == one
    _line(2, ok, "both quotient-rule rewrites exact with cofactor 1")


def test_criterion_03_symbolic_diagonal_product():
    rep = idn.diagonal_product_check()
    ok = rep.holds and rep.cofactor is not None and rep.cofactor.total_degree() == 0
    _line(3, ok, f"diagonal (2,4) determinant = ({rep.cofactor_text()}) * product form")


def test_criterion_04_symbolic_coefficient_block():
    rep = idn.ode_coefficient_check()
    p3_exact = idn.cubic_branch_reduce(idn.cubic_block_formulas()["p3"]).is_zero()
    l1_exact = idn.linear_branch_reduce(idn.linear_block_formulas()["l1"]).is_zero()
    ok = rep.holds and p3_exact and l1_exact
    _line(4, ok, "all six ODE coefficient formulas reduce exactly to their symbols")


def test_criterion_05_central_difference_coefficients():
    rep = idn.central_difference_check()
    ok = rep.holds and "order 1: 2" in rep.note and "order 2: 1/3" in rep.note
    _line(5, ok, f"expansion coefficients confirmed ({rep.note})")


def test_criterion_06_theorem1_positive(square_ctx, hex_ctx, generic_ctx):
    results = []
    cases = [
        (square_ctx, square_ctx.periods.omega1 / 3.0, "square"),
        (square_ctx, 0j, "square d=0"),
        (hex_ctx, (hex_ctx.periods.omega1 + hex_ctx.periods.omega2) / 3.0, "hexagonal"),
        (generic_ctx, generic_ctx.periods.omega2 / 3.0, "generic"),
    ]
    for ctx, shift, label in cases:
        fam = vr.WeierstrassShifted(ctx, shift)
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=6, count=1000), tol=1e-8)
        results.append((label, rep.passed, rep.max_residual))
    ok = all(passed for _, passed, _ in results)
    worst = max(mx for _, _, mx in results)
    _line(6, ok, f"lattice-third shifts pass on all lattices, worst max residual {worst:.2e}")


def test_criterion_07_theorem1_negative(square_ctx):
    d = 0.1 * square_ctx.periods.omega1
    fam = vr.WeierstrassShifted(square_ctx, d)
    rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=7, count=500), tol=1e-8)
    floor_ok = (not rep.passed) and rep.max_residual >= 1e-3
    oracle = shifted_det_vs_sigma_scan(
        square_ctx, d, vr.TripleSampler(seed=7, count=300), tol=1e-6
    )
    ok = floor_ok and oracle.passed
    _line(
        7,
        ok,
        f"non-lattice shift fails (max {rep.max_residual:.2e}), "
        f"sigma-quotient agreement {oracle.max_residual:.2e}",
    )


def test_criterion_08_sigma_identity(square_ctx):
    rep = vr.sigma_identity_scan(square_ctx, count=500, seed=8, tol=1e-8)
    _line(8, rep.passed, f"det vs sigma quotient on {rep.samples} triples, max {rep.max_residual:.2e}")


def test_criterion_09_theorem2_shift_suite(square_ctx):
    w1, w2 = square_ctx.periods.omega1, square_ctx.periods.omega2

    def gamma(s, t):
        return s * w1 + t * w2

    cases = [
        ((0, 0), (0, 0), (0, 0), True),
        ((0.2, 0), (0, 0.3), (0.8, 0.7), True),  # sum = w1 + w2
        ((1 / 3, 0), (1 / 3, 0), (1 / 3, 0), True),  # sum = w1
        ((0.5, 0.25), (0.25, 0.5), (0.25, 0.25), True),  # sum = w1 + w2
        ((0.4, -0.2), (-0.4, 0.2), (2, -1), True),  # sum = 2 w1 - w2
        ((0.2, 0), (0, 0.3), (0, 0), False),
        ((0.5, 0), (0, 0), (0, 0), False),
        ((0.1, 0.1), (0.1, 0.1), (0.1, 0.1), False),
        ((0.25, 0.25), (0.5, 0.5), (0, 0.2), False),
        ((1 / 3, 0), (1 / 3, 0), (0.23, 0), False),
    ]
    mismatches = []
    for i, (f1, f2, f3, member) in enumerate(cases):
        g1, g2_, g3_ = gamma(*f1), gamma(*f2), gamma(*f3)
        assert (el.lattice_offset(square_ctx, g1 + g2_ + g3_) <= el.LATTICE_TOL) == member
        rep = vr.theorem2_shift_test(
            square_ctx, g1, g2_, g3_, vr.TripleSampler(seed=90 + i, count=150), tol=1e-8
        )
        if rep.passed != member:
            mismatches.append(i)
    _line(9, not mismatches, f"pass/fail tracks lattice membership on all 10 cases")


def test_criterion_10_unconstrained_exponential_and_linear():
    sampler = vr.TripleSampler(seed=10, count=1000, unconstrained=True)
    e = vr.Exponential()
    lin = vr.Linear(2.0, 1.0)
    rep_e = vr.scan(e, e, e, sampler, tol=1e-12)
    rep_l = vr.scan(lin, lin, lin, sampler, tol=1e-12)
    ok = rep_e.passed and rep_l.passed
    _line(10, ok, f"unconstrained residuals: exp {rep_e.max_residual:.2e}, linear {rep_l.max_residual:.2e}")


def test_criterion_11_homogeneity(square_ctx):
    g2, g3 = square_ctx.invariants.g2, square_ctx.invariants.g3
    base = el.from_invariants(g2, g3)
    worst = 0.0
    for t in (2.0, 0.5, 1.0 + 1.0j):
        scaled = el.from_invariants(g2 / t**4, g3 / t**6)
        for re in (0.15, 0.3, 0.45):
            for im in (-0.2, 0.0, 0.25):
                z = complex(re, im)
                lhs = el.wp(scaled, t * z)
                rhs = el.wp(base, z) / t**2
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _line(11, worst <= 1e-10, f"homogeneity over grid and t in {{2, 0.5, 1+i}}, worst {worst:.2e}")


def test_criterion_12_degeneration(degenerate_ctx):
    worst = 0.0
    for z in (0.5, 0.37 - 1.21j, 1.4 + 0.2j):
        target = 1.0 / (z * z)
        worst = max(worst, abs(el.wp(degenerate_ctx, z) - target) / abs(target))
    machine_ok = worst <= 1e-15
    continuity_ok = True
    z = 0.8 + 0.3j
    for eps in (1e-3, 1e-5):
        ctx = el.from_invariants(eps, 0.0)
        diff = abs(el.wp(ctx, z) - 1.0 / (z * z))
        continuity_ok &= diff <= 1.5 * eps * abs(z) ** 2 / 20.0 + 1e-13
    ok = machine_ok and continuity_ok
    _line(12, ok, f"1/z^2 at machine precision ({worst:.1e}) and O(eps) continuity")


def test_criterion_13_factfun_operator(square_ctx):
    wp_fam = vr.WeierstrassShifted(square_ctx, 0j)
    rep_wp = vr.factfun_check(wp_fam, vr.TripleSampler(seed=13, count=120), h_step=1e-2, tol=1e-6)
    exp_fam = vr.Exponential()
    rep_exp = vr.factfun_check(
        exp_fam, vr.TripleSampler(seed=13, count=200), h_step=2e-2, tol=1e-9
    )
    ok = rep_wp.passed and rep_exp.passed
    _line(
        13,
        ok,
        f"operator annihilation: zeta-antiderivative {rep_wp.max_residual:.2e}, "
        f"exponential control {rep_exp.max_residual:.2e}",
    )


def test_criterion_14_constant_third_function():
    sampler = vr.TripleSampler(seed=14, count=400, unconstrained=True)
    e = vr.Exponential()
    pair = vr.constant_case_check(e, e, sampler, tol=1e-12)
    zero = vr.constant_case_check(vr.Constant(0j), vr.Exponential(delta=2.0), sampler, tol=1e-12)
    mismatch = vr.constant_case_check(e, vr.Exponential(delta=2.0), sampler, tol=1e-12)
    ok = pair.passed and zero.passed and not mismatch.passed
    _line(14, ok, "matched pair and zero cases pass; mismatched rates fail")


def test_criterion_15_classifier_round_trips(normal_form_ctx):
    problems = []

    # exact jets for every family
    xs = tuple(0.6 + 0.01 * i for i in range(101))
    ws = tuple(el.wp(normal_form_ctx, x) for x in xs)
    dws = tuple(el.wp_prime(normal_form_ctx, x) for x in xs)
    dec = cl.classify_samples(cl.SampleSet(xs, ws, dws))
    if dec.family != "weierstrass" or abs(dec.params["g2"] - 4.0) > 1e-6 * 4.0 or abs(
        dec.params["g3"]
    ) > 1e-6:
        problems.append("weierstrass exact")

    exp_ws = tuple(cmath.exp(0.7 * x) for x in xs)
    exp_dws = tuple(0.7 * cmath.exp(0.7 * x) for x in xs)
    dec = cl.classify_samples(cl.SampleSet(xs, exp_ws, exp_dws))
    if dec.family != "exponential" or abs(dec.params["delta"] - 0.7) > 1e-6 * 0.7:
        problems.append("exponential exact")

    lin_ws = tuple(2.0 * x + 1.0 for x in xs)
    dec = cl.classify_samples(cl.SampleSet(xs, tuple(map(complex, lin_ws))))
    if dec.family != "linear":
        problems.append("linear")

    dec = cl.classify_samples(cl.SampleSet(xs, (5.0 + 0j,) * len(xs)))
    if dec.family != "constant":
        problems.append("constant")

    # finite-difference jets at h = 1e-2
    dec = cl.classify_samples(cl.SampleSet(xs, ws))
    if dec.family != "weierstrass" or abs(dec.params["g2"] - 4.0) > 1e-4 * 4.0 or abs(
        dec.params["g3"]
    ) > 1e-4:
        problems.append("weierstrass FD")

    dec = cl.classify_samples(cl.SampleSet(xs, exp_ws))
    if dec.family != "exponential" or abs(dec.params["delta"] - 0.7) > 1e-4:
        problems.append("exponential FD")

    # normal-form round trip
    rng = np.random.default_rng(15)
    for _ in range(10):
        p = [complex(*rng.normal(size=2)) for _ in range(4)]
        if abs(p[3]) < 0.1:
            p[3] += 1.0
        back = reexpand_normal_form(*cl.to_normal_form(*p))
        if any(abs(g - w) > 1e-10 * max(1.0, abs(w)) for g, w in zip(back, p)):
            problems.append("normal form roundtrip")
            break

    # the non-differentiable control must be rejected
    axs = tuple(-1.0 + 0.05 * i for i in range(41))
    dec = cl.classify_samples(cl.SampleSet(axs, tuple(complex(abs(x)) for x in axs)))
    if dec.family != "not_a_solution":
        problems.append("absolute-value control")

    _line(15, not problems, "round trips and controls" + (f" failed: {problems}" if problems else " all pass"))


def test_criterion_16_oracle_equivalence(square_ctx):
    worst_grid = 0.0
    w1, w2 = square_ctx.periods.omega1, square_ctx.periods.omega2
    for i in range(10):
        for j in range(10):
            s = 0.05 + 0.9 * i / 9.0
            t = 0.05 + 0.9 * j / 9.0
            z = s * w1 + t * w2
            ref = lattice_sum_reference(square_ctx, z, cutoff=128)
            val = el.wp(square_ctx, z)
            worst_grid = max(worst_grid, abs(val - ref) / abs(ref))
    grid_ok = worst_grid <= 1e-9

    h = 1e-4
    worst_fd = 0.0
    for z in (0.6 + 0.4j, 1.1 + 0.9j, 0.4 + 1.3j):
        d1 = (el.zeta(square_ctx, z + h) - el.zeta(square_ctx, z - h)) / (2 * h)
        d2 = (el.zeta(square_ctx, z + h / 2) - el.zeta(square_ctx, z - h / 2)) / h
        fd = (4 * d2 - d1) / 3
        target = -el.wp(square_ctx, z)
        worst_fd = max(worst_fd, abs(fd - target) / max(1.0, abs(target)))

        l1 = cmath.log(el.sigma(square_ctx, z + h) / el.sigma(square_ctx, z - h)) / (2 * h)
        l2 = cmath.log(el.sigma(square_ctx, z + h / 2) / el.sigma(square_ctx, z - h / 2)) / h
        fd = (4 * l2 - l1) / 3
        target = el.zeta(square_ctx, z)
        worst_fd = max(worst_fd, abs(fd - target) / max(1.0, abs(target)))
    fd_ok = worst_fd <= 1e-7

    ok = grid_ok and fd_ok
    _line(
        16,
        ok,
        f"series vs lattice sum on 10x10 grid {worst_grid:.2e}; "
        f"zeta'/log-sigma' Richardson agreement {worst_fd:.2e}",
    )
