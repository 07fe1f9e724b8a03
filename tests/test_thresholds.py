"""One input on either side of each decision threshold that no other test sits at.

Each pair of cases brackets one constant by a factor of about three on each
side, so scaling the constant by ten moves one of them across: TAU_CUB and
COEFF_EPS of `classify`, its COND_REJECT, the `indeterminate` band of
`verifier.theorem_shift_expectation`, and `elliptic._INVARIANT_TOL`.
"""

import math

import numpy as np
import pytest

from wpfeq import classify as cl
from wpfeq import elliptic as el
from wpfeq import verifier as vr
from wpfeq.errors import IllConditionedFit, SeriesNoConverge


def _cubic(misfit):
    # p3 w^3 as large as w'^2: g2 = 4, g3 = 0
    return cl.FitResult("cubic", (0j, -4 + 0j, 0j, 4 + 0j), misfit, 1.0, (1.0, 1.0, 1.0, 1.0), 1.0)


@pytest.mark.parametrize("misfit, family", [(3e-7, "weierstrass"), (3e-6, "not_a_solution")])
def test_tau_cub_bounds_the_cubic_misfit(misfit, family):
    assert cl.classify(_cubic(misfit), None).family == family


@pytest.mark.parametrize("slope, family", [(3e-9, "linear"), (3e-8, "exponential")])
def test_coeff_eps_bounds_an_insignificant_slope(slope, family):
    # a linear fit within TAU_LIN whose l1 w term is `slope` of the target
    fit = cl.FitResult("linear", (1 + 0j, slope + 0j), 0.0, 1.0, (1.0, slope), 1.0)
    assert cl.classify(None, fit).family == family


def _two_columns_at(cond):
    """w and w' of a linear fit whose unit columns, 1 and w, have a scaled normal matrix of condition `cond`.

    Unit columns at an angle theta have the normal matrix [[1, cos], [cos, 1]],
    of condition cot^2(theta/2). With w = 1 + s (1, -1, 1, -1), tan theta = s.
    """
    s = math.tan(2.0 * math.atan(1.0 / math.sqrt(cond)))
    w = 1.0 + s * np.array([1.0, -1.0, 1.0, -1.0], dtype=complex)
    return w, np.array([1.0, 2.0, 3.0, 5.0], dtype=complex)


def test_cond_reject_admits_a_fit_below_it():
    assert cl.fit_linear(*_two_columns_at(3e13)).condition == pytest.approx(3e13, rel=0.01)


def test_cond_reject_refuses_a_fit_above_it():
    with pytest.raises(IllConditionedFit):
        cl.fit_linear(*_two_columns_at(3e14))


@pytest.mark.parametrize("offset, expected", [(5e-9, "indeterminate"), (5e-8, "fail")])
def test_indeterminate_band_ends_at_ten_lattice_tolerances(offset, expected):
    ctx = el.from_periods(1.0, 1.0j)
    assert vr.theorem_shift_expectation(ctx, 1.0 + 1.0j + offset) == expected


def _rebuild_generic(g2_error):
    ctx = el.from_periods(2.0, 0.7 + 2.1j)
    b1, b2 = ctx.reduced
    invariants = el.Invariants(ctx.invariants.g2 * (1.0 + g2_error), ctx.invariants.g3)
    return el._context(invariants, el.Periods(b1, b2), (b1, b2), math.pi / b1)


def test_invariant_tol_admits_invariants_within_it():
    assert _rebuild_generic(1e-13).invariants.g2 != el.from_periods(2.0, 0.7 + 2.1j).invariants.g2


def test_invariant_tol_refuses_invariants_beyond_it():
    with pytest.raises(SeriesNoConverge):
        _rebuild_generic(1e-10)
