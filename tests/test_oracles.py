"""The test oracles themselves: the reference lattice sum, the cell representative and the chord-tangent law."""

from fractions import Fraction

import numpy as np
import pytest

from wpfeq import elliptic as el
from wpfeq.errors import PoleProximity

from oracles import curve_add, curve_neg, exact_det3, lattice_sum_reference, on_curve, reduce_to_cell


class TestReduceToCell:
    def test_reduce_identity(self, square_ctx):
        assert reduce_to_cell(square_ctx, 0.0) == 0.0

    def test_reduce_integer_shift(self, square_ctx):
        z = 3 * 2.0 + 0.2 * 2.0j
        assert reduce_to_cell(square_ctx, z) == pytest.approx(0.2 * 2.0j, abs=1e-12)

    def test_reduce_preserves_wp(self, square_ctx):
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
            if el.lattice_distance(square_ctx, z) < 0.1:
                continue
            a = el.wp(square_ctx, z)
            b = el.wp(square_ctx, reduce_to_cell(square_ctx, z))
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


class TestLatticeSumReference:
    def test_two_cutoffs_within_tail(self, square_ctx):
        z = 0.31 + 0.17j
        r1, tail1 = lattice_sum_reference(square_ctx, z, cutoff=100, return_tail=True)
        r2, tail2 = lattice_sum_reference(square_ctx, z, cutoff=200, return_tail=True)
        assert abs(r1 - r2) <= tail1
        assert tail2 < tail1

    def test_real_on_real_axis_of_square_lattice(self, square_ctx):
        value = lattice_sum_reference(square_ctx, 0.5 * 2.0, cutoff=100)
        assert abs(value.imag) <= 1e-9 * abs(value)

    def test_matches_wp_tightly(self, square_ctx):
        z = 0.31 + 0.17j
        ref = lattice_sum_reference(square_ctx, z, cutoff=200)
        w = el.wp(square_ctx, z)
        assert abs(w - ref) <= 1e-12 * abs(ref)

    def test_pole_rejected(self, square_ctx):
        with pytest.raises(PoleProximity):
            lattice_sum_reference(square_ctx, 2.0)


class TestChordTangent:
    G2, G3 = Fraction(4), Fraction(-1)
    P, Q, R = (Fraction(0), Fraction(1)), (Fraction(2), Fraction(-5)), (Fraction(6), Fraction(29))

    def add(self, *points):
        total = None
        for point in points:
            total = curve_add(total, point, self.G2)
        return total

    def test_a_group_on_the_curve(self):
        p, q, r = self.P, self.Q, self.R
        assert all(on_curve(point, self.G2, self.G3) for point in (p, q, r, self.add(p, q), self.add(p, p)))
        assert self.add(p, q) == self.add(q, p)
        assert self.add(self.add(p, q), r) == self.add(p, self.add(q, r))
        assert self.add(p, None) == p and self.add(p, curve_neg(p)) is None
        assert self.add(p, p, p) == self.add(self.add(p, p), p)

    def test_three_points_sum_to_o_iff_they_are_collinear(self):
        p, q, r = self.P, self.Q, self.R
        s = curve_neg(self.add(p, q))
        assert exact_det3(p, q, s)[0] == 0
        det, terms = exact_det3(p, q, r)
        assert det != 0 and terms >= abs(det)
