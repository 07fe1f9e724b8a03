"""The test oracles themselves: the reference lattice sum and the cell representative."""

import numpy as np
import pytest

from wpfeq import elliptic as el
from wpfeq.errors import PoleProximity

from oracles import lattice_sum_reference, reduce_to_cell


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
