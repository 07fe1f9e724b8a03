"""Seeded inputs of the benchmark workloads; pure Python, no wpfeq import.

Both the workload process (which runs them) and the checking process
(which derives the expected outcomes) rebuild the inputs from the seed, so
expectations never come from the program under test.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

# the three session contexts of tests/conftest.py
VERIFY_CONTEXTS = (
    ("square", 2.0 + 0j, 2.0j),
    ("hexagonal", 2.0 + 0j, 2.0 * cmath.exp(1j * cmath.pi / 3.0)),
    ("generic", 2.0 + 0j, 0.7 + 2.1j),
)

TOL = 1e-8  # verdict tolerance of the scans, theorem-2 and sigma checks

# verify-battery bundle sizes (requested triples per check)
SCAN_COUNT = 200
THEOREM2_COUNT = 100
SIGMA_COUNT = 100
DERIVED_COUNT = 50
FACTFUN_COUNT = 40
CONSTANT_COUNT = 100

# lattice-sweep: shape cells in tau = omega2/omega1 (|Re tau| <= 1/2, |tau| >= 1),
# each as (re_lo, re_hi, im_lo, im_hi); Im tau stops at 1.5 and |omega1| at
# [0.5, 8], clear of the construction faults named in the README
SWEEP_CELLS = (
    (-0.5, 0.0, 0.0, 1.15),
    (0.0, 0.5, 0.0, 1.15),
    (-0.5, 0.0, 1.15, 1.3),
    (0.0, 0.5, 1.15, 1.3),
    (-0.5, 0.0, 1.3, 1.5),
    (0.0, 0.5, 1.3, 1.5),
)
SWEEP_SCALE = (0.5, 8.0)
SEGMENT_POINTS = 41
SEGMENT_START = 0.2
SEGMENT_STEP = 0.005
SEGMENT_OFFSET = 0.1  # along omega2
SWEEP_SCAN_COUNT = 32
SWEEP_CHECKED_POINTS = (0, SEGMENT_POINTS // 2, SEGMENT_POINTS - 1)

# operations per round: one per context, one per sweep shape
ROUND_SIZE = {"verify-battery": len(VERIFY_CONTEXTS), "lattice-sweep": 2 + len(SWEEP_CELLS)}


def seeded_rng(*key: int) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def sampler_seed(seed: int, op: int, slot: int) -> int:
    """Non-negative sampler seed for one check of one operation."""
    return (seed % 1_000_003) * 100_000 + op * 16 + slot


def verify_op(seed: int, op: int) -> dict:
    """Inputs of verify-battery operation `op`: context and theorem-2 gammas.

    Gammas are lattice fractions (s, t). The passing triple sums to (1, 1);
    the failing one adds k/5 to the first coordinate, so its sum sits at
    least 1/5 away from the lattice.
    """
    name, w1, w2 = VERIFY_CONTEXTS[op % len(VERIFY_CONTEXTS)]
    rng = seeded_rng(seed, op, 1)
    g1 = (Fraction(rng.randint(1, 9), 10), Fraction(rng.randint(0, 9), 10))
    g2 = (Fraction(rng.randint(0, 9), 10), Fraction(rng.randint(1, 9), 10))
    g3 = (1 - g1[0] - g2[0], 1 - g1[1] - g2[1])
    g3_off = (g3[0] + Fraction(rng.randint(1, 4), 5), g3[1])
    return {
        "context": name,
        "omega": (w1, w2),
        "shift_frac": (Fraction(1, 3), Fraction(0)),
        "gammas_pass": (g1, g2, g3),
        "gammas_fail": (g1, g2, g3_off),
    }


def sweep_op(seed: int, op: int) -> dict:
    """Inputs of lattice-sweep operation `op`: generators and the wp segment.

    Every round visits the exact square shape, the exact hexagonal shape and
    one shape from each cell, so all seeds do the same mix of work; the seed
    picks the shape inside a cell, the scale and the rotation.
    """
    slot = op % ROUND_SIZE["lattice-sweep"]
    rng = seeded_rng(seed, op, 2)
    if slot == 0:
        kind, tau = "square", 1j
    elif slot == 1:
        kind, tau = "hexagonal", cmath.exp(1j * math.pi / 3.0)
    else:
        re_lo, re_hi, im_lo, im_hi = SWEEP_CELLS[slot - 2]
        re = rng.uniform(re_lo, re_hi)
        floor = math.sqrt(1.0 - re * re)
        im = rng.uniform(max(im_lo, floor), max(im_hi, floor + 0.05))
        kind, tau = f"cell{slot - 2}", complex(re, im)
    lo, hi = SWEEP_SCALE
    scale = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    w1 = scale * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    w2 = w1 * tau
    xs = tuple(
        w1 * (SEGMENT_START + SEGMENT_STEP * i) + SEGMENT_OFFSET * w2
        for i in range(SEGMENT_POINTS)
    )
    return {"kind": kind, "omega": (w1, w2), "segment": xs}
