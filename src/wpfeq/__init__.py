"""Weierstrass elliptic functions, exact jet-polynomial identity
certification, and numerical verification of the determinant functional
equation on triples with x + y + z = 0."""

from .elliptic import (
    EllipticContext,
    Invariants,
    JetValues,
    Periods,
    ToleranceSet,
    from_invariants,
    from_periods,
    is_lattice_point,
    jets,
    lattice_sum_reference,
    reduce_to_cell,
    sigma,
    wp,
    wp_prime,
    zeta,
)
from .jetpoly import DiffPolynomial
from .verifier import (
    Constant,
    Exponential,
    Linear,
    ResidualReport,
    TripleSampler,
    WeierstrassShifted,
    det3,
    residual,
    scan,
    sigma_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "Constant",
    "DiffPolynomial",
    "EllipticContext",
    "Exponential",
    "Invariants",
    "JetValues",
    "Linear",
    "Periods",
    "ResidualReport",
    "ToleranceSet",
    "TripleSampler",
    "WeierstrassShifted",
    "__version__",
    "det3",
    "from_invariants",
    "from_periods",
    "is_lattice_point",
    "jets",
    "lattice_sum_reference",
    "reduce_to_cell",
    "residual",
    "scan",
    "sigma",
    "sigma_quotient",
    "wp",
    "wp_prime",
    "zeta",
]
