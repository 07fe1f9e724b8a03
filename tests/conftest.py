import cmath

import pytest

from wpfeq import elliptic

HEX_OMEGA2 = 2.0 * cmath.exp(1j * cmath.pi / 3.0)


@pytest.fixture(scope="session")
def square_ctx():
    return elliptic.from_periods(2.0, 2.0j)


@pytest.fixture(scope="session")
def hex_ctx():
    return elliptic.from_periods(2.0, HEX_OMEGA2)


@pytest.fixture(scope="session")
def generic_ctx():
    return elliptic.from_periods(2.0, 0.7 + 2.1j)


@pytest.fixture(scope="session")
def tall_ctx():
    return elliptic.from_periods(1.0, 8.0j)


@pytest.fixture(scope="session")
def rank_one_ctx():
    # zero discriminant: the lattice (pi/k)Z, k^2 = 9 g3/(2 g2) = 1.5
    return elliptic.from_invariants(3.0, 1.0)


@pytest.fixture(scope="session")
def degenerate_ctx():
    return elliptic.from_invariants(0.0, 0.0)


@pytest.fixture(scope="session")
def normal_form_ctx():
    # invariants (4, 0): poles well off the sampling grids used in tests
    return elliptic.from_invariants(4.0, 0.0)
