"""The package's public name list."""

import wpfeq


def test_every_public_name_resolves():
    assert len(set(wpfeq.__all__)) == len(wpfeq.__all__)
    for name in wpfeq.__all__:
        assert getattr(wpfeq, name, None) is not None, name


def test_star_import_exports_exactly_the_public_names():
    namespace = {}
    exec("from wpfeq import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(wpfeq.__all__)


def test_test_oracles_are_not_public():
    # the reference lattice sum, the cell representative and the shifted sigma scan live in
    # tests/oracles.py; lattice membership is `lattice_offset(ctx, z) <= LATTICE_TOL`
    for name in ("lattice_sum_reference", "reduce_to_cell", "is_lattice_point"):
        assert name not in wpfeq.__all__ and not hasattr(wpfeq, name)
        assert not hasattr(wpfeq.elliptic, name)
    assert not hasattr(wpfeq.verifier, "shifted_det_vs_sigma_scan")
