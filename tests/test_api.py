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
    # the reference lattice sum and the cell representative live in tests/oracles.py
    for name in ("lattice_sum_reference", "reduce_to_cell"):
        assert name not in wpfeq.__all__ and not hasattr(wpfeq, name)
        assert not hasattr(wpfeq.elliptic, name)
