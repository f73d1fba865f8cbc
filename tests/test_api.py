"""The package's public surface: ``__all__`` names exactly what ``import mubpurity`` binds."""

import types

import mubpurity
from mubpurity import expsim, linalg, relations


def test_every_listed_name_resolves_once():
    assert len(set(mubpurity.__all__)) == len(mubpurity.__all__)
    for name in mubpurity.__all__:
        assert hasattr(mubpurity, name), name


def test_every_public_attribute_is_listed():
    # the layer modules are attributes too, but not names of the interface
    public = {
        name for name, value in vars(mubpurity).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(mubpurity.__all__)) == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from mubpurity import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(mubpurity.__all__)


def test_test_only_helpers_are_gone():
    for module, name in [(relations, "post_measurement_state"), (linalg, "purity"), (linalg, "as_matrix"),
                         (expsim, "calibration_factors"), (expsim, "NOISELESS"),
                         (linalg, "partial_trace_matrix")]:
        assert not hasattr(module, name), name
        assert not hasattr(mubpurity, name), name
