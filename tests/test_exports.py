"""The package's _EXPORTS table is the one record of where a name lives.

cli and bundle resolve every exported name they do not define through it, so
the names bench/spans.py patches in those modules keep working.  grassmann
forwards nothing: the point types and helpers that moved to projective are
imported from there.
"""

import importlib

import pytest

import swbundle


@pytest.mark.parametrize("module_name", ["cli", "bundle"])
def test_every_export_resolves_to_one_object(module_name):
    module = importlib.import_module(f"swbundle.{module_name}")
    for home, names in swbundle._EXPORTS.items():
        defining = importlib.import_module(f"swbundle.{home}")
        for name in names:
            assert name in vars(defining), (home, name)
            assert getattr(module, name) is getattr(swbundle, name) is vars(defining)[name]


@pytest.mark.parametrize("name", ["GrassmannPoint", "MatrixPoint", "gamma_dist",
                                  "line_projector", "medial_distance",
                                  "project_grassmannian", "tmax"])
def test_grassmann_forwards_no_name(name):
    import swbundle.grassmann as grassmann
    import swbundle.projective as projective

    assert callable(getattr(projective, name))
    assert not hasattr(grassmann, name)  # so "from swbundle.grassmann import name" fails


@pytest.mark.parametrize("module_name", ["", ".cli", ".bundle", ".grassmann"])
def test_unknown_name_is_an_attribute_error(module_name):
    module = importlib.import_module(f"swbundle{module_name}")
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
