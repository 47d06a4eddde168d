"""The package's _EXPORTS table is the one record of where a name lives.

cli, bundle and grassmann resolve every exported name they do not define
through it, so old import paths (the oracle helpers that moved to
projective) and the names bench/spans.py patches in those modules keep
working.
"""

import importlib

import pytest

import swbundle


@pytest.mark.parametrize("module_name", ["cli", "bundle", "grassmann"])
def test_every_export_resolves_to_one_object(module_name):
    module = importlib.import_module(f"swbundle.{module_name}")
    for home, names in swbundle._EXPORTS.items():
        defining = importlib.import_module(f"swbundle.{home}")
        for name in names:
            assert name in vars(defining), (home, name)
            assert getattr(module, name) is getattr(swbundle, name) is vars(defining)[name]


@pytest.mark.parametrize("module_name", ["", ".cli", ".bundle", ".grassmann"])
def test_unknown_name_is_an_attribute_error(module_name):
    module = importlib.import_module(f"swbundle{module_name}")
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
