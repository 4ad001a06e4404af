"""The package namespace: every public name resolves, submodules load lazily."""
import importlib

import pytest

import gibbsflow as gf

from conftest import python_output


def test_every_public_name_resolves():
    for name in gf.__all__:
        assert getattr(gf, name) is not None
    namespace = {}
    exec("from gibbsflow import *", namespace)
    assert set(gf.__all__) <= set(namespace)


def test_names_come_from_their_submodules():
    from gibbsflow import analysis, dyson, models

    assert gf.lemma21_ensemble is analysis.lemma21_ensemble
    assert gf.dyson_phillips_sum is dyson.dyson_phillips_sum
    assert gf.Generator is models.Generator


def test_dir_lists_every_public_name():
    assert set(gf.__all__) <= set(dir(gf))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gf.no_such_name


def test_library_use_leaves_configuration_and_analysis_unloaded():
    code = ("import sys, gibbsflow as gf; "
            "gf.commuting_model, gf.dyson_phillips_sum, gf.integral_equation_residual; "
            "print(*(m in sys.modules for m in "
            "('yaml', 'gibbsflow.config', 'gibbsflow.analysis', 'gibbsflow.dyson')))")
    assert python_output(code) == ["False", "False", "False", "True"]


def test_every_export_is_in_its_submodules_all():
    for module, names in gf._EXPORTS.items():
        exported = importlib.import_module(f"gibbsflow.{module}").__all__
        assert set(names) <= set(exported), module
