"""The package namespace: every public name resolves, submodules load lazily."""
import ast
import importlib
import re
from pathlib import Path

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


def test_the_readme_library_tour_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(tour, "README.md", "exec"), {})
    slope, regime, bound_satisfied = capsys.readouterr().out.split()
    assert -1.1 < float(slope) < -0.9
    assert (regime, bound_satisfied) == ("log(n)/n", "True")


def test_every_error_class_is_raised_somewhere():
    from gibbsflow import errors

    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert set(errors.__all__) - {"GibbsflowError"} <= raised


def test_sources_parse_as_python_3_10():
    # The package and the benchmark support Python 3.10 (pyproject), so
    # syntax that needs 3.11, such as ``except*``, must fail here as well.
    root = Path(__file__).resolve().parents[1]
    paths = sorted([*(root / "src" / "gibbsflow").rglob("*.py"),
                    *(root / "perfbench").rglob("*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
