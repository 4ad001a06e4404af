"""YAML configuration parsing: defaults, collect-all validation, round-trip."""
import ast
import dataclasses
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import gibbsflow as gf
from gibbsflow import config

ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """
model:
  family: scalar
  a: 1.0
  b: {kind: linear, slope: 1.0}
"""

FULL = """
model:
  family: rotating
  lambdas: {start: 1.0, stop: 4.0, count: 6}
  b0: [0.5, 0.3, 0.8, 0.2, 0.9, 0.4]
  omega: 3.141592653589793
  t0: 0.5
alpha: 0.2
beta: 0.5
horizon: 1.0
s: 0.0
t: 1.0
scheme: [left, symmetric]
n_list: {start: 8, stop: 64, factor: 2}
tol_ref: 1.0e-8
slack: 0.1
grid: 81
seed: 7
output: {path: out.jsonl, format: csv}
verify:
  lemma_instances: 50
  dim_max: 8
  lifting_ns: [4, 8]
  cocycle_triples: 5
  contraction_ns: [4, 16]
"""


class TestDefaults:
    def test_minimal_fills_defaults(self):
        cfg = gf.parse_config(MINIMAL)
        assert cfg.model_family == "scalar"
        assert cfg.alpha == 0.0 and cfg.beta == 1.0
        assert cfg.s == 0.0 and cfg.t == 1.0 and cfg.horizon == 1.0
        assert cfg.schemes == ("left", "right", "symmetric")
        assert cfg.n_list == (8, 16, 32, 64, 128)
        assert cfg.tol_ref == 1e-10
        assert cfg.slack == 0.1
        assert cfg.grid == 101
        assert cfg.seed == 0
        assert cfg.output_path == "-" and cfg.output_format == "jsonl"
        assert cfg.verify.lemma_instances == 1000

    def test_full_document(self):
        cfg = gf.parse_config(FULL)
        assert cfg.model_family == "rotating"
        assert cfg.model_params["lambdas"] == [float(x) for x in np.linspace(1, 4, 6)]
        assert cfg.schemes == ("left", "symmetric")
        assert cfg.n_list == (8, 16, 32, 64)
        assert cfg.verify.lifting_ns == (4, 8)
        assert cfg.output_format == "csv"


class TestDefaultsAreStatedOnce:
    def test_a_model_section_alone_parses_to_the_field_defaults(self):
        cfg = gf.parse_config(MINIMAL)
        defaults = {f.name: f.default for f in dataclasses.fields(config.ExperimentConfig)
                    if f.default is not dataclasses.MISSING}
        assert {name: getattr(cfg, name) for name in defaults} == defaults
        assert cfg.verify == config.VerifySpec()

    def test_the_readme_defaults_block_equals_its_model_section_alone(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"defaults\s+shown\):\n\n```yaml\n(.*?)```", readme, re.S)
        data = yaml.safe_load(block.group(1))
        assert set(data) == set(config.TOP_KEYS)
        assert set(data["verify"]) == {f.name for f in dataclasses.fields(config.VerifySpec)}
        assert gf.config_from_dict(data) == gf.config_from_dict({"model": data["model"]})

    @pytest.mark.parametrize("kind", sorted(config.PROFILES))
    def test_profile_keys_follow_the_constructor_arguments(self, kind):
        # _time_profile passes the keys positionally, so a reordered
        # constructor would swap them.  A single key cannot be swapped, and
        # the constant's "value" is the constructor's "c".
        constructor, keys = config.PROFILES[kind]
        params = [name for name, p in inspect.signature(constructor).parameters.items()
                  if p.kind is p.POSITIONAL_OR_KEYWORD]
        assert len(params) == len(keys)
        if len(keys) > 1:
            assert list(keys) == params


class TestReadmeFamilies:
    def test_the_readme_family_table_lists_each_familys_keys_in_order(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = {}
        for family, key in re.findall(r"^\| `(\w+)` +\| `(\w+)` +\|", readme, re.M):
            table.setdefault(family, []).append(key)
        assert list(table.items()) == [(family, list(readers))
                                       for family, (_, readers, _) in config.FAMILIES.items()]


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL, FULL])
    def test_to_dict_reparses_equal(self, text):
        cfg = gf.parse_config(text)
        assert gf.config_from_dict(cfg.to_dict()) == cfg


class TestCollectAllValidation:
    def test_multiple_failures_reported_together(self):
        bad = """
model: {family: scalar, a: 0.5}
beta: 0
s: 1.0
t: 1.0
"""
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config(bad)
        messages = excinfo.value.messages
        assert any("beta" in m for m in messages)
        assert any("s < t" in m for m in messages)
        assert any("model.a" in m for m in messages)
        assert len(messages) >= 3

    def test_unknown_keys(self):
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config(MINIMAL + "\nbogus: 1\n")
        assert any("bogus" in m and "unknown key" in m for m in excinfo.value.messages)

    def test_bad_scheme(self):
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config(MINIMAL + "\nscheme: trotter\n")
        assert any("scheme" in m for m in excinfo.value.messages)

    def test_bad_n_list(self):
        # log(n)/n, the rate at the default beta = 1, vanishes at n = 1
        for snippet in ("n_list: [8, 8, 16]", "n_list: [16, 8]", "n_list: [0, 1, 2]",
                        "n_list: [8, 16]", "n_list: [1, 2, 4, 8]"):
            with pytest.raises(gf.ConfigError):
                gf.parse_config(MINIMAL + "\n" + snippet + "\n")

    def test_n_list_may_hold_1_below_beta_1(self):
        cfg = gf.parse_config(MINIMAL + "\nbeta: 0.5\nn_list: [1, 2, 4, 8]\n")
        assert cfg.n_list == (1, 2, 4, 8)

    @pytest.mark.parametrize("key, value, message", [
        ("contraction_ns", "[true, 4]",
         "must be integers >= 1 and <= 576460752303423487, got [True, 4]"),
        ("lifting_ns", "[4, true]",
         "must be even integers >= 4 and <= 576460752303423487, got [4, True]"),
    ])
    def test_verify_integer_lists_reject_booleans(self, key, value, message):
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config(MINIMAL + f"\nverify: {{{key}: {value}}}\n")
        assert excinfo.value.messages == [f"verify.{key}: {message}"]

    def test_t_beyond_horizon(self):
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config(MINIMAL + "\nhorizon: 0.5\n")
        assert any("horizon" in m for m in excinfo.value.messages)

    def test_invalid_yaml(self):
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config("model: [unclosed")
        assert any("invalid YAML" in m for m in excinfo.value.messages)

    def test_non_mapping_document(self):
        with pytest.raises(gf.ConfigError):
            gf.parse_config("- just\n- a\n- list\n")

    def test_commuting_validation(self):
        bad = """
model:
  family: commuting
  lambdas: [0.5, 2.0]
  d0: [0.1, -0.2]
  b: 1.0
"""
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config(bad)
        messages = excinfo.value.messages
        assert any("lambdas" in m for m in messages)
        assert any("d0" in m for m in messages)

    @pytest.mark.parametrize("document, spelling, message", [
        (MINIMAL + "tol_ref: V\n", ("1e-10", "1.0e-10"),
         "tol_ref: must be a number, got '1e-10' "
         "(YAML reads '1e-10' as a string; write it as 1.0e-10)"),
        ("model: {family: commuting, lambdas: [1.0, V], d0: [0.1, 0.2], b: 1.0}\n",
         ("2e3", "2.0e+03"),
         "model.lambdas: must be a list of numbers or {start, stop, count}, got "
         "[1.0, '2e3'] (YAML reads '2e3' as a string; write it as 2.0e+03)"),
    ], ids=["tol_ref", "lambdas"])
    def test_a_float_without_a_dot_gets_a_hint(self, document, spelling, message):
        # YAML 1.1 reads a float only with a dot and, after an e, a sign.
        written, hinted = spelling
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config(document.replace("V", written))
        assert excinfo.value.messages == [message]
        gf.parse_config(document.replace("V", hinted))

    def test_strings_that_are_no_number_get_no_hint(self):
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config(MINIMAL + "\ntol_ref: small\nslack: nan\n")
        assert excinfo.value.messages == ["tol_ref: must be a number, got 'small'",
                                          "slack: must be a number, got 'nan'"]


class TestBuildModel:
    def test_scalar(self):
        model = gf.build_model(gf.parse_config(MINIMAL))
        assert model.dim == 1
        assert model.exact is not None

    def test_commuting(self):
        text = """
model:
  family: commuting
  lambdas: [1.0, 2.0, 3.0]
  d0: [0.3, 0.2, 0.1]
  b: {kind: constant, value: 1.0}
"""
        model = gf.build_model(gf.parse_config(text))
        assert model.dim == 3
        assert np.allclose(model.generator.spectrum()[0], [1.0, 2.0, 3.0])

    def test_rotating_with_diagonal_b0(self):
        model = gf.build_model(gf.parse_config(FULL))
        assert model.dim == 6
        assert model.exact is None

    def test_rotating_with_dense_b0(self):
        text = """
model:
  family: rotating
  lambdas: [1.0, 2.0]
  b0: [[0.5, 0.1], [0.1, 0.3]]
  omega: 1.0
  t0: 0.5
beta: 0.5
"""
        model = gf.build_model(gf.parse_config(text))
        # at t = 0 the rotation is the identity and the envelope is 1 + 0.5^{1/2}
        b = gf.perturbation_entries(model, [0.0])[0]
        env = 1.0 + 0.5 ** 0.5
        assert np.allclose(b, env * np.array([[0.5, 0.1], [0.1, 0.3]]), atol=1e-14)

    def test_kink_profile_inherits_top_level_beta(self):
        text = """
model:
  family: scalar
  a: 1.0
  b: {kind: kink, t0: 0.5}
beta: 0.5
"""
        cfg = gf.parse_config(text)
        assert cfg.model_params["b"]["beta"] == 0.5
        model = gf.build_model(cfg)
        assert model.perturbation.beta == 0.5

    def test_model_declares_the_kinks_beta_without_top_level_beta(self):
        text = """
model:
  family: commuting
  lambdas: [1.0, 2.0]
  d0: [0.3, 0.2]
  b: {kind: kink, t0: 0.4, beta: 0.5}
"""
        cfg = gf.parse_config(text)
        assert cfg.beta == 0.5 and cfg.to_dict()["beta"] == 0.5
        assert gf.config_from_dict(cfg.to_dict()) == cfg
        model = gf.build_model(cfg)
        assert model.perturbation.beta == 0.5
        assert model.descriptor.endswith("beta=0.5)")

    def test_top_level_beta_above_the_kinks_is_rejected(self):
        text = """
model:
  family: scalar
  a: 1.0
  b: {kind: kink, t0: 0.4, beta: 0.5}
beta: 0.75
"""
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config(text)
        assert excinfo.value.messages == ["beta: must be <= the kink's beta 0.5, got 0.75"]


SCALAR_SWEEP = """
model:
  family: scalar
  a: 1.5
  b: {kind: kink, t0: 0.4, beta: 0.5, scale: 2.0, offset: 0.1}
s: 0.1
n_list: [8, 16, 32]
scheme: left
"""

COMMUTING_SWEEP = """
model:
  family: commuting
  lambdas: {start: 1.0, stop: 3.0, count: 4}
  d0: [0.4, 0.3, 0.2, 0.1]
  b: {kind: linear, slope: 1.0, offset: 0.5}
horizon: 2.0
t: 1.5
tol_ref: 1.0e-8
grid: 11
"""

# YAML spellings of a wrong value: a boolean, a string, NaN, a fraction where
# an integer may be needed, a negative number, a float YAML reads as the string
# '1e400', and an integer too large for a float.
SWEEP_VALUES = ["true", '"x"', ".nan", "2.5", "-1", "1e400", "9" * 400]


def _escape(text):
    """None when ``text`` parses and builds, raises ``ConfigError`` from
    ``parse_config`` or ``ValidationError`` from ``build_model``; else the
    exception that escaped."""
    try:
        cfg = gf.parse_config(text)
    except gf.ConfigError:
        return None
    except Exception as exc:  # any other class is what the sweep looks for
        return exc
    try:
        gf.build_model(cfg)
    except gf.ValidationError:
        return None
    except Exception as exc:
        return exc
    return None


class TestMutatedDocuments:
    @pytest.mark.parametrize("name", ["readme", "scalar", "commuting"])
    def test_every_mutation_parses_and_builds_or_is_a_validation_error(self, name):
        # Each top-level and model key, deleted or set to each wrong value.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        text = {"readme": re.search(r"defaults\s+shown\):\n\n```yaml\n(.*?)```", readme,
                                    re.S).group(1),
                "scalar": SCALAR_SWEEP, "commuting": COMMUTING_SWEEP}[name]
        base = yaml.safe_load(text)
        escaped = []
        for path in [(key,) for key in base] + [("model", key) for key in base["model"]]:
            for value in ["deleted", *SWEEP_VALUES]:
                data = yaml.safe_load(text)
                node = data if len(path) == 1 else data["model"]
                if value == "deleted":
                    del node[path[-1]]
                else:
                    node[path[-1]] = yaml.safe_load(value)
                exc = _escape(yaml.safe_dump(data))
                if exc is not None:
                    escaped.append(f"{'.'.join(path)} = {value[:12]}: {exc!r:.200}")
        assert not escaped, "\n".join(escaped)


def _config_documents() -> list:
    """Every configuration document of the test modules (string constants
    naming a model family), the README's YAML examples, and one input of
    each benchmark workload."""
    docs = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        docs += [node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and "model:" in node.value and "family" in node.value]
    readme = re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.S)
    assert readme
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    goldens = wl.load_goldens()
    inputs = [wl.smooth_config(1), wl.kinked_input(1, goldens), wl.wide_config(1),
              wl.series_input(1, goldens)]
    return docs + readme + [wl.config_text(data) for data in inputs]


def _load(text, loader):
    """The document's data, or the class of the YAML error it raises."""
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        return type(exc)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestLoaders:
    def test_libyaml_and_python_loaders_agree(self):
        docs = _config_documents()
        assert len(docs) >= 15
        for text in docs:
            assert _load(text, yaml.CSafeLoader) == _load(text, yaml.SafeLoader), text

    @pytest.mark.parametrize("text", ["model: [unclosed", "model: {family: scalar",
                                      "a: b: c", "\tmodel: 1"])
    @pytest.mark.parametrize("libyaml", [True, False])
    def test_invalid_yaml_is_a_config_error(self, text, libyaml, monkeypatch):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader")
        with pytest.raises(gf.ConfigError) as excinfo:
            gf.parse_config(text)
        assert any("invalid YAML" in m for m in excinfo.value.messages)
