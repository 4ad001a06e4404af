"""End-to-end command-line behaviour: subcommands, exit codes, determinism."""
import dataclasses
import io
import json
import logging
import sys

import pytest

import gibbsflow as gf
from gibbsflow import cli, propagator
from gibbsflow.config import config_from_dict, parse_config
from gibbsflow.errors import AccuracyError, DecompositionError, DomainError

from conftest import python_output

CONFIG = """
model:
  family: scalar
  a: 1.0
  b: {kind: linear, slope: 1.0}
n_list: [8, 16, 32]
scheme: [left, symmetric]
seed: 5
verify:
  lemma_instances: 25
  dim_max: 6
  lifting_ns: [4, 8]
  cocycle_triples: 2
  contraction_ns: [4]
"""

ROTATING = """
model:
  family: rotating
  lambdas: {start: 1.0, stop: 2.0, count: 3}
  b0: [0.5, 0.3, 0.8]
  omega: 3.0
  t0: 0.5
n_list: [8, 16, 32]
tol_ref: 1.0e-12
"""


# A convergence record with one err_tr value fewer than its n_list.
SHORT_ERR_TR = {"kind": "convergence", "model": "m", "scheme": "left", "s": 0.0, "t": 1.0,
                "n_list": [4, 8], "err_op": [0.1, 0.05], "err_tr": [0.1],
                "fitted_slope": -1.0, "regime": None}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG)
    return str(path)


class TestRun:
    def test_exit_zero_and_valid_jsonl(self, config_path, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert cli.main(["run", "--config", config_path, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "meta"
        assert records[1]["kind"] == "constants"
        kinds = [r["kind"] for r in records[2:]]
        assert kinds == ["convergence", "convergence"]
        assert [r["scheme"] for r in records[2:]] == ["left", "symmetric"]

    def test_byte_identical_across_runs(self, config_path, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert cli.main(["run", "--config", config_path,
                             "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stdout_output(self, config_path, capsys):
        assert cli.main(["run", "--config", config_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(json.loads(line)["kind"] in ("meta", "constants", "convergence")
                   for line in lines)

    def test_seed_override_changes_meta(self, config_path, capsys):
        cli.main(["run", "--config", config_path, "--seed", "99"])
        out = capsys.readouterr().out
        meta = json.loads(out.splitlines()[0])
        assert meta["seed"] == 99

    @pytest.mark.parametrize("seed, line", [
        ("18446744073709551616", "error: seed: must be <= 18446744073709551615, "
                                 "got 18446744073709551616"),
        ("-1", "error: seed: must be >= 0, got -1"),
    ], ids=["above-2**64-1", "negative"])
    def test_seed_override_obeys_the_config_seed_rule(self, seed, line, config_path, capsys):
        assert cli.main(["constants", "--config", config_path, "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line] and captured.out == ""

    def test_seed_override_echo_reparses_to_the_run_config(self, config_path, capsys):
        seed = str(2 ** 64 - 1)
        assert cli.main(["constants", "--config", config_path, "--seed", seed]) == 0
        meta = json.loads(capsys.readouterr().out.splitlines()[0])
        expected = dataclasses.replace(parse_config(CONFIG), seed=2 ** 64 - 1)
        assert meta["seed"] == 2 ** 64 - 1
        assert config_from_dict(meta["config"]) == expected

    def test_csv_format_flag(self, config_path, capsys):
        assert cli.main(["run", "--config", config_path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scheme,n,err_op,err_tr,epsilon_theory,ratio")


class TestVerify:
    def test_exit_zero_all_hold(self, config_path, capsys):
        assert cli.main(["verify", "--config", config_path]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        kinds = {r["kind"] for r in records}
        assert {"meta", "lemma21", "lifting", "cocycle", "contraction"} <= kinds
        assert all(r.get("holds", True) for r in records)
        # 1 lemma + 2 schemes x 2 lifting ns + 2 cocycle + 2 schemes x 1 contraction
        assert len(records) == 1 + 1 + 4 + 2 + 2


    def test_kinked_commuting_cocycles_hold(self, tmp_path, capsys):
        # b(t) = 0.5 + |t - 0.37| is linear on each side of its kink, so an
        # oracle that cuts there is exact up to rounding.
        path = tmp_path / "kinked.yaml"
        path.write_text(KINKED_COMMUTING)
        assert cli.main(["verify", "--config", str(path)]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        cocycles = [r for r in records if r["kind"] == "cocycle"]
        assert len(cocycles) == 5
        assert all(r["holds"] is True for r in cocycles)


KINKED_COMMUTING = """
model:
  family: commuting
  lambdas: {start: 1.0, stop: 8.0, count: 8}
  d0: [0.1, 0.2286, 0.3571, 0.4857, 0.6143, 0.7429, 0.8714, 1.0]
  b: {kind: kink, t0: 0.37, beta: 1.0, offset: 0.5}
beta: 1.0
seed: 0
verify:
  lemma_instances: 10
  lifting_ns: [4]
  cocycle_triples: 5
  contraction_ns: [4]
"""


class TestConstants:
    def test_reports_xi(self, config_path, capsys):
        assert cli.main(["constants", "--config", config_path]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert records[1]["kind"] == "constants"
        assert records[1]["xi"] == pytest.approx(1.0, rel=1e-10)


class TestReport:
    def test_reemits_csv(self, config_path, tmp_path, capsys):
        stored = tmp_path / "stored.jsonl"
        assert cli.main(["run", "--config", config_path,
                         "--output", str(stored)]) == 0
        assert cli.main(["report", str(stored), "--format", "csv"]) == 0
        reemitted = capsys.readouterr().out
        assert cli.main(["run", "--config", config_path, "--format", "csv"]) == 0
        direct = capsys.readouterr().out
        assert reemitted == direct

    def test_rejects_garbage_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert cli.main(["report", str(bad)]) == 1

    def test_missing_input_is_io_error(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "missing.jsonl")]) == 3

    @pytest.mark.parametrize("command, data, fragment", [
        (["report", "-", "--format", "csv"], b'{"kind":"convergence"}\n',
         "line 1: convergence record lacks model, scheme"),
        (["report", "-", "--format", "plot"], b'{"kind":"convergence"}\n',
         "line 1: convergence record lacks model, scheme"),
        (["report", "-", "--format", "csv"], json.dumps(SHORT_ERR_TR).encode() + b"\n",
         "line 1: convergence record's err_tr must be a list of floats as long as n_list"),
        (["report", "{path}"], b"\xff\xfe", "not UTF-8 text"),
        (["constants", "--config", "{path}"], b"\xff\xfe", "not UTF-8 text"),
        (["report", "-"], b"\xff\xfe", "stdin: not UTF-8 text"),
        (["constants", "--config", "-"], b"\xff\xfe", "stdin: not UTF-8 text"),
    ], ids=["csv-bare-convergence", "plot-bare-convergence", "short-err-tr",
            "report-not-utf8", "config-not-utf8", "report-stdin-not-utf8",
            "config-stdin-not-utf8"])
    def test_unreadable_inputs_exit_one_without_traceback(self, command, data, fragment,
                                                          tmp_path, monkeypatch, capsys):
        path = tmp_path / "input"
        path.write_bytes(data)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert cli.main([arg.format(path=path) for arg in command]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0]
        assert "Traceback" not in captured.err and captured.out == ""


class TestExitCodes:
    def test_invalid_config_collects_all_messages(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("model: {family: scalar, a: 0.5}\nbeta: 0\ns: 2.0\n")
        assert cli.main(["run", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "model.a" in err and "beta" in err and "s" in err

    @pytest.mark.parametrize("document, line", [
        ("model: {family: commuting, lambdas: [], d0: [], b: 1.0}",
         "error: model.lambdas: must not be empty"),
        ("model: {family: rotating, lambdas: [], b0: [1.0, 2.0], omega: 1.0}",
         "error: model.lambdas: must not be empty"),
        # Only a count no array can hold: numpy refuses it before allocating.
        ("model: {family: commuting, lambdas: {start: 1, stop: 2,"
         " count: 100000000000000000000}, d0: [1.0], b: 1.0}",
         "error: model.lambdas.count: is too large (Maximum allowed size exceeded), "
         "got 100000000000000000000"),
    ], ids=["commuting-empty", "rotating-empty", "count-1e20"])
    def test_unbuildable_eigenvalue_lists_are_config_errors(self, document, line,
                                                            tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(document + "\n")
        assert cli.main(["constants", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert line in captured.err.splitlines()
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("value, shown", [(".inf", "inf"), (".nan", "nan")])
    @pytest.mark.parametrize("key, document", [
        ("d0", "{family: commuting, lambdas: [1.0, 2.0], d0: [V, 0.2], b: 1.0}"),
        ("lambdas", "{family: commuting, lambdas: [1.0, V], d0: [0.1, 0.2], b: 1.0}"),
        ("b0", "{family: rotating, lambdas: [1.0, 2.0], b0: [V, 0.2], omega: 1.0}"),
        ("b0", "{family: rotating, lambdas: [1.0, 2.0], b0: [[V, 0.0], [0.0, 0.2]],"
               " omega: 1.0}"),
    ], ids=["d0", "lambdas", "b0", "b0-matrix"])
    @pytest.mark.parametrize("command", ["run", "constants"])
    def test_non_finite_model_lists_are_config_errors(self, command, key, document, value,
                                                      shown, tmp_path, capsys):
        # The closed-form routes of a commuting model never check B's entries,
        # so the configuration must reject a non-finite d0 itself.
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"model: {document.replace('V', value)}\n")
        assert cli.main([command, "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: model.{key}: must be finite, got {shown}"]
        assert captured.out == ""

    @pytest.mark.parametrize("command, document, line", [
        ("run", "model: {family: scalar, a: 1.0, b: {kind: linear, slope: 1.0, offset: 0.5}}\n"
                "n_list: [1, 2, 4, 8]",
         "error: n_list: must not hold 1 at beta = 1 (the log(n)/n rate is defined for "
         "n >= 2), got [1, 2, 4, 8]"),
        ("verify", "model: {family: scalar, a: 1.0, b: {kind: linear, slope: 1.0}}\n"
                   "verify: {contraction_ns: [true, 4]}",
         "error: verify.contraction_ns: must be integers >= 1, got [True, 4]"),
    ], ids=["n-1-at-beta-1", "boolean-contraction-n"])
    def test_inputs_rejected_before_any_job(self, command, document, line, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(document + "\n")
        assert cli.main([command, "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line]
        assert captured.out == ""

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.yaml")]) == 3

    def test_unwritable_output(self, config_path, tmp_path):
        target = str(tmp_path / "no_dir" / "out.jsonl")
        assert cli.main(["run", "--config", config_path, "--output", target]) == 3

    @pytest.mark.parametrize("command", ["run", "verify", "constants"])
    def test_output_checked_before_computing(self, command, config_path, tmp_path,
                                             monkeypatch, capsys):
        def must_not_build(*args, **kwargs):
            raise AssertionError("model built before the output path was checked")

        monkeypatch.setattr(cli, "build_model", must_not_build)
        missing = str(tmp_path / "no_dir" / "out.jsonl")
        assert cli.main([command, "--config", config_path, "--output", missing]) == 3
        assert "error: output directory" in capsys.readouterr().err
        assert cli.main([command, "--config", config_path, "--output", str(tmp_path)]) == 3
        assert "is a directory" in capsys.readouterr().err

    def test_accuracy_failure_returns_two(self, config_path, monkeypatch, capsys):
        def always_fails(*args, **kwargs):
            raise AccuracyError("reference did not converge",
                                requested=1e-10, achieved=1e-3)

        monkeypatch.setattr(cli, "run_convergence", always_fails)
        assert cli.main(["run", "--config", config_path]) == 2
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        failures = [r for r in records if r["kind"] == "failure"]
        assert failures and failures[0]["error"] == "AccuracyError"

    def test_oracle_failure_is_one_computation_and_three_records(self, tmp_path,
                                                                 monkeypatch, capsys,
                                                                 cf4_products):
        monkeypatch.setattr(propagator, "REFERENCE_DOUBLINGS", 1)
        path = tmp_path / "rotating.yaml"
        path.write_text(ROTATING)
        assert cli.main(["run", "--config", str(path)]) == 2
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        failures = [r for r in records if r["kind"] == "failure"]
        assert [r["stage"] for r in failures] == ["run:left", "run:right", "run:symmetric"]
        assert all(r["error"] == "AccuracyError" for r in failures)
        assert len({tuple(r["messages"]) for r in failures}) == 1
        assert sorted(cf4_products) == [(0.0, 0.5, 8), (0.0, 0.5, 16),
                                        (0.5, 1.0, 8), (0.5, 1.0, 16)]

    def test_decomposition_error_in_a_job_returns_two(self, config_path, monkeypatch,
                                                      capsys):
        def breaks(*args, **kwargs):
            raise DecompositionError("eigendecomposition did not converge", dim=3)

        monkeypatch.setattr(cli, "run_convergence", breaks)
        assert cli.main(["run", "--config", config_path]) == 2
        captured = capsys.readouterr()
        records = [json.loads(l) for l in captured.out.splitlines()]
        failures = [r for r in records if r["kind"] == "failure"]
        assert len(failures) == 2  # one per configured scheme
        assert all(r["error"] == "DecompositionError" for r in failures)
        assert "Traceback" not in captured.err

    def test_domain_error_outside_jobs_returns_one(self, config_path, monkeypatch, capsys):
        def breaks(*args, **kwargs):
            raise DomainError("power -0.5 is undefined at non-positive eigenvalue 0.0")

        monkeypatch.setattr(cli, "build_model", breaks)
        assert cli.main(["constants", "--config", config_path]) == 1
        captured = capsys.readouterr()
        assert "error: power -0.5" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_failed_constants_estimate_is_a_record(self, tmp_path, monkeypatch, capsys):
        def breaks(*args, **kwargs):
            raise DecompositionError("eigendecomposition did not converge", dim=1)

        monkeypatch.setattr(cli, "estimate_constants", breaks)
        path = tmp_path / "all.yaml"
        path.write_text(CONFIG.replace("scheme: [left, symmetric]", "scheme: all"))
        assert cli.main(["run", "--config", str(path)]) == 2
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [r["kind"] for r in records] == ["meta", "failure"] + ["convergence"] * 3
        assert records[1]["stage"] == "constants"
        assert records[1]["error"] == "DecompositionError"


# A size no array can hold: numpy refuses it before allocating anything.
HUGE = 10 ** 15


class TestUnallocatableSizes:
    """An unallocatable size exits 1 without a traceback; a job that hits it
    becomes a ``MemoryError`` failure record and the other jobs' records are
    written."""

    @pytest.mark.parametrize("command, edit, failed, records", [
        ("constants", ("seed: 5", f"seed: 5\ngrid: {HUGE}"), ["constants"], 2),
        ("run", ("seed: 5", f"seed: 5\ngrid: {HUGE}"), ["constants"], 4),
        ("run", ("n_list: [8, 16, 32]", f"n_list: [8, 16, {HUGE}]"),
         ["run:left", "run:symmetric"], 4),
        ("verify", ("lifting_ns: [4, 8]", f"lifting_ns: [4, {HUGE}]"),
         [f"lifting:left:n={HUGE}", f"lifting:symmetric:n={HUGE}"], 10),
        ("verify", ("contraction_ns: [4]", f"contraction_ns: [4, {HUGE}]"),
         [f"contraction:left:n={HUGE}", f"contraction:symmetric:n={HUGE}"], 12),
        ("verify", ("dim_max: 6", "dim_max: 1000000000"), ["lemma21"], 10),
    ], ids=["constants-grid", "run-grid", "n_list", "lifting_ns", "contraction_ns",
            "dim_max"])
    def test_a_job_fails_with_a_record(self, command, edit, failed, records, tmp_path,
                                       capsys):
        path = tmp_path / "huge.yaml"
        path.write_text(CONFIG.replace(*edit))
        assert cli.main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        written = [json.loads(l) for l in captured.out.splitlines()]
        failures = [r for r in written if r["kind"] == "failure"]
        assert [(r["stage"], r["error"]) for r in failures] == [
            (stage, "MemoryError") for stage in failed]
        assert len(written) == records
        assert "Traceback" not in captured.err

    def test_a_model_too_large_to_build_is_an_error_line(self, tmp_path, capsys):
        # The lists parse (10^6 entries each); diag(lambdas) cannot be allocated.
        path = tmp_path / "huge.yaml"
        path.write_text("model: {family: commuting, b: 1.0,"
                        " lambdas: {start: 1, stop: 2, count: 1000000},"
                        " d0: {start: 0, stop: 1, count: 1000000}}\n")
        assert cli.main(["constants", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: MemoryError: ")
        assert captured.out == ""

    def test_an_unallocatable_count_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "huge.yaml"
        path.write_text(f"model: {{family: commuting, b: 1.0, d0: [1.0],"
                        f" lambdas: {{start: 1, stop: 2, count: {HUGE}}}}}\n")
        assert cli.main(["constants", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: model.lambdas.count: is too large (")
        assert lines[0].endswith(f"), got {HUGE}") and captured.out == ""


class TestRecordSchema:
    # Six of these key sets are the field names of ConstantsReport,
    # ConvergenceReport, Lemma21Ensemble, LiftingCheck, CocycleCheck and
    # ContractionCheck; renaming a field must show up here, not silently in
    # stored JSONL.
    KEYS = {
        "meta": {"config", "kind", "package", "schema", "seed", "version"},
        "constants": {"alpha", "beta", "c_alpha", "grid", "kind", "l_alpha_beta",
                      "m_alpha", "s", "t", "xi"},
        "convergence": {"bound_satisfied", "err_op", "err_tr", "exact_reproduction",
                        "fitted_prefactor", "fitted_slope", "kind", "model", "n_list",
                        "notes", "oracle", "r_squared", "regime", "regimes", "s",
                        "scheme", "slack", "t"},
        "lemma21": {"count", "dim_max", "failures", "holds", "holds_count", "kind",
                    "min_margin", "seed"},
        "lifting": {"c_ts", "half_op_errors", "half_tr_norms", "holds", "k_n", "kind",
                    "lhs", "n", "rhs", "scheme"},
        "cocycle": {"budget", "contraction_ok", "holds", "kind", "norm", "r",
                    "residual", "s", "t"},
        "contraction": {"bound", "holds", "kind", "n", "norm", "s", "scheme", "t"},
        "failure": {"error", "kind", "messages", "stage"},
    }
    # The fields of RegimeResult.
    REGIME_KEYS = {"bound_satisfied", "epsilon", "label", "prefactor", "test_ns", "train_ns"}

    def test_key_set_of_every_record_kind(self, config_path, monkeypatch, capsys):
        records = []
        for command in ("run", "verify", "constants"):
            assert cli.main([command, "--config", config_path]) == 0
            records += [json.loads(l) for l in capsys.readouterr().out.splitlines()]

        def breaks(*args, **kwargs):
            raise DecompositionError("eigendecomposition did not converge", dim=1)

        monkeypatch.setattr(cli, "estimate_constants", breaks)
        assert cli.main(["constants", "--config", config_path]) == 2
        records += [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert {r["kind"] for r in records} == set(self.KEYS)
        for record in records:
            assert set(record) == self.KEYS[record["kind"]], record["kind"]
        regimes = [r for record in records if record["kind"] == "convergence"
                   for r in record["regimes"]]
        assert regimes and all(set(r) == self.REGIME_KEYS for r in regimes)


class TestVerbose:
    def test_timings_go_to_stderr_not_stdout(self, config_path, capsys):
        assert cli.main(["run", "--config", config_path, "--verbose"]) == 0
        captured = capsys.readouterr()
        assert "finished in" in captured.err
        for line in captured.out.splitlines():
            json.loads(line)  # stdout stays pure jsonl

    def test_progress_and_failure_lines(self, config_path, monkeypatch, capsys):
        def always_fails(*args, **kwargs):
            raise AccuracyError("reference did not converge", requested=1e-10, achieved=1e-3)

        monkeypatch.setattr(cli, "run_convergence", always_fails)
        assert cli.main(["run", "--config", config_path]) == 2
        failure = ("ERROR gibbsflow: stage run:left failed: reference did not converge "
                   "(requested=1.000e-10, achieved=1.000e-03)")
        assert capsys.readouterr().err.splitlines()[0] == failure
        assert cli.main(["run", "--config", config_path, "--verbose"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("INFO gibbsflow: constants finished in ")
        assert lines[1] == failure
        assert lines[-1].startswith("INFO gibbsflow: run completed in ")

    def test_root_logging_handlers_are_left_alone(self, config_path, capsys):
        root = logging.getLogger()
        handler = logging.NullHandler()
        root.addHandler(handler)
        try:
            assert cli.main(["constants", "--config", config_path, "--verbose"]) == 0
            assert handler in root.handlers
        finally:
            root.removeHandler(handler)

    def test_import_does_not_load_logging(self):
        code = "import sys, gibbsflow.cli; print('logging' in sys.modules)"
        assert python_output(code) == ["False"]
