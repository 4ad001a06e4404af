"""Record construction and the jsonl/csv/plot emitters."""
import io
import json

import pytest

import gibbsflow as gf
from gibbsflow import reports
from gibbsflow.reports import (
    ReportEnvelope,
    convergence_record,
    failure_record,
    lemma21_record,
    meta_record,
    read_jsonl,
    result_record,
    write_csv,
    write_jsonl,
    write_plot,
)


@pytest.fixture
def sample_records(scalar_linear):
    cfg = gf.parse_config("model: {family: scalar, a: 1.0, b: {kind: linear, slope: 1.0}}")
    report = gf.run_convergence(scalar_linear, gf.Scheme.LEFT, 0.0, 1.0,
                                [8, 16, 32, 64])
    return [
        meta_record(cfg.to_dict(), cfg.seed),
        result_record("constants", gf.estimate_constants(scalar_linear, 0.0, 1.0)),
        convergence_record(report),
    ]


class TestRecords:
    def test_kinds(self, sample_records):
        assert [r["kind"] for r in sample_records] == ["meta", "constants",
                                                       "convergence"]

    def test_all_values_plain(self, sample_records):
        # every record must already be JSON-compatible
        for record in sample_records:
            json.dumps(record)

    def test_convergence_record_contents(self, sample_records):
        record = sample_records[2]
        assert record["scheme"] == "left"
        assert len(record["err_tr"]) == len(record["n_list"]) == 4
        assert record["regime"] == "log(n)/n"
        assert record["regimes"][0]["epsilon"][0] > 0

    def test_failure_record_collects_messages(self):
        try:
            gf.parse_config("model: {family: scalar, a: 0.5}\nbeta: 0\n")
        except gf.ConfigError as exc:
            record = failure_record("parse", exc)
        assert record["kind"] == "failure"
        assert record["error"] == "ConfigError"
        assert len(record["messages"]) >= 2

    def test_lemma21_record(self):
        record = lemma21_record(gf.lemma21_ensemble(count=10, seed=1, dim_max=4))
        assert record["holds"] is True
        assert record["failures"] == 0

    def test_contraction_record(self, commuting_small):
        check = gf.verify_contraction(commuting_small, gf.Scheme.LEFT, 0.0, 1.0, 8)
        record = result_record("contraction", check)
        assert record["holds"] is True and record["n"] == 8


class TestJsonl:
    def test_roundtrip(self, sample_records):
        buf = io.StringIO()
        write_jsonl(sample_records, buf)
        buf.seek(0)
        loaded = read_jsonl(buf)
        assert len(loaded) == len(sample_records)
        assert loaded[0] == sample_records[0]

    def test_byte_deterministic(self, sample_records):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_jsonl(sample_records, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_keys_sorted(self, sample_records):
        buf = io.StringIO()
        write_jsonl(sample_records, buf)
        first = json.loads(buf.getvalue().splitlines()[0])
        assert list(first) == sorted(first)

    def test_read_rejects_garbage(self):
        with pytest.raises(gf.ValidationError):
            read_jsonl(io.StringIO("not json\n"))
        with pytest.raises(gf.ValidationError):
            read_jsonl(io.StringIO('{"kind": "mystery"}\n'))


class TestCsv:
    def test_header_and_rows(self, sample_records):
        buf = io.StringIO()
        write_csv(sample_records, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "scheme,n,err_op,err_tr,epsilon_theory,ratio"
        assert len(lines) == 1 + 4  # one row per n, non-convergence records skipped

    def test_ratio_column(self, sample_records):
        buf = io.StringIO()
        write_csv(sample_records, buf)
        row = buf.getvalue().splitlines()[1].split(",")
        err_tr, eps, ratio = float(row[3]), float(row[4]), float(row[5])
        assert ratio == pytest.approx(err_tr / eps, rel=1e-12)


class TestPlot:
    def test_block_structure(self, sample_records):
        buf = io.StringIO()
        write_plot(sample_records, buf)
        text = buf.getvalue()
        assert text.startswith("# convergence model=")
        assert "# n err_op err_tr epsilon_theory" in text
        data_rows = [l for l in text.splitlines()
                     if l and not l.startswith("#")]
        assert len(data_rows) == 4
        assert data_rows[0].split()[0] == "8"

    def test_full_precision(self, sample_records):
        buf = io.StringIO()
        write_plot(sample_records, buf)
        err = sample_records[2]["err_tr"][0]
        assert repr(err) in buf.getvalue()


class TestEnvelope:
    def test_rejects_unknown_kind(self):
        env = ReportEnvelope()
        with pytest.raises(gf.ValidationError):
            env.add({"kind": "mystery"})

    def test_write_dispatch(self, sample_records):
        env = ReportEnvelope()
        for record in sample_records:
            env.add(record)
        for fmt in ("jsonl", "csv", "plot"):
            buf = io.StringIO()
            env.write(buf, fmt)
            assert buf.getvalue()
        with pytest.raises(gf.ValidationError):
            env.write(io.StringIO(), "xml")

    def test_reemission_matches_direct(self, sample_records):
        # jsonl -> read -> csv must equal direct csv emission
        jsonl_buf = io.StringIO()
        write_jsonl(sample_records, jsonl_buf)
        jsonl_buf.seek(0)
        loaded = read_jsonl(jsonl_buf)
        direct, reemitted = io.StringIO(), io.StringIO()
        write_csv(sample_records, direct)
        write_csv(loaded, reemitted)
        assert direct.getvalue() == reemitted.getvalue()
