"""Record construction and the jsonl/csv/plot writer."""
import io
import json

import pytest

import gibbsflow as gf
from gibbsflow import reports
from gibbsflow.reports import (
    ReportEnvelope,
    failure_record,
    meta_record,
    read_jsonl,
    result_record,
)


def written(records, fmt):
    """Everything a ``ReportEnvelope`` writes for ``records`` in ``fmt``."""
    buf = io.StringIO()
    envelope = ReportEnvelope(buf, fmt)
    for record in records:
        envelope.write(record)
    return buf.getvalue()


@pytest.fixture
def sample_records(scalar_linear):
    cfg = gf.parse_config("model: {family: scalar, a: 1.0, b: {kind: linear, slope: 1.0}}")
    report = gf.run_convergence(scalar_linear, gf.Scheme.LEFT, 0.0, 1.0,
                                [8, 16, 32, 64])
    return [
        meta_record(cfg.to_dict(), cfg.seed),
        result_record("constants", gf.estimate_constants(scalar_linear, 0.0, 1.0)),
        result_record("convergence", report),
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
        record = result_record("lemma21", gf.lemma21_ensemble(count=10, seed=1, dim_max=4))
        assert record["holds"] is True
        assert record["failures"] == 0

    def test_contraction_record(self, commuting_small):
        check = gf.verify_contraction(commuting_small, gf.Scheme.LEFT, 0.0, 1.0, 8)
        record = result_record("contraction", check)
        assert record["holds"] is True and record["n"] == 8


class TestJsonl:
    def test_roundtrip(self, sample_records):
        loaded = read_jsonl(io.StringIO(written(sample_records, "jsonl")))
        assert len(loaded) == len(sample_records)
        assert loaded[0] == sample_records[0]

    def test_byte_deterministic(self, sample_records):
        assert written(sample_records, "jsonl") == written(sample_records, "jsonl")

    def test_keys_sorted(self, sample_records):
        first = json.loads(written(sample_records, "jsonl").splitlines()[0])
        assert list(first) == sorted(first)

    def test_read_rejects_garbage(self):
        with pytest.raises(gf.ValidationError):
            read_jsonl(io.StringIO("not json\n"))
        with pytest.raises(gf.ValidationError):
            read_jsonl(io.StringIO('{"kind": "mystery"}\n'))


class TestCsv:
    def test_header_and_rows(self, sample_records):
        lines = written(sample_records, "csv").splitlines()
        assert lines[0] == "scheme,n,err_op,err_tr,epsilon_theory,ratio"
        assert len(lines) == 1 + 4  # one row per n, non-convergence records skipped

    def test_header_without_convergence_records(self, sample_records):
        assert written(sample_records[:2], "csv") == written([], "csv") == (
            "scheme,n,err_op,err_tr,epsilon_theory,ratio\n")

    def test_ratio_column(self, sample_records):
        row = written(sample_records, "csv").splitlines()[1].split(",")
        err_tr, eps, ratio = float(row[3]), float(row[4]), float(row[5])
        assert ratio == pytest.approx(err_tr / eps, rel=1e-12)


class TestPlot:
    def test_block_structure(self, sample_records):
        text = written(sample_records, "plot")
        assert text.startswith("# convergence model=")
        assert "# n err_op err_tr epsilon_theory" in text
        data_rows = [l for l in text.splitlines()
                     if l and not l.startswith("#")]
        assert len(data_rows) == 4
        assert data_rows[0].split()[0] == "8"

    def test_blocks_separated_by_two_blank_lines(self, sample_records):
        one = written(sample_records, "plot")
        assert written(sample_records + sample_records[1:], "plot") == one + "\n\n" + one
        assert written(sample_records[:2], "plot") == ""

    def test_full_precision(self, sample_records):
        err = sample_records[2]["err_tr"][0]
        assert repr(err) in written(sample_records, "plot")


class FlushCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.flushed = []

    def flush(self):
        self.flushed.append(self.getvalue())
        super().flush()


class TestEnvelope:
    def test_rejects_unknown_kind(self):
        env = ReportEnvelope(io.StringIO(), "jsonl")
        with pytest.raises(gf.ValidationError):
            env.write({"kind": "mystery"})

    def test_write_dispatch(self, sample_records):
        assert reports.FORMATS == ("csv", "jsonl", "plot")
        for fmt in reports.FORMATS:
            assert written(sample_records, fmt)
        with pytest.raises(gf.ValidationError):
            ReportEnvelope(io.StringIO(), "xml")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "plot"])
    def test_each_record_is_flushed_as_written(self, fmt, sample_records):
        # what is flushed after each record is what the whole stream would
        # hold had it ended there
        stream = FlushCounter()
        envelope = ReportEnvelope(stream, fmt)
        for record in sample_records:
            envelope.write(record)
        prefixes = [written(sample_records[:k], fmt)
                    for k in range(0 if fmt == "csv" else 1, len(sample_records) + 1)]
        assert stream.flushed == prefixes

    def test_reemission_matches_direct(self, sample_records):
        # jsonl -> read -> csv must equal direct csv emission
        loaded = read_jsonl(io.StringIO(written(sample_records, "jsonl")))
        assert written(sample_records, "csv") == written(loaded, "csv")
