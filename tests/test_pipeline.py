"""File-level pipeline: loading, featurizing, fitting, evaluating, comparing."""

import inspect
import json
import math
import warnings
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlcalib import calibrate, metrics, pipeline
from sqlcalib.cli import build_parser, main
from sqlcalib.clausefreq import resolve_schema
from sqlcalib.errors import (
    IdMismatch,
    JsonError,
    NoUsableCandidate,
    ParseError,
    SchemaError,
    SchemaMismatch,
)
from sqlcalib.parser import parse_sql
from sqlcalib.pipeline import Candidate, CandidateRecord, choose_primary
from sqlcalib.querygen import generate_candidate_records

FIXTURE = Path(__file__).parent / "data" / "fixture_candidates.jsonl"
EXTRAS = st.none() | st.dictionaries(st.sampled_from(["p", "q", "r"]), st.floats(-1e6, 1e6))


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def make_record(id="r1", label=1, candidates=None, **extra):
    if candidates is None:
        candidates = [
            {"sql": "select a from b", "sum_log_prob": -0.5, "source": "nucleus"}
        ]
    return {"id": id, "label": label, "candidates": candidates, **extra}


class TestLoadCandidates:
    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [make_record(id=f"r{i}") for i in range(5)])
        records = pipeline.load_candidates(path)
        assert [r.id for r in records] == [f"r{i}" for i in range(5)]

    def test_empty_file_warns_and_returns_empty(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.warns(UserWarning, match="no records"):
            assert pipeline.load_candidates(path) == []

    def test_missing_label_raises_schema_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = make_record()
        del rec["label"]
        write_jsonl(path, [rec])
        with pytest.raises(SchemaError, match="label"):
            pipeline.load_candidates(path)

    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(make_record()) + "\n{not json\n")
        with pytest.raises(JsonError, match="line 2"):
            pipeline.load_candidates(path)

    @pytest.mark.parametrize(
        "line", [b'{"id": "\xff"}', b"[" * 100_000 + b"]" * 100_000], ids=["utf8", "depth"]
    )
    def test_undecodable_line_reports_line_number(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_bytes(json.dumps(make_record()).encode() + b"\n" + line + b"\n")
        with pytest.raises(JsonError, match="line 2"):
            pipeline.load_candidates(path)

    def test_twenty_candidate_record_populates_both_pools(self, tmp_path):
        path = tmp_path / "c.jsonl"
        candidates = [
            {"sql": "select a from b", "sum_log_prob": -0.1 * i, "source": src}
            for src in ("nucleus", "beam")
            for i in range(10)
        ]
        write_jsonl(path, [make_record(candidates=candidates)])
        [record] = pipeline.load_candidates(path)
        assert len(record.candidates) == 20
        assert sum(c.source == "nucleus" for c in record.candidates) == 10
        assert record.usable
        assert record.parse_failures == 0

    def test_all_unparseable_record_flagged(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [make_record(candidates=[
                {"sql": "selec nope", "sum_log_prob": -1.0, "source": "nucleus"}
            ])],
        )
        [record] = pipeline.load_candidates(path)
        assert not record.usable
        assert record.parse_failures == 1

    def test_positive_log_prob_warns(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [make_record(candidates=[
            {"sql": "select a from b", "sum_log_prob": 0.5, "source": "beam"}
        ])])
        with pytest.warns(UserWarning, match="clipped"):
            pipeline.featurize_command(path, tmp_path / "f.jsonl", "ps")

    def test_positive_log_prob_warns_once_per_run(self, tmp_path):
        # one text for every candidate, so the warnings registry and stderr
        # hold one entry however many candidates are clipped
        candidates = [
            {"sql": f"select a from b where c = {j}", "sum_log_prob": 0.5 + j, "source": "beam"}
            for j in range(20)
        ]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [make_record(id=f"r{i}", candidates=candidates) for i in range(200)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            pipeline.featurize_command(path, tmp_path / "f.jsonl", "ps")
        assert len(caught) == 1


class TestChoosePrimary:
    def load_one(self, tmp_path, candidates):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [make_record(candidates=candidates)])
        return pipeline.load_candidates(path)[0]

    def test_single_candidate(self, tmp_path):
        record = self.load_one(tmp_path, [
            {"sql": "select a from b", "sum_log_prob": -2.0, "source": "beam"}
        ])
        assert choose_primary(record).sum_log_prob == -2.0

    def test_highest_probability_wins(self, tmp_path):
        record = self.load_one(tmp_path, [
            {"sql": "select a from b", "sum_log_prob": -2.0, "source": "beam"},
            {"sql": "select c from d", "sum_log_prob": -1.0, "source": "beam"},
        ])
        assert choose_primary(record).sql == "select c from d"

    def test_unparseable_best_is_skipped(self, tmp_path):
        record = self.load_one(tmp_path, [
            {"sql": "selec broken", "sum_log_prob": -0.1, "source": "nucleus"},
            {"sql": "select ok from t", "sum_log_prob": -0.9, "source": "nucleus"},
            {"sql": "select worse from t", "sum_log_prob": -1.5, "source": "beam"},
        ])
        assert choose_primary(record).sql == "select ok from t"

    def test_scope_filters_sources(self, tmp_path):
        record = self.load_one(tmp_path, [
            {"sql": "select a from t", "sum_log_prob": -0.2, "source": "nucleus"},
            {"sql": "select b from t", "sum_log_prob": -0.5, "source": "beam"},
        ])
        assert choose_primary(record, "beam").sql == "select b from t"
        with pytest.raises(NoUsableCandidate):
            record2 = self.load_one(tmp_path, [
                {"sql": "select a from t", "sum_log_prob": -0.2, "source": "nucleus"}
            ])
            choose_primary(record2, "beam")

    def test_tie_keeps_first_candidate(self, tmp_path):
        record = self.load_one(tmp_path, [
            {"sql": "select a from t", "sum_log_prob": -1.0, "source": "beam"},
            {"sql": "select b from t", "sum_log_prob": -1.0, "source": "beam"},
        ])
        assert choose_primary(record).sql == "select a from t"


class TestFeaturize:
    def test_schema_lengths_on_fixture(self, tmp_path):
        for schema, length in (("ps", 1), ("mps-nucleus", 21), ("mps-nb", 41)):
            out = tmp_path / f"f_{schema}.jsonl"
            summary = pipeline.featurize_command(FIXTURE, out, schema)
            assert summary.used > 0
            row = json.loads(out.read_text().splitlines()[0])
            assert len(row["values"]) == length
            assert row["schema_id"] == schema

    def test_conservation_of_records(self, tmp_path):
        out = tmp_path / "f.jsonl"
        summary = pipeline.featurize_command(FIXTURE, out, "mps-nb")
        assert summary.used + summary.unusable + summary.failed == summary.input_records
        assert summary.input_records == 60
        written = len(out.read_text().splitlines())
        assert written == summary.used
        sidecar = json.loads((tmp_path / "f.jsonl.summary.json").read_text())
        assert sidecar["used"] == summary.used

    @pytest.mark.parametrize("scope", ["bogus", "Beam"])
    def test_unknown_scope_is_rejected_before_any_input_is_read(self, tmp_path, scope):
        out = tmp_path / "f.jsonl"
        with pytest.raises(ValueError, match="scope must be one of"):
            pipeline.featurize_command(tmp_path / "missing.jsonl", out, "ps", scope)
        assert list(tmp_path.iterdir()) == []

    def test_primary_matching_whole_pool_gives_unit_frequencies(self, tmp_path):
        path = tmp_path / "c.jsonl"
        candidates = [
            {"sql": "SELECT a FROM b", "sum_log_prob": -0.3, "source": src}
            for src in ("nucleus", "beam")
            for _ in range(3)
        ]
        write_jsonl(path, [make_record(candidates=candidates)])
        out = tmp_path / "f.jsonl"
        pipeline.featurize_command(path, out, "mps-nb")
        row = json.loads(out.read_text().splitlines()[0])
        assert row["values"][1:] == [1.0] * 40

    def test_unusable_record_flagged_not_fatal(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            make_record(id="ok"),
            make_record(id="bad", candidates=[
                {"sql": "selec x", "sum_log_prob": -0.5, "source": "nucleus"}
            ]),
        ])
        out = tmp_path / "f.jsonl"
        summary = pipeline.featurize_command(path, out, "mps-nucleus")
        assert summary.used == 1
        assert summary.unusable == 1
        assert summary.candidate_parse_failures == 1

    def test_missing_pool_for_schema_fails_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [make_record()])  # nucleus-only record
        out = tmp_path / "f.jsonl"
        summary = pipeline.featurize_command(path, out, "mps-nb")
        assert summary.failed == 1
        assert summary.used == 0
        assert "pool" in summary.failures[0]["reason"]

    def test_pool_with_only_broken_samples_reports_empty_pool(self, tmp_path):
        path = tmp_path / "c.jsonl"
        candidates = [
            {"sql": "select a from b", "sum_log_prob": -0.4, "source": "nucleus"},
            {"sql": "selec broken", "sum_log_prob": -0.6, "source": "beam"},
        ]
        write_jsonl(path, [make_record(candidates=candidates)])
        out = tmp_path / "f.jsonl"
        summary = pipeline.featurize_command(path, out, "mps-nb")
        assert summary.failed == 1
        assert "empty pool" in summary.failures[0]["reason"]

    def test_extra_features_extend_schema(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            make_record(id="a", extra_features={"p_true": 0.7, "perplexity": 2.0}),
            make_record(id="b", extra_features={"p_true": 0.2, "perplexity": 8.0}),
        ])
        out = tmp_path / "f.jsonl"
        summary = pipeline.featurize_command(path, out, "ps")
        assert summary.used == 2
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows[0]["schema_id"] == "ps+p_true+perplexity"
        assert rows[0]["values"][1:] == [0.7, 2.0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(EXTRAS, st.booleans()), max_size=6))
    def test_every_extra_is_in_its_row_or_its_record_failed(self, drawn):
        sql = "select a from b"
        tree = parse_sql(sql)
        records = [
            CandidateRecord(
                id=f"r{k}", label=k % 2, extra_features=extras,
                candidates=[Candidate(sql, -0.5, "nucleus", tree if parses else None)],
            )
            for k, (extras, parses) in enumerate(drawn)
        ]
        summary = pipeline.RunSummary()
        rows = {r["id"]: r for r in pipeline.featurize_records(records, "ps", summary=summary)}
        failed = {f["id"] for f in summary.failures}
        for record in records:
            if record.id not in failed:
                row = rows[record.id]
                by_name = dict(zip(resolve_schema(row["schema_id"]).feature_names, row["values"]))
                extras = record.extra_features or {}
                assert {name: by_name.get(name) for name in extras} == extras
        accounted = summary.used + summary.unusable + summary.failed
        assert accounted == summary.input_records == len(records)

    def test_later_record_with_other_extras_fails_naming_them(self, tmp_path):
        rc, summary, out = _featurize_summary(tmp_path, [
            make_record(id="a"),
            make_record(id="b", extra_features={"p_true": 0.3}),
            make_record(id="c", extra_features={}),
        ])
        assert rc == 0 and (summary["used"], summary["failed"]) == (2, 1)
        assert summary["failures"] == [
            {"id": "b", "reason": "record has extra features ['p_true'] not in 'ps'"}
        ]
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["id"], r["schema_id"], len(r["values"])) for r in rows] == [
            ("a", "ps", 1), ("c", "ps", 1)
        ]

    def test_raw_prob_is_clipped_exp(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [make_record()])
        out = tmp_path / "f.jsonl"
        pipeline.featurize_command(path, out, "ps")
        row = json.loads(out.read_text().splitlines()[0])
        assert row["raw_prob"] == pytest.approx(np.exp(-0.5), rel=1e-12)


class TestStreaming:
    def test_featurize_records_takes_a_generator(self):
        summary = pipeline.RunSummary()
        records = (record for record in pipeline.load_candidates(FIXTURE))
        rows = list(pipeline.featurize_records(records, "mps-nb", summary=summary))
        assert summary.input_records == 60
        assert len(rows) == summary.used

    def test_data_error_mid_file_leaves_no_output(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(make_record()) + "\n" + '{"id": "x"}\n')
        out = tmp_path / "f.jsonl"
        with pytest.raises(SchemaError, match="line 2: missing field 'label'"):
            pipeline.featurize_command(path, out, "ps")
        assert list(tmp_path.iterdir()) == [path]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n" + json.dumps(make_record()) + "\n   \n")
        assert [lineno for lineno, _ in pipeline._lines(path)] == [2]


def _featurize_summary(tmp_path, records):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, records)
    out = tmp_path / "f.jsonl"
    rc = main(["featurize", "--input", str(path), "--output", str(out), "--schema", "ps"])
    summary = json.loads((tmp_path / "f.jsonl.summary.json").read_text()) if rc == 0 else None
    return rc, summary, out


class TestInputValues:
    FEATURE_ROW = {"id": "a", "label": 1, "schema_id": "ps", "values": [0.1], "raw_prob": 0.5}
    SCORED_ROW = {"id": "a", "label": 1, "calibrated_prob": 0.5}

    def run_on(self, tmp_path, command, line):
        """Exit code of ``command`` on a file holding ``line`` after a good row."""
        path = tmp_path / "in.jsonl"
        good = {"featurize": make_record(), "fit": self.FEATURE_ROW, "compare": self.SCORED_ROW}
        path.write_text(json.dumps(good[command]) + "\n" + line + "\n")
        argv = {
            "featurize": ["featurize", "--input", str(path)],
            "fit": ["fit", "--input", str(path)],
            "compare": ["compare", "--input-a", str(path), "--input-b", str(path)],
        }[command]
        return main(argv + ["--output", str(tmp_path / "out")])

    @pytest.mark.parametrize("command", ["featurize", "fit", "compare"])
    @pytest.mark.parametrize("line", ["5", "null", "[1]", '"text"'])
    def test_non_object_line_is_a_data_error(self, tmp_path, capsys, command, line):
        assert self.run_on(tmp_path, command, line) == 2
        assert "line 2: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, row",
        [
            ("featurize", make_record(label=True)),
            ("featurize", make_record(candidates=[5])),
            ("featurize", make_record(extra_features=[0.5])),
            ("featurize", make_record(candidates=[
                {"sql": "select a from b", "sum_log_prob": True, "source": "nucleus"}
            ])),
            ("fit", {**FEATURE_ROW, "label": True}),
            ("compare", {**SCORED_ROW, "label": True}),
            ("fit", {**FEATURE_ROW, "label": 2}),
            ("fit", {**FEATURE_ROW, "raw_prob": 1.7}),
            ("fit", {**FEATURE_ROW, "raw_prob": -0.1}),
            ("fit", {**FEATURE_ROW, "raw_prob": float("nan")}),
            ("fit", {**FEATURE_ROW, "raw_prob": "0.5"}),
            ("compare", {**SCORED_ROW, "calibrated_prob": 1.2}),
            ("compare", {**SCORED_ROW, "calibrated_prob": float("inf")}),
            ("compare", SCORED_ROW),  # a second row with id "a"
            ("featurize", make_record(group=3)),
            ("featurize", make_record(extra_features={"a+b": 0.5})),
            ("featurize", make_record(extra_features={"": 0.5})),
            ("fit", {**FEATURE_ROW, "group": 3}),
            ("fit", {**FEATURE_ROW, "group": ["x"]}),
            ("compare", {**SCORED_ROW, "id": "b", "group": 3}),
            ("fit", {**FEATURE_ROW, "values": ["x"]}),
            ("fit", {**FEATURE_ROW, "values": ["1.5"]}),
            ("fit", {**FEATURE_ROW, "values": [True]}),
            ("fit", {**FEATURE_ROW, "values": [None]}),
            ("fit", {**FEATURE_ROW, "values": [float("nan")]}),
            ("fit", {**FEATURE_ROW, "values": [10**400]}),
            ("fit", {**FEATURE_ROW, "values": [[0.1]]}),
        ],
    )
    def test_bad_value_is_a_data_error(self, tmp_path, capsys, command, row):
        assert self.run_on(tmp_path, command, json.dumps(row)) == 2
        assert "line 2:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_non_string_schema_id_is_a_data_error(self, tmp_path, capsys):
        write_jsonl(tmp_path / "f.jsonl", [{**self.FEATURE_ROW, "schema_id": 5}])
        assert main(["fit", "--input", str(tmp_path / "f.jsonl"), "--output", str(tmp_path / "m")]) == 2
        assert "line 1: schema_id must be a string" in capsys.readouterr().err

    def test_unknown_schema_id_is_a_data_error_naming_its_line(self, tmp_path, capsys):
        write_jsonl(tmp_path / "f.jsonl", [{**self.FEATURE_ROW, "schema_id": "bogus"}])
        assert main(["fit", "--input", str(tmp_path / "f.jsonl"), "--output", str(tmp_path / "m")]) == 2
        assert "data error: line 1: unknown feature schema 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("group", [3, ["x"]])
    def test_evaluate_by_group_rejects_non_string_group(self, tmp_path, capsys, group):
        rows = [{**self.FEATURE_ROW, "group": "x"}, {**self.FEATURE_ROW, "id": "b", "group": group}]
        write_jsonl(tmp_path / "f.jsonl", rows)
        argv = ["evaluate", "--input", str(tmp_path / "f.jsonl"), "--output", str(tmp_path / "e")]
        assert main(argv + ["--group-by", "group"]) == 2
        assert "line 2: group must be a string or null" in capsys.readouterr().err

    def test_apply_rejects_null_value_and_writes_nothing(self, tmp_path, feature_files):
        model = tmp_path / "m.json"
        pipeline.fit_command(feature_files["ps"], "ps", model)
        rows = [self.FEATURE_ROW, {**self.FEATURE_ROW, "id": "b", "values": [None]}]
        write_jsonl(tmp_path / "f.jsonl", rows)
        out = tmp_path / "s.jsonl"
        argv = ["apply", "--input", str(tmp_path / "f.jsonl"), "--model", str(model)]
        assert main(argv + ["--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "apply", "evaluate"])
    @pytest.mark.parametrize("ids", [["a", "a"], [1, "1"]])
    def test_duplicate_feature_ids_are_a_data_error(
        self, tmp_path, capsys, feature_files, command, ids
    ):
        model = tmp_path / "m.json"
        pipeline.fit_command(feature_files["ps"], "ps", model)
        rows = [{**self.FEATURE_ROW, "id": i, "label": n % 2} for n, i in enumerate(ids)]
        write_jsonl(tmp_path / "f.jsonl", rows)
        out = tmp_path / "out"
        argv = [command, "--input", str(tmp_path / "f.jsonl"), "--output", str(out)]
        assert main(argv + ([] if command == "fit" else ["--model", str(model)])) == 2
        assert f"line 2: duplicate id {str(ids[1])!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "ids, says",
        [
            (["a", "a"], "line 2: duplicate id 'a'"),
            (["r", 1, "1"], "line 3: duplicate id '1'"),
            (["a", "a", None], "line 3: id must be a string or a number"),  # every other error first
        ],
    )
    def test_featurize_rejects_a_repeated_id_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, ids, says
    ):
        monkeypatch.setattr(pipeline, "CHUNK_RECORDS", 1)  # ids repeat across chunks
        unparseable = [{"sql": "selec nope", "sum_log_prob": -0.5, "source": "nucleus"}]
        records = [make_record(id=i, candidates=unparseable if n else None) for n, i in enumerate(ids)]
        write_jsonl(tmp_path / "in.jsonl", records)
        argv = ["featurize", "--input", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "f")]
        assert main(argv + ["--schema", "ps"]) == 2
        assert says in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    @pytest.mark.parametrize("command", ["featurize", "fit", "evaluate", "compare"])
    @pytest.mark.parametrize(
        "bad_id", [None, True, [1], {"k": 1}, math.nan], ids=["null", "true", "list", "object", "nan"]
    )
    def test_id_that_is_not_a_string_or_number_is_a_data_error(
        self, tmp_path, capsys, command, bad_id
    ):
        good = {"featurize": make_record(), "compare": self.SCORED_ROW}.get(command, self.FEATURE_ROW)
        write_jsonl(tmp_path / "in.jsonl", [good, {**good, "id": bad_id}])
        path, out = str(tmp_path / "in.jsonl"), tmp_path / "out"
        inputs = ["--input-a", path, "--input-b", path] if command == "compare" else ["--input", path]
        assert main([command, *inputs, "--output", str(out)]) == 2
        assert "line 2: id must be a string or a number" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_extra_names_round_trip_from_featurize_to_fit(self, tmp_path, capsys):
        records = [
            make_record(id=f"r{i}", label=i % 2, extra_features={"p_true": i / 4, "a+b": 0.5})
            for i in range(4)
        ]
        rc, _, out = _featurize_summary(tmp_path, records)
        assert rc == 2 and not out.exists()
        assert "line 1: bad extra feature name 'a+b'" in capsys.readouterr().err
        for record in records:
            del record["extra_features"]["a+b"]
        rc, summary, out = _featurize_summary(tmp_path, records)
        assert rc == 0 and summary["used"] == 4
        model = tmp_path / "m.json"
        assert main(["fit", "--input", str(out), "--output", str(model), "--method", "mps"]) == 0
        assert calibrate.load_model(model).feature_names == ("logit_prob", "p_true")

    def test_extra_named_like_a_standard_feature_is_a_data_error(self, tmp_path, capsys):
        # a perfectly predictive extra that fit would have read as logit_prob
        records = [
            make_record(id=f"r{i}", label=i % 2, extra_features={"logit_prob": i % 2})
            for i in range(8)
        ]
        rc, _, out = _featurize_summary(tmp_path, records)
        assert rc == 2 and not out.exists()
        assert "line 1: feature schema 'ps+logit_prob' repeats feature names" in capsys.readouterr().err

    def test_extra_named_like_a_standard_feature_in_a_later_record_is_a_data_error(
        self, tmp_path, capsys
    ):
        records = [make_record(id=f"r{i}", label=i % 2, extra_features={}) for i in range(4)]
        records[2]["extra_features"] = {"logit_prob": 1}
        rc, _, out = _featurize_summary(tmp_path, records)
        assert rc == 2 and [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]
        assert ("line 3: feature schema 'ps+logit_prob' repeats feature names ['logit_prob']"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("schema_id", ["ps+logit_prob", "ps+a+a", "mps-nucleus+nucleus.agg"])
    def test_feature_file_with_repeated_names_is_a_data_error(self, tmp_path, capsys, schema_id):
        write_jsonl(tmp_path / "f.jsonl", [{**self.FEATURE_ROW, "schema_id": schema_id}])
        assert main(["fit", "--input", str(tmp_path / "f.jsonl"), "--output", str(tmp_path / "m")]) == 2
        assert "repeats feature names" in capsys.readouterr().err

    def test_evaluate_rejects_out_of_range_raw_prob(self, tmp_path):
        rows = [{**self.FEATURE_ROW, "id": f"r{i}", "label": i % 2} for i in range(3)]
        rows[1]["raw_prob"] = 1.7
        write_jsonl(tmp_path / "f.jsonl", rows)
        with pytest.raises(SchemaError, match="line 2: raw_prob"):
            pipeline.evaluate_command(tmp_path / "f.jsonl", None, tmp_path / "e")

    @pytest.mark.parametrize("value", ["abc", float("nan"), float("inf"), True, None, 10**400])
    def test_bad_extra_feature_fails_only_its_record(self, tmp_path, value):
        rc, summary, out = _featurize_summary(tmp_path, [
            make_record(id="ok", extra_features={"p": 0.5}),
            make_record(id="bad", extra_features={"p": value}),
        ])
        assert rc == 0
        assert (summary["used"], summary["failed"]) == (1, 1)
        assert summary["failures"] == [
            {"id": "bad", "reason": "extra feature 'p' must be a finite number"}
        ]
        assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["ok"]

    @pytest.mark.parametrize(
        "nest",
        [
            lambda n: "SELECT a FROM t WHERE " + "(" * n + "x" + ")" * n,
            lambda n: "SELECT " + "-" * n + "1 FROM t",
            lambda n: "SELECT a FROM t WHERE " + "NOT " * n + "x = 1",
            lambda n: " UNION ".join(["SELECT a FROM t"] * n),
        ],
        ids=["parentheses", "unary-minus", "not", "union-chain"],
    )
    def test_deep_nesting_is_a_candidate_parse_failure(self, tmp_path, nest):
        parse_sql(nest(40))
        deep = nest(3000)
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_sql(deep)
        rc, summary, _ = _featurize_summary(tmp_path, [make_record(candidates=[
            {"sql": "select a from t", "sum_log_prob": -0.5, "source": "nucleus"},
            {"sql": deep, "sum_log_prob": -0.1, "source": "nucleus"},
        ])])
        assert rc == 0
        assert summary["used"] == 1
        assert summary["candidate_parse_failures"] == 1


@pytest.fixture(scope="module")
def feature_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("features")
    nb = base / "nb.jsonl"
    ps = base / "ps.jsonl"
    pipeline.featurize_command(FIXTURE, nb, "mps-nb")
    pipeline.featurize_command(FIXTURE, ps, "ps")
    return {"nb": nb, "ps": ps, "dir": base}


class TestFit:
    def test_ps_on_masked_features_equals_ps_on_ps_features(self, feature_files, tmp_path):
        m1 = pipeline.fit_command(feature_files["nb"], "ps", tmp_path / "m1.json")
        m2 = pipeline.fit_command(feature_files["ps"], "ps", tmp_path / "m2.json")
        assert m1.intercept == m2.intercept
        assert m1.weights == m2.weights
        assert m1.feature_means == m2.feature_means
        assert m1.feature_scales == m2.feature_scales

    def test_mask_dropping_one_aggregate_leaves_forty_weights(self, feature_files, tmp_path):
        model = pipeline.fit_command(
            feature_files["nb"], "mps", tmp_path / "m.json", mask="drop:nucleus.agg"
        )
        assert len(model.weights) == 40
        assert "nucleus.agg" not in model.feature_names

    def test_mask_keep_fits_the_kept_columns_in_file_order(self, feature_files, tmp_path):
        model = tmp_path / "m.json"
        argv = ["fit", "--input", str(feature_files["nb"]), "--output", str(model),
                "--mask", "keep:beam.sq1.where,nucleus.agg,logit_prob"]
        assert main(argv) == 0
        kept = ("logit_prob", "nucleus.agg", "beam.sq1.where")
        fitted = calibrate.load_model(model)
        assert fitted.feature_names == kept and len(fitted.weights) == 3
        columns = pipeline.load_features(feature_files["nb"]).columns(kept)
        assert fitted.feature_means == tuple(columns.mean(axis=0).tolist())

    def test_mask_glob_drops_clause_family(self, feature_files, tmp_path):
        model = pipeline.fit_command(
            feature_files["nb"], "mps", tmp_path / "m.json", mask="drop:*.where"
        )
        assert len(model.weights) == 37  # 41 minus two sources x two subqueries

    def test_subsample_fraction_is_deterministic(self, feature_files, tmp_path):
        kwargs = dict(subsample_fraction=0.5, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 41 weights on 30 rows warns, by design
            m1 = pipeline.fit_command(feature_files["nb"], "mps", tmp_path / "a.json", **kwargs)
            m2 = pipeline.fit_command(feature_files["nb"], "mps", tmp_path / "b.json", **kwargs)
        assert m1 == m2
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_subsample_count_and_fraction_conflict(self, feature_files, tmp_path):
        with pytest.raises(ValueError):
            pipeline.fit_command(
                feature_files["nb"], "mps", tmp_path / "m.json",
                subsample_fraction=0.5, subsample_count=10,
            )

    @pytest.mark.parametrize("fraction", ["inf", "-inf", "0", "-0.5", "nan"])
    def test_subsample_fraction_outside_unit_interval_is_a_usage_error(
        self, feature_files, tmp_path, capsys, fraction
    ):
        model = tmp_path / "m.json"
        argv = ["fit", "--input", str(feature_files["nb"]), "--output", str(model),
                f"--subsample-fraction={fraction}"]
        assert main(argv) == 1
        assert "--subsample-fraction must lie in (0, 1]" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "values", [[1e300, -1e300], [2e307, -1.0], [1e300, 0.5, -3.0], [1e20, -1e20]]
    )
    def test_overflowing_features_are_a_data_error(self, tmp_path, capsys, values):
        src, model = tmp_path / "f.jsonl", tmp_path / "m.json"
        rows = [{"id": str(i), "label": i % 2, "schema_id": "ps", "values": [v], "raw_prob": 0.5}
                for i, v in enumerate(values * 2)]
        src.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow inside the fit
            assert main(["fit", "--input", str(src), "--output", str(model)]) == 2
        assert capsys.readouterr().err.startswith("data error: fit")
        assert not model.exists()

    def test_mask_with_ps_rejected(self, feature_files, tmp_path):
        with pytest.raises(ValueError):
            pipeline.fit_command(
                feature_files["nb"], "ps", tmp_path / "m.json", mask="keep:logit_prob"
            )

    def test_unknown_method_rejected(self, feature_files, tmp_path):
        with pytest.raises(ValueError, match="method must be one of"):
            pipeline.fit_command(feature_files["nb"], "bogus", tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_model_file_round_trips(self, feature_files, tmp_path):
        model = pipeline.fit_command(feature_files["nb"], "mps", tmp_path / "m.json")
        assert calibrate.load_model(tmp_path / "m.json") == model

    def test_extended_schema_fits_and_evaluates(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        rows = []
        for i in range(30):
            rows.append(make_record(
                id=f"x{i}", label=i % 2,
                candidates=[{
                    "sql": f"select c{i % 3} from t", "sum_log_prob": -0.2 - 0.01 * i,
                    "source": "nucleus",
                }],
                extra_features={"p_true": (i % 2) * 0.6 + 0.2},
            ))
        write_jsonl(cands, rows)
        feats = tmp_path / "f.jsonl"
        pipeline.featurize_command(cands, feats, "ps")
        model = pipeline.fit_command(feats, "mps", tmp_path / "m.json")
        assert model.schema_id == "ps+p_true"
        assert model.feature_names == ("logit_prob", "p_true")
        reports = pipeline.evaluate_command(feats, tmp_path / "m.json", tmp_path / "eval")
        assert reports["overall"].n == 30
        # the informative extra separates the labels perfectly
        assert reports["overall"].auc == 1.0


class TestEvaluate:
    def test_identity_model_matches_uncalibrated_metrics(self, feature_files, tmp_path):
        identity = calibrate.CalibratorModel(
            schema_id="ps", feature_names=("logit_prob",),
            intercept=0.0, weights=(1.0,), penalty=1.0,
        )
        pipeline._write_json(tmp_path / "identity.json", calibrate.model_to_dict(identity))
        raw = pipeline.evaluate_command(
            feature_files["ps"], None, tmp_path / "raw"
        )["overall"]
        via_model = pipeline.evaluate_command(
            feature_files["ps"], tmp_path / "identity.json", tmp_path / "ident"
        )["overall"]
        assert via_model.brier == pytest.approx(raw.brier, abs=1e-9)
        assert via_model.ece == pytest.approx(raw.ece, abs=1e-9)
        assert via_model.auc == pytest.approx(raw.auc, abs=1e-12)

    def test_groups_partition_overall(self, feature_files, tmp_path):
        reports = pipeline.evaluate_command(
            feature_files["nb"], None, tmp_path / "g", group_by="group"
        )
        total = sum(rep.n for rep in reports["groups"].values())
        assert total == reports["overall"].n

    def test_output_files_exist(self, feature_files, tmp_path):
        out = tmp_path / "eval"
        pipeline.evaluate_command(feature_files["nb"], None, out)
        assert (out / "metrics.json").exists()
        assert (out / "reliability_equal_width.csv").exists()
        assert (out / "reliability_equal_mass.csv").exists()
        assert (out / "scored.jsonl").exists()
        header = (out / "reliability_equal_width.csv").read_text().splitlines()[0]
        assert header == "bin_index,lower,upper,count,mean_score,empirical_accuracy,bias"

    def test_csv_rows_match_report_bins(self, feature_files, tmp_path):
        out = tmp_path / "eval2"
        reports = pipeline.evaluate_command(feature_files["nb"], None, out)
        overall = reports["overall"]
        for name, bins in [("equal_width", overall.bins_ece), ("equal_mass", overall.bins_ace)]:
            header, *lines = (out / f"reliability_{name}.csv").read_text().splitlines()
            assert header.split(",") == [f.name for f in fields(metrics.BinRow)]
            assert len(lines) == len(bins)
            for line, row in zip(lines, bins):
                # every field is a plain number, equal to the report's
                parsed = [int(v) if isinstance(getattr(row, f.name), int) else float(v)
                          for v, f in zip(line.split(","), fields(metrics.BinRow))]
                assert parsed == list(astuple(row))

    def test_three_hundred_groups_each_equal_a_report_on_their_rows(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 3000
        groups = [None if i % 7 == 0 else f"g{int(rng.integers(300)):03d}" for i in range(n)]
        probs = rng.uniform(size=n)
        labels = (rng.uniform(size=n) < probs).astype(int)
        rows = [
            {"id": f"r{i}", "label": int(labels[i]), "group": groups[i], "schema_id": "ps",
             "values": [0.0], "raw_prob": float(probs[i])}
            for i in range(n)
        ]
        write_jsonl(tmp_path / "f.jsonl", rows)
        reports = pipeline.evaluate_command(
            tmp_path / "f.jsonl", None, tmp_path / "e", bins=7, group_by="group"
        )["groups"]
        names = sorted({g for g in groups if g is not None})
        assert len(names) == 300 and list(reports) == names
        for name in names:
            sel = [i for i, g in enumerate(groups) if g == name]
            expected = metrics.compute_report(probs[sel], labels[sel].astype(float), k=7, group=name)
            assert reports[name] == expected

    @pytest.mark.parametrize("bins", ["0", "-2"])
    def test_bins_below_one_is_a_usage_error_and_writes_nothing(self, feature_files, tmp_path, bins):
        out = tmp_path / "e"
        argv = ["evaluate", "--input", str(feature_files["ps"]), "--output", str(out)]
        assert main(argv + ["--bins", bins]) == 1
        assert not out.exists()

    def test_out_of_domain_scores_are_a_data_error_and_write_nothing(
        self, feature_files, tmp_path, monkeypatch
    ):
        model = tmp_path / "m.json"
        pipeline.fit_command(feature_files["ps"], "ps", model)
        monkeypatch.setattr(calibrate, "apply_model", lambda m, X: np.full(len(X), 1.5))
        out = tmp_path / "e"
        argv = ["evaluate", "--input", str(feature_files["ps"]), "--model", str(model)]
        assert main(argv + ["--output", str(out)]) == 2
        assert not out.exists()

    def test_wrong_schema_model_rejected(self, feature_files, tmp_path):
        model = calibrate.CalibratorModel(
            schema_id="mps-nucleus", feature_names=("logit_prob",),
            intercept=0.0, weights=(1.0,), penalty=1.0,
        )
        pipeline._write_json(tmp_path / "m.json", calibrate.model_to_dict(model))
        with pytest.raises(SchemaMismatch):
            pipeline.evaluate_command(
                feature_files["nb"], tmp_path / "m.json", tmp_path / "e"
            )

    def test_single_class_features_surface_as_data_error(self, tmp_path, capsys):
        rows = [
            {"id": f"r{i}", "label": 1, "schema_id": "ps",
             "values": [0.1 * i], "raw_prob": 0.5}
            for i in range(10)
        ]
        write_jsonl(tmp_path / "f.jsonl", rows)
        rc = main(["fit", "--input", str(tmp_path / "f.jsonl"),
                   "--output", str(tmp_path / "m.json"), "--method", "ps"])
        assert rc == 2
        assert "constant" in capsys.readouterr().err


GOOD_MODEL = {
    "schema_id": "ps", "feature_names": ["logit_prob"], "intercept": 0.5, "weights": [2.0],
    "penalty": 1.0, "feature_means": [0.0], "feature_scales": [1.0], "toolkit_version": "0.1.0",
}


def _model_without(key):
    return {k: v for k, v in GOOD_MODEL.items() if k != key}


class TestModelFile:
    @pytest.mark.parametrize("command", ["apply", "evaluate"])
    @pytest.mark.parametrize(
        "doc, named",
        [
            pytest.param({**GOOD_MODEL, "intercept": math.nan}, "intercept", id="nan-intercept"),
            pytest.param(_model_without("weights"), "weights", id="no-weights"),
            pytest.param([1], "JSON object", id="not-an-object"),
            pytest.param({**GOOD_MODEL, "weights": ["x"]}, "weights", id="string-weight"),
            pytest.param({**GOOD_MODEL, "weights": [True]}, "weights", id="bool-weight"),
            pytest.param({**GOOD_MODEL, "weights": [1.0, 2.0]}, "weights", id="extra-weight"),
            pytest.param({**GOOD_MODEL, "intercept": "0.5"}, "intercept", id="string-intercept"),
            pytest.param({**GOOD_MODEL, "intercept": 10**400}, "intercept", id="huge-int"),
            pytest.param({**GOOD_MODEL, "feature_names": [5]}, "feature_names", id="int-name"),
            pytest.param(
                {**GOOD_MODEL, "feature_names": ["logit_prob"] * 2, "weights": [1.0, 1.0],
                 "feature_means": None, "feature_scales": None},
                "feature_names", id="repeated-name",
            ),
            pytest.param({**GOOD_MODEL, "penalty": 0}, "penalty", id="zero-penalty"),
            pytest.param({**GOOD_MODEL, "penalty": math.inf}, "penalty", id="infinite-penalty"),
            pytest.param({**GOOD_MODEL, "feature_scales": [math.nan]}, "feature_scales", id="nan-scale"),
            pytest.param(_model_without("feature_means"), "feature_means", id="no-means"),
            pytest.param("{", "not JSON", id="not-json"),
            pytest.param({**GOOD_MODEL, "schema_id": 7}, "schema_id must be a string",
                         id="int-schema-id"),
        ],
    )
    def test_bad_model_is_a_data_error(self, feature_files, tmp_path, capsys, command, doc, named):
        model, out = tmp_path / "m.json", tmp_path / "out"
        model.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = [command, "--input", str(feature_files["ps"]), "--model", str(model),
                "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: model") and named in err
        assert not out.exists()

    def test_well_formed_model_loads(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**GOOD_MODEL, "feature_means": None, "weights": [2]}))
        model = calibrate.load_model(path)
        assert model.weights == (2.0,) and model.feature_means is None

    # [10, -10] has the exact logit 0, but X @ w overflows to +inf or -inf
    # depending on the rows it is batched with
    @pytest.mark.parametrize("command", ["apply", "evaluate"])
    @pytest.mark.parametrize("values", [[[10.0, -10.0]], [[10.0, -10.0], [1.0, 1.0]]])
    def test_weights_overflowing_the_logit_are_a_data_error(
        self, tmp_path, capsys, command, values
    ):
        features, model, out = tmp_path / "f.jsonl", tmp_path / "m.json", tmp_path / "out"
        write_jsonl(features, [
            {"id": f"r{i}", "label": i % 2, "schema_id": "ps+x", "values": v, "raw_prob": 0.5}
            for i, v in enumerate(values)
        ])
        model.write_text(json.dumps({
            **GOOD_MODEL, "schema_id": "ps+x", "feature_names": ["logit_prob", "x"],
            "weights": [1e308, 1e308], "feature_means": None, "feature_scales": None,
        }))
        argv = [command, "--input", str(features), "--model", str(model), "--output", str(out)]
        assert main(argv) == 2
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()


class TestRejectedInputs:
    """Inputs each command rejects before it writes anything. In ``argv``,
    ``{in}`` is a file holding ``doc`` (JSONL rows for a list, else one JSON
    document), and ``{nb}`` and ``{ps}`` are the fixture's feature files."""

    FEATURE_ROW = TestInputValues.FEATURE_ROW

    @pytest.mark.parametrize(
        "argv, doc, code, message",
        [
            pytest.param("featurize --input {in}", [make_record(candidates=[])], 2,
                         "line 1: candidates must be a non-empty list", id="no-candidates"),
            pytest.param(
                "featurize --input {in}",
                [make_record(candidates=[{"sql": "select a from b", "source": "beam"}])], 2,
                "line 1: candidate 0 missing field 'sum_log_prob'", id="no-sum-log-prob",
            ),
            pytest.param(
                "featurize --input {in}",
                [make_record(candidates=[{"sql": 5, "sum_log_prob": -0.5, "source": "beam"}])],
                2, "line 1: candidate 0 sql must be a string", id="int-sql",
            ),
            pytest.param("fit --input {in}", [], 2, "no feature rows", id="empty-features"),
            pytest.param(
                "fit --input {in}", [FEATURE_ROW, {**FEATURE_ROW, "id": "b", "schema_id": "mps-nb"}],
                2, "line 2: schema changed from 'ps' to 'mps-nb'", id="schema-change",
            ),
            pytest.param("fit --input {nb} --mask keep:zz", None, 1,
                         "mask 'keep:zz' matches no feature", id="mask-keeps-none"),
            pytest.param("fit --input {nb} --mask drop:*", None, 1,
                         "mask 'drop:*' drops every feature", id="mask-drops-all"),
            pytest.param("fit --input {nb} --subsample-count 500", None, 1,
                         "subsample size 500 outside 1..60", id="subsample-past-rows"),
            pytest.param("evaluate --input {nb} --group-by label", None, 1,
                         "only grouping by 'group' is supported", id="group-by-label"),
            pytest.param("synth --n 0", None, 1, "n must be >= 1", id="synth-none"),
            pytest.param("synth --n 5 --seed -1", None, 1, "--seed must be >= 0, got -1",
                         id="synth-negative-seed"),
            pytest.param("fit --input {nb} --subsample-count 10 --seed -1", None, 1,
                         "--seed must be >= 0, got -1", id="fit-negative-seed"),
            pytest.param(
                "apply --input {ps} --model {in}", {**GOOD_MODEL, "feature_names": ["zeta"]}, 2,
                "schema 'ps' lacks features ['zeta']", id="model-names-missing",
            ),
        ],
    )
    def test_is_rejected_and_writes_nothing(
        self, feature_files, tmp_path, capsys, argv, doc, code, message
    ):
        given = tmp_path / "in"
        if isinstance(doc, list):
            write_jsonl(given, doc)
        elif doc is not None:
            given.write_text(json.dumps(doc))
        paths = {"in": given, "nb": feature_files["nb"], "ps": feature_files["ps"]}
        args = [arg.format_map(paths) for arg in argv.split()]
        assert main(args + ["--output", str(tmp_path / "out")]) == code
        kind = {1: "usage", 2: "data"}[code]
        err = capsys.readouterr().err
        assert err.startswith(f"{kind} error: ") and message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if doc is None else ["in"])


class TestUnencodableNames:
    """JSON carries any string, a lone surrogate too; a name stdout cannot
    encode prints escaped. capsys, unlike pytest's default capture, encodes
    stdout strictly, as a terminal or pipe does."""

    def fit_surrogate_extra(self, tmp_path, capsys) -> str:
        """stdout of ``fit`` on a ``ps+\\ud800`` feature file."""
        rc, _, features = _featurize_summary(tmp_path, [
            make_record(id=f"r{i}", label=i % 2, extra_features={"\ud800": i % 3 / 2})
            for i in range(6)
        ])
        assert rc == 0
        model = tmp_path / "m.json"
        assert main(["fit", "--input", str(features), "--output", str(model)]) == 0
        assert calibrate.load_model(model).feature_names == ("logit_prob", "\ud800")
        return capsys.readouterr().out

    def test_fit_prints_an_extra_name_escaped(self, tmp_path, capsys):
        out = self.fit_surrogate_extra(tmp_path, capsys)
        assert "\n\\ud800 " in out and out.endswith("model written with 2 weights (+ intercept)\n")

    def test_fit_lines_up_an_escaped_name_with_the_others(self, tmp_path, capsys):
        table = self.fit_surrogate_extra(tmp_path, capsys).splitlines()[1:4]  # after featurize's
        assert table[0] == "feature     std.weight"
        assert sorted(line.split()[0] for line in table[1:]) == ["\\ud800", "logit_prob"]
        assert [line.rindex(" ") for line in table] == [11, 11, 11]  # weights under the header

    def test_evaluate_prints_a_group_name_escaped(self, tmp_path, capsys):
        rows = [{**TestInputValues.FEATURE_ROW, "id": f"r{i}", "label": i % 2, "group": group}
                for i, group in enumerate(["\ud800", "\ud800", "g", "g"])]
        write_jsonl(tmp_path / "f.jsonl", rows)
        out_dir = tmp_path / "e"
        argv = ["evaluate", "--input", str(tmp_path / "f.jsonl"), "--output", str(out_dir)]
        assert main(argv + ["--group-by", "group"]) == 0
        metrics_doc = json.loads((out_dir / "metrics.json").read_text())
        assert sorted(metrics_doc["groups"]) == ["g", "\ud800"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" brier=")[0] for line in lines] == [
            "n=4", "  group=g n=2", "  group=\\ud800 n=2"
        ]

    def test_names_stdout_can_encode_print_as_they_are(self, tmp_path, capsys):
        rows = [{**TestInputValues.FEATURE_ROW, "id": f"r{i}", "label": i % 2, "group": "größe"}
                for i in range(2)]
        write_jsonl(tmp_path / "f.jsonl", rows)
        argv = ["evaluate", "--input", str(tmp_path / "f.jsonl"), "--output", str(tmp_path / "e")]
        assert main(argv + ["--group-by", "group"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("  group=größe n=2 ")


class TestPenalty:
    @pytest.mark.parametrize("penalty", ["0", "nan", "-1", "inf", "1e-320", "5e-324"])
    def test_fit_rejects_penalty_that_is_not_finite_and_positive(
        self, feature_files, tmp_path, capsys, penalty
    ):
        model = tmp_path / "m.json"
        argv = ["fit", "--input", str(feature_files["ps"]), "--output", str(model),
                "--method", "ps", f"--penalty={penalty}"]
        assert main(argv) == 1
        assert "penalty must be a finite number > 0" in capsys.readouterr().err
        assert not model.exists()


class TestConfig:
    @pytest.mark.parametrize(
        "command, config, named",
        [
            ("featurize", {"scope": "bogus"}, "'scope'"),
            ("featurize", {"schema": "bogus"}, "'schema'"),
            ("featurize", [{"schema": "ps"}], "JSON object"),
            ("fit", {"mask": 5}, "mask"),
            ("fit", {"seed": None}, "'seed'"),
            ("fit", {"penalty": True}, "'penalty'"),
            ("fit", {"method": ["ps"]}, "'method'"),
            ("evaluate", {"bins": 2.7}, "'bins'"),
            ("synth", {"n": "many"}, "'n'"),
        ],
    )
    def test_bad_entry_is_a_usage_error(self, feature_files, tmp_path, capsys, command, config, named):
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps(config))
        source = [] if command == "synth" else ["--input", str(
            FIXTURE if command == "featurize" else feature_files["ps"]
        )]
        assert main([command, *source, "--output", str(out), "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and named in err
        assert not out.exists()

    def test_deeply_nested_config_is_a_usage_error(self, tmp_path, capsys):
        path, out = tmp_path / "deep.json", tmp_path / "s.jsonl"
        path.write_text("[" * 100_000)
        assert main(["synth", "--output", str(out), "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_a_config_that_cannot_be_opened_names_its_file(self, tmp_path, capsys, name):
        path, out = tmp_path / name, tmp_path / "s.jsonl"
        assert main(["synth", "--output", str(out), "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: config {path} cannot be opened: ")
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"{scope: 'all'}", b'{"scope": "\xff"}'])
    def test_a_config_that_is_not_json_names_its_file(self, tmp_path, capsys, content):
        path, out = tmp_path / "config.json", tmp_path / "s.jsonl"
        path.write_bytes(content)
        assert main(["synth", "--output", str(out), "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: config {path} is not JSON: ")
        assert not out.exists()

    def test_entries_take_their_flag_types(self, feature_files, tmp_path, capsys):
        path, model = tmp_path / "config.json", tmp_path / "m.json"
        path.write_text(json.dumps({"method": "ps", "penalty": 2, "seed": "3", "bins": "x"}))
        argv = ["fit", "--input", str(feature_files["ps"]), "--output", str(model),
                "--config", str(path)]
        assert main(argv) == 0  # fit never reads bins, so its bad entry is not checked
        assert json.loads(model.read_text())["penalty"] == 2.0
        assert main([*argv, "--penalty", "0.5"]) == 0
        assert json.loads(model.read_text())["penalty"] == 0.5

    @pytest.mark.parametrize(
        "config", [{"penalti": 0.5}, {"penalty": 0.5, "subsample-fraction": 0.5}]
    )
    def test_key_no_command_has_is_a_usage_error(self, feature_files, tmp_path, capsys, config):
        path, model = tmp_path / "config.json", tmp_path / "m.json"
        path.write_text(json.dumps(config))
        argv = ["fit", "--input", str(feature_files["ps"]), "--output", str(model),
                "--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "unknown key" in err
        assert repr(list(config)[-1]) in err
        assert not model.exists()

    @pytest.mark.parametrize("config", [{"help": 1}, {"config": "other.json"}])
    def test_help_and_config_are_not_keys(self, tmp_path, capsys, config):
        path, feats, out = tmp_path / "c.json", tmp_path / "f.jsonl", tmp_path / "out"
        pipeline.synth_command(50, "calibrated", 0, feats)
        path.write_text(json.dumps(config))
        assert main(["evaluate", "--input", str(feats), "--output", str(out),
                     "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and f"unknown key {list(config)[0]!r}" in err
        assert not out.exists()

    def test_keys_of_other_commands_are_ignored(self, feature_files, tmp_path):
        path, model = tmp_path / "config.json", tmp_path / "m.json"
        path.write_text(json.dumps({"penalty": 0.5, "bins": 5, "scope": "beam", "n": 3}))
        argv = ["fit", "--input", str(feature_files["ps"]), "--output", str(model),
                "--config", str(path)]
        assert main(argv) == 0
        assert json.loads(model.read_text())["penalty"] == 0.5

    # each flag default is the keyword default of the pipeline function it feeds;
    # --fractions is compared after its text is parsed
    @pytest.mark.parametrize(
        "command, dest, function",
        [
            ("featurize", "scope", pipeline.featurize_command),
            ("fit", "penalty", pipeline.fit_command),
            ("fit", "seed", pipeline.fit_command),
            ("evaluate", "bins", pipeline.evaluate_command),
            ("compare", "fractions", pipeline.compare_command),
        ],
    )
    def test_flag_defaults_equal_the_pipeline_defaults(self, command, dest, function):
        files = ["--input-a", "a", "--input-b", "b"] if command == "compare" else ["--input", "i"]
        args = build_parser().parse_args([command, *files, "--output", "o"])
        assert getattr(args, dest) == inspect.signature(function).parameters[dest].default

    def test_config_defaults_do_not_reach_the_next_call(self, tmp_path):
        path, feats = tmp_path / "config.json", tmp_path / "f.jsonl"
        path.write_text(json.dumps({"schema": "ps"}))
        argv = ["featurize", "--input", str(FIXTURE), "--output", str(feats)]
        assert main([*argv, "--config", str(path)]) == 0
        assert json.loads(feats.read_text().splitlines()[0])["schema_id"] == "ps"
        assert main(argv) == 0
        assert json.loads(feats.read_text().splitlines()[0])["schema_id"] == "mps-nb"

    def test_fractions_entry_equals_the_flag(self, feature_files, tmp_path):
        pipeline.evaluate_command(feature_files["ps"], None, tmp_path / "e")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"fractions": "0.1,0.3"}))
        argv = ["compare", "--input-a", str(tmp_path / "e" / "scored.jsonl"),
                "--input-b", str(tmp_path / "e" / "scored.jsonl")]
        assert main([*argv, "--output", str(tmp_path / "a.json"), "--fractions", "0.1,0.3"]) == 0
        assert main([*argv, "--output", str(tmp_path / "b.json"), "--config", str(path)]) == 0
        shift = (tmp_path / "a.json").read_bytes()
        assert json.loads(shift)["fractions"] == [0.1, 0.3]
        assert (tmp_path / "b.json").read_bytes() == shift

    @pytest.mark.parametrize("via, named", [("flag", "fractions"), ("config", "'fractions'")])
    def test_fraction_out_of_range_is_a_usage_error(self, tmp_path, capsys, via, named):
        path, out = tmp_path / "config.json", tmp_path / "shift.json"
        path.write_text(json.dumps({"fractions": "0.7"}))
        option = ["--fractions", "0.7"] if via == "flag" else ["--config", str(path)]
        argv = ["compare", "--input-a", "a", "--input-b", "b", "--output", str(out), *option]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and named in err and "(0, 0.5]" in err
        assert not out.exists()

    def test_entry_for_a_required_flag_is_checked(self, feature_files, tmp_path, capsys):
        path, model = tmp_path / "config.json", tmp_path / "m.json"
        path.write_text(json.dumps({"output": ["elsewhere.json"]}))
        argv = ["fit", "--input", str(feature_files["ps"]), "--output", str(model),
                "--config", str(path)]
        assert main(argv) == 1
        assert "config entry 'output'" in capsys.readouterr().err
        assert not model.exists()

    def test_entry_for_an_optional_flag_is_its_default(self, feature_files, tmp_path):
        model, path = tmp_path / "m.json", tmp_path / "config.json"
        pipeline.fit_command(feature_files["ps"], "ps", model, penalty=0.5)
        path.write_text(json.dumps({"model": str(model)}))
        argv = ["evaluate", "--input", str(feature_files["ps"])]
        assert main([*argv, "--output", str(tmp_path / "flag"), "--model", str(model)]) == 0
        assert main([*argv, "--output", str(tmp_path / "config"), "--config", str(path)]) == 0
        assert main([*argv, "--output", str(tmp_path / "raw")]) == 0
        reports = [(tmp_path / d / "metrics.json").read_bytes() for d in ("flag", "config", "raw")]
        assert reports[0] == reports[1] != reports[2]


class TestCompare:
    def test_self_comparison_zero_delta(self, feature_files, tmp_path):
        scored = tmp_path / "scored.jsonl"
        pipeline.evaluate_command(feature_files["ps"], None, tmp_path / "e")
        strata = pipeline.compare_command(
            tmp_path / "e" / "scored.jsonl",
            tmp_path / "e" / "scored.jsonl",
            tmp_path / "shift.json",
        )
        assert all(s.mean_delta == 0.0 for s in strata)
        assert len(strata) == 8

    def test_id_mismatch_listed(self, feature_files, tmp_path):
        pipeline.evaluate_command(feature_files["ps"], None, tmp_path / "e1")
        rows = (tmp_path / "e1" / "scored.jsonl").read_text().splitlines()
        (tmp_path / "short.jsonl").write_text("\n".join(rows[:-1]) + "\n")
        with pytest.raises(IdMismatch, match="ex"):
            pipeline.compare_command(
                tmp_path / "e1" / "scored.jsonl",
                tmp_path / "short.jsonl",
                tmp_path / "shift.json",
            )

    def test_join_follows_ids_not_file_order(self, tmp_path):
        a = [{"id": f"r{i}", "label": i % 2, "calibrated_prob": 0.1 * i} for i in range(6)]
        paths = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "s.json"
        write_jsonl(paths[0], a)
        write_jsonl(paths[1], a[::-1])
        assert all(s.mean_delta == 0.0 for s in pipeline.compare_command(*paths, [0.5]))
        flipped = [{**r, "label": 1 - r["label"]} if r["id"] in ("r2", "r4") else r for r in a]
        write_jsonl(paths[1], flipped[::-1])  # r4 comes first in b, r2 first in a
        with pytest.raises(SchemaError, match=r"^id 'r2' has different labels in the two files$"):
            pipeline.compare_command(*paths)

    def test_small_fixture_against_hand_join(self, tmp_path):
        a = [{"id": f"r{i}", "label": i % 2, "calibrated_prob": 0.1 * (i % 10)} for i in range(20)]
        b = [{"id": f"r{i}", "label": i % 2, "calibrated_prob": 0.05 * (i % 15)} for i in range(20)]
        write_jsonl(tmp_path / "a.jsonl", a)
        write_jsonl(tmp_path / "b.jsonl", b)
        strata = pipeline.compare_command(
            tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "s.json", [0.2]
        )
        deltas = sorted(
            (b[i]["calibrated_prob"] - a[i]["calibrated_prob"], i) for i in range(20)
        )
        top = [i for _, i in deltas[-4:]]
        expected = float(np.mean([b[i]["calibrated_prob"] - a[i]["calibrated_prob"] for i in top]))
        got_top = next(s for s in strata if s.side == "top")
        assert got_top.mean_delta == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("bad, error", [
        ('{"id": "r1", "label": 1, "calibrated_prob": 0.5}', SchemaError),  # a repeated id
        ("{not json", JsonError),
    ])
    @pytest.mark.parametrize("side", [0, 1])
    def test_a_bad_line_names_its_input(self, tmp_path, side, bad, error):
        rows = [json.dumps({"id": f"r{i}", "label": i % 2, "calibrated_prob": 0.2}) for i in range(5)]
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            path.write_text("\n".join(rows) + "\n")
        paths[side].write_text("\n".join([*rows, bad]) + "\n")
        with pytest.raises(error) as info:
            pipeline.compare_command(*paths, tmp_path / "s.json")
        assert str(info.value).startswith(f"{paths[side]}: line 6: ")


class TestSynth:
    def test_byte_identical_repeats(self, tmp_path):
        for mode in ("calibrated", "platt", "mps-signal"):
            a, b = tmp_path / f"{mode}_a.jsonl", tmp_path / f"{mode}_b.jsonl"
            pipeline.synth_command(500, mode, seed=3, output_path=a)
            pipeline.synth_command(500, mode, seed=3, output_path=b)
            assert a.read_bytes() == b.read_bytes()

    def test_platt_sidecar_records_generating_weights(self, tmp_path):
        out = tmp_path / "platt.jsonl"
        sidecar = pipeline.synth_command(100, "platt", seed=1, output_path=out)
        assert sidecar["w0"] == 0.5
        assert sidecar["w1"] == 2.0
        on_disk = json.loads((tmp_path / "platt.jsonl.sidecar.json").read_text())
        assert on_disk == sidecar

    def test_calibrated_mode_is_nearly_calibrated(self, tmp_path):
        out = tmp_path / "cal.jsonl"
        pipeline.synth_command(100_000, "calibrated", seed=5, output_path=out)
        ff = pipeline.load_features(out)
        from sqlcalib.metrics import compute_report

        rep = compute_report(ff.raw_prob, ff.y)
        assert rep.ece <= 0.01

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pipeline.synth_command(10, "bogus", seed=0, output_path=tmp_path / "x.jsonl")


class TestCli:
    def test_end_to_end_exit_codes(self, tmp_path, capsys):
        feats = tmp_path / "f.jsonl"
        assert main([
            "featurize", "--input", str(FIXTURE), "--output", str(feats),
            "--schema", "mps-nb",
        ]) == 0
        model = tmp_path / "m.json"
        assert main(["fit", "--input", str(feats), "--method", "mps",
                     "--output", str(model)]) == 0
        assert main(["evaluate", "--input", str(feats), "--model", str(model),
                     "--output", str(tmp_path / "eval"), "--group-by", "group"]) == 0
        assert main(["apply", "--input", str(feats), "--model", str(model),
                     "--output", str(tmp_path / "scored.jsonl")]) == 0
        assert main(["compare",
                     "--input-a", str(tmp_path / "eval" / "scored.jsonl"),
                     "--input-b", str(tmp_path / "scored.jsonl"),
                     "--output", str(tmp_path / "shift.json")]) == 0
        out = capsys.readouterr().out
        assert "featurized 60/60" in out

    def test_parse_subcommand_emits_decomposition(self, capsys):
        assert main(["parse", "SELECT a FROM b UNION SELECT c FROM d"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["set_op"] == "union"
        assert doc["subq1"]["select"]["select"] == "a"
        assert doc["canonical"] == "select a from b union select c from d"

    def test_parse_emits_a_set_operation_inside_a_set_operation(self, capsys):
        sql = "SELECT a FROM b UNION SELECT c FROM d INTERSECT SELECT e FROM f"
        assert main(["parse", sql]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["set_op"] == "intersect" and doc["subq2"]["select"]["from"] == "f"
        inner = doc["subq1"]
        assert (inner["set_op"], set(inner)) == ("union", {"set_op", "left", "right"})
        assert [inner[side]["select"]["from"] for side in ("left", "right")] == ["b", "d"]

    def test_usage_error_exit_1(self, tmp_path, capsys):
        assert main(["fit", "--input", "x", "--output", "y", "--method", "nope"]) == 1
        assert main(["bogus-command"]) == 1

    def test_data_error_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["featurize", "--input", str(missing),
                     "--output", str(tmp_path / "o.jsonl")]) == 2
        assert main(["parse", "SELEC broken"]) == 2

    def test_internal_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr(pipeline, "featurize_command", boom)
        assert main(["featurize", "--input", str(FIXTURE),
                     "--output", str(tmp_path / "o.jsonl")]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema": "ps"}))
        feats = tmp_path / "f.jsonl"
        assert main(["featurize", "--input", str(FIXTURE), "--output", str(feats),
                     "--config", str(config)]) == 0
        row = json.loads(feats.read_text().splitlines()[0])
        assert row["schema_id"] == "ps"

    def test_cli_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema": "ps"}))
        feats = tmp_path / "f.jsonl"
        assert main(["featurize", "--input", str(FIXTURE), "--output", str(feats),
                     "--schema", "mps-nucleus", "--config", str(config)]) == 0
        row = json.loads(feats.read_text().splitlines()[0])
        assert row["schema_id"] == "mps-nucleus"


class TestAtomicWrites:
    def test_failed_model_write_leaves_the_old_model(
        self, feature_files, tmp_path, capsys, monkeypatch
    ):
        model = tmp_path / "m.json"
        argv = ["fit", "--input", str(feature_files["ps"]), "--output", str(model),
                "--method", "ps"]
        assert main(argv) == 0
        before = model.read_bytes()
        to_dict = calibrate.model_to_dict
        monkeypatch.setattr(calibrate, "model_to_dict", lambda m: {**to_dict(m), "x": object()})
        assert main(argv) == 3
        assert "internal error" in capsys.readouterr().err
        assert model.read_bytes() == before
        assert list(tmp_path.iterdir()) == [model]

    def test_error_while_chunks_are_produced_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def chunks():
            yield "new\n"
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            pipeline._write_text(path, chunks())
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]


class TestDeterminism:
    def test_featurize_fit_evaluate_byte_identical(self, tmp_path):
        outputs = []
        for run in ("one", "two"):
            d = tmp_path / run
            d.mkdir()
            pipeline.featurize_command(FIXTURE, d / "f.jsonl", "mps-nb")
            pipeline.fit_command(d / "f.jsonl", "mps", d / "m.json", seed=7)
            pipeline.evaluate_command(d / "f.jsonl", d / "m.json", d / "eval")
            outputs.append(
                (d / "f.jsonl").read_bytes()
                + (d / "m.json").read_bytes()
                + (d / "eval" / "metrics.json").read_bytes()
                + (d / "eval" / "scored.jsonl").read_bytes()
            )
        assert outputs[0] == outputs[1]

    def test_fixture_regenerates_identically(self):
        rows = generate_candidate_records(60, 20240611)
        regenerated = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows)
        assert regenerated == FIXTURE.read_text()
