"""Property tests: garbage in the logs is a data error, never a crash.

Random JSON lines and random SQL text go through featurize, and random
feature rows through fit, apply and evaluate. Whatever the input, the
exit code is 0 (for featurize: every record used, unusable or failed) or
2 (a data error in the file); a usage error (1) or an internal error (3)
would mean garbage in the model's logs broke the pipeline. Every file a
command writes must be strict JSON, with no NaN or Infinity.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sqlcalib.cli import main

from corpus import CORPUS_ALL

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)

# Mostly-valid SQL (corpus queries, possibly cut or spliced) plus free text.
SQL = (
    st.sampled_from(CORPUS_ALL)
    | st.builds(lambda q, cut: q[:cut], st.sampled_from(CORPUS_ALL), st.integers(0, 80))
    | st.builds(lambda a, b: a + " " + b, st.sampled_from(CORPUS_ALL), st.text(max_size=10))
    | st.text(max_size=40)
)


def mostly(valid, other=JSON):
    """``valid`` nineteen times in twenty, otherwise ``other``."""
    return st.integers(0, 19).flatmap(lambda k: other if k == 0 else valid)


CANDIDATE = mostly(st.fixed_dictionaries({
    "sql": mostly(SQL),
    "sum_log_prob": mostly(st.floats(-50, 1) | st.integers(-50, 0)),
    "source": mostly(st.sampled_from(["nucleus", "beam"])),
}))

RECORD = st.fixed_dictionaries(
    {
        "id": st.text(max_size=6) | JSON,
        "label": mostly(st.sampled_from([0, 1])),
        "candidates": mostly(st.lists(CANDIDATE, min_size=1, max_size=4)),
    },
    optional={
        "group": JSON,
        "extra_features": mostly(st.dictionaries(
            st.sampled_from(["p", "q"]), st.floats(allow_nan=True) | JSON, max_size=2
        )),
    },
)

# a record, rarely any other JSON value or text that may not be JSON at all
LINE = mostly(
    mostly(RECORD).map(json.dumps),
    st.text(max_size=20).filter(lambda t: "\n" not in t and "\r" not in t),
)


@pytest.mark.filterwarnings("ignore::UserWarning")  # empty files, clipped log-probs
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(LINE, max_size=4), schema=st.sampled_from(["ps", "mps-nb"]))
def test_featurize_exits_0_or_2_and_accounts_for_every_record(lines, schema):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "c.jsonl", Path(tmp) / "f.jsonl"
        src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        rc = main(["featurize", "--input", str(src), "--output", str(out), "--schema", schema])
        assert rc in (0, 2)
        if rc == 0:
            summary = json.loads(Path(str(out) + ".summary.json").read_text())
            accounted = summary["used"] + summary["unusable"] + summary["failed"]
            assert accounted == summary["input_records"]
            assert len(out.read_text().splitlines()) == summary["used"]


def strict_json(text):
    """``json.loads`` that rejects the NaN and Infinity constants."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


# one "ps" row: a single value, the logit of the model probability
FEATURE_ROW = st.fixed_dictionaries(
    {
        "id": st.text(max_size=4),
        "label": mostly(st.sampled_from([0, 1])),
        "schema_id": mostly(st.just("ps")),
        "values": mostly(st.tuples(mostly(
            st.floats(allow_nan=False, allow_infinity=False) | st.integers(-5, 5)
        ))),
        "raw_prob": mostly(st.floats(0, 1)),
    },
    optional={"group": mostly(st.sampled_from(["easy", "hard", None]))},
)


@pytest.fixture(scope="module")
def ps_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("model")
    rows = [
        {"id": str(i), "label": i % 2, "schema_id": "ps", "values": [i / 4 - 1], "raw_prob": 0.5}
        for i in range(8)
    ]
    (tmp / "f.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["fit", "--input", str(tmp / "f.jsonl"), "--output", str(tmp / "m.json")]) == 0
    return tmp / "m.json"


@pytest.mark.filterwarnings("ignore")  # non-converging fits on degenerate random rows
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(FEATURE_ROW, min_size=1, max_size=6))
@example(rows=[  # finite features whose fit overflows
    {"id": "a", "label": 0, "schema_id": "ps", "values": [1e300], "raw_prob": 0.5},
    {"id": "b", "label": 1, "schema_id": "ps", "values": [-1e300], "raw_prob": 0.5},
])
def test_feature_file_commands_exit_0_or_2_and_write_strict_json(ps_model, rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "f.jsonl"
        src.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        for argv in (
            ["fit", "--input", str(src), "--output", str(tmp / "m.json")],
            ["apply", "--input", str(src), "--model", str(ps_model), "--output", str(tmp / "s.jsonl")],
            ["evaluate", "--input", str(src), "--model", str(ps_model), "--output", str(tmp / "ev"),
             "--group-by", "group"],
        ):
            assert main(argv) in (0, 2), argv[0]
        for path in tmp.rglob("*.json*"):  # model, metrics and scored files
            if path != src:
                text = path.read_text(encoding="utf-8")
                for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                    strict_json(doc)
