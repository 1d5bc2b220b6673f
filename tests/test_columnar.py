"""Feature and scored files in columns, scored rows from a template.

The loader tests pin what ``load_features`` returns, byte for byte, and
the exact ``SchemaError`` a bad feature file raises, including which of
several errors wins. The writer test holds the scored-line template to
``json.dumps``. The memory tests bound the bytes Python allocates while
a 5,000-row feature file is loaded, synthesized or compared, as a
multiple of its value matrix.
"""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqlcalib import pipeline
from sqlcalib.clausefreq import SYNTH_MODES
from sqlcalib.errors import SchemaError

from test_workers import feeding

ROW = {"id": "a", "label": 1, "schema_id": "ps", "values": [0.1], "raw_prob": 0.5}


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def _edge_rows():
    """Feature rows whose values, ids, labels and groups sit at edges of JSON."""
    values = [2**53 + 1, 10**308, -0.0, 5e-324, 3, -1e-300]
    groups = [None, "g", "é☃", 'q"\\', None, "\x01"]
    ids = [7, "7.5", 1.5, "ü", -2, "x"]
    return [
        {"id": i, "label": [0, 1.0, 1, 0.0, 1, 0][k], "group": g, "schema_id": "ps+p",
         "values": [v, k], "raw_prob": [0, 1, 0.25, 1.0, 5e-324, 0.5][k]}
        for k, (i, g, v) in enumerate(zip(ids, groups, values))
    ]


def _columns_digest(ff) -> str:
    h = hashlib.sha256()
    for array in (ff.X, ff.y, ff.raw_prob):
        assert array.dtype == np.float64
        h.update(array.tobytes())
    h.update(json.dumps([ff.ids, ff.groups, ff.schema_id, ff.feature_names]).encode())
    return h.hexdigest()


LOADED_SHA256 = {
    "synth": "34da5c54d635af6c7049391ca7bd65f7d2dce47fa81fdfda2e95f50a0a78187a",
    "edges": "962004f10fda0f286bfd6376e14ef4a580900baea402cb73940e5b7572366612",
}


def test_synth_file_loads_to_the_same_columns(tmp_path):
    out = tmp_path / "f.jsonl"
    pipeline.synth_command(400, "mps-signal", seed=3, output_path=out)
    ff = pipeline.load_features(out)
    assert ff.X.shape == (400, 21) and ff.X.flags.c_contiguous
    assert _columns_digest(ff) == LOADED_SHA256["synth"]


@pytest.mark.parametrize("mode", SYNTH_MODES)
def test_drawn_synth_columns_are_the_written_file_loaded(tmp_path, mode):
    drawn, _ = pipeline.draw_synth(400, mode, seed=3)
    pipeline.synth_command(400, mode, seed=3, output_path=tmp_path / "f.jsonl")
    assert _columns_digest(drawn) == _columns_digest(pipeline.load_features(tmp_path / "f.jsonl"))


def test_edge_values_load_to_the_same_columns(tmp_path):
    ff = pipeline.load_features(_write_rows(tmp_path / "f.jsonl", _edge_rows()))
    assert ff.X.shape == (6, 2) and ff.X.flags.c_contiguous
    assert ff.X[:4, 0].tolist() == [2.0**53, 1e308, 0.0, 5e-324]
    assert np.signbit(ff.X[2, 0])
    assert ff.ids == ("7", "7.5", "1.5", "ü", "-2", "x")
    assert _columns_digest(ff) == LOADED_SHA256["edges"]


def _bad_file(tmp_path, changes: dict) -> str:
    """Five good rows with ``changes`` (line number -> fields) applied."""
    rows = [{**ROW, "id": f"r{k}", "label": k % 2} for k in range(5)]
    for lineno, fields in changes.items():
        rows[lineno - 1].update(fields)
    return str(_write_rows(tmp_path / "f.jsonl", rows))


BIG = 10**400
BAD_FILES = {
    "true": ({2: {"values": [True]}}, "line 2: values must be finite numbers, got True"),
    "string": ({2: {"values": ["x"]}}, "line 2: values must be finite numbers, got 'x'"),
    "null": ({2: {"values": [None]}}, "line 2: values must be finite numbers, got None"),
    "nan": ({2: {"values": [float("nan")]}}, "line 2: values must be finite numbers, got nan"),
    "inf": ({2: {"values": [float("inf")]}}, "line 2: values must be finite numbers, got inf"),
    "-inf": ({4: {"values": [-float("inf")]}}, "line 4: values must be finite numbers, got -inf"),
    "big-int": ({3: {"values": [BIG]}}, f"line 3: values must be finite numbers, got {BIG!r}"),
    "label-beats-value": (
        {2: {"values": ["x"]}, 5: {"label": 2}}, "line 5: label must be 0 or 1, got 2"
    ),
    "duplicate-beats-value": (
        {2: {"values": [float("nan")]}, 4: {"id": "r1"}}, "line 4: duplicate id 'r1'"
    ),
    "first-in-file-order": (
        {2: {"values": [float("nan")]}, 3: {"values": [True]}},
        "line 2: values must be finite numbers, got nan",
    ),
    "type-before-nan": (
        {2: {"values": [BIG]}, 4: {"values": [float("nan")]}},
        f"line 2: values must be finite numbers, got {BIG!r}",
    ),
    "wrong-length": ({3: {"values": [0.1, 0.2]}}, "line 3: expected a list of 1 values for 'ps'"),
    "not-a-list": ({3: {"values": 0.1}}, "line 3: expected a list of 1 values for 'ps'"),
}


@pytest.mark.parametrize("name", BAD_FILES)
def test_bad_feature_file_raises_the_same_error(tmp_path, name):
    changes, message = BAD_FILES[name]
    with pytest.raises(SchemaError) as info:
        pipeline.load_features(_bad_file(tmp_path, changes))
    assert str(info.value) == message


def test_first_bad_value_of_a_row_is_named(tmp_path):
    rows = [{**ROW, "id": f"r{k}", "schema_id": "ps+p+q", "values": [0.1, 0.2, 0.3]}
            for k in range(4)]
    rows[2]["values"] = [0.5, float("nan"), True]
    with pytest.raises(SchemaError) as info:
        pipeline.load_features(_write_rows(tmp_path / "f.jsonl", rows))
    assert str(info.value) == "line 3: values must be finite numbers, got nan"


def test_non_canonical_schema_id_is_rejected(tmp_path):
    """The names follow the canonical (sorted) id, the values the file's
    order, so an id with its extras out of order would misname columns."""
    rows = [{**ROW, "id": f"r{k}", "schema_id": "ps+zeta+alpha", "values": [0.1, 0.2, 0.3]}
            for k in range(3)]
    with pytest.raises(SchemaError) as info:
        pipeline.load_features(_write_rows(tmp_path / "f.jsonl", rows))
    assert str(info.value) == (
        "line 1: schema_id 'ps+zeta+alpha' is not canonical; expected 'ps+alpha+zeta'"
    )


def test_repeated_names_are_named_before_the_spelling(tmp_path):
    rows = [{**ROW, "schema_id": "ps+z+a+a", "values": [0.1, 0.2, 0.3, 0.4]}]
    with pytest.raises(SchemaError) as info:
        pipeline.load_features(_write_rows(tmp_path / "f.jsonl", rows))
    assert str(info.value) == "line 1: feature schema 'ps+a+a+z' repeats feature names ['a']"


# -- the scored-line template -------------------------------------------------

TEXT = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600", "\ud800"]
)
FLOAT = st.floats(0, 1) | st.sampled_from([-0.0, 0.0, 5e-324, 1e308, 1.0, 0.1])
NUMERIC_ID = st.integers().map(str) | st.floats(allow_nan=False, allow_infinity=False).map(str)


@given(
    st.lists(
        st.tuples(
            TEXT | NUMERIC_ID,
            st.sampled_from([0.0, 1.0]),
            FLOAT,
            FLOAT,
            st.none() | TEXT,
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda row: row[0],
    ),
    TEXT,
)
def test_scored_lines_equal_json_dumps(rows, schema_id):
    ids, labels, raw, scores, groups = map(list, zip(*rows))
    ff = pipeline.FeatureFile(
        ids=tuple(ids), X=np.zeros((len(ids), 1)), y=np.array(labels), raw_prob=np.array(raw),
        groups=tuple(groups), schema_id=schema_id, feature_names=("logit_prob",),
    )
    expected = [
        json.dumps(
            {"id": i, "label": int(y), "raw_prob": r, "calibrated_prob": s, "group": g,
             "schema_id": schema_id},
            separators=(",", ":"),
        ) + "\n"
        for i, y, r, s, g in zip(ids, labels, raw, scores, groups)
    ]
    assert list(pipeline.scored_rows(ff, np.array(scores))) == expected


# -- memory while a 5,000-row file is read or written ---------------------------

N_ROWS = 5000
X_BYTES = N_ROWS * 21 * 8  # the file's float64 matrix: 21 mps-nucleus columns


def _peak_bytes(fn, *args) -> int:
    """Peak bytes Python allocated while ``fn(*args)`` ran, numpy buffers included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def signal_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("signal") / "f.jsonl"
    pipeline.synth_command(N_ROWS, "mps-signal", seed=0, output_path=path)
    return path


def test_load_features_allocates_under_four_matrices(signal_file, monkeypatch):
    # as a CLI process of one thread on two CPUs: two chunks left, too few for a pool
    monkeypatch.setattr(pipeline, "_one_thread", lambda: True)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    assert pipeline.load_features(signal_file).X.nbytes == X_BYTES
    assert _peak_bytes(pipeline.load_features, signal_file) < 4 * X_BYTES


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_features_from_a_pipe_allocates_under_four_matrices(signal_file, tmp_path, monkeypatch):
    # pooled, as a CLI process of one thread on two CPUs with ten chunks: a
    # pipe's chunks read ahead must not all live until the read ends
    monkeypatch.setattr(pipeline, "_one_thread", lambda: True)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "CHUNK_ROWS", N_ROWS // 10)
    pipeline.load_features(signal_file)  # the pool's first imports, untraced
    writer = feeding(tmp_path / "pipe", signal_file)
    assert _peak_bytes(pipeline.load_features, tmp_path / "pipe") < 4 * X_BYTES
    assert writer.wait(timeout=60) == 0


def test_load_features_allocates_under_four_matrices_on_one_cpu(signal_file, monkeypatch):
    # one CPU streams every chunk through the parent, with no count ahead
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    assert _peak_bytes(pipeline.load_features, signal_file) < 4 * X_BYTES


def test_synth_allocates_under_four_matrices(tmp_path):
    peak = _peak_bytes(pipeline.synth_command, N_ROWS, "mps-signal", 0, tmp_path / "s.jsonl")
    assert peak < 4 * X_BYTES


def test_compare_allocates_under_four_matrices(signal_file, tmp_path):
    pipeline.evaluate_command(signal_file, None, tmp_path / "e")
    scored = tmp_path / "e" / "scored.jsonl"
    peak = _peak_bytes(pipeline.compare_command, scored, scored, tmp_path / "shift.json")
    assert peak < 4 * X_BYTES
