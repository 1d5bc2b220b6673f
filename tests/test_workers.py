"""Featurize and the feature- and scored-file loaders on worker processes:
the same bytes, columns, errors and warnings as a run in one process, and
no process left behind."""

import concurrent.futures
import itertools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile
import time
import warnings
from array import array
from contextlib import ExitStack
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlcalib import errors, pipeline
from sqlcalib.errors import SqlCalibError

ROOT = Path(__file__).resolve().parents[1]
CHUNK = pipeline.CHUNK_RECORDS

ERRORS = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, SqlCalibError)),
    key=lambda c: c.__name__,
)
# constructor arguments of the errors that take more than a message
ARGS = {errors.ParseError: ("unexpected token", 7)}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_every_error_round_trips_through_pickle(cls):
    # by the standard protocol, which calls __init__ with args: an error whose
    # __init__ drops an argument fails here, not in a worker process
    assert "__reduce__" not in vars(SqlCalibError)
    exc = cls(*ARGS.get(cls, ("line 4: missing field 'label'",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (str(back), back.args, vars(back), repr(back)) == (
        str(exc), exc.args, vars(exc), repr(exc)  # vars: ParseError's offset
    )


def cand(sql, lp=-0.5, source="nucleus"):
    return {"sql": sql, "sum_log_prob": lp, "source": source}


def good(i, **extra):
    """A usable record whose two pools hold distinct texts, one unparseable."""
    return {
        "id": f"r{i}", "label": i % 2, "group": "gé" if i % 3 else None,
        "candidates": [
            cand(f"select a from t{i}", -0.1), cand(f"select b from t{i} where c > {i}", -0.7),
            cand("selec broken", -0.2), cand(f"select a from t{i}", -0.3, "beam"),
            cand(f"select a, b from t{i % 4}", -1.5, "beam"),
        ],
        "extra_features": {"p_true": i / 100},
        **extra,
    }


def mixed_lines() -> list[str]:
    """Several chunks: an unusable first chunk, so a later chunk fixes the
    layout, then records that fail in each way, non-ASCII ids, clipped
    log-probs and blank lines."""
    unusable = [
        {"id": f"u{i}", "label": 0, "candidates": [cand("selec nope"), cand("from", 0.5, "beam")]}
        for i in range(CHUNK + 3)
    ]
    records = [good(i) for i in range(5 * CHUNK)]
    records[10] = good(10, extra_features={"q": 1.0})  # extras outside the layout
    records[CHUNK - 3] = good(CHUNK - 3, extra_features={})  # first of the first pooled chunk
    records[40]["candidates"] = [c for c in records[40]["candidates"] if c["source"] != "beam"]
    records[60]["id"] = "データ-60"
    records[70]["candidates"][1]["sum_log_prob"] = 0.25  # clipped, after the pool starts
    records[90]["candidates"] = [cand("selec x"), cand("select a from b", -0.4, "beam")]
    lines = [json.dumps(r) for r in unusable + records]
    lines[CHUNK * 2] += "\n\n   "  # blank lines inside the input
    return [""] + lines


@pytest.fixture
def started(monkeypatch):
    """The workers of each pool started, in order; every pool forks."""

    class Executor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "fork"
            pools.append(max_workers)
            super().__init__(max_workers, mp_context=mp_context)

    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    return pools


@pytest.fixture
def as_one_thread(monkeypatch):
    """This process taken for one of one thread, whatever BLAS threads it
    runs: the workers touch no numpy, so a fork next to idle ones is safe."""
    monkeypatch.setattr(pipeline, "_one_thread", lambda: True)


@pytest.fixture
def featurize(tmp_path, monkeypatch, started, as_one_thread):
    """Featurize ``lines`` with ``cpus`` CPUs; the sizes of the pools started.
    A pool starts from ``min_chunks`` chunks left, two unless given. Each run
    leaves no worker and no temporary file behind."""

    def run(lines, cpus, min_chunks=2):
        started.clear()
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        monkeypatch.setattr(pipeline, "POOL_MIN_CHUNKS", min_chunks)
        src = tmp_path / f"in{cpus}.jsonl"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / f"out{cpus}" / "features.jsonl"
        out.parent.mkdir(exist_ok=True)
        try:
            pipeline.featurize_command(src, out, "mps-nb")
        finally:
            assert multiprocessing.active_children() == []
            assert list(out.parent.glob("*.tmp")) == []
        return out, list(started)

    return run


def _bytes(out: Path) -> tuple[bytes, bytes]:
    return out.read_bytes(), Path(f"{out}.summary.json").read_bytes()


@pytest.mark.filterwarnings("ignore:sum_log_prob")
def test_pool_and_one_process_write_the_same_bytes(featurize):
    lines = mixed_lines()
    pooled, started = featurize(lines, cpus=2)
    assert started == [2]
    inline, started = featurize(lines, cpus=1)
    assert started == []
    assert _bytes(pooled) == _bytes(inline)
    summary = json.loads(_bytes(pooled)[1])
    assert (summary["input_records"], summary["used"]) == (6 * CHUNK + 3, 5 * CHUNK - 4)
    assert summary["unusable"] == CHUNK + 3 and summary["failed"] == 4
    failed = [f["id"] for f in summary["failures"] if not f["id"].startswith("u")]
    assert failed == ["r10", f"r{CHUNK - 3}", "r40", "r90"]  # extras twice, missing, empty pool
    row = json.loads(pooled.read_text(encoding="utf-8").splitlines()[0])
    assert row["schema_id"] == "mps-nb+p_true"


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank"])
def test_empty_input_writes_empty_features(featurize, text):
    pooled, started = featurize([text], cpus=2)
    assert started == []
    assert _bytes(pooled) == _bytes(featurize([text], cpus=1)[0])
    assert pooled.read_bytes() == b""


def test_one_chunk_left_after_the_layout_starts_no_pool(featurize):
    lines = [json.dumps(good(i)) for i in range(2 * CHUNK)]
    for more, pools in [([], []), ([json.dumps(good(2 * CHUNK))], [2])]:
        out, started = featurize(lines + more, cpus=4)
        assert started == pools
        assert _bytes(out) == _bytes(featurize(lines + more, cpus=1)[0])


def test_too_little_work_left_starts_no_pool(featurize):
    # three chunks left after the first, below the threshold
    lines = [json.dumps(good(i)) for i in range(4 * CHUNK)]
    assert featurize(lines, cpus=2, min_chunks=pipeline.POOL_MIN_CHUNKS)[1] == []


LINE = "line {}:"  # what most errors say: the line they were found on


@pytest.mark.parametrize(
    "bad, error, says",
    [
        ("{not json", errors.JsonError, LINE),
        ("[1, 2]", errors.SchemaError, LINE),
        (json.dumps({"id": "x", "candidates": [cand("select a from b")]}), errors.SchemaError,
         LINE),
        (json.dumps({**good(0), "candidates": [cand("select a from b", source="oracle")]}),
         errors.SchemaError, LINE),
        (json.dumps(good(6 * CHUNK, extra_features={"logit_prob": 1})), errors.SchemaError,
         LINE + " feature schema 'mps-nb+logit_prob' repeats feature names ['logit_prob']"),
    ],
    ids=["json", "non-object", "missing-field", "bad-candidate", "extra-named-standard"],
)
@pytest.mark.filterwarnings("ignore:sum_log_prob")
def test_error_in_the_last_chunk_is_raised_as_in_one_process(
    featurize, tmp_path, bad, error, says
):
    lines = mixed_lines()
    lines.insert(-3, bad)
    lineno = "\n".join(lines).splitlines().index(bad) + 1
    raised = []
    for cpus in (2, 1):
        with pytest.raises(error) as info:
            featurize(lines, cpus)
        raised.append((type(info.value), str(info.value)))
        # no output, summary or temporary file: outputs go below tmp_path
        assert [p for p in tmp_path.rglob("*") if p.is_file() and p.parent != tmp_path] == []
    assert raised[0] == raised[1]
    assert says.format(lineno) in raised[0][1]


# -- feature and scored files ----------------------------------------------------

ROWS = 4  # rows per loader task here, so that forty rows make ten chunks
LATE = 7 * ROWS  # a row of the eighth chunk, which a worker reads


def feature_rows() -> list[dict]:
    return [
        {"id": f"r{i}" if i % 7 else f"データ{i}", "label": i % 2, "group": "gé" if i % 3 else None,
         "schema_id": "ps+p", "values": [i / 7 - 2, i], "raw_prob": i / 40}
        for i in range(10 * ROWS)
    ]


def scored_rows() -> list[dict]:
    return [
        {"id": f"r{i}" if i % 7 else 3 * i, "label": i % 2, "raw_prob": i / 40,
         "calibrated_prob": 7 * i % 40 / 40, "group": "gé" if i % 3 else None, "schema_id": "ps"}
        for i in range(10 * ROWS)
    ]


def as_lines(rows) -> list[str]:
    """``rows`` as lines after a blank one, with a blank line that starts the
    second chunk and two inside the third."""
    lines = [json.dumps(row) for row in rows]
    lines[ROWS - 1] += "\n"
    lines[2 * ROWS + 1] += "\n   \n"
    return [""] + lines


def _columns(loaded) -> tuple:
    """What a loader returned, each array as its bytes."""
    if isinstance(loaded, pipeline.FeatureFile):
        return (loaded.ids, loaded.groups, loaded.X.tobytes(), loaded.y.tobytes(),
                loaded.raw_prob.tobytes(), loaded.schema_id, loaded.feature_names)
    ids, labels, probs = loaded
    return ids, labels.tobytes(), probs.tobytes()


@pytest.fixture
def load(tmp_path, monkeypatch, started, as_one_thread):
    """``loader`` on ``lines``, written with no newline after the last, in
    tasks of ROWS rows: on 2 CPUs with a pool from two chunks left, and then
    on one CPU. Both return the same columns, each array as its bytes, or
    raise the same error, as (type, message); that outcome, and the sizes of
    the pools each run started."""
    monkeypatch.setattr(pipeline, "CHUNK_ROWS", ROWS)
    monkeypatch.setattr(pipeline, "POOL_MIN_CHUNKS", 2)

    def run(loader, lines):
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        outcomes, pools = [], []
        for cpus in (2, 1):
            started.clear()
            monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
            try:
                outcomes.append(_columns(loader(path)))
            except SqlCalibError as exc:
                outcomes.append((type(exc), str(exc)))
            assert multiprocessing.active_children() == []
            pools.append(list(started))
        assert outcomes[0] == outcomes[1]
        return outcomes[0], pools

    return run


def test_pooled_feature_file_loads_as_in_one_process(load):
    rows = feature_rows()
    (ids, groups, X, y, raw, schema_id, names), pools = load(pipeline.load_features, as_lines(rows))
    assert pools == [[2], []]
    assert ids == tuple(str(row["id"]) for row in rows) and groups == tuple(r["group"] for r in rows)
    assert X == array("d", [v for row in rows for v in row["values"]]).tobytes()
    assert y == array("d", [row["label"] for row in rows]).tobytes()
    assert raw == array("d", [row["raw_prob"] for row in rows]).tobytes()
    assert (schema_id, names) == ("ps+p", ("logit_prob", "p"))


def test_pooled_scored_file_loads_as_in_one_process(load):
    rows = scored_rows()
    (ids, labels, probs), pools = load(pipeline.load_scored, as_lines(rows))
    assert pools == [[2], []]
    assert ids == [str(row["id"]) for row in rows]
    assert labels == array("d", [row["label"] for row in rows]).tobytes()
    assert probs == array("d", [row["calibrated_prob"] for row in rows]).tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_descriptor_path_reaches_the_workers_as_the_file_it_names(load):
    # the parent opens the path once and hands its workers the lines of the file it names
    def via_descriptor(path):
        with open(path, "rb") as fh:
            return pipeline.load_features(f"/dev/fd/{fh.fileno()}")

    rows = feature_rows()
    (ids, *_), pools = load(via_descriptor, as_lines(rows))
    assert pools == [[2], []] and ids == tuple(str(row["id"]) for row in rows)


BIG = 10**400  # an int past the float range: a value the loader holds out of its buffer


@pytest.mark.parametrize(
    "loader, rows, late, says",
    [
        (pipeline.load_features, feature_rows, "{not json", "line {}: Expecting property name"),
        (pipeline.load_features, feature_rows, {"schema_id": "ps+q"},
         "line {}: schema changed from 'ps+p' to 'ps+q'"),
        (pipeline.load_features, feature_rows, {"id": "r1"}, "line {}: duplicate id 'r1'"),
        (pipeline.load_features, feature_rows, {"values": [BIG, 1]},
         f"line {{}}: values must be finite numbers, got {BIG!r}"),
        (pipeline.load_scored, scored_rows, "{not json", "line {}: Expecting property name"),
        (pipeline.load_scored, scored_rows, {"id": "r1"}, "line {}: duplicate id 'r1'"),
    ],
    ids=["features-json", "features-schema-change", "features-repeated-id",
         "features-held-out-value", "scored-json", "scored-repeated-id"],
)
def test_an_error_in_a_worker_chunk_is_raised_as_in_one_process(load, loader, rows, late, says):
    rows = rows()
    lines = as_lines(rows)
    lines[LATE + 1] = late if isinstance(late, str) else json.dumps({**rows[LATE], **late})
    (error, message), pools = load(loader, lines)
    assert pools == [[2], []]
    assert error is errors.JsonError if late == "{not json" else error is errors.SchemaError
    lineno = "\n".join(lines).splitlines().index(lines[LATE + 1]) + 1
    assert message.startswith(says.format(lineno))


def _read(kind: str, path: Path):
    """``path`` read as a feature, scored or candidate file: the columns
    loaded, or the bytes featurize writes."""
    if kind == "candidates":
        out = path.parent / f"{path.name}.features"
        pipeline.featurize_command(path, out, "mps-nb")
        return _bytes(out)
    return _columns({"features": pipeline.load_features, "scored": pipeline.load_scored}[kind](path))


def feeding(fifo: Path, src: Path) -> subprocess.Popen:
    """``fifo`` made a named pipe, and a started process that copies ``src``
    into it once a reader opens it. A process, not a thread of this one: a
    worker forked while a thread held the pipe's write end open would keep
    it open, and the reader would never see the end of the file."""
    os.mkfifo(fifo)
    return subprocess.Popen(["sh", "-c", 'cat "$1" > "$2"', "sh", str(src), str(fifo)])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "kind, lines",
    [("features", as_lines(feature_rows())), ("scored", as_lines(scored_rows())),
     ("candidates", mixed_lines())],
    ids=["features", "scored", "candidates"],
)
@pytest.mark.filterwarnings("ignore:sum_log_prob")
def test_a_pipe_pools_as_a_file_does(tmp_path, monkeypatch, started, as_one_thread, kind, lines):
    # the parent reads a pipe as it does a regular file, and pools it alike
    monkeypatch.setattr(pipeline, "CHUNK_ROWS", ROWS)
    monkeypatch.setattr(pipeline, "POOL_MIN_CHUNKS", 2)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    regular, fifo = tmp_path / "file", tmp_path / "pipe"
    regular.write_text("\n".join(lines), encoding="utf-8")
    writer = feeding(fifo, regular)
    piped = _read(kind, fifo)
    assert writer.wait(timeout=60) == 0 and started == [2]
    assert piped == _read(kind, regular) and started == [2, 2]


@pytest.mark.filterwarnings("ignore:sum_log_prob")
def test_each_input_is_opened_once_by_the_parent(tmp_path, monkeypatch, started, as_one_thread):
    # on one CPU, and on two with a pool, the parent opens each input once and
    # no worker opens it
    parent, opened = os.getpid(), []

    def counted(path, *args, **kwargs):
        assert os.getpid() == parent, f"a worker opened {path}"
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "open", counted, raising=False)
    monkeypatch.setattr(pipeline, "CHUNK_ROWS", ROWS)
    monkeypatch.setattr(pipeline, "POOL_MIN_CHUNKS", 2)
    readers = [("candidates", mixed_lines()), ("features", as_lines(feature_rows())),
               ("scored", as_lines(scored_rows()))]
    for cpus, pools in [(1, []), (2, [2])]:
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        for kind, lines in readers:
            path = tmp_path / f"{kind}{cpus}"
            path.write_text("\n".join(lines), encoding="utf-8")
            started.clear()
            opened.clear()
            _read(kind, path)
            assert (started, opened.count(path)) == (pools, 1), (kind, cpus)


@pytest.mark.parametrize(
    "pipe",
    [False, pytest.param(True, marks=pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                                        reason="needs named pipes"))],
    ids=["file", "fifo"],
)
def test_two_chunks_per_worker_are_in_flight(tmp_path, monkeypatch, as_one_thread, pipe):
    # a chunk is in flight from its submit until the parent takes its result;
    # a pipe's chunks read ahead to decide on the pool are submitted as a file's are
    in_flight, counts = set(), []

    class Executor(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            take = future.result

            def result(timeout=None):
                in_flight.discard(future)
                return take(timeout)

            future.result = result
            in_flight.add(future)
            counts.append(len(in_flight))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    monkeypatch.setattr(pipeline, "CHUNK_ROWS", ROWS)
    monkeypatch.setattr(pipeline, "POOL_MIN_CHUNKS", 2)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    rows = scored_rows()
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(as_lines(rows)), encoding="utf-8")
    path = tmp_path / "pipe" if pipe else src
    writer = feeding(path, src) if pipe else None
    assert pipeline.load_scored(path)[0] == [str(row["id"]) for row in rows]
    # the parent runs the first of ten chunks; each of the nine left is submitted once
    assert len(counts) == 9 and max(counts) == 4 and not in_flight
    assert writer is None or writer.wait(timeout=60) == 0


def _pairs(lines) -> list:
    """A task that returns the ``(lineno, line)`` pairs of its chunk."""
    return list(lines)


@settings(deadline=None)
@given(
    lines=st.lists(st.sampled_from(["", " \t", "a", "{}", "b c", "[1]"]), max_size=60),
    newline=st.booleans(),
    size=st.integers(1, 7),
    unfixed=st.integers(0, 3),
)
@example(lines=["a", "", "b c"] * 8, newline=False, size=3, unfixed=1)
def test_the_chunks_in_file_order_are_one_pass_over_the_file(lines, newline, size, unfixed):
    # ``unfixed`` chunks leave the state unfixed, and the next one fixes it
    text = "".join(line + "\n" for line in lines)
    data = (text if newline else text[:-1]).encode()
    expected = [(n, line) for n, line in enumerate(data.splitlines(keepends=True), 1) if line.strip()]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "in.jsonl"
        path.write_bytes(data)
        patch.setattr(pipeline, "POOL_MIN_CHUNKS", 2)
        patch.setattr(pipeline, "_one_thread", lambda: True)
        for cpus in (2, 1):
            patch.setattr(pipeline, "_cpus", lambda: cpus)
            calls = itertools.count()
            with ExitStack() as stack:
                chunks = list(pipeline._in_file_order(
                    path, size, _pairs, lambda done: _pairs if next(calls) == unfixed else None,
                    stack,
                ))
            assert multiprocessing.active_children() == []
            assert list(itertools.chain(*chunks)) == expected
            assert all(len(chunk) == size for chunk in chunks[:-1])


LONG = "x" * 40000  # longer than the file's read buffer, so the count reads past what it holds


@settings(deadline=None)
@given(
    lines=st.lists(st.sampled_from(["", " \t", "a", "b c", LONG, " " * 40000]), max_size=12),
    newline=st.booleans(),
    size=st.integers(1, 4),
    ran=st.integers(0, 3),
    most=st.integers(1, 5),
)
@example(lines=[LONG, "a", "", LONG, "b c"], newline=False, size=1, ran=1, most=4)
def test_the_chunks_counted_ahead_are_the_chunks_left(lines, newline, size, ran, most):
    # after the parent has read ``ran`` chunks, up to ``most`` of those left
    text = "".join(line + "\n" for line in lines)
    data = (text if newline else text[:-1]).encode()
    expected = [(n, line) for n, line in enumerate(data.splitlines(keepends=True), 1) if line.strip()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.jsonl"
        path.write_bytes(data)
        with path.open("rb") as fh:
            lines = pipeline._lines(fh)
            read = list(itertools.islice(lines, ran * size))
            left = len(expected) - len(read)
            assert pipeline._chunks_ahead(fh, size, most) == min(most, -(-left // size))
            # the count moved neither the file position nor the line numbers
            assert read + list(lines) == expected


# -- each reader on drawn files, against one CPU ----------------------------------

ROW = "row"  # a layout entry for the next row; the others are blank lines
LAYOUT = st.lists(st.sampled_from([ROW, ROW, ROW, "", " \t"]), max_size=40)
NAN = float("nan")  # json.dumps writes NaN, and Python's json reads it


def _with(**change):
    return lambda docs, i: json.dumps({**docs[i], **change})


# each fault as the line it writes for row i of docs
FAULTS = {
    "json": lambda docs, i: "{not json",
    "missing-field": lambda docs, i: json.dumps({k: v for k, v in docs[i].items() if k != "label"}),
    "repeated-id": lambda docs, i: json.dumps({**docs[i], "id": docs[i - 1]["id"]}),
    "schema-change": _with(schema_id="ps+q"),
    "non-finite-log-prob": _with(candidates=[cand("select a from t", NAN)]),
    "non-finite-value": _with(values=[NAN, 1]),
    "non-finite-prob": _with(calibrated_prob=NAN),
    "extras-clash": _with(extra_features={"logit_prob": 1.0}),
}


def fault_at(*names):
    """No fault, or one of ``names`` at a drawn row."""
    return st.none() | st.tuples(st.sampled_from(names), st.integers(0, 39))


def write_drawn(path, layout, docs, newline, fault) -> None:
    """``docs`` as JSON lines in the places of the non-blank entries of
    ``layout``, the blank ones in between, with or without a newline after
    the last; ``fault``, if any, writes its line for one row instead."""
    lines = [json.dumps(doc) for doc in docs]
    if fault is not None and docs:
        name, at = fault
        lines[at % len(docs)] = FAULTS[name](docs, at % len(docs))
    rows = iter(lines)
    text = "".join((next(rows) if entry.strip() else entry) + "\n" for entry in layout)
    path.write_text(text if newline else text[:-1], encoding="utf-8")


def as_on_one_cpu(read, chunk, size):
    """``read()`` in chunks of ``size`` rows (``chunk`` names the constant) on
    2 CPUs, with a pool from two chunks left, and then on one CPU. Both
    return the same, or raise the same error, as (type, message), and warn
    as a fresh process would, the same; that outcome."""
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, chunk, size)
        patch.setattr(pipeline, "POOL_MIN_CHUNKS", 2)
        patch.setattr(pipeline, "_one_thread", lambda: True)
        for cpus in (2, 1):
            patch.setattr(pipeline, "_cpus", lambda: cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")  # once per text, from a new registry
                try:
                    outcome = read()
                except SqlCalibError as exc:
                    outcome = (type(exc), str(exc))
            assert multiprocessing.active_children() == []
            outcomes.append((outcome, [str(w.message) for w in caught]))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


def candidate(kind, i) -> dict:
    """A record that is usable with the extra ``p_true`` (good), with no
    extras or with a clipped log-prob, or one that is unusable."""
    if kind == "unusable":
        return {"id": f"u{i}", "label": 0, "candidates": [cand("selec nope")]}
    doc = good(i, extra_features={}) if kind == "no-extras" else good(i)
    if kind == "clipped":
        doc["candidates"][1]["sum_log_prob"] = 0.25
    return doc


# files whose first chunk fixes the state and whose rest goes to workers: with
# bad JSON in a worker's chunk, with a fault late in the file, and ending in a
# row without a newline
BAD_JSON = dict(layout=[ROW, ""] * 8, newline=True, size=3, fault=("json", 7))
LATE_FAULT = dict(layout=[ROW, "", ROW, " \t"] * 6, newline=True, size=2)
NO_NEWLINE = dict(layout=["", ROW, ROW, " \t", ROW] * 5, newline=False, size=2, fault=None)


@settings(deadline=None)
@given(
    layout=st.lists(
        st.sampled_from(["good", "good", "unusable", "clipped", "no-extras", "", " \t"]),
        max_size=40,
    ),
    newline=st.booleans(),
    size=st.integers(1, 7),
    fault=fault_at("json", "missing-field", "repeated-id", "non-finite-log-prob", "extras-clash"),
)
@example(**{**BAD_JSON, "layout": ["good", ""] * 8})
@example(**{**LATE_FAULT, "layout": ["good", "", "clipped", " \t"] * 6}, fault=("json", 9))
@example(**{**NO_NEWLINE, "layout": ["", "good", "unusable", " \t", "no-extras"] * 5})
def test_featurize_writes_and_warns_as_on_one_cpu(layout, newline, size, fault):
    docs = [candidate(kind, i) for i, kind in enumerate(k for k in layout if k.strip())]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.jsonl", Path(tmp) / "features.jsonl"
        write_drawn(src, layout, docs, newline, fault)

        def run():
            pipeline.featurize_command(src, out, "mps-nb")
            return _bytes(out)

        outcome = as_on_one_cpu(run, "CHUNK_RECORDS", size)
        assert list(Path(tmp).glob("*.tmp")) == []
    if not isinstance(outcome[0], type):  # written: every record counted, rows in file order
        rows, summary = outcome
        assert json.loads(summary)["input_records"] == len(docs)
        used = [int(json.loads(row)["id"][1:]) for row in rows.splitlines()]
        assert used == sorted(used)


def load_drawn(loader, layout, docs, newline, size, fault):
    """``as_on_one_cpu`` for ``loader`` on ``docs`` written by ``write_drawn``;
    when it loads, its ids are those of ``docs``, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.jsonl"
        write_drawn(path, layout, docs, newline, fault)
        outcome = as_on_one_cpu(lambda: _columns(loader(path)), "CHUNK_ROWS", size)
    if not isinstance(outcome[0], type):
        assert list(outcome[0]) == [str(doc["id"]) for doc in docs]


@settings(deadline=None)
@given(
    layout=LAYOUT, newline=st.booleans(), size=st.integers(1, 7),
    fault=fault_at("json", "missing-field", "repeated-id", "schema-change", "non-finite-value"),
)
@example(**BAD_JSON)
@example(**LATE_FAULT, fault=("non-finite-value", 9))
@example(**NO_NEWLINE)
def test_a_feature_file_loads_as_on_one_cpu(layout, newline, size, fault):
    docs = feature_rows()[:layout.count(ROW)]
    load_drawn(pipeline.load_features, layout, docs, newline, size, fault)


@settings(deadline=None)
@given(
    layout=LAYOUT, newline=st.booleans(), size=st.integers(1, 7),
    fault=fault_at("json", "missing-field", "repeated-id", "non-finite-prob"),
)
@example(**BAD_JSON)
@example(**LATE_FAULT, fault=("repeated-id", 9))
@example(**NO_NEWLINE)
def test_a_scored_file_loads_as_on_one_cpu(layout, newline, size, fault):
    docs = scored_rows()[:layout.count(ROW)]
    load_drawn(pipeline.load_scored, layout, docs, newline, size, fault)


def test_the_chunks_left_decide_on_a_pool_whatever_the_clock(
    tmp_path, monkeypatch, started, as_one_thread
):
    # the real threshold, with short chunks so that the files stay small, and
    # a clock that jumps 10 s a call: a file with as many chunks left as the
    # threshold starts a pool on every run, and one with a chunk fewer none
    clock = itertools.count(0.0, 10.0)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(pipeline, "CHUNK_RECORDS", 2)
    monkeypatch.setattr(pipeline, "CHUNK_ROWS", ROWS)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    left = pipeline.POOL_MIN_CHUNKS

    def scored(i):
        return {"id": f"r{i}", "label": i % 2, "calibrated_prob": i % 5 / 4}

    for kind, size, row in [("candidates", 2, good), ("scored", ROWS, scored)]:
        for chunks_left, pools in [(left, [2]), (left - 1, [])]:
            path = tmp_path / f"{kind}{chunks_left}.jsonl"
            rows = [json.dumps(row(i)) + "\n" for i in range((1 + chunks_left) * size)]
            path.write_text("".join(rows), encoding="utf-8")
            for _ in range(3):
                started.clear()
                _read(kind, path)
                assert started == pools, (kind, chunks_left)
                assert multiprocessing.active_children() == []


# The head of a child interpreter's script: sqlcalib from argv[1], and the
# start method of each pool started appended to ``methods``.
HEAD = """\
import concurrent.futures, json, os, sys, threading
sys.path.insert(0, sys.argv[1])
from sqlcalib import cli, pipeline
methods = []
class Executor(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers, mp_context):
        methods.append(mp_context.get_start_method())
        super().__init__(max_workers, mp_context=mp_context)
concurrent.futures.ProcessPoolExecutor = Executor
"""
# ... reading on argv[2] CPUs, with a pool from two chunks left
CHILD = HEAD + "pipeline._cpus = lambda: int(sys.argv[2])\npipeline.POOL_MIN_CHUNKS = 2\n"
# ... run on argv[2] CPUs of its affinity mask, with _cpus and POOL_MIN_CHUNKS
# as they are in any run
PINNED = HEAD + "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[2])])\n"
# numpy then starts no BLAS thread, so the child runs one OS thread
ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def run_child(code, *argv, env=None):
    """Run ``code`` in a child whose environment is this one's updated by
    ``env``, where a value of None removes the variable."""
    return subprocess.run(
        # Python 3.12+ warns when a process of several threads forks: print it if it does
        [sys.executable, "-W", "always:This process:DeprecationWarning", "-c", code, *argv],
        capture_output=True, text=True, timeout=120, check=False,
        env={k: v for k, v in {**os.environ, **(env or {})}.items() if v is not None},
    )


def cli_in_children(tmp_path, argv, env, head=CHILD):
    """``sqlcalib`` with the arguments ``argv(cpus)`` in a child that runs
    ``head`` on 2 CPUs, then on 1, which print the same; the pooled child's
    stderr, the start methods of the pools each child started, and whether
    each had loaded numpy when the command returned."""
    code = head + (
        "rc = cli.main(sys.argv[4:])\n"
        "with open(sys.argv[3], 'w') as fh:\n"
        "    json.dump([methods, 'numpy' in sys.modules], fh)\n"
        "sys.exit(rc)\n"
    )
    runs, started_and_numpy = [], []
    for cpus in (2, 1):
        started = tmp_path / f"started{cpus}.json"
        runs.append(
            run_child(code, str(ROOT / "src"), str(cpus), str(started), *argv(cpus), env=env)
        )
        started_and_numpy.append(json.loads(started.read_text()))
    pooled, inline = runs
    assert pooled.returncode == inline.returncode == 0, pooled.stderr + inline.stderr
    assert "multi-threaded" not in pooled.stderr
    assert (pooled.stdout, pooled.stderr) == (inline.stdout, inline.stderr)
    assert list(tmp_path.glob("*.tmp")) == []
    methods, numpy_loaded = zip(*started_and_numpy)
    return pooled.stderr, list(methods), list(numpy_loaded)


def featurize_in_children(tmp_path, env):
    """``cli_in_children`` for ``sqlcalib featurize`` on ``mixed_lines``, whose
    two children write the same files and warn once of clipping."""
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(mixed_lines()) + "\n", encoding="utf-8")
    stderr, methods, numpy_loaded = cli_in_children(
        tmp_path,
        lambda cpus: ["featurize", "--input", str(src), "--output", str(tmp_path / f"f{cpus}.jsonl")],
        env,
    )
    assert stderr.count("probability will be clipped") == 1
    assert _bytes(tmp_path / "f2.jsonl") == _bytes(tmp_path / "f1.jsonl")
    return methods, numpy_loaded


def test_clipping_warning_is_printed_once_as_in_one_process(tmp_path):
    methods, _ = featurize_in_children(tmp_path, env=None)
    assert len(methods[0]) == 1 and methods[1] == []


def test_a_cli_run_of_one_thread_forks_and_prints_as_in_one_process(tmp_path):
    # compare loads numpy only once both scored files are decoded, so with no
    # BLAS variable set the pools of both reads fork
    features, evaluated = tmp_path / "features.jsonl", tmp_path / "e"
    pipeline.synth_command(2 * pipeline.CHUNK_ROWS + 1, "mps-signal", 0, features)  # three chunks
    pipeline.evaluate_command(features, None, evaluated)
    scored = str(evaluated / "scored.jsonl")
    _, methods, numpy_loaded = cli_in_children(
        tmp_path,
        lambda cpus: ["compare", "--input-a", scored, "--input-b", scored,
                      "--output", str(tmp_path / f"shift{cpus}.json")],
        env=dict.fromkeys(ONE_BLAS_THREAD),
    )
    assert methods == [["fork", "fork"], []]
    assert numpy_loaded == [True, True]
    assert (tmp_path / "shift2.json").read_bytes() == (tmp_path / "shift1.json").read_bytes()


def test_a_plain_cli_run_loads_no_numpy_and_forks(tmp_path):
    # no BLAS variable set: had numpy been imported, its BLAS thread would keep the pool from starting
    methods, numpy_loaded = featurize_in_children(tmp_path, env=dict.fromkeys(ONE_BLAS_THREAD))
    assert methods == [["fork"], []]
    assert numpy_loaded == [False, False]


def test_a_plain_cli_fit_forks_its_loader_and_writes_the_same_model(tmp_path):
    # fit loads numpy only once the feature file is decoded, so with no BLAS
    # variable set the loader's pool still forks
    src = tmp_path / "features.jsonl"
    pipeline.synth_command(2 * pipeline.CHUNK_ROWS + 1, "mps-signal", 0, src)  # three chunks
    _, methods, numpy_loaded = cli_in_children(
        tmp_path,
        lambda cpus: ["fit", "--input", str(src), "--output", str(tmp_path / f"m{cpus}.json")],
        env=dict.fromkeys(ONE_BLAS_THREAD),
    )
    assert methods == [["fork"], []]
    assert numpy_loaded == [True, True]
    assert (tmp_path / "m2.json").read_bytes() == (tmp_path / "m1.json").read_bytes()


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs"
)
def test_a_plain_cli_fit_writes_the_model_of_one_cpu(tmp_path):
    # no BLAS variable set: on this file a BLAS thread per CPU changes the
    # model's last bits, so the CLI must pin one itself
    src = tmp_path / "features.jsonl"
    pipeline.synth_command(10_000, "mps-signal", 3, src)
    cli_in_children(
        tmp_path,
        lambda cpus: ["fit", "--input", str(src), "--output", str(tmp_path / f"m{cpus}.json")],
        env=dict.fromkeys(ONE_BLAS_THREAD), head=PINNED,
    )
    assert (tmp_path / "m2.json").read_bytes() == (tmp_path / "m1.json").read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs"
)
def test_a_plain_cli_fit_pools_a_pipe_and_writes_the_model_of_the_file(tmp_path):
    # CPU count and threshold as in any run: five chunks, so four are left
    # once the first fixes the schema, the real POOL_MIN_CHUNKS. BLAS runs
    # one thread, as the CPU count would otherwise change the model's last bits
    src = tmp_path / "features.jsonl"
    pipeline.synth_command(5 * pipeline.CHUNK_ROWS, "mps-signal", 0, src)
    writers = []

    def piped(cpus):
        fifo = tmp_path / f"pipe{cpus}"
        writers.append(feeding(fifo, src))
        return fifo

    models = []
    for name, source in [("piped", piped), ("file", lambda cpus: src)]:
        _, methods, _ = cli_in_children(
            tmp_path,
            lambda cpus: ["fit", "--input", str(source(cpus)),
                          "--output", str(tmp_path / f"{name}{cpus}.json")],
            env=ONE_BLAS_THREAD, head=PINNED,
        )
        assert methods == [["fork"], []], name
        models += [(tmp_path / f"{name}{cpus}.json").read_bytes() for cpus in (2, 1)]
    for writer in writers:
        assert writer.wait(timeout=60) == 0
    assert len(set(models)) == 1


@pytest.mark.parametrize(
    "setup, methods",
    [
        ("", ["fork"]),
        ("release = threading.Event()\n"
         "threading.Thread(target=release.wait, daemon=True).start()\n", []),
        ("listdir = os.listdir\n"
         "def no_proc(path='.'):\n"
         "    if str(path).startswith('/proc'):\n"
         "        raise FileNotFoundError(path)\n"
         "    return listdir(path)\n"
         "os.listdir = no_proc\n", []),
    ],
    ids=["one-thread", "another-thread", "no-proc"],
)
def test_only_a_process_of_one_thread_forks_its_workers(tmp_path, monkeypatch, setup, methods):
    # any other process reads its file itself, as on one CPU
    src, out = tmp_path / "in.jsonl", tmp_path / "f.jsonl"
    src.write_text("\n".join(json.dumps(good(i)) for i in range(3 * CHUNK)) + "\n")
    code = CHILD + setup + (
        "pipeline.featurize_command(sys.argv[3], sys.argv[4], 'mps-nb')\n"
        "print(json.dumps(methods))\n"
    )
    proc = run_child(code, str(ROOT / "src"), "2", str(src), str(out), env=ONE_BLAS_THREAD)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == methods
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    pipeline.featurize_command(src, tmp_path / "f1.jsonl", "mps-nb")
    assert _bytes(out) == _bytes(tmp_path / "f1.jsonl")
