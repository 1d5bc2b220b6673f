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
import threading
import time
from array import array
from pathlib import Path

import pytest

from sqlcalib import errors, pipeline
from sqlcalib.clausefreq import resolve_schema
from sqlcalib.errors import SqlCalibError

ROOT = Path(__file__).resolve().parents[1]
CHUNK = pipeline.CHUNK_RECORDS
METHODS = ("fork", "spawn")
THRESHOLDS = pipeline.POOL_MIN_RANGES

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
    """The (workers, start method) of each pool started, in order."""

    class Executor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context)

    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    return pools


@pytest.fixture
def featurize_as_is(tmp_path, monkeypatch, started):
    """Featurize ``lines`` with ``cpus`` CPUs; the (workers, start method) of
    each pool started. A pool starts from ``min_ranges`` ranges left, two
    unless given, or at the real thresholds if it is None. Each run leaves
    no worker and no temporary file behind."""

    def run(lines, cpus, min_ranges=2):
        started.clear()
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        thresholds = dict.fromkeys(METHODS, min_ranges) if min_ranges is not None else THRESHOLDS
        monkeypatch.setattr(pipeline, "POOL_MIN_RANGES", thresholds)
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


@pytest.fixture
def featurize(monkeypatch, featurize_as_is):
    """``featurize_as_is`` with workers started by fork, then again by spawn,
    however many threads this process runs (the workers touch no numpy, so a
    fork next to idle BLAS threads is safe here). Both runs write the same
    bytes or raise the same error; the sizes of the pools started."""

    def run(lines, cpus, min_ranges=2):
        outcomes, error = [], None
        for method in METHODS:
            monkeypatch.setattr(pipeline, "_one_thread", lambda: method == "fork")
            try:
                out, started = featurize_as_is(lines, cpus, min_ranges)
            except SqlCalibError as exc:
                outcomes.append((type(exc), str(exc)))
                error = exc
                continue
            assert all(m == method for _, m in started)
            outcomes.append((_bytes(out), [workers for workers, _ in started]))
        assert outcomes[0] == outcomes[1]
        if error is not None:
            raise error
        return out, outcomes[1][1]

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
    for more, pools in [([], []), (lines[:1], [2])]:
        out, started = featurize(lines + more, cpus=4)
        assert started == pools
        assert _bytes(out) == _bytes(featurize(lines + more, cpus=1)[0])


def test_too_little_work_left_starts_no_pool(featurize):
    # three ranges left after the first, below either start method's threshold
    lines = [json.dumps(good(i)) for i in range(4 * CHUNK)]
    assert featurize(lines, cpus=2, min_ranges=None)[1] == []


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


def test_a_spawned_worker_featurizes_a_chunk_without_numpy():
    first = CHUNK + 70  # records 66 to 90: one clipped, one failed
    chunk = [(i, line.encode()) for i, line in enumerate(mixed_lines()[first:first + CHUNK], first)]
    base, layout = resolve_schema("mps-nb"), resolve_schema("mps-nb+p_true")
    task = pickle.dumps((pipeline._featurize_chunk, chunk, base, layout, "union"))  # as submit sends it
    assert b"sqlcalib.pipeline" in task
    code = (
        "import pickle, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "fn, chunk, base, layout, scope = pickle.loads(sys.stdin.buffer.read())\n"
        "done = fn(chunk, base=base, layout=layout, scope=scope)\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('sqlcalib.'))\n"
        "sys.stdout.buffer.write(pickle.dumps((done, 'numpy' in sys.modules, loaded)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], input=task,
                          capture_output=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    done, numpy_loaded, loaded = pickle.loads(proc.stdout)
    assert not numpy_loaded
    assert loaded == [f"sqlcalib.{m}" for m in (
        "clausefreq", "errors", "lexer", "parser", "pipeline", "probability", "sqlast")]
    here = pipeline._featurize_chunk(chunk, base, layout, "union")
    assert (done.rows, done.summary, done.clipped) == (here.rows, here.summary, here.clipped)
    assert (done.summary.used, done.summary.failed, done.clipped) == (CHUNK - 1, 1, True)


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
def load(tmp_path, monkeypatch, started):
    """``loader`` on ``lines``, written with no newline after the last, in
    tasks of ROWS rows: on 2 CPUs with workers forked, then spawned, from two
    ranges left, and then on one CPU. All three return the same
    columns, each array as its bytes, or raise the same error, as (type,
    message); that outcome, and the sizes of the pools each run started."""
    monkeypatch.setattr(pipeline, "CHUNK_ROWS", ROWS)
    monkeypatch.setattr(pipeline, "POOL_MIN_RANGES", dict.fromkeys(METHODS, 2))

    def run(loader, lines):
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        outcomes, pools = [], []
        for cpus, method in [(2, "fork"), (2, "spawn"), (1, "fork")]:
            started.clear()
            monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
            monkeypatch.setattr(pipeline, "_one_thread", lambda: method == "fork")
            try:
                outcomes.append(_columns(loader(path)))
            except SqlCalibError as exc:
                outcomes.append((type(exc), str(exc)))
            assert multiprocessing.active_children() == []
            assert all(m == method for _, m in started)
            pools.append([workers for workers, _ in started])
        assert outcomes[0] == outcomes[1] == outcomes[2]
        return outcomes[0], pools

    return run


def test_pooled_feature_file_loads_as_in_one_process(load):
    rows = feature_rows()
    (ids, groups, X, y, raw, schema_id, names), pools = load(pipeline.load_features, as_lines(rows))
    assert pools == [[2], [2], []]
    assert ids == tuple(str(row["id"]) for row in rows) and groups == tuple(r["group"] for r in rows)
    assert X == array("d", [v for row in rows for v in row["values"]]).tobytes()
    assert y == array("d", [row["label"] for row in rows]).tobytes()
    assert raw == array("d", [row["raw_prob"] for row in rows]).tobytes()
    assert (schema_id, names) == ("ps+p", ("logit_prob", "p"))


def test_pooled_scored_file_loads_as_in_one_process(load):
    rows = scored_rows()
    (ids, labels, probs), pools = load(pipeline.load_scored, as_lines(rows))
    assert pools == [[2], [2], []]
    assert ids == [str(row["id"]) for row in rows]
    assert labels == array("d", [row["label"] for row in rows]).tobytes()
    assert probs == array("d", [row["calibrated_prob"] for row in rows]).tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_descriptor_path_reaches_the_workers_as_the_file_it_names(load):
    # a spawned worker does not inherit this process's descriptors
    def via_descriptor(path):
        with open(path, "rb") as fh:
            return pipeline.load_features(f"/dev/fd/{fh.fileno()}")

    rows = feature_rows()
    (ids, *_), pools = load(via_descriptor, as_lines(rows))
    assert pools == [[2], [2], []] and ids == tuple(str(row["id"]) for row in rows)


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
    assert pools == [[2], [2], []]
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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "kind, lines",
    [("features", as_lines(feature_rows())), ("scored", as_lines(scored_rows())),
     ("candidates", mixed_lines())],
    ids=["features", "scored", "candidates"],
)
@pytest.mark.filterwarnings("ignore:sum_log_prob")
def test_a_pipe_is_read_once_in_this_process(tmp_path, monkeypatch, started, kind, lines):
    monkeypatch.setattr(pipeline, "CHUNK_ROWS", ROWS)
    monkeypatch.setattr(pipeline, "POOL_MIN_RANGES", dict.fromkeys(METHODS, 2))
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    text = "\n".join(lines)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_text, args=(text,), kwargs={"encoding": "utf-8"}, daemon=True
    )
    writer.start()
    piped = _read(kind, fifo)
    writer.join(timeout=60)
    assert not writer.is_alive() and started == []
    regular = tmp_path / "file"
    regular.write_text(text, encoding="utf-8")
    assert piped == _read(kind, regular) and len(started) == 1


@pytest.mark.filterwarnings("ignore:sum_log_prob")
def test_one_cpu_reads_each_file_once_in_this_process(tmp_path, monkeypatch, started):
    def no_ranges(path, size):
        raise AssertionError("cut into ranges")

    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    monkeypatch.setattr(pipeline, "_ranges", no_ranges)
    for kind, lines in [("candidates", mixed_lines()), ("scored", as_lines(scored_rows()))]:
        path = tmp_path / kind
        path.write_text("\n".join(lines), encoding="utf-8")
        _read(kind, path)
    assert started == []


@pytest.mark.parametrize("method", METHODS)
def test_the_ranges_left_decide_on_a_pool_whatever_the_clock(
    tmp_path, monkeypatch, started, method
):
    # the real thresholds, with short ranges so that spawn's files stay small,
    # and a clock that jumps 10 s a call: a file with as many ranges left as
    # the threshold starts a pool on every run, and one with a range fewer none
    clock = itertools.count(0.0, 10.0)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(pipeline, "CHUNK_RECORDS", 2)
    monkeypatch.setattr(pipeline, "CHUNK_ROWS", ROWS)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_one_thread", lambda: method == "fork")
    left = pipeline.POOL_MIN_RANGES[method]

    def scored(i):
        return {"id": f"r{i}", "label": i % 2, "calibrated_prob": i % 5 / 4}

    for kind, size, row in [("candidates", 2, good), ("scored", ROWS, scored)]:
        for ranges_left, pools in [(left, [(2, method)]), (left - 1, [])]:
            path = tmp_path / f"{kind}{ranges_left}.jsonl"
            rows = [json.dumps(row(i)) + "\n" for i in range((1 + ranges_left) * size)]
            path.write_text("".join(rows), encoding="utf-8")
            for _ in range(3):
                started.clear()
                _read(kind, path)
                assert started == pools, (kind, ranges_left)
                assert multiprocessing.active_children() == []


# The head of a child interpreter's script: sqlcalib from argv[1], featurize on
# argv[2] CPUs from two ranges left, and the start method of each pool
# started appended to ``methods``.
CHILD = """\
import concurrent.futures, json, os, sys, threading
sys.path.insert(0, sys.argv[1])
from sqlcalib import cli, pipeline
pipeline._cpus = lambda: int(sys.argv[2])
pipeline.POOL_MIN_RANGES = dict.fromkeys(("fork", "spawn"), 2)
methods = []
class Executor(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers, mp_context):
        methods.append(mp_context.get_start_method())
        super().__init__(max_workers, mp_context=mp_context)
concurrent.futures.ProcessPoolExecutor = Executor
"""
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


def cli_in_children(tmp_path, argv, env):
    """``sqlcalib`` with the arguments ``argv(cpus)`` in a child on 2 CPUs,
    then on 1, which print the same; the pooled child's stderr, the start
    methods of the pools each child started, and whether each had loaded
    numpy when the command returned."""
    code = CHILD + (
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
    assert featurize_in_children(tmp_path, env=ONE_BLAS_THREAD)[0] == [["fork"], []]


def test_a_plain_cli_run_loads_no_numpy_and_forks(tmp_path):
    # no BLAS variable set: had numpy been imported, its BLAS thread would make the pool spawn
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


@pytest.mark.parametrize(
    "setup, method",
    [
        ("", "fork"),
        ("release = threading.Event()\n"
         "threading.Thread(target=release.wait, daemon=True).start()\n", "spawn"),
        ("listdir = os.listdir\n"
         "def no_proc(path='.'):\n"
         "    if str(path).startswith('/proc'):\n"
         "        raise FileNotFoundError(path)\n"
         "    return listdir(path)\n"
         "os.listdir = no_proc\n", "spawn"),
    ],
    ids=["one-thread", "another-thread", "no-proc"],
)
def test_only_a_process_of_one_thread_forks_its_workers(tmp_path, setup, method):
    src, out = tmp_path / "in.jsonl", tmp_path / "f.jsonl"
    src.write_text("\n".join(json.dumps(good(i)) for i in range(3 * CHUNK)) + "\n")
    code = CHILD + setup + (
        "pipeline.featurize_command(sys.argv[3], sys.argv[4], 'mps-nb')\n"
        "print(json.dumps(methods))\n"
    )
    proc = run_child(code, str(ROOT / "src"), "2", str(src), str(out), env=ONE_BLAS_THREAD)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == [method]
