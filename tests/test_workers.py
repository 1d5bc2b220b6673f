"""Featurize on worker processes: the same bytes, errors and warnings as a
run in one process, and no process left behind."""

import concurrent.futures
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from sqlcalib import errors, pipeline
from sqlcalib.clausefreq import resolve_schema
from sqlcalib.errors import SqlCalibError

ROOT = Path(__file__).resolve().parents[1]
CHUNK = pipeline.CHUNK_RECORDS
METHODS = ("fork", "spawn")
THRESHOLDS = pipeline.POOL_MIN_SECONDS

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
def featurize_as_is(tmp_path, monkeypatch):
    """Featurize ``lines`` with ``cpus`` CPUs; the (workers, start method) of
    each pool started. A pool starts however little work is left, unless
    ``min_seconds`` is None, which keeps the real thresholds. Each run leaves
    no worker and no temporary file behind."""

    class Executor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            started.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context)

    def run(lines, cpus, min_seconds=0.0):
        started.clear()
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        thresholds = dict.fromkeys(METHODS, min_seconds) if min_seconds is not None else THRESHOLDS
        monkeypatch.setattr(pipeline, "POOL_MIN_SECONDS", thresholds)
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

    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    return run


@pytest.fixture
def featurize(monkeypatch, featurize_as_is):
    """``featurize_as_is`` with workers started by fork, then again by spawn,
    however many threads this process runs (the workers touch no numpy, so a
    fork next to idle BLAS threads is safe here). Both runs write the same
    bytes or raise the same error; the sizes of the pools started."""

    def run(lines, cpus, min_seconds=0.0):
        outcomes, error = [], None
        for method in METHODS:
            monkeypatch.setattr(pipeline, "_one_thread", lambda: method == "fork")
            try:
                out, started = featurize_as_is(lines, cpus, min_seconds)
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
    # about 0.05 s of parsing, below either start method's threshold
    lines = [json.dumps(good(i)) for i in range(4 * CHUNK)]
    assert featurize(lines, cpus=2, min_seconds=None)[1] == []


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


# The head of a child interpreter's script: sqlcalib from argv[1], featurize on
# argv[2] CPUs with no work threshold, and the start method of each pool
# started appended to ``methods``.
CHILD = """\
import concurrent.futures, json, os, sys, threading
sys.path.insert(0, sys.argv[1])
from sqlcalib import cli, pipeline
pipeline._cpus = lambda: int(sys.argv[2])
pipeline.POOL_MIN_SECONDS = dict.fromkeys(("fork", "spawn"), 0.0)
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


def featurize_in_children(tmp_path, env):
    """``sqlcalib featurize`` on ``mixed_lines`` in a child on 2 CPUs, then on
    1, which print and write the same; the start methods of the pools each
    started, and whether each child had loaded numpy when the command returned."""
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(mixed_lines()) + "\n", encoding="utf-8")
    code = CHILD + (
        "rc = cli.main(sys.argv[4:])\n"
        "with open(sys.argv[3], 'w') as fh:\n"
        "    json.dump([methods, 'numpy' in sys.modules], fh)\n"
        "sys.exit(rc)\n"
    )
    runs, started_and_numpy = [], []
    for cpus in (2, 1):
        argv = ["featurize", "--input", str(src), "--output", str(tmp_path / f"f{cpus}.jsonl")]
        started = tmp_path / f"started{cpus}.json"
        runs.append(run_child(code, str(ROOT / "src"), str(cpus), str(started), *argv, env=env))
        started_and_numpy.append(json.loads(started.read_text()))
    pooled, inline = runs
    assert pooled.returncode == inline.returncode == 0, pooled.stderr + inline.stderr
    assert pooled.stderr.count("probability will be clipped") == 1
    assert "multi-threaded" not in pooled.stderr
    assert (pooled.stdout, pooled.stderr) == (inline.stdout, inline.stderr)
    assert _bytes(tmp_path / "f2.jsonl") == _bytes(tmp_path / "f1.jsonl")
    assert list(tmp_path.glob("*.tmp")) == []
    methods, numpy_loaded = zip(*started_and_numpy)
    return list(methods), list(numpy_loaded)


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
