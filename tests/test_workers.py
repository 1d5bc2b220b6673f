"""Featurize on worker processes: the same bytes, errors and warnings as a
run in one process, and no process left behind."""

import concurrent.futures
import json
import multiprocessing
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

ERRORS = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, SqlCalibError)),
    key=lambda c: c.__name__,
)
# constructor arguments of the errors that take more than a message
ARGS = {errors.ParseError: ("unexpected token", 7), errors.JsonError: ("Expecting value", 3)}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_every_error_round_trips_through_pickle(cls):
    exc = cls(*ARGS.get(cls, ("line 4: missing field 'label'",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))  # line, offset


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
def featurize(tmp_path, monkeypatch):
    """Featurize ``lines`` with ``cpus`` CPUs; the sizes of the pools started.
    A pool starts however little work is left, unless ``min_seconds`` is given."""

    class Executor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    def run(lines, cpus, min_seconds=0.0):
        started.clear()
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        monkeypatch.setattr(pipeline, "POOL_MIN_SECONDS", min_seconds)
        src = tmp_path / f"in{cpus}.jsonl"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / f"out{cpus}" / "features.jsonl"
        out.parent.mkdir(exist_ok=True)
        try:
            pipeline.featurize_command(src, out, "mps-nb")
        finally:
            assert multiprocessing.active_children() == []
        return out, list(started)

    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
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
    assert featurize(lines, cpus=4)[1] == []
    assert featurize(lines + lines[:1], cpus=4)[1] == [2]


def test_too_little_work_left_starts_no_pool(featurize):
    # about 0.05 s of parsing, far below the workers' start
    lines = [json.dumps(good(i)) for i in range(4 * CHUNK)]
    assert featurize(lines, cpus=2, min_seconds=pipeline.POOL_MIN_SECONDS)[1] == []


@pytest.mark.parametrize(
    "bad, error",
    [
        ("{not json", errors.JsonError),
        ("[1, 2]", errors.SchemaError),
        (json.dumps({"id": "x", "candidates": [cand("select a from b")]}), errors.SchemaError),
        (json.dumps({**good(0), "candidates": [cand("select a from b", source="oracle")]}),
         errors.SchemaError),
    ],
    ids=["json", "non-object", "missing-field", "bad-candidate"],
)
@pytest.mark.filterwarnings("ignore:sum_log_prob")
def test_error_in_the_last_chunk_is_raised_as_in_one_process(featurize, tmp_path, bad, error):
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
    assert f"line {lineno}:" in raised[0][1]


def test_a_spawned_worker_featurizes_a_chunk_without_numpy():
    first = CHUNK + 70  # records 66 to 90: one clipped, one failed
    chunk = [(i, line.encode()) for i, line in enumerate(mixed_lines()[first:first + CHUNK], first)]
    base, layout = resolve_schema("mps-nb"), resolve_schema("mps-nb+p_true")
    task = pickle.dumps((pipeline._featurize_chunk, chunk, base, layout, "union"))  # as submit sends it
    assert b"sqlcalib.records" in task and b"sqlcalib.pipeline" not in task
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
        "clausefreq", "errors", "lexer", "parser", "probability", "records", "sqlast")]
    here = pipeline._featurize_chunk(chunk, base, layout, "union")
    assert (done.rows, done.summary, done.clipped) == (here.rows, here.summary, here.clipped)
    assert (done.summary.used, done.summary.failed, done.clipped) == (CHUNK - 1, 1, True)


def test_clipping_warning_is_printed_once_as_in_one_process(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(mixed_lines()) + "\n", encoding="utf-8")
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from sqlcalib import cli, pipeline\n"
        "pipeline._cpus = lambda: int(sys.argv[2])\n"
        "pipeline.POOL_MIN_SECONDS = 0.0\n"
        "sys.exit(cli.main(sys.argv[3:]))\n"
    )
    runs = []
    for cpus in (2, 1):
        argv = ["featurize", "--input", str(src), "--output", str(tmp_path / f"f{cpus}.jsonl")]
        runs.append(subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), str(cpus), *argv],
            capture_output=True, text=True, timeout=120, check=False,
        ))
    pooled, inline = runs
    assert pooled.returncode == inline.returncode == 0, pooled.stderr + inline.stderr
    assert pooled.stderr.count("probability will be clipped") == 1
    assert (pooled.stdout, pooled.stderr) == (inline.stdout, inline.stderr)
    assert (tmp_path / "f2.jsonl").read_bytes() == (tmp_path / "f1.jsonl").read_bytes()
