"""Tests of the benchmark itself: output contract, seeded inputs, tracing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, tracer, workloads  # noqa: E402
from perfbench.tracer import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    """A copy of what the benchmark needs, like a checkout without .git."""
    dest = tmp_path / "checkout"
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _bench(cwd: Path, workload: str, trace: int, seed: int = 0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_benchmark_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, *_) in tracer.LAYER_METRICS.items()
    }


@pytest.mark.parametrize(
    "workload, trace",
    [("pool-dup", 0), ("pool-distinct", 0), ("synth-40k", 0), ("pool-dup", 1), ("synth-40k", 1)],
)
def test_smoke_run_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = _bench(_checkout(tmp_path), workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    proc = _bench(_checkout(tmp_path, with_src=False), "pool-dup", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    paths = [tmp_path / f"{i}.jsonl" for i in range(3)]
    shapes = [workloads.generate(workload, seed, "tiny", p)
              for seed, p in zip((5, 5, 6), paths)]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    assert shapes[0] == shapes[1]


def test_pool_shapes():
    dup = workloads.pool_shape(workloads.pool_dup_records(30, 1), 0)
    distinct = workloads.pool_shape(workloads.pool_distinct_records(30, 1), 0)
    assert dup.injected_unparseable > 0 and dup.distinct_text_ratio < 0.6
    assert distinct.injected_unparseable == 0 and distinct.distinct_text_ratio >= 0.9


def test_self_time_of_hand_built_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union is counted once
        Span("c", 8.0, 12.0, 0, 0),  # runs past root: clipped to root's end
        Span("other", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0, 1.0]


def test_tracer_spans_counts_and_uninstall():
    import sqlcalib
    from sqlcalib import lexer, pipeline

    original = pipeline.parse_sql
    t = Tracer()
    assert t.install() == []
    try:
        pipeline.parse_sql("SELECT a FROM b")
        with pytest.raises(sqlcalib.errors.ParseError):
            pipeline.parse_sql("selec broken from")
    finally:
        t.uninstall()
    assert pipeline.parse_sql is original
    names = [s.name for s in t.spans() if s.name != tracer.HOOK_SPAN]
    assert names == ["pipeline.parse_sql", "lexer.tokenize"] * 2
    tok = next(s for s in t.spans() if s.name == "lexer.tokenize")
    assert t.spans()[tok.parent].name == "pipeline.parse_sql"
    m = t.layer_metrics(featurize_wall_s=1.0)
    assert m["parser.parse_sql.calls"] == 2 and m["parser.parse_errors"] == 1
    assert m["lexer.tokens"] == len(lexer.tokenize("SELECT a FROM b")) + len(
        lexer.tokenize("selec broken from"))
    assert m["parser.distinct_text_ratio"] == 1.0
