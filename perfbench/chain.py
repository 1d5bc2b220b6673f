"""The user command chain of each workload, run in-process, and its checks.

Commands go through ``sqlcalib.cli.main`` one after another, as a user
would run them: each starts only after the previous one returned.
"""

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import sqlcalib.cli

# Files whose bytes must not change for fixed inputs and seeds.
POOL_OUTPUTS = {
    "input": "input.jsonl",
    "features": "features.jsonl",
    "model_ps": "ps.json",
    "model_mps": "mps.json",
    "metrics": "report/metrics.json",
    "scored_ps": "scored_ps.jsonl",
    "scored_mps": "scored_mps.jsonl",
    "shift": "shift.json",
}
SYNTH_OUTPUTS = {
    "input": "input.jsonl",
    "model_ps": "ps.json",
    "model_mps": "mps.json",
    "metrics_mps": "report_mps/metrics.json",
    "metrics_raw": "report_raw/metrics.json",
    "scored_ps": "scored_ps.jsonl",
    "scored_mps": "scored_mps.jsonl",
    "shift": "shift.json",
}
SIGNAL_FEATURE = "nucleus.agg"  # the column synth --mode mps-signal makes informative


@dataclass
class ChainResult:
    command_s: dict = field(default_factory=dict)  # "fit ps" -> seconds
    stage_rows: dict = field(default_factory=dict)  # "fit" -> rows processed
    commands: int = 0
    failed_commands: int = 0
    records: int = 0
    failed_records: int = 0
    check_failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def chain_s(self) -> float:
        return sum(self.command_s.values())

    def stage_s(self, stage: str) -> float:
        return sum(t for label, t in self.command_s.items() if label.split()[0] == stage)

    @property
    def ok(self) -> bool:
        return not self.failed_commands and not self.failed_records and not self.check_failures


class CommandFailed(Exception):
    pass


class _Runner:
    def __init__(self, work: Path, result: ChainResult, tracer=None, between=None):
        self.work = work
        self.result = result
        self.tracer = tracer
        self.between = between

    def __call__(self, label: str, *argv: str) -> str:
        """Run one CLI command; return its standard output."""
        if self.between is not None:
            self.between()
        if self.tracer is not None:
            self.tracer.command = self.result.commands
        self.result.commands += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sqlcalib.cli.main(list(argv))
        self.result.command_s[label] = time.perf_counter() - t0
        if rc != 0:
            self.result.failed_commands += 1
            raise CommandFailed(f"{label}: exit {rc}: {err.getvalue().strip()[-300:]}")
        return out.getvalue()

    def path(self, name: str) -> str:
        return str(self.work / name)


def _lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if line.strip()]


def _pool_chain(run: _Runner, shape) -> None:
    res, p = run.result, run.path
    res.records = shape.records
    run("featurize", "featurize", "--input", p("input.jsonl"), "--output", p("features.jsonl"),
        "--schema", "mps-nb", "--scope", "union")
    res.stage_rows["featurize"] = shape.candidates
    with open(p("features.jsonl.summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    accounted = summary["used"] + summary["unusable"] + summary["failed"]
    if accounted != summary["input_records"] or summary["input_records"] != shape.records:
        res.check_failures.append(
            f"featurize accounted {accounted} of {summary['input_records']} records, "
            f"input has {shape.records}"
        )
    if summary["candidate_parse_failures"] != shape.injected_unparseable:
        res.check_failures.append(
            f"{summary['candidate_parse_failures']} candidate parse failures, "
            f"{shape.injected_unparseable} injected"
        )
    res.failed_records = shape.records - summary["used"]

    # calibration and test halves, in file order
    rows = _lines(run.work / "features.jsonl")
    half = len(rows) // 2
    (run.work / "cal.jsonl").write_text("".join(rows[:half]), encoding="utf-8")
    (run.work / "test.jsonl").write_text("".join(rows[half:]), encoding="utf-8")
    n_cal, n_test = half, len(rows) - half

    for method in ("ps", "mps"):
        run(f"fit {method}", "fit", "--input", p("cal.jsonl"), "--method", method,
            "--output", p(f"{method}.json"))
    run("evaluate mps", "evaluate", "--input", p("test.jsonl"), "--model", p("mps.json"),
        "--output", p("report"), "--group-by", "group")
    for method in ("ps", "mps"):
        run(f"apply {method}", "apply", "--input", p("test.jsonl"), "--model",
            p(f"{method}.json"), "--output", p(f"scored_{method}.jsonl"))
    run("compare", "compare", "--input-a", p("scored_ps.jsonl"), "--input-b",
        p("scored_mps.jsonl"), "--output", p("shift.json"))
    res.stage_rows.update(fit=2 * n_cal, evaluate=n_test, apply=2 * n_test, compare=n_test)
    for method in ("ps", "mps"):
        scored = len(_lines(run.work / f"scored_{method}.jsonl"))
        if scored != n_test:
            res.check_failures.append(f"apply {method} scored {scored} of {n_test} rows")


def _brier(path: Path) -> float:
    rows = [json.loads(line) for line in _lines(path)]
    return sum((r["calibrated_prob"] - r["label"]) ** 2 for r in rows) / len(rows)


def _synth_chain(run: _Runner, shape) -> None:
    res, p = run.result, run.path
    n = res.records = shape.records
    for method in ("ps", "mps"):
        run(f"fit {method}", "fit", "--input", p("input.jsonl"), "--method", method,
            "--output", p(f"{method}.json"))
    for method in ("ps", "mps"):
        run(f"apply {method}", "apply", "--input", p("input.jsonl"), "--model",
            p(f"{method}.json"), "--output", p(f"scored_{method}.jsonl"))
    run("evaluate mps", "evaluate", "--input", p("input.jsonl"), "--model", p("mps.json"),
        "--output", p("report_mps"))
    run("evaluate raw", "evaluate", "--input", p("input.jsonl"), "--output", p("report_raw"))
    run("compare", "compare", "--input-a", p("scored_ps.jsonl"), "--input-b",
        p("scored_mps.jsonl"), "--output", p("shift.json"))
    res.stage_rows.update(fit=2 * n, apply=2 * n, evaluate=2 * n, compare=n)

    scored = len(_lines(run.work / "scored_mps.jsonl"))
    res.failed_records = n - scored
    with open(p("mps.json"), encoding="utf-8") as fh:
        model = json.load(fh)
    weight = dict(zip(model["feature_names"], model["weights"])).get(SIGNAL_FEATURE)
    if weight is None or weight <= 0:
        res.check_failures.append(f"mps weight of {SIGNAL_FEATURE} is {weight}, not positive")
    b_ps, b_mps = _brier(run.work / "scored_ps.jsonl"), _brier(run.work / "scored_mps.jsonl")
    if not b_mps < b_ps:
        res.check_failures.append(f"mps Brier {b_mps:.6f} is not below ps Brier {b_ps:.6f}")


def outputs(workload: str) -> dict:
    return SYNTH_OUTPUTS if workload == "synth-40k" else POOL_OUTPUTS


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_chain(
    workload: str, work: Path, shape, expected_digests=None, tracer=None, between=None
) -> ChainResult:
    """Run the workload's chain on ``work/input.jsonl`` and check it.

    A failing command ends the chain; it and the rest of the chain's
    records count as failed. ``expected_digests`` maps output keys to
    sha256 values recorded for this input. ``between`` is called before
    each command, outside its timing.
    """
    result = ChainResult()
    run = _Runner(work, result, tracer, between)
    try:
        (_synth_chain if workload == "synth-40k" else _pool_chain)(run, shape)
    except CommandFailed as exc:
        print(f"command failed: {exc}")  # counted once, in failed_commands
        result.records = shape.records
        result.failed_records = shape.records
        return result
    result.digests = {key: sha256(work / name) for key, name in outputs(workload).items()}
    for key, want in (expected_digests or {}).items():
        got = result.digests.get(key)
        if got != want:
            result.check_failures.append(f"{key} sha256 {got} differs from recorded {want}")
    return result
