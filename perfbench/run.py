"""Benchmark of the sqlcalib command chain, end to end and layer by layer.

Run from the root of a sqlcalib checkout:

    python3 perfbench/run.py --workload pool-dup --seed 0 --seconds 30 --trace 0

The program is imported from the checkout's ``src``. Inputs are generated
from ``--seed``; the chain of CLI commands then runs in-process, closed
loop, for about ``--seconds`` seconds. Every chain's outputs are checked.

``--trace 0`` reports the end-to-end metrics: chain_ref, the wall time
of the whole chain divided by the mean time of a fixed reference workload
timed between its commands, median over chains (see ``reference_work``);
peak_rss_mb, of a fresh process that runs the chain once; and setup_s,
the median time for a fresh interpreter to import sqlcalib.cli and run
its first command. The raw chain_s and each command's throughput are
printed too. ``--trace 1`` alternates untraced and traced chains and
reports the per-layer metrics of ``tracer.LAYER_METRICS``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A run writes only under
``.perfbench/``: the result with its environment in ``results/``, and
the spans of a traced chain next to it.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pool-dup", "pool-distinct", "synth-40k")
DEFAULT_SEED = 0  # the seed whose output digests are recorded in digests.json
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # one BLAS thread keeps reductions, and so output bytes, fixed
SETUP_REPS = 9
SETUP_SQL = "SELECT name, count(*) FROM users WHERE age > 30 GROUP BY name ORDER BY name LIMIT 5"
SETUP_CODE = """\
import contextlib, io, sys
import sqlcalib.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = sqlcalib.cli.main(["parse", sys.argv[1]])
sys.exit(rc)
"""
CHILD_TIMEOUT_S = 120

# The end_to_end metrics of BENCHMARK.json, with their units. Each exists
# on every workload.
E2E_METRICS = {"chain_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
# Throughput of each command of the chain: metric name and unit. These are
# printed and kept in the result file; in the pool chains a command after
# featurize runs on a few hundred rows, too briefly to be timed steadily.
STAGE_METRICS = {
    "featurize": ("featurize_cands_per_s", "cand/s"),
    "fit": ("fit_rows_per_s", "rows/s"),
    "apply": ("apply_rows_per_s", "rows/s"),
    "evaluate": ("evaluate_rows_per_s", "rows/s"),
    "compare": ("compare_rows_per_s", "rows/s"),
}
REF_ROWS = 3000  # size of the reference work; 35-60 ms on a 2-core Xeon VM


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "sqlcalib" / "cli.py").is_file():
        print(f"error: no {src / 'sqlcalib'}; run from the root of a sqlcalib checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src), str(root)])  # for child processes
    sys.path[:0] = [str(src), str(root)]
    import sqlcalib

    if Path(sqlcalib.__file__).resolve().parent != (src / "sqlcalib").resolve():
        print(f"error: sqlcalib imported from {sqlcalib.__file__}, not {src}", file=sys.stderr)
        return 2

    work = root / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = root / ".perfbench" / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        return Bench(args, root, work, results).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def reference_work() -> int:
    """Fixed stdlib work in the chain's own mix: JSON encode and decode,
    scanning text character by character, splitting and counting words.

    It uses no sqlcalib code, so a change to the program leaves its time
    alone, while the host running Python slower, as a shared host does for
    seconds or minutes at a time, slows it about as much as the chain. It
    runs before every command of a chain and once after it; chain_ref is
    the median over chains of the chain's time divided by the mean time of
    its own reference runs, which takes most of the host's drift out of
    run-to-run comparisons.
    """
    rows = [
        {"id": f"r{i:05d}", "sql": f"select a, b from t{i % 7} where c > {i} order by a",
         "p": i / 3, "tags": ["x", "y", i]}
        for i in range(REF_ROWS)
    ]
    text = json.dumps(rows)
    words: dict = {}
    for row in json.loads(text):
        for word in row["sql"].split():
            words[word] = words.get(word, 0) + 1
    return sum(1 for ch in text if ch.isalnum() or ch == "_") + len(words)


def time_reference(samples: list) -> None:
    t0 = time.perf_counter()
    reference_work()
    samples.append(time.perf_counter() - t0)


# -- environment -------------------------------------------------------------------


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which names the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((src / "sqlcalib").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_env": BLAS_THREADS,
        "commit": git_commit(root),
        "src_sha256": source_digest(root / "src"),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- the run -----------------------------------------------------------------------


class Bench:
    def __init__(self, args, root: Path, work: Path, results: Path):
        self.args = args
        self.root = root
        self.work = work
        self.results = results
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self) -> int:
        from perfbench import workloads

        args = self.args
        env = environment(self.root, args)
        print("env " + json.dumps(env))
        self.shape = workloads.generate(args.workload, args.seed, args.scale,
                                        self.work / "input.jsonl")
        print("shape " + json.dumps(self.shape.as_dict()))
        self.expected = self.expected_digests()

        if args.trace:
            metrics, detail = self.traced_run()
        else:
            metrics, detail = self.untraced_run()

        correct = not self.errors and self.failed == 0
        for line in self.errors[:20]:
            print(f"check failed: {line}")
        print(f"failed_ratio = {self.failed / max(self.attempted, 1):.6f} "
              f"({self.failed} of {self.attempted} records and commands)")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
        doc = {"env": env, "shape": self.shape.as_dict(), "correct": correct,
               "attempted": self.attempted, "failed": self.failed, "errors": self.errors,
               "metrics": {k: v for k, (v, _) in metrics.items()}, **detail}
        out = self.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(doc, indent=1) + "\n")

        reported = self.reported_names()
        line = {
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
        }
        print(json.dumps(line))
        return 0 if correct else 1

    def reported_names(self) -> list[str]:
        if self.args.trace:
            from perfbench.tracer import LAYER_METRICS

            return list(LAYER_METRICS)
        return list(E2E_METRICS)

    def expected_digests(self) -> dict | None:
        if self.args.seed != DEFAULT_SEED or self.args.scale != "full":
            return None
        with open(Path(__file__).with_name("digests.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)
        return recorded[self.args.workload]

    def account(self, result) -> None:
        self.attempted += result.records + result.commands
        self.failed += result.failed_records + result.failed_commands + len(result.check_failures)
        self.errors.extend(result.check_failures)

    def chain(self, tracer=None, between=None):
        import gc

        from perfbench.chain import run_chain

        gc.collect()
        result = run_chain(self.args.workload, self.work, self.shape, self.expected, tracer,
                           between)
        self.account(result)
        return result

    def deadline_reached(self, t0: float, last_s: float) -> bool:
        """True once another chain of the last one's length would overrun."""
        return time.perf_counter() - t0 + last_s > self.args.seconds

    # -- untraced: end-to-end metrics ----------------------------------------------

    def untraced_run(self):
        setup_samples = self.measure_setup()
        peak_rss = self.measure_peak_rss()
        chains, ratios, ref_samples = [], [], []
        t0 = time.perf_counter()
        while True:
            refs: list[float] = []
            chains.append(self.chain(between=functools.partial(time_reference, refs)))
            time_reference(refs)
            if chains[-1].ok:
                ratios.append(chains[-1].chain_s / statistics.mean(refs))
            ref_samples.append(refs)
            if not chains[-1].ok or self.deadline_reached(t0, chains[-1].chain_s):
                break
        ok = [c for c in chains if c.ok] or chains
        chain_samples = [c.chain_s for c in ok]
        chain_s = statistics.median(chain_samples)
        metrics = {"chain_ref": (statistics.median(ratios or [0.0]), "ref"),
                   "chain_s": (chain_s, "s")}
        for stage, (name, unit) in STAGE_METRICS.items():
            rates = [c.stage_rows[stage] / c.stage_s(stage) for c in ok
                     if c.stage_rows.get(stage) and c.stage_s(stage) > 0]
            if rates:
                metrics[name] = (statistics.median(rates), unit)
        metrics["peak_rss_mb"] = (peak_rss, "MB")
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        print(f"chains {len(chain_samples)}: chain_s min {min(chain_samples):.4f} "
              f"max {max(chain_samples):.4f}; reference runs per chain {len(ref_samples[0])}; "
              f"setup_s samples {len(setup_samples)}")
        detail = {
            "chain_s_samples": chain_samples,
            "chain_ref_samples": ratios,
            "reference_s_samples": ref_samples,
            "setup_s_samples": setup_samples,
            "command_s": [c.command_s for c in chains],
            "digests": chains[-1].digests,
        }
        return metrics, detail

    def measure_setup(self) -> list[float]:
        """Wall time of fresh interpreters importing sqlcalib.cli and
        running their first command."""
        samples = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, SETUP_SQL],
                cwd=self.root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S, check=False,
            )
            samples.append(time.perf_counter() - t0)
            self.attempted += 1
            if proc.returncode != 0:
                self.failed += 1
                self.errors.append(f"setup exited {proc.returncode}: {proc.stderr[-300:]!r}")
        return samples

    def measure_peak_rss(self) -> float:
        """Peak RSS of a fresh process that runs the chain once."""
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("peak_rss.py")), self.args.workload,
             str(self.work), json.dumps(self.shape.as_dict())],
            cwd=self.root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        self.attempted += 1
        try:
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.failed += 1
            self.errors.append(f"peak_rss child exited {proc.returncode}: {proc.stderr[-300:]!r}")
            return 0.0
        self.attempted += doc["commands"]
        self.failed += doc["failed_commands"] + len(doc["check_failures"])
        self.errors.extend(f"peak_rss child: {e}" for e in doc["check_failures"])
        return doc["peak_rss_mb"]

    # -- traced: per-layer metrics ---------------------------------------------------

    def traced_run(self):
        from perfbench.tracer import LAYER_METRICS, Tracer, median_layer_metrics

        plain, traced, layers, first = [], [], [], None
        t0 = time.perf_counter()
        while True:  # traced first, so the first chain of the process is traced
            tracer = Tracer()
            missing = tracer.install()
            try:
                result = self.chain(tracer)
            finally:
                tracer.uninstall()
            traced.append(result)
            layers.append(tracer.layer_metrics(result.command_s.get("featurize", 0.0)))
            first = first or tracer
            plain.append(self.chain())
            if not (plain[-1].ok and result.ok):
                break
            if self.deadline_reached(t0, plain[-1].chain_s + result.chain_s):
                break
        for name in missing:
            print(f"warning: {name} not found; its layer metrics read 0")
        values = median_layer_metrics(layers)
        plain_s = statistics.median(c.chain_s for c in plain)
        traced_s = statistics.median(c.chain_s for c in traced)
        values["trace.overhead_ratio"] = traced_s / plain_s
        metrics = {name: (values[name], unit) for name, (unit, *_) in LAYER_METRICS.items()}
        spans_path = self.results / f"{self.args.workload}-seed{self.args.seed}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in first.spans():
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.command]) + "\n")
        print(f"traced chains {len(traced)}, untraced {len(plain)}; spans of the first "
              f"traced chain in {spans_path.relative_to(self.root)}")
        detail = {"plain_chain_s": [c.chain_s for c in plain],
                  "traced_chain_s": [c.chain_s for c in traced], "layers": layers}
        return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
