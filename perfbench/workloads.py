"""Seeded input generators for the benchmark workloads.

Each generator writes the workload's input file into a work directory
and returns its shape. The program under test only ever sees the file.
"""

import contextlib
import io
import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path

from sqlcalib import cli, querygen
from sqlcalib.errors import ParseError
from sqlcalib.parser import parse_sql
from sqlcalib.sqlast import canonicalize

# The text querygen.generate_candidate_records injects as a broken sample.
BROKEN_SQL = "selec broken from"
POOL_SIZE = 20  # 10 nucleus + 10 beam candidates per record

# Input sizes per workload and scale. "tiny" exists for the smoke test.
SIZES = {
    "full": {"pool-dup": 1000, "pool-distinct": 1000, "synth-40k": 40000},
    "tiny": {"pool-dup": 12, "pool-distinct": 12, "synth-40k": 400},
}
WORKLOADS = tuple(SIZES["full"])


@dataclass
class Shape:
    records: int
    candidates: int
    input_bytes: int
    distinct_text_ratio: float | None
    distinct_tree_ratio: float | None
    injected_unparseable: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def workload_rng(workload: str, seed: int) -> random.Random:
    """A generator stream that differs per workload for the same seed."""
    return random.Random(zlib.crc32(workload.encode()) * 1_000_003 + seed)


def pool_dup_records(n: int, seed: int) -> list[dict]:
    """querygen's logged pools: about 40% distinct texts, about 5% broken."""
    return querygen.generate_candidate_records(n, seed)


def _distinct_variants(rng: random.Random, tree, want: int, hops: int) -> list[str]:
    """``want`` distinct canonical texts, each ``hops`` mutations from ``tree``."""
    texts: list[str] = []
    seen = {canonicalize(tree)}
    for _ in range(50 * want):
        if len(texts) == want:
            break
        t = tree
        for _ in range(hops):
            t = querygen.mutate_tree(rng, t)
        text = canonicalize(t)
        if text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


def pool_distinct_records(n: int, seed: int) -> list[dict]:
    """Pools in which every candidate of a record is a different text.

    The primary is the canonical form of a generated query; the other
    samples are mutations of it, one edit away for correct records and
    two or three for incorrect ones, so pool agreement still tracks the
    label. No candidate is unparseable.
    """
    rng = workload_rng("pool-distinct", seed)
    records = []
    for i in range(n):
        tree = parse_sql(querygen.generate_query(rng))
        base = canonicalize(tree)
        label = int(rng.random() < 0.55)
        hops = 1 if label else rng.randint(2, 3)
        texts = [base] + _distinct_variants(rng, tree, POOL_SIZE - 1, hops)
        while len(texts) < POOL_SIZE:  # a tiny mutation space; repeats are allowed
            texts.append(rng.choice(texts))
        rng.shuffle(texts)
        candidates = []
        for j, sql in enumerate(texts):
            lp = -rng.expovariate(1.0) - (0.05 if sql == base else 0.3)
            candidates.append(
                {
                    "sql": sql,
                    "sum_log_prob": round(lp, 6),
                    "source": "nucleus" if j < POOL_SIZE // 2 else "beam",
                }
            )
        records.append(
            {
                "id": f"px{i:05d}",
                "label": label,
                "group": rng.choice(["easy", "medium", "hard"]),
                "candidates": candidates,
            }
        )
    return records


def pool_shape(records: list[dict], input_bytes: int) -> Shape:
    """Ratios are pooled over records: distinct per record / candidates."""
    n_cands = distinct_texts = parseable = distinct_trees = injected = 0
    for rec in records:
        texts = [c["sql"] for c in rec["candidates"]]
        n_cands += len(texts)
        distinct_texts += len(set(texts))
        injected += texts.count(BROKEN_SQL)
        canon = {}
        for text in set(texts):
            try:
                canon[text] = canonicalize(parse_sql(text))
            except ParseError:
                pass
        parsed = [canon[t] for t in texts if t in canon]
        parseable += len(parsed)
        distinct_trees += len(set(parsed))
    return Shape(
        records=len(records),
        candidates=n_cands,
        input_bytes=input_bytes,
        distinct_text_ratio=distinct_texts / n_cands,
        distinct_tree_ratio=distinct_trees / parseable if parseable else 0.0,
        injected_unparseable=injected,
    )


def write_pool(path: Path, records: list[dict]) -> Shape:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")
    return pool_shape(records, path.stat().st_size)


def generate(workload: str, seed: int, scale: str, path: Path) -> Shape:
    """Write the workload's input to ``path`` and return its shape."""
    n = SIZES[scale][workload]
    if workload == "pool-dup":
        return write_pool(path, pool_dup_records(n, seed))
    if workload == "pool-distinct":
        return write_pool(path, pool_distinct_records(n, seed))
    if workload == "synth-40k":
        return write_synth(path, n, seed)
    raise ValueError(f"unknown workload {workload!r}")


def write_synth(path: Path, n: int, seed: int) -> Shape:
    """A mps-signal feature file written by the program's own synth command."""
    argv = ["synth", "--n", str(n), "--mode", "mps-signal", "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--output", str(path)])
    if rc != 0:
        raise RuntimeError(f"synth exited {rc}")
    return Shape(
        records=n,
        candidates=0,
        input_bytes=path.stat().st_size,
        distinct_text_ratio=None,
        distinct_tree_ratio=None,
        injected_unparseable=0,
    )
