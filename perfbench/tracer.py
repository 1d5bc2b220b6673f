"""Outside-in tracer: wraps public entry points of the sqlcalib modules.

The wrappers are installed from here, never from the program, and only
for a traced chain. Each call records one span (name, start, end,
parent span, command index) into typed arrays, plus counts taken at the
same boundary (tokens lexed, parse errors, pool sizes, rows written).
Self time is a span's duration minus the part of it covered by its
child spans.
"""

import importlib
import os
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass

from sqlcalib.errors import ParseError

# (module, attribute) pairs wrapped in a traced chain. A module imports
# some functions by name, so the wrapped attribute is the one its callers
# look up: parse_sql and assemble_features are wrapped where pipeline
# calls them.
TARGETS = (
    ("cli", "main"),
    ("lexer", "tokenize"),
    ("pipeline", "parse_sql"),
    ("sqlast", "extract_clauses"),
    ("clausefreq", "clause_frequencies"),
    ("clausefreq", "query_match"),
    ("pipeline", "assemble_features"),
    ("pipeline", "load_candidates"),
    ("pipeline", "featurize_records"),
    ("pipeline", "load_features"),
    ("pipeline", "load_scored"),
    ("pipeline", "_write_jsonl"),
    ("pipeline", "featurize_command"),
    ("pipeline", "fit_command"),
    ("pipeline", "apply_command"),
    ("pipeline", "evaluate_command"),
    ("pipeline", "compare_command"),
    ("calibrate", "fit_logistic"),
    ("calibrate", "sigmoid"),
    ("calibrate", "apply_model"),
    ("metrics", "compute_report"),
    ("metrics", "auc"),
    ("metrics", "compare_shift"),
)

# The per_layer metrics: unit, the end-to-end metric the layer should move
# (chain_ref is the gated one; the throughputs are printed per command),
# the workloads where the layer does the work, and where it should stay flat.
FEAT = "featurize_cands_per_s, chain_ref"
POOLS = "pool-dup, pool-distinct"
SYNTH = "synth-40k"
ALL = "pool-dup, pool-distinct, synth-40k"
LAYER_METRICS = {
    "lexer.tokenize.calls": ("count", FEAT, POOLS, SYNTH),
    "lexer.tokenize.self_s": ("s", FEAT, POOLS, SYNTH),
    "lexer.tokens": ("count", FEAT, POOLS, SYNTH),
    "lexer.tokens_per_s": ("1/s", FEAT, POOLS, SYNTH),
    "parser.parse_sql.calls": ("count", FEAT, POOLS, SYNTH),
    "parser.parse_sql.self_s": ("s", FEAT, POOLS, SYNTH),
    "parser.parse_sql.p50_us": ("us", FEAT, POOLS, SYNTH),
    "parser.parse_sql.p99_us": ("us", FEAT, POOLS, SYNTH),
    "parser.parse_errors": ("count", FEAT, "pool-dup", "pool-distinct, synth-40k"),
    "parser.distinct_text_ratio": ("ratio", FEAT + ", peak_rss_mb", "pool-dup", "pool-distinct"),
    "parser.lex_parse_share_of_featurize": ("ratio", FEAT, POOLS, SYNTH),
    "sqlast.extract_clauses.calls": ("count", FEAT, POOLS, SYNTH),
    "sqlast.extract_clauses.self_s": ("s", FEAT, POOLS, SYNTH),
    "clausefreq.clause_frequencies.calls": ("count", FEAT, POOLS, SYNTH),
    "clausefreq.clause_frequencies.self_s": ("s", FEAT, "pool-dup", SYNTH),
    "clausefreq.query_match.calls": ("count", FEAT, "pool-dup", SYNTH),
    "clausefreq.query_match.per_pair_us": ("us", FEAT, "pool-distinct", SYNTH),
    "clausefreq.pool_distinct_tree_ratio": ("ratio", FEAT, "pool-dup", "pool-distinct"),
    "clausefreq.assemble_features.self_s": ("s", FEAT, POOLS, SYNTH),
    "pipeline.load_candidates.self_s": ("s", FEAT + ", peak_rss_mb", POOLS, SYNTH),
    "pipeline.load_candidates.rss_delta_mb": ("MB", "peak_rss_mb", POOLS, SYNTH),
    "pipeline.featurize_records.self_s": ("s", FEAT + ", peak_rss_mb", POOLS, SYNTH),
    "pipeline.commands.self_s": ("s", "chain_ref", ALL, ""),
    "pipeline.load_features.s": ("s", "fit/apply/evaluate_rows_per_s, chain_ref", SYNTH, POOLS),
    "pipeline.load_scored.s": ("s", "compare_rows_per_s, chain_ref", SYNTH, POOLS),
    "pipeline.write_jsonl.s": ("s", "apply/evaluate_rows_per_s, chain_ref", SYNTH, POOLS),
    "pipeline.write_jsonl.rows": ("count", "apply/evaluate_rows_per_s", SYNTH, POOLS),
    "calibrate.fit_logistic.s": ("s", "fit_rows_per_s, chain_ref", SYNTH, POOLS),
    "calibrate.fit_logistic.calls": ("count", "fit_rows_per_s", SYNTH, POOLS),
    "calibrate.sigmoid.calls": ("count", "fit/apply_rows_per_s", SYNTH, POOLS),
    "calibrate.sigmoid.calls_in_fit": ("count", "fit_rows_per_s", SYNTH, POOLS),
    "calibrate.apply_model.s": ("s", "apply_rows_per_s, chain_ref", SYNTH, POOLS),
    "metrics.compute_report.s": ("s", "evaluate_rows_per_s, chain_ref", SYNTH, POOLS),
    "metrics.compute_report.calls": ("count", "evaluate_rows_per_s", SYNTH, POOLS),
    "metrics.auc.s": ("s", "evaluate_rows_per_s, chain_ref", SYNTH, POOLS),
    "metrics.compare_shift.s": ("s", "compare_rows_per_s, chain_ref", SYNTH, POOLS),
    "cli.main.self_s": ("s", "chain_ref", "", ALL),
    "trace.overhead_ratio": ("ratio", "", "", ""),
}


# Span name of the tracer's costlier bookkeeping at a boundary. It is a
# child of the caller's span, so self time excludes it.
HOOK_SPAN = "trace.hook"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    command: int  # index of the CLI command in the chain


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _rss_mb() -> float:
    """Resident set size of this process, 0.0 where /proc is absent."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """Spans and counts of one traced chain, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._command = array("i")
        self._stack: list[int] = []
        self.command = -1
        self.counts = Counter()
        self.parse_us: list[float] = []
        self.parse_texts: set = set()
        self._installed: list = []

    # -- span recording ---------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self._end)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._command.append(self.command)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        hook = _HOOKS.get(name)
        hook_id = self._name_id(HOOK_SPAN)

        def run_hook(method, *hook_args):
            if not hook.spanned:
                return method(self, *hook_args)
            # a span of its own, so the hook's cost leaves the caller's self time
            h = self._open(hook_id)
            try:
                return method(self, *hook_args)
            finally:
                self._close(h)

        def traced(*args, **kwargs):
            before = run_hook(hook.before, args) if hook else None
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if hook:
                    run_hook(hook.after, idx, args, before, None, exc)
                raise
            self._close(idx)
            if hook:
                run_hook(hook.after, idx, args, before, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target present in sqlcalib; return those missing."""
        missing = []
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"sqlcalib.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn))
            self._installed.append((module, attr, fn))
        return missing

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def spans(self) -> list[Span]:
        return [
            Span(self.names[n], s, e, p, c)
            for n, s, e, p, c in zip(self._name, self._start, self._end, self._parent, self._command)
        ]

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self, featurize_wall_s: float) -> dict:
        """Per-layer values of this chain (trace.overhead_ratio excluded)."""
        spans = self.spans()
        selfs = self_times(spans)
        total, own, calls = Counter(), Counter(), Counter()
        for s, st in zip(spans, selfs):
            total[s.name] += s.end - s.start
            own[s.name] += st
            calls[s.name] += 1
        c = self.counts
        lex_self = own["lexer.tokenize"]
        parse_calls = calls["pipeline.parse_sql"]
        pairs = calls["clausefreq.query_match"]
        us = sorted(self.parse_us)
        m = {
            "lexer.tokenize.calls": calls["lexer.tokenize"],
            "lexer.tokenize.self_s": lex_self,
            "lexer.tokens": c["tokens"],
            "lexer.tokens_per_s": c["tokens"] / lex_self if lex_self > 0 else 0.0,
            "parser.parse_sql.calls": parse_calls,
            "parser.parse_sql.self_s": own["pipeline.parse_sql"],
            "parser.parse_sql.p50_us": _quantile(us, 0.50),
            "parser.parse_sql.p99_us": _quantile(us, 0.99),
            "parser.parse_errors": c["parse_errors"],
            "parser.distinct_text_ratio": (
                len(self.parse_texts) / parse_calls if parse_calls else 0.0
            ),
            "parser.lex_parse_share_of_featurize": (
                (lex_self + own["pipeline.parse_sql"]) / featurize_wall_s
                if featurize_wall_s > 0
                else 0.0
            ),
            "sqlast.extract_clauses.calls": calls["sqlast.extract_clauses"],
            "sqlast.extract_clauses.self_s": own["sqlast.extract_clauses"],
            "clausefreq.clause_frequencies.calls": calls["clausefreq.clause_frequencies"],
            "clausefreq.clause_frequencies.self_s": own["clausefreq.clause_frequencies"],
            "clausefreq.query_match.calls": pairs,
            "clausefreq.query_match.per_pair_us": (
                total["clausefreq.query_match"] / pairs * 1e6 if pairs else 0.0
            ),
            "clausefreq.pool_distinct_tree_ratio": (
                c["pool_distinct"] / c["pool_members"] if c["pool_members"] else 0.0
            ),
            "clausefreq.assemble_features.self_s": own["pipeline.assemble_features"],
            "pipeline.load_candidates.self_s": own["pipeline.load_candidates"],
            "pipeline.load_candidates.rss_delta_mb": c["load_candidates_rss_mb"],
            "pipeline.featurize_records.self_s": own["pipeline.featurize_records"],
            "pipeline.commands.self_s": sum(
                own[n] for n in own if n.startswith("pipeline.") and n.endswith("_command")
            ),
            "pipeline.load_features.s": total["pipeline.load_features"],
            "pipeline.load_scored.s": total["pipeline.load_scored"],
            "pipeline.write_jsonl.s": total["pipeline._write_jsonl"],
            "pipeline.write_jsonl.rows": c["rows_written"],
            "calibrate.fit_logistic.s": total["calibrate.fit_logistic"],
            "calibrate.fit_logistic.calls": calls["calibrate.fit_logistic"],
            "calibrate.sigmoid.calls": calls["calibrate.sigmoid"],
            "calibrate.sigmoid.calls_in_fit": sum(
                1
                for s in spans
                if s.name == "calibrate.sigmoid"
                and s.parent >= 0
                and spans[s.parent].name == "calibrate.fit_logistic"
            ),
            "calibrate.apply_model.s": total["calibrate.apply_model"],
            "metrics.compute_report.s": total["metrics.compute_report"],
            "metrics.compute_report.calls": calls["metrics.compute_report"],
            "metrics.auc.s": total["metrics.auc"],
            "metrics.compare_shift.s": total["metrics.compare_shift"],
            "cli.main.self_s": own["cli.main"],
        }
        return m


def _quantile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# The process grows only in its first chain; later chains reuse the freed
# memory, so this metric takes the largest value instead of the median.
FIRST_CHAIN_METRICS = ("pipeline.load_candidates.rss_delta_mb",)


def median_layer_metrics(per_chain: list[dict]) -> dict:
    """Median over traced chains of each per-layer value."""
    return {
        k: (max if k in FIRST_CHAIN_METRICS else statistics.median)(m[k] for m in per_chain)
        for k in per_chain[0]
    }


# -- counts taken at the wrapped boundaries ----------------------------------


class _Hook:
    spanned = False  # True for hooks too costly to leave in the caller's self time

    def before(self, tracer, args):
        return None

    def after(self, tracer, idx, args, before, result, exc):
        pass


class _Tokenize(_Hook):
    def after(self, tracer, idx, args, before, result, exc):
        if result is not None:
            tracer.counts["tokens"] += len(result)


class _ParseSql(_Hook):
    def after(self, tracer, idx, args, before, result, exc):
        tracer.parse_us.append((tracer._end[idx] - tracer._start[idx]) * 1e6)
        if isinstance(exc, ParseError):
            tracer.counts["parse_errors"] += 1
        if args:
            tracer.parse_texts.add(args[0])


class _ClauseFrequencies(_Hook):
    spanned = True  # hashes every tree of the pool

    def after(self, tracer, idx, args, before, result, exc):
        if len(args) >= 2:
            pool = args[1]
            tracer.counts["pool_members"] += len(pool)
            tracer.counts["pool_distinct"] += len(set(pool))


class _LoadCandidates(_Hook):
    spanned = True  # reads /proc

    def before(self, tracer, args):
        return _rss_mb()

    def after(self, tracer, idx, args, before, result, exc):
        tracer.counts["load_candidates_rss_mb"] += _rss_mb() - before


class _WriteJsonl(_Hook):
    def after(self, tracer, idx, args, before, result, exc):
        if len(args) >= 2 and hasattr(args[1], "__len__"):
            tracer.counts["rows_written"] += len(args[1])


_HOOKS = {
    "lexer.tokenize": _Tokenize(),
    "pipeline.parse_sql": _ParseSql(),
    "clausefreq.clause_frequencies": _ClauseFrequencies(),
    "pipeline.load_candidates": _LoadCandidates(),
    "pipeline._write_jsonl": _WriteJsonl(),
}
