"""Orchestration between JSONL files on disk and the library layers.

Every stage exchanges JSONL so runs are streamable and diffable. Records
that fail individually never abort a run; they are counted and reported
in a sidecar summary so that input lines are always fully accounted for.

Candidate, feature and scored files are read once, by this process, and
their chunks run on every CPU it may use, by workers it forks while it runs
one thread. No reader loads numpy, whose BLAS may start threads: the
numeric commands import it, with ``calibrate`` and ``metrics``, only once
their input is decoded.
"""

import json
import math
import os
import warnings
from array import array
from collections import deque
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import iadd
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .clausefreq import (
    METHODS, SCOPES, SOURCES, SYNTH_MODES, FeatureSchema, assemble_features, resolve_schema,
)
from .errors import (
    EmptyPool, IdMismatch, JsonError, NoUsableCandidate, ParseError, SchemaError, SchemaMismatch,
)
from .parser import parse_sql
from .probability import finite_float, prob_of_log_prob
from .sqlast import QueryTree


# -- candidate records -----------------------------------------------------


@dataclass
class Candidate:
    sql: str
    sum_log_prob: float
    source: str
    tree: Optional[QueryTree]  # None if unparseable


@dataclass
class CandidateRecord:
    id: str
    label: int
    candidates: list[Candidate]
    group: Optional[str] = None
    extra_features: Optional[dict] = None
    parse_failures: int = 0
    lineno: int = 0  # the input line, for errors that name it

    @property
    def usable(self) -> bool:
        return any(c.tree is not None for c in self.candidates)

    @property
    def clipped(self) -> bool:
        """True if a candidate's probability will be clipped to 1 - PROB_EPS."""
        return any(c.sum_log_prob > 0 for c in self.candidates)


CANDIDATE_FIELDS = ("id", "label", "candidates")
CLIPPED = "sum_log_prob > 0; probability will be clipped"


def _lines(fh) -> Iterator[tuple[int, bytes]]:
    """``(lineno, line)`` per non-blank line of the binary file ``fh``; as
    bytes, so bad UTF-8 is a JsonError on its own line."""
    return ((lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip())


def _decode(line: bytes, lineno: int, required=()) -> dict:
    """One input line as a JSON object holding the ``required`` fields: the
    one place input lines are decoded."""
    try:
        doc = json.loads(line.decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
        raise JsonError(f"line {lineno}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"line {lineno}: expected a JSON object, got {type(doc).__name__}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"line {lineno}: missing field {key!r}")
    return doc


# type(), not isinstance(): JSON decodes to exact types, and a bool (an int) must fail
def _check_id(doc: dict, lineno: int) -> str:
    """A JSON string or number, as a string: ids are compared as strings.
    NaN and infinities, which Python's json reads, are not JSON numbers."""
    id_ = doc["id"]
    if not (type(id_) in (str, int) or type(id_) is float and math.isfinite(id_)):
        raise SchemaError(f"line {lineno}: id must be a string or a number, got {id_!r}")
    return str(id_)


def _check_label(doc: dict, lineno: int) -> int:
    label = doc["label"]
    if type(label) not in (int, float) or label not in (0, 1):
        raise SchemaError(f"line {lineno}: label must be 0 or 1, got {label!r}")
    return int(label)


def _check_group(doc: dict, lineno: int) -> Optional[str]:
    group = doc.get("group")
    if group is not None and type(group) is not str:
        raise SchemaError(f"line {lineno}: group must be a string or null, got {group!r}")
    return group


def _check_unique_ids(ids: list[str], linenos: list[int]) -> None:
    """Ids, already strings, must be unique; the error names the first repeat's line."""
    if len(set(ids)) != len(ids):  # scan only on the error path
        seen = set()
        for lineno, id_ in zip(linenos, ids):
            if id_ in seen:
                raise SchemaError(f"line {lineno}: duplicate id {id_!r}")
            seen.add(id_)


def _schema(schema_id: str, lineno: int) -> FeatureSchema:
    """``resolve_schema``, its error naming the line the schema id came from."""
    try:
        return resolve_schema(schema_id)
    except (SchemaError, SchemaMismatch) as exc:
        raise type(exc)(f"line {lineno}: {exc}") from exc


def _check_prob(doc: dict, key: str, lineno: int) -> float:
    value = doc[key]
    if type(value) not in (int, float) or not 0 <= value <= 1:
        raise SchemaError(f"line {lineno}: {key} must be a number in [0, 1], got {value!r}")
    return value


def _records(lines) -> Iterator[CandidateRecord]:
    """The checked records of ``(lineno, line)`` pairs, their candidates parsed:
    the one reader of candidate files. A record where none parses is unusable."""
    for lineno, line in lines:
        yield _record_from_doc(_decode(line, lineno, CANDIDATE_FIELDS), lineno)


def _record_from_doc(doc: dict, lineno: int) -> CandidateRecord:
    id_ = _check_id(doc, lineno)
    label = _check_label(doc, lineno)
    group = _check_group(doc, lineno)
    raw_cands = doc["candidates"]
    if not isinstance(raw_cands, list) or not raw_cands:
        raise SchemaError(f"line {lineno}: candidates must be a non-empty list")
    extras = doc.get("extra_features")
    if extras is not None and not isinstance(extras, dict):
        raise SchemaError(f"line {lineno}: extra_features must be an object")
    for name in extras or ():
        if not name or "+" in name:  # "+" separates extras in a schema id
            raise SchemaError(f"line {lineno}: bad extra feature name {name!r}: empty or has '+'")
    candidates = []
    failures = 0
    trees = {}  # SQL text -> tree, None if unparseable; pools repeat texts
    for i, c in enumerate(raw_cands):
        if not isinstance(c, dict):
            raise SchemaError(f"line {lineno}: candidate {i} must be an object")
        for key in ("sql", "sum_log_prob", "source"):
            if key not in c:
                raise SchemaError(f"line {lineno}: candidate {i} missing field {key!r}")
        if not isinstance(c["sql"], str):
            raise SchemaError(f"line {lineno}: candidate {i} sql must be a string")
        lp = finite_float(c["sum_log_prob"])
        if lp is None:
            raise SchemaError(f"line {lineno}: candidate {i} sum_log_prob must be finite")
        if c["source"] not in SOURCES:
            raise SchemaError(
                f"line {lineno}: candidate {i} source must be one of {SOURCES}"
            )
        sql = c["sql"]
        if sql not in trees:
            try:
                trees[sql] = parse_sql(sql)
            except ParseError:
                trees[sql] = None
        tree = trees[sql]
        if tree is None:
            failures += 1
        candidates.append(Candidate(sql=sql, sum_log_prob=lp, source=c["source"], tree=tree))
    return CandidateRecord(
        id=id_,
        label=label,
        candidates=candidates,
        group=group,
        extra_features=extras,
        parse_failures=failures,
        lineno=lineno,
    )


def choose_primary(record: CandidateRecord, scope: str = "union") -> Candidate:
    """The parseable candidate in scope with the highest model probability.

    Ties keep the earliest candidate; unparseable candidates are skipped
    even when they carry the best probability.
    """
    best = None
    for cand in record.candidates:
        if cand.tree is None:
            continue
        if scope != "union" and cand.source != scope:
            continue
        if best is None or cand.sum_log_prob > best.sum_log_prob:
            best = cand
    if best is None:
        raise NoUsableCandidate(f"record {record.id}: no parseable candidate in scope {scope!r}")
    return best


def load_candidates(path) -> list[CandidateRecord]:
    """Every record of a candidate file, read through featurize's own ``_records``,
    for the tests and perfbench's tracer; warns when there is none."""
    with open(path, "rb") as fh:
        records = list(_records(_lines(fh)))
    if not records:
        warnings.warn(f"{path}: no records found", stacklevel=2)
    return records


# -- featurization --------------------------------------------------------


@dataclass
class RunSummary:
    input_records: int = 0
    used: int = 0
    unusable: int = 0
    failed: int = 0
    candidate_parse_failures: int = 0
    failures: list = field(default_factory=list)

    def add(self, later: "RunSummary") -> None:
        """Count the records of ``later``, which come after this summary's."""
        for f in fields(self):  # iadd: += on every field, so the list extends in place
            setattr(self, f.name, iadd(getattr(self, f.name), getattr(later, f.name)))


@dataclass
class _Chunk:
    """Records featurized in file order: their rows, their counts, their
    ids and lines, the extras layout (None until a usable record fixes it),
    and whether a probability was clipped."""

    layout: Optional[FeatureSchema]
    summary: RunSummary = field(default_factory=RunSummary)
    rows: list = field(default_factory=list)
    ids: list = field(default_factory=list)
    linenos: list = field(default_factory=list)
    clipped: bool = False


def _featurize(records, base: FeatureSchema, scope: str, done: _Chunk) -> Iterator[dict]:
    """Rows of ``records`` under ``done.layout``, fixed from ``base`` by the
    first usable record if unset; each record is counted in ``done``. An
    extra named like a standard feature is a SchemaError, naming its line, at
    any usable record."""
    summary = done.summary
    standard = set(base.feature_names)
    for record in records:
        summary.input_records += 1
        done.ids.append(record.id)
        done.linenos.append(record.lineno)
        summary.candidate_parse_failures += record.parse_failures
        done.clipped = done.clipped or record.clipped
        if not record.usable:
            summary.unusable += 1
            summary.failures.append({"id": record.id, "reason": "no candidate parses"})
            continue
        extras = record.extra_features or ()
        if done.layout is None or not standard.isdisjoint(extras):  # a clash raises here
            done.layout = _schema("+".join([base.schema_id, *extras]), record.lineno)
        try:
            primary = choose_primary(record, scope)
            # a source with only unparseable samples stays present but empty,
            # so the failure surfaces as EmptyPool rather than a missing pool
            pools = {
                src: [c.tree for c in record.candidates if c.source == src and c.tree is not None]
                for src in SOURCES
                if any(c.source == src for c in record.candidates)
            }
            values = assemble_features(
                primary.tree, primary.sum_log_prob, pools, done.layout, record.extra_features
            )
        except (NoUsableCandidate, EmptyPool, SchemaMismatch) as exc:
            summary.failed += 1
            summary.failures.append({"id": record.id, "reason": str(exc)})
            continue
        summary.used += 1
        prob = prob_of_log_prob(primary.sum_log_prob)
        schema_id = done.layout.schema_id
        yield _feature_row(record.id, record.label, record.group, schema_id, values, prob)


def _featurize_chunk(
    lines, base: FeatureSchema, layout: Optional[FeatureSchema], scope: str
) -> _Chunk:
    """Featurize ``(lineno, line)`` pairs of a candidate file: decode, check,
    parse and match each record. Runs in a worker process, or in the parent."""
    done = _Chunk(layout)
    done.rows.extend(_featurize(_records(lines), base, scope, done))
    return done


def _feature_row(id_, label, group, schema_id, values, raw_prob) -> dict:
    """One feature-file row; its key order is the file's byte layout."""
    return {"id": id_, "label": label, "group": group, "schema_id": schema_id,
            "values": list(values), "raw_prob": raw_prob}


CHUNK_RECORDS = 25  # records per featurize task: about 0.02 s of parsing, 12 KB of rows back
CHUNK_ROWS = 2000  # rows per loader task: 0.03 s to decode for a 21-value feature file, 0.01 s scored
# The chunks left, once the parent's have fixed the state, from which a pool
# starts: a count, so a file takes the same path on every run. Forking and
# stopping two workers takes about 0.016 s (2-vCPU VM). With the lines shipped
# to the workers, a pool beat one process in fresh processes (20 pairs a count)
# from about 4 chunks left on candidate files (14 of 20) and 5 on feature files
# (17 of 20), while on scored files it lost up to 11 (0.070 s against 0.044 s
# at 4). No other count beats 4 for all three readers.
POOL_MIN_CHUNKS = 4


def featurize_records(
    records: Iterable[CandidateRecord],
    schema_id: str,
    scope: str = "union",
    *,
    summary: RunSummary,
) -> Iterator[dict]:
    """Featurize's own ``_featurize``, for the tests and perfbench's tracer:
    one feature row per usable record, each counted in ``summary``. The first
    usable record fixes the extra-feature layout for the whole run, an empty
    one included (names sorted, after the standard block); a later record
    whose extra names differ from it fails on its own."""
    yield from _featurize(records, resolve_schema(schema_id), scope, _Chunk(None, summary))


def _cpus() -> int:
    """The number of CPUs this process may run on; asked only once
    ``_one_thread`` has read ``/proc``, so on Linux, which has affinity masks."""
    return len(os.sched_getaffinity(0))


def _one_thread() -> bool:
    """Whether this process runs exactly one OS thread, so that a forked
    child copies no other thread's half-done state; False where ``/proc``
    cannot tell."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _chunks_ahead(fh, size: int, most: int) -> int:
    """Up to ``most`` chunks of ``size`` lines, as ``_lines`` yields them,
    left in the seekable file ``fh``; counted with none held, and ``fh``
    sought back, so that a stream over it reads on from where it was."""
    at = fh.tell()
    rows = sum(1 for _ in islice(_lines(fh), most * size))
    fh.seek(at)
    return -(-rows // size)


def _in_file_order(path, size: int, task, fixed, stack: ExitStack) -> Iterator:
    """``task``'s result on each run of ``size`` non-blank lines of ``path``,
    in file order: the one reader of candidate, feature and scored files.

    The parent opens the file once, a pipe as a regular file, and runs chunks
    itself until ``fixed`` of a result returns the task for the rest, which
    carries the state that result fixed (the extras layout of a candidate
    file, the schema of a feature file). It runs the rest itself too, unless
    it runs one thread, so that a fork copies no other thread's half-done
    state, has more than one CPU, and counts at least POOL_MIN_CHUNKS chunks
    left: by ``_chunks_ahead`` in a seekable file, as lists read ahead in a
    pipe, which cannot be read again. Then a pool of workers it forks, one
    per CPU, runs each chunk's ``(lineno, line)`` pairs, at most two per
    worker in flight, so memory stays flat in input size. ``stack`` owns the
    file and the pool.
    """
    fh = stack.enter_context(open(path, "rb"))
    lines = _lines(fh)
    # lazily, so that a chunk the parent runs as it reads is no list: every task reads all of it
    chunks = (chain([first], islice(lines, size - 1)) for first in lines)
    for chunk in chunks:
        done = task(chunk)
        yield done
        rest = fixed(done)
        if rest is not None:
            break
    else:
        return
    if _one_thread() and (cpus := _cpus()) > 1:
        most = max(POOL_MIN_CHUNKS, cpus)
        if fh.seekable():
            ahead, left = [], _chunks_ahead(fh, size, most)
        else:
            ahead = [list(chunk) for chunk in islice(chunks, most)]
            left = len(ahead)
        if left >= POOL_MIN_CHUNKS:
            import multiprocessing  # here, so only a run that starts a pool imports them
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(
                min(cpus, left), mp_context=multiprocessing.get_context("fork")
            ))
            listed = chain(ahead, map(list, chunks))
            in_flight = deque(pool.submit(rest, chunk) for chunk in islice(listed, 2 * cpus))
            while in_flight:
                done = in_flight.popleft().result()
                in_flight.extend(pool.submit(rest, chunk) for chunk in islice(listed, 1))
                yield done
            return
        chunks = chain(ahead, chunks)
    yield from map(rest, chunks)


def _rows(chunks: Iterable[_Chunk], summary: RunSummary) -> Iterator[dict]:
    """The rows of featurized chunks, counting each chunk in ``summary`` and
    warning if a probability is clipped; after the last, a repeated id is a
    SchemaError, so every other data error in the file comes first."""
    ids, linenos = [], []
    for done in chunks:
        summary.add(done.summary)
        if done.clipped:  # a constant text, so the warnings registry holds it once
            warnings.warn(CLIPPED)
        ids += done.ids
        linenos += done.linenos
        yield from done.rows
    _check_unique_ids(ids, linenos)


def featurize_command(input_path, output_path, schema_id: str, scope: str = "union") -> RunSummary:
    """Stream records into feature rows and the rows into the output file, so
    memory stays flat in input size; a data error leaves no output file.
    Records are featurized on every CPU this process may use, and the rows,
    summary and warnings are those of a serial run."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    summary = RunSummary()
    task = partial(_featurize_chunk, base=resolve_schema(schema_id), layout=None, scope=scope)
    with ExitStack() as stack:  # shuts a worker pool down on every path
        chunks = _in_file_order(
            input_path, CHUNK_RECORDS, task,
            lambda done: None if done.layout is None else partial(task, layout=done.layout),
            stack,
        )
        _write_jsonl(output_path, _rows(chunks, summary))
    _write_json(str(output_path) + ".summary.json", asdict(summary))
    return summary


# -- feature files ---------------------------------------------------------


@dataclass
class FeatureFile:
    ids: tuple[str, ...]
    X: "np.ndarray"
    y: "np.ndarray"
    raw_prob: "np.ndarray"
    groups: tuple
    schema_id: str
    feature_names: tuple[str, ...]

    def columns(self, names) -> "np.ndarray":
        """A copy of the columns called ``names``, in that order, even when
        they are all of them: a fit's float sums, and so the model bytes,
        follow this layout. A name the schema lacks is a SchemaMismatch."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise SchemaMismatch(f"schema {self.schema_id!r} lacks features {missing}")
        return self.X[:, [self.feature_names.index(n) for n in names]]


@dataclass
class _Columns:
    """Rows of a feature or scored file, column by column in file order."""

    schema: Optional[FeatureSchema] = None  # a feature file's, fixed by its first row
    ids: list = field(default_factory=list)
    groups: list = field(default_factory=list)
    linenos: list = field(default_factory=list)
    labels: array = field(default_factory=partial(array, "d"))
    probs: array = field(default_factory=partial(array, "d"))  # raw or calibrated
    values: array = field(default_factory=partial(array, "d"))  # each row's, one after another
    held_out: list = field(default_factory=list)  # (lineno, values) the buffer reads NaN for


def _feature_columns(lines, schema: Optional[FeatureSchema]) -> _Columns:
    """Check ``(lineno, line)`` pairs of a feature file into columns; the first
    row fixes the schema if ``schema`` is None. Runs in a worker process, or
    in the parent."""
    done = _Columns(schema)
    for lineno, line in lines:
        doc = _decode(line, lineno, ("id", "label", "schema_id", "values", "raw_prob"))
        if schema is None:
            schema_id = doc["schema_id"]
            if type(schema_id) is not str:
                raise SchemaError(f"line {lineno}: schema_id must be a string, got {schema_id!r}")
            schema = done.schema = _schema(schema_id, lineno)
            if schema_id != schema.schema_id:
                raise SchemaError(
                    f"line {lineno}: schema_id {schema_id!r} is not canonical;"
                    f" expected {schema.schema_id!r}"
                )
        elif doc["schema_id"] != schema.schema_id:
            raise SchemaError(
                f"line {lineno}: schema changed from {schema.schema_id!r} to {doc['schema_id']!r}"
            )
        values, width = doc["values"], len(schema.feature_names)
        if not isinstance(values, list) or len(values) != width:
            raise SchemaError(
                f"line {lineno}: expected a list of {width} values for {schema.schema_id!r}"
            )
        done.ids.append(_check_id(doc, lineno))
        done.labels.append(_check_label(doc, lineno))
        done.probs.append(_check_prob(doc, "raw_prob", lineno))
        done.groups.append(_check_group(doc, lineno))
        done.linenos.append(lineno)
        if set(map(type, values)) <= {int, float}:  # the buffer itself takes True as 1.0
            try:
                done.values.fromlist(values)  # all or nothing
                continue
            except OverflowError:  # an int past the float range
                pass
        done.held_out.append((lineno, values))
        done.values.fromlist([math.nan] * width)
    return done


def _load_columns(path, task, fixed) -> _Columns:
    """The columns of ``path``, read in chunks of CHUNK_ROWS by
    ``_in_file_order`` and joined in file order."""
    cols = _Columns()
    with ExitStack() as stack:  # shuts a worker pool down on every path
        for done in _in_file_order(path, CHUNK_ROWS, task, fixed, stack):
            cols.schema = done.schema
            for f in fields(cols)[1:]:  # every column: the schema is the first field
                getattr(cols, f.name).extend(getattr(done, f.name))
    return cols


def load_features(path) -> FeatureFile:
    """A feature file's rows as columns, read on every CPU this process may
    use; ids are compared as strings and must be unique.

    The values of every row go into one flat float buffer, which ``X``
    views as a C-contiguous (n, m) matrix. A value that is not a finite int
    or float (a bool, a string, null, NaN, infinity, an int past the float
    range) is a SchemaError naming its line. It is raised after every
    per-row check and the id check, for the first such value in file order.
    """
    cols = _load_columns(
        path, partial(_feature_columns, schema=None),
        lambda done: partial(_feature_columns, schema=done.schema),
    )
    if cols.schema is None:
        raise SchemaError(f"{path}: no feature rows")
    _check_unique_ids(cols.ids, cols.linenos)
    import numpy as np  # after the decode, so the process forks its workers while it can

    X = np.frombuffer(cols.values).reshape(len(cols.ids), len(cols.schema.feature_names))
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        row = int(bad.argmax())
        lineno = cols.linenos[row]
        for v in dict(cols.held_out).get(lineno) or X[row].tolist():
            if finite_float(v) is None:
                raise SchemaError(f"line {lineno}: values must be finite numbers, got {v!r}")
    return FeatureFile(
        ids=tuple(cols.ids),
        X=X,
        y=np.frombuffer(cols.labels),
        raw_prob=np.frombuffer(cols.probs),
        groups=tuple(cols.groups),
        schema_id=cols.schema.schema_id,
        feature_names=cols.schema.feature_names,
    )


# -- fitting ----------------------------------------------------------------


def parse_mask(mask: str, names: tuple[str, ...]) -> tuple[str, ...]:
    """Resolve a "keep:..." or "drop:..." glob list against feature names."""
    from fnmatch import fnmatchcase

    action, _, pattern_list = mask.partition(":")
    if action not in ("keep", "drop") or not pattern_list:
        raise ValueError(f"mask must look like keep:a,b or drop:x,*; got {mask!r}")
    patterns = [p.strip() for p in pattern_list.split(",") if p.strip()]
    matched = [n for n in names if any(fnmatchcase(n, p) for p in patterns)]
    if not matched:
        raise ValueError(f"mask {mask!r} matches no feature of {len(names)}")
    if action == "keep":
        return tuple(matched)
    kept = tuple(n for n in names if n not in matched)
    if not kept:
        raise ValueError(f"mask {mask!r} drops every feature")
    return kept


def fit_command(
    features_path,
    method: str,
    output_path,
    *,
    penalty: float = 1.0,
    mask: Optional[str] = None,
    subsample_fraction: Optional[float] = None,
    subsample_count: Optional[int] = None,
    seed: int = 0,
) -> "calibrate.CalibratorModel":
    """Fit a calibrator on a feature file and persist it as JSON.

    Method "ps" restricts the fit to the logit-probability column no
    matter the input schema; "mps" uses every column, optionally masked.
    Subsampling draws without replacement from the file, seeded.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if mask is not None and method == "ps":
        raise ValueError("--mask cannot be combined with method 'ps'")
    if subsample_fraction is not None and subsample_count is not None:
        raise ValueError("give --subsample-fraction or --subsample-count, not both")
    if subsample_fraction is not None and not 0 < subsample_fraction <= 1:  # NaN fails too
        raise ValueError(f"--subsample-fraction must lie in (0, 1], got {subsample_fraction!r}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")

    ff = load_features(features_path)
    import numpy as np  # after the decode, so the process forks its workers while it can
    from . import calibrate

    if method == "ps":
        selected = ("logit_prob",)
    elif mask is not None:
        selected = parse_mask(mask, ff.feature_names)
    else:
        selected = ff.feature_names

    X, y = ff.columns(selected), ff.y
    if subsample_fraction is not None or subsample_count is not None:
        n = len(y)
        k = subsample_count if subsample_count is not None else max(1, int(subsample_fraction * n))
        if not 1 <= k <= n:
            raise ValueError(f"subsample size {k} outside 1..{n}")
        pick = np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
        X, y = X[pick], y[pick]

    model = calibrate.fit_logistic(X, y, penalty, schema_id=ff.schema_id, feature_names=selected)
    _write_json(output_path, calibrate.model_to_dict(model))
    return model


# -- evaluation --------------------------------------------------------------


def _scores_for(ff: FeatureFile, model: Optional["calibrate.CalibratorModel"]) -> "np.ndarray":
    from . import calibrate

    if model is None:
        return ff.raw_prob
    if model.schema_id != ff.schema_id:
        raise SchemaMismatch(
            f"model was fit on schema {model.schema_id!r}, features are {ff.schema_id!r}"
        )
    # a copy, unlike X itself, changes the float summation order and so the bytes
    same = model.feature_names == ff.feature_names
    return calibrate.apply_model(model, ff.X if same else ff.columns(model.feature_names))


SCORED_LINE = (
    '{"id":%s,"label":%d,"raw_prob":%r,"calibrated_prob":%r,"group":%s,"schema_id":%s}\n'
)


def scored_rows(ff: FeatureFile, scores: "np.ndarray") -> Iterator[str]:
    """Scored-file lines in row order: the bytes of ``json.dumps`` with
    compact separators. Only strings, int labels and finite floats from
    ``tolist`` reach the template, and ``repr`` is how ``json`` writes
    such a float."""
    schema_id = encode_basestring_ascii(ff.schema_id)
    for id_, label, raw, calibrated, group in zip(
        ff.ids, ff.y.astype(int).tolist(), ff.raw_prob.tolist(), scores.tolist(), ff.groups
    ):
        group = "null" if group is None else encode_basestring_ascii(group)
        yield SCORED_LINE % (encode_basestring_ascii(id_), label, raw, calibrated, group, schema_id)


def evaluate_command(
    features_path,
    model_path=None,
    output_dir=".",
    *,
    bins: int = 10,
    group_by: Optional[str] = None,
) -> dict:
    """Score a feature file (raw probabilities when no model is given),
    then write metrics JSON, both reliability CSVs and scored JSONL. Every
    report is computed before anything is written, so an error leaves no
    output directory behind.

    With group_by="group", adds one report per group value next to the
    overall one; group slices with a single label class report AUC null.
    """
    if group_by is not None and group_by != "group":
        raise ValueError(f"only grouping by 'group' is supported, got {group_by!r}")
    ff = load_features(features_path)
    from . import calibrate, metrics  # after the decode, as in fit_command

    model = calibrate.load_model(model_path) if model_path else None
    scores = _scores_for(ff, model)

    overall = metrics.compute_report(scores, ff.y, k=bins)
    groups = {}
    if group_by:
        rows_of: dict[str, list[int]] = {}  # group -> its row indices, in file order
        for i, g in enumerate(ff.groups):
            if g is not None:
                rows_of.setdefault(g, []).append(i)
        for value in sorted(rows_of):
            sel = rows_of[value]
            groups[value] = metrics.compute_report(scores[sel], ff.y[sel], k=bins, group=value)

    doc = {"overall": asdict(overall)}
    if group_by:
        doc["groups"] = {name: asdict(rep) for name, rep in groups.items()}
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "metrics.json", doc)
    _write_bins_csv(out / "reliability_equal_width.csv", overall.bins_ece)
    _write_bins_csv(out / "reliability_equal_mass.csv", overall.bins_ace)
    _write_text(out / "scored.jsonl", scored_rows(ff, scores))
    return {"overall": overall, "groups": groups}


def apply_command(features_path, model_path, output_path) -> int:
    """Score a feature file with a model, emitting scored JSONL only."""
    ff = load_features(features_path)
    from . import calibrate  # after the decode, as in fit_command

    model = calibrate.load_model(model_path)
    _write_text(output_path, scored_rows(ff, _scores_for(ff, model)))
    return len(ff.ids)


# -- comparison ---------------------------------------------------------------


def _scored_columns(lines) -> _Columns:
    """Check ``(lineno, line)`` pairs of a scored file into columns. Runs in a
    worker process, or in the parent."""
    done = _Columns()
    for lineno, line in lines:
        doc = _decode(line, lineno, ("id", "label", "calibrated_prob"))
        done.ids.append(_check_id(doc, lineno))
        done.labels.append(_check_label(doc, lineno))
        _check_group(doc, lineno)
        done.probs.append(_check_prob(doc, "calibrated_prob", lineno))
        done.linenos.append(lineno)
    return done


def load_scored(path) -> tuple[list[str], array, array]:
    """A scored file's ids, labels and calibrated probabilities, in file
    order, read on every CPU this process may use; ids are compared as
    strings and must be unique, and a file of no rows is a SchemaError. The
    numbers are float arrays, not numpy's, so that a command loads numpy
    only after reading all of its files."""
    cols = _load_columns(path, _scored_columns, lambda done: _scored_columns)
    if not cols.ids:  # the caller names the file, as it does for a bad line
        raise SchemaError("no scored rows")
    _check_unique_ids(cols.ids, cols.linenos)
    return cols.ids, cols.labels, cols.probs


def compare_command(
    path_a, path_b, output_path, fractions=(0.01, 0.05, 0.10, 0.20)
) -> tuple:
    """Join two scored files on id and stratify by probability shift."""
    both = []
    for path in (path_a, path_b):
        try:
            both.append(load_scored(path))
        except (JsonError, SchemaError) as exc:  # both files number their lines
            raise type(exc)(f"{path}: {exc}") from None
    (ids_a, *columns_a), (ids_b, *columns_b) = both
    import numpy as np  # after the decodes, so the process forks its workers while it can
    from . import metrics

    labels, scores_a, labels_b, scores_b = map(np.frombuffer, columns_a + columns_b)
    row_of_b = {id_: i for i, id_ in enumerate(ids_b)}
    missing_in_b = [i for i in ids_a if i not in row_of_b]
    missing_in_a = sorted(set(row_of_b) - set(ids_a))
    if missing_in_b or missing_in_a:
        raise IdMismatch(
            f"ids only in {path_a}: {missing_in_b[:10]}; only in {path_b}: {missing_in_a[:10]}"
        )
    rows_b = np.fromiter(map(row_of_b.__getitem__, ids_a), dtype=np.intp, count=len(ids_a))
    differ = labels != labels_b[rows_b]
    if differ.any():
        raise SchemaError(f"id {ids_a[differ.argmax()]!r} has different labels in the two files")
    strata = metrics.compare_shift(scores_a, scores_b[rows_b], labels, fractions)
    _write_json(
        output_path,
        {
            "n": len(ids_a),
            "fractions": list(fractions),
            "strata": [asdict(s) for s in strata],
        },
    )
    return strata


# -- synthetic data ------------------------------------------------------------

PLATT_TRUE_WEIGHTS = (0.5, 2.0)
SIGNAL_WEIGHTS = (-1.5, 0.35, 3.0)  # intercept, logit-prob slope, informative slope
SIGNAL_FEATURE = "nucleus.agg"


def synth_command(n: int, mode: str, seed: int, output_path) -> dict:
    """Write a synthetic feature file for one of three generation modes.

    Each draws scores s uniform and labels at a rate q: "calibrated" takes
    q = s; "platt" distorts s through known weights (recorded in a sidecar
    for recovery tests); "mps-signal" hides the real signal in one
    frequency-style feature so multivariate fits have an edge.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in SYNTH_MODES:
        raise ValueError(f"unknown synth mode {mode!r}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    import numpy as np
    from . import calibrate

    rng = np.random.default_rng(seed)
    sidecar = {"mode": mode, "seed": seed, "n": n}
    s = rng.uniform(size=n)
    u = calibrate.logit(s)
    schema = resolve_schema("mps-nucleus" if mode == "mps-signal" else "ps")
    if mode == "calibrated":
        X, q = u[:, None], s
    elif mode == "platt":
        w0, w1 = PLATT_TRUE_WEIGHTS
        X, q = u[:, None], calibrate.sigmoid(w0 + w1 * u)
        sidecar.update({"w0": w0, "w1": w1})
    else:
        b0, b1, b2 = SIGNAL_WEIGHTS
        X = rng.uniform(size=(n, len(schema.feature_names)))
        X[:, 0] = u
        v = X[:, schema.feature_names.index(SIGNAL_FEATURE)]
        q = calibrate.sigmoid(b0 + b1 * u + b2 * v)
        sidecar.update(
            {"weights": list(SIGNAL_WEIGHTS), "informative_feature": SIGNAL_FEATURE}
        )
    y = (rng.uniform(size=n) < q).astype(int)  # drawn last: the draw order fixes the bytes
    rows = (  # one row's values at a time, not the whole matrix as lists
        _feature_row(f"syn{i:06d}", label, None, schema.schema_id, x.tolist(), prob)
        for i, (x, label, prob) in enumerate(zip(X, y.tolist(), s.tolist()))
    )
    _write_jsonl(output_path, rows)
    _write_json(str(output_path) + ".sidecar.json", sidecar)
    return sidecar


# -- small IO helpers -----------------------------------------------------------


def _write_text(path, chunks) -> None:
    """Write ``chunks``, any iterable of text, through a temporary file: an
    error raised while they are produced leaves ``path`` as it was."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_jsonl(path, rows) -> None:
    _write_text(path, (json.dumps(row, separators=(",", ":")) + "\n" for row in rows))


def _write_json(path, doc) -> None:
    _write_text(path, [json.dumps(doc, indent=2) + "\n"])


def _write_bins_csv(path, rows) -> None:
    from . import metrics

    header = ",".join(f.name for f in fields(metrics.BinRow)) + "\n"
    _write_text(path, chain([header], (",".join(map(repr, astuple(r))) + "\n" for r in rows)))
