"""Orchestration between JSONL files on disk and the library layers.

Every stage exchanges JSONL so runs are streamable and diffable. Records
that fail individually never abort a run; they are counted and reported
in a sidecar summary so that input lines are always fully accounted for.
"""

import json
import math
import os
import time
import warnings
from array import array
from collections import deque
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import calibrate, metrics, records
from .clausefreq import METHODS, SYNTH_MODES, FeatureSchema, resolve_schema
from .errors import IdMismatch, SchemaError, SchemaMismatch
from .probability import finite_float
from .records import (
    CLIPPED, CandidateRecord, RunSummary, _check_group, _check_id, _check_label, _check_prob,
    _check_unique_ids, _Chunk, _feature_row, _featurize, _featurize_chunk, _lines, _records,
    iter_jsonl,
)

# parse_sql, assemble_features, load_candidates, featurize_records: for perfbench's
# tracer, which wraps them, until ROADMAP item 1 retargets it
parse_sql, assemble_features = records.parse_sql, records.assemble_features


def load_candidates(path) -> list[CandidateRecord]:
    """Every record of a candidate file, read through featurize's own ``_records``,
    for the tests and perfbench's tracer; warns when there is none."""
    records = list(_records(_lines(path)))
    if not records:
        warnings.warn(f"{path}: no records found", stacklevel=2)
    return records


# -- featurization --------------------------------------------------------

CHUNK_RECORDS = 25  # records per featurize task: about 0.1 s of parsing, 100 KB to pickle
# Starting and stopping two spawned workers, which import `records` and not numpy,
# takes about 0.25 s (2-vCPU VM). Twice that is 0.5 s, but with 0.75 s of work
# left a fresh-process pool still gained nothing, so a pool waits for 1 s of it.
POOL_MIN_SECONDS = 1.0


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
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _featurized_chunks(path, base: FeatureSchema, scope: str, stack: ExitStack) -> Iterator[_Chunk]:
    """The candidate file featurized in chunks of CHUNK_RECORDS, in file order.

    The parent featurizes chunks itself until a usable record fixes the
    extras layout. The rest go to a pool of worker processes, one per CPU,
    whose shutdown ``stack`` owns; at most two chunks per worker are in
    flight, so memory stays flat in input size. With one CPU, one chunk
    left, or less than POOL_MIN_SECONDS of work left at the pace of the
    parent's chunks, no pool starts and the parent runs the rest itself.
    """
    lines = _lines(path)
    chunks = iter(lambda: list(islice(lines, CHUNK_RECORDS)), [])  # up to the first empty one
    start, read = time.perf_counter(), 0
    for chunk in chunks:
        done = _featurize_chunk(chunk, base, None, scope)
        read += sum(len(line) for _, line in chunk)
        yield done
        if done.layout is not None:
            break
    else:
        return
    seconds_left = (time.perf_counter() - start) * (os.path.getsize(path) - read) / read
    layout, cpus = done.layout, _cpus()
    ahead = list(islice(chunks, 2 * cpus))
    if cpus == 1 or len(ahead) < 2 or seconds_left < POOL_MIN_SECONDS:
        for chunk in chain(ahead, chunks):
            yield _featurize_chunk(chunk, base, layout, scope)
        return
    import multiprocessing  # here, so only a run that starts a pool imports them
    from concurrent.futures import ProcessPoolExecutor

    # spawn, not fork: numpy's BLAS threads are running in this process
    pool = stack.enter_context(
        ProcessPoolExecutor(min(cpus, len(ahead)), mp_context=multiprocessing.get_context("spawn"))
    )
    submit = partial(pool.submit, _featurize_chunk, base=base, layout=layout, scope=scope)
    in_flight = deque(map(submit, ahead))
    while in_flight:
        done = in_flight.popleft().result()
        in_flight.extend(map(submit, islice(chunks, 1)))
        yield done


def _rows(chunks: Iterable[_Chunk], summary: RunSummary) -> Iterator[dict]:
    """The rows of featurized chunks, counting each chunk in ``summary`` and
    warning if a probability is clipped."""
    for done in chunks:
        summary.add(done.summary)
        if done.clipped:  # a constant text, so the warnings registry holds it once
            warnings.warn(CLIPPED)
        yield from done.rows


def featurize_command(input_path, output_path, schema_id: str, scope: str = "union") -> RunSummary:
    """Stream records into feature rows and the rows into the output file, so
    memory stays flat in input size; a data error leaves no output file.
    Records are featurized on every CPU this process may use, and the rows,
    summary and warnings are those of a serial run."""
    summary = RunSummary()
    with ExitStack() as stack:  # shuts a worker pool down on every path
        chunks = _featurized_chunks(input_path, resolve_schema(schema_id), scope, stack)
        _write_jsonl(output_path, _rows(chunks, summary))
    _write_json(str(output_path) + ".summary.json", asdict(summary))
    return summary


# -- feature files ---------------------------------------------------------


@dataclass
class FeatureFile:
    ids: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    raw_prob: np.ndarray
    groups: tuple
    schema_id: str
    feature_names: tuple[str, ...]

    def columns(self, names) -> np.ndarray:
        """A copy of the columns called ``names``, in that order, even when
        they are all of them: a fit's float sums, and so the model bytes,
        follow this layout. A name the schema lacks is a SchemaMismatch."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise SchemaMismatch(f"schema {self.schema_id!r} lacks features {missing}")
        return self.X[:, [self.feature_names.index(n) for n in names]]


def load_features(path) -> FeatureFile:
    """A feature file's rows as columns, filled while the file is read; ids
    are compared as strings and must be unique.

    The values of every row go into one flat float buffer, which ``X``
    views as a C-contiguous (n, m) matrix. A value that is not a finite int
    or float (a bool, a string, null, NaN, infinity, an int past the float
    range) is a SchemaError naming its line. It is raised after every
    per-row check and the id check, for the first such value in file order.
    """
    ids, groups, linenos = [], [], []
    labels, raw, flat = array("d"), array("d"), array("d")
    held_out = {}  # row -> values the buffer cannot hold; X reads NaN there
    schema_id = None
    for lineno, doc in iter_jsonl(path, ("id", "label", "schema_id", "values", "raw_prob")):
        if schema_id is None:
            schema_id = doc["schema_id"]
            if type(schema_id) is not str:
                raise SchemaError(f"line {lineno}: schema_id must be a string, got {schema_id!r}")
            schema = resolve_schema(schema_id)
            if schema_id != schema.schema_id:
                raise SchemaError(
                    f"line {lineno}: schema_id {schema_id!r} is not canonical;"
                    f" expected {schema.schema_id!r}"
                )
            expected_len = len(schema.feature_names)
        elif doc["schema_id"] != schema_id:
            raise SchemaError(
                f"line {lineno}: schema changed from {schema_id!r} to {doc['schema_id']!r}"
            )
        values = doc["values"]
        if not isinstance(values, list) or len(values) != expected_len:
            raise SchemaError(
                f"line {lineno}: expected a list of {expected_len} values for {schema_id!r}"
            )
        ids.append(_check_id(doc, lineno))
        labels.append(_check_label(doc, lineno))
        raw.append(_check_prob(doc, "raw_prob", lineno))
        groups.append(_check_group(doc, lineno))
        linenos.append(lineno)
        if set(map(type, values)) <= {int, float}:  # the buffer itself takes True as 1.0
            try:
                flat.fromlist(values)  # all or nothing
                continue
            except OverflowError:  # an int past the float range
                pass
        held_out[len(linenos) - 1] = values
        flat.fromlist([math.nan] * expected_len)
    if schema_id is None:
        raise SchemaError(f"{path}: no feature rows")
    _check_unique_ids(ids, linenos)
    X = np.frombuffer(flat).reshape(len(ids), expected_len)
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        row = int(bad.argmax())
        for v in held_out.get(row) or X[row].tolist():
            if finite_float(v) is None:
                raise SchemaError(f"line {linenos[row]}: values must be finite numbers, got {v!r}")
    return FeatureFile(
        ids=tuple(ids),
        X=X,
        y=np.frombuffer(labels),
        raw_prob=np.frombuffer(raw),
        groups=tuple(groups),
        schema_id=schema_id,
        feature_names=schema.feature_names,
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
) -> calibrate.CalibratorModel:
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

    ff = load_features(features_path)
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


def standardized_weight_table(model: calibrate.CalibratorModel) -> str:
    rows = sorted(model.standardized_weights().items(), key=lambda kv: -abs(kv[1]))
    width = max(len(name) for name, _ in rows)
    lines = [f"{'feature':<{width}}  std.weight"]
    lines += [f"{name:<{width}}  {value:+.4f}" for name, value in rows]
    return "\n".join(lines)


# -- evaluation --------------------------------------------------------------


def _scores_for(ff: FeatureFile, model: Optional[calibrate.CalibratorModel]) -> np.ndarray:
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


def scored_rows(ff: FeatureFile, scores: np.ndarray) -> Iterator[str]:
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
    model = calibrate.load_model(model_path)
    _write_text(output_path, scored_rows(ff, _scores_for(ff, model)))
    return len(ff.ids)


# -- comparison ---------------------------------------------------------------


def load_scored(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A scored file's ids, labels and calibrated probabilities, in file
    order; ids are compared as strings and must be unique."""
    ids, linenos, labels, probs = [], [], array("d"), array("d")
    for lineno, doc in iter_jsonl(path, ("id", "label", "calibrated_prob")):
        ids.append(_check_id(doc, lineno))
        labels.append(_check_label(doc, lineno))
        _check_group(doc, lineno)
        probs.append(_check_prob(doc, "calibrated_prob", lineno))
        linenos.append(lineno)
    _check_unique_ids(ids, linenos)
    return ids, np.frombuffer(labels), np.frombuffer(probs)


def compare_command(
    path_a, path_b, output_path, fractions=(0.01, 0.05, 0.10, 0.20)
) -> tuple:
    """Join two scored files on id and stratify by probability shift."""
    ids_a, labels, scores_a = load_scored(path_a)
    ids_b, labels_b, scores_b = load_scored(path_b)
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
    header = ",".join(f.name for f in fields(metrics.BinRow)) + "\n"
    _write_text(path, chain([header], (",".join(map(repr, astuple(r))) + "\n" for r in rows)))
