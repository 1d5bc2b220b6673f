"""Orchestration between JSONL files on disk and the library layers.

Every stage exchanges JSONL so runs are streamable and diffable. Records
that fail individually never abort a run; they are counted and reported
in a sidecar summary so that input lines are always fully accounted for.
"""

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import calibrate, metrics
from .clausefreq import (
    PROB_EPS,
    FeatureSchema,
    assemble_features,
    finite_float,
    resolve_schema,
)
from .errors import (
    EmptyPool,
    IdMismatch,
    JsonError,
    NoUsableCandidate,
    ParseError,
    SchemaError,
    SchemaMismatch,
)
from .parser import parse_sql
from .sqlast import QueryTree

SOURCES = ("nucleus", "beam")


@dataclass
class Candidate:
    sql: str
    sum_log_prob: float
    source: str
    tree: Optional[QueryTree] = None  # filled by the loader; None if unparseable


@dataclass
class CandidateRecord:
    id: str
    label: int
    candidates: list[Candidate]
    group: Optional[str] = None
    extra_features: Optional[dict] = None
    parse_failures: int = 0

    @property
    def usable(self) -> bool:
        return any(c.tree is not None for c in self.candidates)


def iter_jsonl(path, required=()):
    """Yield ``(lineno, doc)`` per non-blank line; each must be a JSON object
    holding the ``required`` fields. The one place input lines are decoded."""
    with open(path, "rb") as fh:  # bytes, so bad UTF-8 is a JsonError on its own line
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode())
            except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
                raise JsonError(str(exc), lineno) from exc
            if not isinstance(doc, dict):
                kind = type(doc).__name__
                raise SchemaError(f"line {lineno}: expected a JSON object, got {kind}")
            for key in required:
                if key not in doc:
                    raise SchemaError(f"line {lineno}: missing field {key!r}")
            yield lineno, doc


# type(), not isinstance(): JSON decodes to exact types, and a bool (an int) must fail
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


def _check_prob(doc: dict, key: str, lineno: int) -> float:
    value = doc[key]
    if type(value) not in (int, float) or not 0 <= value <= 1:
        raise SchemaError(f"line {lineno}: {key} must be a number in [0, 1], got {value!r}")
    return value


def iter_candidates(path) -> Iterator[CandidateRecord]:
    """Candidate records of a file, one at a time, each candidate parsed.

    Records whose candidates all fail to parse are kept but unusable; the
    per-candidate failure count is stored on each record so callers can
    report it. Structural problems in the file itself raise immediately.
    """
    for lineno, doc in iter_jsonl(path, ("id", "label", "candidates")):
        yield _record_from_doc(doc, lineno)


def load_candidates(path) -> list[CandidateRecord]:
    """Every record of :func:`iter_candidates`; warns when there is none."""
    records = list(iter_candidates(path))
    if not records:
        warnings.warn(f"{path}: no records found", stacklevel=2)
    return records


def _record_from_doc(doc: dict, lineno: int) -> CandidateRecord:
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
        if lp > 0:
            warnings.warn(
                f"line {lineno}: sum_log_prob {lp} > 0; probability will be clipped",
                stacklevel=3,
            )
        if c["source"] not in SOURCES:
            raise SchemaError(
                f"line {lineno}: candidate {i} source must be one of {SOURCES}"
            )
        cand = Candidate(sql=c["sql"], sum_log_prob=lp, source=c["source"])
        try:
            cand.tree = parse_sql(cand.sql)
        except ParseError:
            failures += 1
        candidates.append(cand)
    return CandidateRecord(
        id=str(doc["id"]),
        label=label,
        candidates=candidates,
        group=group,
        extra_features=extras,
        parse_failures=failures,
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


# -- featurization --------------------------------------------------------


@dataclass
class RunSummary:
    input_records: int = 0
    used: int = 0
    unusable: int = 0
    failed: int = 0
    candidate_parse_failures: int = 0
    failures: list = field(default_factory=list)


def _clipped_prob(sum_log_prob: float) -> float:
    p = math.exp(min(sum_log_prob, 0.0))
    return min(max(p, PROB_EPS), 1.0 - PROB_EPS)


def featurize_records(
    records: Iterable[CandidateRecord],
    schema_id: str,
    scope: str = "union",
    *,
    summary: RunSummary,
) -> Iterator[dict]:
    """Yield one feature row per usable record, taking records one at a time
    and counting each in ``summary``.

    The first usable record with extra_features fixes the extra-feature
    layout for the whole run (names sorted, appended after the standard
    block); later records lacking one of those extras fail individually.
    """
    base = resolve_schema(schema_id)
    schema: Optional[FeatureSchema] = None
    for record in records:
        summary.input_records += 1
        summary.candidate_parse_failures += record.parse_failures
        if not record.usable:
            summary.unusable += 1
            summary.failures.append({"id": record.id, "reason": "no candidate parses"})
            continue
        if schema is None:
            extras = tuple(sorted(record.extra_features)) if record.extra_features else ()
            schema = resolve_schema(base.schema_id, extras)
        try:
            primary = choose_primary(record, scope)
            # a source with only unparseable samples stays present but empty,
            # so the failure surfaces as EmptyPool rather than a missing pool
            pools = {
                src: [c.tree for c in record.candidates if c.source == src and c.tree is not None]
                for src in SOURCES
                if any(c.source == src for c in record.candidates)
            }
            fv = assemble_features(
                primary.tree, primary.sum_log_prob, pools, schema, record.extra_features
            )
        except (NoUsableCandidate, EmptyPool, SchemaMismatch) as exc:
            summary.failed += 1
            summary.failures.append({"id": record.id, "reason": str(exc)})
            continue
        summary.used += 1
        yield {
            "id": record.id,
            "label": record.label,
            "group": record.group,
            "schema_id": fv.schema_id,
            "values": list(fv.values),
            "raw_prob": _clipped_prob(primary.sum_log_prob),
        }


def featurize_command(input_path, output_path, schema_id: str, scope: str = "union") -> RunSummary:
    """Stream records into feature rows and the rows into the output file, so
    memory stays flat in input size; a data error leaves no output file."""
    summary = RunSummary()
    records = iter_candidates(input_path)
    _write_jsonl(output_path, featurize_records(records, schema_id, scope, summary=summary))
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


def load_features(path) -> FeatureFile:
    ids, values, labels, raw, groups, linenos = [], [], [], [], [], []
    schema_id = None
    for lineno, doc in iter_jsonl(path, ("id", "label", "schema_id", "values", "raw_prob")):
        if schema_id is None:
            schema_id = doc["schema_id"]
            if type(schema_id) is not str:
                raise SchemaError(f"line {lineno}: schema_id must be a string, got {schema_id!r}")
            expected_len = resolve_schema(schema_id).length
        elif doc["schema_id"] != schema_id:
            raise SchemaError(
                f"line {lineno}: schema changed from {schema_id!r} to {doc['schema_id']!r}"
            )
        if not isinstance(doc["values"], list) or len(doc["values"]) != expected_len:
            raise SchemaError(
                f"line {lineno}: expected a list of {expected_len} values for {schema_id!r}"
            )
        ids.append(str(doc["id"]))
        values.append(doc["values"])
        labels.append(_check_label(doc, lineno))
        raw.append(_check_prob(doc, "raw_prob", lineno))
        groups.append(_check_group(doc, lineno))
        linenos.append(lineno)
    if schema_id is None:
        raise SchemaError(f"{path}: no feature rows")
    return FeatureFile(
        ids=tuple(ids),
        X=_feature_matrix(values, linenos),
        y=np.asarray(labels, dtype=float),
        raw_prob=np.asarray(raw, dtype=float),
        groups=tuple(groups),
        schema_id=schema_id,
        feature_names=resolve_schema(schema_id).feature_names(),
    )


def _feature_matrix(values: list[list], linenos: list[int]) -> np.ndarray:
    """``values`` as a float matrix; a value that is not a finite int or float
    (a bool, a string, null, NaN, infinity) is a SchemaError naming its line."""
    X = None
    if set(map(type, chain.from_iterable(values))) <= {int, float}:  # one C-level pass
        try:
            X = np.asarray(values, dtype=float)
        except OverflowError:  # an int past the float range
            pass
    if X is None or not np.isfinite(X).all():
        for lineno, row in zip(linenos, values):
            for v in row:
                if finite_float(v) is None:
                    raise SchemaError(f"line {lineno}: values must be finite numbers, got {v!r}")
    return X


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
    if method not in ("ps", "mps"):
        raise ValueError(f"method must be 'ps' or 'mps', got {method!r}")
    if mask is not None and method == "ps":
        raise ValueError("--mask cannot be combined with method 'ps'")
    if subsample_fraction is not None and subsample_count is not None:
        raise ValueError("give --subsample-fraction or --subsample-count, not both")

    ff = load_features(features_path)
    names = ff.feature_names
    if method == "ps":
        selected = ("logit_prob",)
    elif mask is not None:
        selected = parse_mask(mask, names)
    else:
        selected = names
    idx = [names.index(n) for n in selected]

    X, y = ff.X[:, idx], ff.y
    if subsample_fraction is not None or subsample_count is not None:
        n = len(y)
        k = subsample_count if subsample_count is not None else max(1, int(subsample_fraction * n))
        if not 1 <= k <= n:
            raise ValueError(f"subsample size {k} outside 1..{n}")
        pick = np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
        X, y = X[pick], y[pick]

    data = calibrate.LabeledFeatures(X=X, y=y, schema_id=ff.schema_id, feature_names=selected)
    model = calibrate.fit_logistic(data, penalty)
    calibrate.save_model(model, output_path)
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
    X = calibrate.select_columns(model, ff.X, ff.schema_id)
    return calibrate.apply_model(model, X)


def scored_rows(ff: FeatureFile, scores: np.ndarray) -> list[dict]:
    return [
        {
            "id": ff.ids[i],
            "label": int(ff.y[i]),
            "raw_prob": float(ff.raw_prob[i]),
            "calibrated_prob": float(scores[i]),
            "group": ff.groups[i],
            "schema_id": ff.schema_id,
        }
        for i in range(len(ff.ids))
    ]


def evaluate_command(
    features_path,
    model_path=None,
    output_dir=".",
    *,
    bins: int = 10,
    group_by: Optional[str] = None,
) -> dict:
    """Score a feature file (raw probabilities when no model is given),
    then write metrics JSON, both reliability CSVs and scored JSONL.

    With group_by="group", adds one report per group value next to the
    overall one; group slices with a single label class report AUC null.
    """
    if group_by is not None and group_by != "group":
        raise ValueError(f"only grouping by 'group' is supported, got {group_by!r}")
    ff = load_features(features_path)
    model = calibrate.load_model(model_path) if model_path else None
    scores = _scores_for(ff, model)

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    overall = metrics.compute_report(scores, ff.y, k=bins)
    groups = {}
    if group_by:
        for value in sorted({g for g in ff.groups if g is not None}):
            sel = np.array([g == value for g in ff.groups])
            groups[value] = metrics.compute_report(scores[sel], ff.y[sel], k=bins, group=value)

    doc = {"overall": overall.as_dict()}
    if group_by:
        doc["groups"] = {name: rep.as_dict() for name, rep in groups.items()}
    _write_json(out / "metrics.json", doc)
    _write_bins_csv(out / "reliability_equal_width.csv", overall.bins_ece)
    _write_bins_csv(out / "reliability_equal_mass.csv", overall.bins_ace)
    _write_jsonl(out / "scored.jsonl", scored_rows(ff, scores))
    return {"overall": overall, "groups": groups}


def apply_command(features_path, model_path, output_path) -> int:
    """Score a feature file with a model, emitting scored JSONL only."""
    ff = load_features(features_path)
    model = calibrate.load_model(model_path)
    rows = scored_rows(ff, _scores_for(ff, model))
    _write_jsonl(output_path, rows)
    return len(rows)


# -- comparison ---------------------------------------------------------------


def load_scored(path) -> list[dict]:
    """Scored rows in file order; ids are compared as strings and must be unique."""
    rows, seen = [], set()
    for lineno, doc in iter_jsonl(path, ("id", "label", "calibrated_prob")):
        doc["id"] = str(doc["id"])
        if doc["id"] in seen:
            raise SchemaError(f"line {lineno}: duplicate id {doc['id']!r}")
        seen.add(doc["id"])
        _check_label(doc, lineno)
        _check_group(doc, lineno)
        _check_prob(doc, "calibrated_prob", lineno)
        rows.append(doc)
    return rows


def compare_command(
    path_a, path_b, output_path, fractions=(0.01, 0.05, 0.10, 0.20)
) -> tuple:
    """Join two scored files on id and stratify by probability shift."""
    rows_a = load_scored(path_a)
    by_id_b = {r["id"]: r for r in load_scored(path_b)}
    ids_a = [r["id"] for r in rows_a]
    missing_in_b = [i for i in ids_a if i not in by_id_b]
    missing_in_a = sorted(set(by_id_b) - set(ids_a))
    if missing_in_b or missing_in_a:
        raise IdMismatch(
            f"ids only in {path_a}: {missing_in_b[:10]}; only in {path_b}: {missing_in_a[:10]}"
        )
    for r in rows_a:
        if by_id_b[r["id"]]["label"] != r["label"]:
            raise SchemaError(f"id {r['id']!r} has different labels in the two files")
    scores_a = [r["calibrated_prob"] for r in rows_a]
    scores_b = [by_id_b[r["id"]]["calibrated_prob"] for r in rows_a]
    labels = [r["label"] for r in rows_a]
    strata = metrics.compare_shift(scores_a, scores_b, labels, fractions)
    _write_json(
        output_path,
        {
            "n": len(rows_a),
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

    "calibrated" draws scores uniform and labels at exactly that rate;
    "platt" distorts scores through known weights (recorded in a sidecar
    for recovery tests); "mps-signal" hides the real signal in one
    frequency-style feature so multivariate fits have an edge.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    sidecar = {"mode": mode, "seed": seed, "n": n}
    if mode == "calibrated":
        s = rng.uniform(size=n)
        y = (rng.uniform(size=n) < s).astype(int)
        schema_id, X = "ps", calibrate.logit(s)[:, None]
    elif mode == "platt":
        w0, w1 = PLATT_TRUE_WEIGHTS
        s = rng.uniform(size=n)
        q = calibrate.sigmoid(w0 + w1 * calibrate.logit(s))
        y = (rng.uniform(size=n) < q).astype(int)
        schema_id, X = "ps", calibrate.logit(s)[:, None]
        sidecar.update({"w0": w0, "w1": w1})
    elif mode == "mps-signal":
        schema = resolve_schema("mps-nucleus")
        names = schema.feature_names()
        b0, b1, b2 = SIGNAL_WEIGHTS
        s = rng.uniform(size=n)
        u = calibrate.logit(s)
        X = rng.uniform(size=(n, schema.length))
        X[:, 0] = u
        v = X[:, names.index(SIGNAL_FEATURE)]
        q = calibrate.sigmoid(b0 + b1 * u + b2 * v)
        y = (rng.uniform(size=n) < q).astype(int)
        schema_id = schema.schema_id
        sidecar.update(
            {"weights": list(SIGNAL_WEIGHTS), "informative_feature": SIGNAL_FEATURE}
        )
    else:
        raise ValueError(f"unknown synth mode {mode!r}")
    rows = [
        {
            "id": f"syn{i:06d}",
            "label": label,
            "group": None,
            "schema_id": schema_id,
            "values": values,
            "raw_prob": prob,
        }
        for i, (values, label, prob) in enumerate(zip(X.tolist(), y.tolist(), s.tolist()))
    ]
    _write_jsonl(output_path, rows)
    _write_json(str(output_path) + ".sidecar.json", sidecar)
    return sidecar


# -- small IO helpers -----------------------------------------------------------


def _write_jsonl(path, rows) -> None:
    """Write ``rows``, any iterable, through a temporary file: an error raised
    while they are produced leaves nothing at ``path``."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, separators=(",", ":")))
                fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_bins_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_index,lower,upper,count,mean_score,empirical_accuracy,bias\n")
        for r in rows:
            fh.write(
                f"{r.bin_index},{r.lower!r},{r.upper!r},{r.count},"
                f"{r.mean_score!r},{r.empirical_accuracy!r},{r.bias!r}\n"
            )
