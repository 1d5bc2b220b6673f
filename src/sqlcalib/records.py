"""Candidate records, the JSONL reader and its field checks, and featurizing
one chunk of a candidate file: all that featurize's worker processes import
when they unpickle ``_featurize_chunk``, so nothing here may import numpy."""

import json
import math
from dataclasses import dataclass, field, fields
from operator import iadd
from typing import Iterator, Optional

from .clausefreq import SOURCES, FeatureSchema, assemble_features, resolve_schema
from .errors import EmptyPool, JsonError, NoUsableCandidate, ParseError, SchemaError, SchemaMismatch
from .parser import parse_sql
from .probability import finite_float, prob_of_log_prob
from .sqlast import QueryTree


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

    @property
    def usable(self) -> bool:
        return any(c.tree is not None for c in self.candidates)

    @property
    def clipped(self) -> bool:
        """True if a candidate's probability will be clipped to 1 - PROB_EPS."""
        return any(c.sum_log_prob > 0 for c in self.candidates)


CANDIDATE_FIELDS = ("id", "label", "candidates")
CLIPPED = "sum_log_prob > 0; probability will be clipped"


def iter_jsonl(path, required=()):
    """Yield ``(lineno, doc)`` per non-blank line; each must be a JSON object
    holding the ``required`` fields."""
    for lineno, line in _lines(path):
        yield lineno, _decode(line, lineno, required)


def _lines(path) -> Iterator[tuple[int, bytes]]:
    """``(lineno, line)`` per non-blank line, as bytes, so bad UTF-8 is a
    JsonError on its own line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


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
    """Records featurized in file order: their rows, their counts, the
    extras layout (None until a usable record fixes it), and whether a
    probability was clipped."""

    layout: Optional[FeatureSchema]
    summary: RunSummary = field(default_factory=RunSummary)
    rows: list = field(default_factory=list)
    clipped: bool = False


def _featurize(records, base: FeatureSchema, scope: str, done: _Chunk) -> Iterator[dict]:
    """Rows of ``records`` under ``done.layout``, fixed from ``base`` by the
    first usable record if unset; each record is counted in ``done``. An
    extra named like a standard feature is a SchemaError at any usable record."""
    summary = done.summary
    standard = set(base.feature_names)
    for record in records:
        summary.input_records += 1
        summary.candidate_parse_failures += record.parse_failures
        done.clipped = done.clipped or record.clipped
        if not record.usable:
            summary.unusable += 1
            summary.failures.append({"id": record.id, "reason": "no candidate parses"})
            continue
        extras = record.extra_features or ()
        if done.layout is None or not standard.isdisjoint(extras):  # a clash raises here
            done.layout = resolve_schema("+".join([base.schema_id, *extras]))
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
