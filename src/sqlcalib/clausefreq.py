"""Clause-level agreement scoring between a query and a pool of samples.

A query pair is compared at the root split: one set-operation signal plus
nine clause signals for each of the two root subqueries (19 binary
signals). Averaging those signals over a pool yields per-clause agreement
frequencies; their product is appended as an aggregate, and the model's
own (logit) probability is prepended when assembling feature vectors.
"""

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyPool, SchemaError, SchemaMismatch
from .probability import finite_float, logit_of_log_prob
from .sqlast import CLAUSE_KINDS, QueryTree, SelectStatement, decompose

MATCH_VECTOR_LEN = 1 + 2 * len(CLAUSE_KINDS)

_ALL = (1,) * len(CLAUSE_KINDS)
_NONE = (0,) * len(CLAUSE_KINDS)


def subquery_match(q1, q2) -> tuple[int, ...]:
    """Nine clause signals for a pair of root subqueries (either may be None).

    Leaves compare canonical clause text (absent on both sides counts as
    a match); internal nodes match a clause if either child pairing
    matches it on both branches; a leaf never matches an internal node.
    """
    if q1 is None or q2 is None:
        return _ALL if q1 is q2 else _NONE
    leaf1 = isinstance(q1, SelectStatement)
    leaf2 = isinstance(q2, SelectStatement)
    if leaf1 and leaf2:
        return tuple([int(a == b) for a, b in zip(q1.clauses, q2.clauses)])
    if leaf1 or leaf2:
        return _NONE
    ll = subquery_match(q1.left, q2.left)
    rr = subquery_match(q1.right, q2.right)
    lr = subquery_match(q1.left, q2.right)
    rl = subquery_match(q1.right, q2.left)
    return tuple([(a & b) | (c & d) for a, b, c, d in zip(ll, rr, lr, rl)])


def query_match(qa: QueryTree, qb: QueryTree) -> tuple[int, ...]:
    """19 binary agreement signals between two queries.

    Both root child pairings are evaluated and the one with more clause
    matches wins; on a tie the straight pairing is kept. Signals are
    ordered by qa's subqueries.
    """
    op_a, a1, a2 = decompose(qa)
    op_b, b1, b2 = decompose(qb)
    set_op_match = int(op_a == op_b)
    straight = (subquery_match(a1, b1), subquery_match(a2, b2))
    crossed = (subquery_match(a1, b2), subquery_match(a2, b1))
    chosen = straight if _total(straight) >= _total(crossed) else crossed
    return (set_op_match,) + chosen[0] + chosen[1]


def _total(pair) -> int:
    return sum(pair[0]) + sum(pair[1])


def clause_frequencies(query: QueryTree, pool: list[QueryTree]) -> tuple[float, ...]:
    """Mean agreement signals of ``query`` against every pool member,
    with the product of the 19 means appended as an aggregate.

    Equal trees give equal signals, so each distinct member is matched
    once and weighted by its count; the integer sums are unchanged.
    """
    if not pool:
        raise EmptyPool("cannot score against an empty pool")
    sums = [0] * MATCH_VECTOR_LEN
    for other, count in Counter(pool).items():
        for i, bit in enumerate(query_match(query, other)):
            sums[i] += bit * count
    freqs = [s / len(pool) for s in sums]
    return tuple(freqs) + (math.prod(freqs),)


# -- feature assembly ---------------------------------------------------


@dataclass(frozen=True)
class FeatureSchema:
    """Declared layout of a feature vector: logit-probability first, one
    frequency block per source, then any client-supplied extras."""

    schema_id: str  # canonical: the base id, then the extras, sorted
    sources: tuple[str, ...]
    extras: tuple[str, ...]
    feature_names: tuple[str, ...]


BASE_SCHEMAS = {
    "ps": (),
    "mps-nucleus": ("nucleus",),
    "mps-beam": ("beam",),
    "mps-nb": ("nucleus", "beam"),
}
# the CLI's other choice lists, stated here so that parsing its flags needs no numpy
SOURCES = ("nucleus", "beam")
METHODS = ("ps", "mps")
SYNTH_MODES = ("calibrated", "platt", "mps-signal")


def resolve_schema(schema_id: str) -> FeatureSchema:
    """Look up a schema by id; a "+name" suffix list declares extras, sorted.

    An extra named like a standard feature, or a name given twice in the
    suffix, is a SchemaError: every feature is looked up by its name.
    """
    base, _, suffix = schema_id.partition("+")
    if base not in BASE_SCHEMAS:
        raise SchemaMismatch(
            f"unknown feature schema {schema_id!r}; expected one of {sorted(BASE_SCHEMAS)}"
        )
    extras = tuple(sorted(name for name in suffix.split("+") if name))
    canonical = "+".join([base, *extras])
    names = ["logit_prob"]
    for src in BASE_SCHEMAS[base]:
        names.append(f"{src}.set_op")
        names.extend(f"{src}.sq1.{kind}" for kind in CLAUSE_KINDS)
        names.extend(f"{src}.sq2.{kind}" for kind in CLAUSE_KINDS)
        names.append(f"{src}.agg")
    names.extend(extras)
    repeated = sorted(n for n, count in Counter(names).items() if count > 1)
    if repeated:
        raise SchemaError(f"feature schema {canonical!r} repeats feature names {repeated}")
    return FeatureSchema(canonical, BASE_SCHEMAS[base], extras, tuple(names))


def assemble_features(
    candidate: QueryTree,
    sum_log_prob: float,
    pools: dict,
    schema: FeatureSchema,
    extras: dict | None = None,
) -> tuple[float, ...]:
    """The feature values of ``candidate`` under ``schema``, in its layout.

    ``pools`` maps source name to the list of parsed samples for that
    source; every source the schema declares must be present and
    non-empty. Extra scalar features are taken from ``extras`` by name and
    must be finite numbers; an extra the schema does not name is an error
    too, so no value is dropped unseen.
    """
    values = [logit_of_log_prob(sum_log_prob)]
    for src in schema.sources:
        pool = pools.get(src)
        if pool is None:
            raise SchemaMismatch(f"schema {schema.schema_id!r} requires a {src!r} pool")
        values.extend(clause_frequencies(candidate, pool))
    unexpected = sorted(set(extras or ()) - set(schema.extras))
    if unexpected:
        raise SchemaMismatch(f"record has extra features {unexpected} not in {schema.schema_id!r}")
    for name in schema.extras:
        if extras is None or name not in extras:
            raise SchemaMismatch(f"record is missing extra feature {name!r}")
        value = finite_float(extras[name])
        if value is None:
            raise SchemaMismatch(f"extra feature {name!r} must be a finite number")
        values.append(value)
    return tuple(values)
