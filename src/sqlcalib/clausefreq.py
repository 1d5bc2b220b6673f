"""Clause-level agreement scoring between a query and a pool of samples.

A query pair is compared at the root split: one set-operation signal plus
nine clause signals for each of the two root subqueries (19 binary
signals). Averaging those signals over a pool yields per-clause agreement
frequencies; their product is appended as an aggregate, and the model's
own (logit) probability is prepended when assembling feature vectors.
"""

import math
import sys
from dataclasses import dataclass, field

from .errors import EmptyPool, SchemaMismatch
from .sqlast import CLAUSE_KINDS, QueryTree, SelectStatement, decompose

PROB_EPS = 1e-12

MATCH_VECTOR_LEN = 19  # 1 set-op + 9 clauses per root subquery
SCF_VECTOR_LEN = 20  # 19 frequencies + their product

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
    with the product of the 19 means appended as an aggregate."""
    if not pool:
        raise EmptyPool("cannot score against an empty pool")
    sums = [0] * MATCH_VECTOR_LEN
    for other in pool:
        for i, bit in enumerate(query_match(query, other)):
            sums[i] += bit
    freqs = [s / len(pool) for s in sums]
    return tuple(freqs) + (math.prod(freqs),)


# -- feature assembly ---------------------------------------------------


@dataclass(frozen=True)
class FeatureSchema:
    """Declared layout of a feature vector: logit-probability first, one
    frequency block per source, then any client-supplied extras."""

    base_id: str
    sources: tuple[str, ...]
    extras: tuple[str, ...] = ()

    @property
    def schema_id(self) -> str:
        if not self.extras:
            return self.base_id
        return self.base_id + "+" + "+".join(self.extras)

    @property
    def length(self) -> int:
        return 1 + SCF_VECTOR_LEN * len(self.sources) + len(self.extras)

    def feature_names(self) -> tuple[str, ...]:
        names = ["logit_prob"]
        for src in self.sources:
            names.append(f"{src}.set_op")
            names.extend(f"{src}.sq1.{kind}" for kind in CLAUSE_KINDS)
            names.extend(f"{src}.sq2.{kind}" for kind in CLAUSE_KINDS)
            names.append(f"{src}.agg")
        names.extend(self.extras)
        return tuple(names)


_BASE_SCHEMAS = {
    "ps": (),
    "mps-nucleus": ("nucleus",),
    "mps-beam": ("beam",),
    "mps-nb": ("nucleus", "beam"),
}


def resolve_schema(schema_id: str, extras: tuple[str, ...] = ()) -> FeatureSchema:
    """Look up a schema by id; a "+name" suffix list declares extras."""
    base, _, suffix = schema_id.partition("+")
    if base not in _BASE_SCHEMAS:
        raise SchemaMismatch(
            f"unknown feature schema {schema_id!r}; expected one of {sorted(_BASE_SCHEMAS)}"
        )
    suffix_extras = tuple(s for s in suffix.split("+") if s) if suffix else ()
    merged = suffix_extras + tuple(e for e in extras if e not in suffix_extras)
    return FeatureSchema(base, _BASE_SCHEMAS[base], tuple(sorted(merged)))


@dataclass(frozen=True)
class FeatureVector:
    schema_id: str
    values: tuple[float, ...] = field(default=())


_LOG_EPS = math.log(PROB_EPS)
_LOG_ONE_MINUS_EPS = math.log1p(-PROB_EPS)
_LOGIT_MAX = math.log((1.0 - PROB_EPS) / PROB_EPS)


def finite_float(value) -> float | None:
    """``value`` as a finite float; None for bools, non-numbers, NaN and infinities."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    # exact comparison: NaN and ints past the float range fail without converting
    return float(value) if -sys.float_info.max <= value <= sys.float_info.max else None


def logit_of_log_prob(sum_log_prob: float) -> float:
    """Sequence log-probability -> logit of the clipped probability.

    Working in log space (expm1 for 1 - p) avoids the cancellation a
    naive exp-then-logit would hit near probability 1.
    """
    if sum_log_prob <= _LOG_EPS:
        return -_LOGIT_MAX
    if sum_log_prob >= _LOG_ONE_MINUS_EPS:
        return _LOGIT_MAX
    return sum_log_prob - math.log(-math.expm1(sum_log_prob))


def assemble_features(
    candidate: QueryTree,
    sum_log_prob: float,
    pools: dict,
    schema: FeatureSchema,
    extras: dict | None = None,
) -> FeatureVector:
    """Build one feature vector for ``candidate`` under ``schema``.

    ``pools`` maps source name to the list of parsed samples for that
    source; every source the schema declares must be present and
    non-empty. Extra scalar features are taken from ``extras`` by name and
    must be finite numbers.
    """
    values = [logit_of_log_prob(sum_log_prob)]
    for src in schema.sources:
        pool = pools.get(src)
        if pool is None:
            raise SchemaMismatch(f"schema {schema.schema_id!r} requires a {src!r} pool")
        values.extend(clause_frequencies(candidate, pool))
    for name in schema.extras:
        if extras is None or name not in extras:
            raise SchemaMismatch(f"record is missing extra feature {name!r}")
        value = finite_float(extras[name])
        if value is None:
            raise SchemaMismatch(f"extra feature {name!r} must be a finite number")
        values.append(value)
    return FeatureVector(schema.schema_id, tuple(values))
