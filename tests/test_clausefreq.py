"""Matching algorithms, frequency scoring and feature assembly."""

import math
import random

import pytest

from sqlcalib.clausefreq import (
    MATCH_VECTOR_LEN,
    assemble_features,
    clause_frequencies,
    logit_of_log_prob,
    query_match,
    resolve_schema,
    subquery_match,
)
from sqlcalib.errors import EmptyPool, SchemaMismatch
from sqlcalib.parser import parse_sql
from sqlcalib.querygen import generate_query
from sqlcalib.sqlast import CLAUSE_KINDS, decompose


def q(text):
    return parse_sql(text)


def oracle_pairing(qa, qb):
    """Independent selection logic: evaluate both pairings exhaustively."""
    op_a, a1, a2 = decompose(qa)
    op_b, b1, b2 = decompose(qb)
    straight = subquery_match(a1, b1) + subquery_match(a2, b2)
    crossed = subquery_match(a1, b2) + subquery_match(a2, b1)
    chosen = straight if sum(straight) >= sum(crossed) else crossed
    return (int(op_a == op_b),) + chosen


class TestSubqueryMatch:
    def test_both_absent_matches_everywhere(self):
        assert subquery_match(None, None) == (1,) * 9

    def test_one_sided_absence_matches_nowhere(self):
        assert subquery_match(q("select a from b"), None) == (0,) * 9
        assert subquery_match(None, q("select a from b")) == (0,) * 9

    def test_single_clause_disagreement(self):
        got = subquery_match(
            q("select a from b"), q("select a from b where c > 1")
        )
        expected = tuple(0 if kind == "where" else 1 for kind in CLAUSE_KINDS)
        assert got == expected


class TestClauseMatch:
    """The per-clause rules of :func:`subquery_match` on leaves and set operations."""

    def test_identical_leaves(self):
        a = q("select a from b where x = 1")
        b = q("select a from b where x = 1")
        assert subquery_match(a, b)[CLAUSE_KINDS.index("where")] == 1

    def test_shape_mismatch_scores_zero(self):
        leaf = q("select a from b where x = 1")
        node = q("select a from b union select c from d")
        assert subquery_match(leaf, node) == (0,) * 9
        assert subquery_match(node, leaf) == (0,) * 9

    def test_crossed_child_pairing_detected(self):
        a = q("select a from t union select b from t")
        b = q("select b from t union select a from t")
        got = subquery_match(a, b)
        assert got[CLAUSE_KINDS.index("select")] == 1
        assert got[CLAUSE_KINDS.index("from")] == 1

    def test_set_ops_ignored_during_traversal(self):
        a = q("select a from t union select b from t")
        b = q("select a from t except select b from t")
        assert subquery_match(a, b)[CLAUSE_KINDS.index("select")] == 1


class TestQueryMatch:
    def test_self_match_is_all_ones(self):
        rng = random.Random(3)
        for _ in range(50):
            tree = q(generate_query(rng))
            assert query_match(tree, tree) == (1,) * MATCH_VECTOR_LEN

    def test_leaf_vs_union_mixes_signals(self):
        got = query_match(
            q("select a from b"), q("select a from b union select c from d")
        )
        assert got[0] == 0  # no set op vs union
        assert got[1:10] == (1,) * 9  # leaf aligns with the matching branch
        assert got[10:] == (0,) * 9  # absent second subquery vs present one

    def test_matches_exhaustive_pairing_oracle(self):
        rng = random.Random(77)
        trees = [q(generate_query(rng)) for _ in range(80)]
        for _ in range(500):
            qa, qb = rng.choice(trees), rng.choice(trees)
            assert query_match(qa, qb) == oracle_pairing(qa, qb)

    def test_match_count_symmetry(self):
        rng = random.Random(13)
        trees = [q(generate_query(rng)) for _ in range(60)]
        for _ in range(500):
            qa, qb = rng.choice(trees), rng.choice(trees)
            assert sum(query_match(qa, qb)) == sum(query_match(qb, qa))

    def test_ties_prefer_straight_pairing(self):
        # both pairings total 16 matches but disagree per clause: straight
        # aligns on SELECT, crossed on FROM; straight order must win
        qa = q("select a from t union select b from u")
        qb = q("select a from u union select b from t")
        straight = (
            subquery_match(decompose(qa).subq1, decompose(qb).subq1),
            subquery_match(decompose(qa).subq2, decompose(qb).subq2),
        )
        crossed = (
            subquery_match(decompose(qa).subq1, decompose(qb).subq2),
            subquery_match(decompose(qa).subq2, decompose(qb).subq1),
        )
        assert sum(straight[0]) + sum(straight[1]) == sum(crossed[0]) + sum(crossed[1])
        assert straight != crossed
        got = query_match(qa, qb)
        assert got[1:10] == straight[0]
        assert got[10:] == straight[1]
        select_idx, from_idx = CLAUSE_KINDS.index("select"), CLAUSE_KINDS.index("from")
        assert got[1 + select_idx] == 1
        assert got[1 + from_idx] == 0


class TestClauseFrequencies:
    def test_singleton_self_pool(self):
        tree = q("select a from b where x = 1")
        freqs = clause_frequencies(tree, [tree])
        assert freqs == (1.0,) * 20

    def test_hand_enumerated_pool(self):
        tree = q("select a from b where x = 1")
        pool = [q("select a from b where x = 1")] * 3 + [q("select a from b where x = 2")]
        freqs = clause_frequencies(tree, pool)
        where_idx = 1 + CLAUSE_KINDS.index("where")
        assert freqs[where_idx] == 0.75
        assert all(f == 1.0 for i, f in enumerate(freqs[:-1]) if i != where_idx)
        assert freqs[-1] == 0.75

    def test_empty_pool_raises(self):
        with pytest.raises(EmptyPool):
            clause_frequencies(q("select a from b"), [])

    def test_aggregate_equals_product_and_bounds(self):
        rng = random.Random(21)
        trees = [q(generate_query(rng)) for _ in range(40)]
        for _ in range(100):
            target = rng.choice(trees)
            pool = [rng.choice(trees) for _ in range(rng.randint(1, 8))]
            freqs = clause_frequencies(target, pool)
            assert all(0.0 <= f <= 1.0 for f in freqs)
            assert math.isclose(freqs[-1], math.prod(freqs[:-1]), rel_tol=0, abs_tol=1e-15)

    def test_adding_matching_copy_never_decreases_frequencies(self):
        rng = random.Random(8)
        trees = [q(generate_query(rng)) for _ in range(30)]
        for _ in range(50):
            target = rng.choice(trees)
            pool = [rng.choice(trees) for _ in range(rng.randint(1, 6))]
            before = clause_frequencies(target, pool)
            after = clause_frequencies(target, pool + [target])
            assert all(b >= a for b, a in zip(after[:-1], before[:-1]))


class TestFeatureAssembly:
    def test_singleton_pool_gives_unit_frequencies(self):
        tree = q("select a from b")
        schema = resolve_schema("mps-nucleus")
        fv = assemble_features(tree, -0.7, {"nucleus": [tree]}, schema)
        assert len(fv.values) == 21
        assert fv.values[1:] == (1.0,) * 20

    def test_two_source_layout_length(self):
        tree = q("select a from b")
        schema = resolve_schema("mps-nb")
        fv = assemble_features(tree, -0.7, {"nucleus": [tree], "beam": [tree]}, schema)
        assert len(fv.values) == 41
        assert fv.schema_id == "mps-nb"

    def test_missing_required_pool(self):
        tree = q("select a from b")
        schema = resolve_schema("mps-nb")
        with pytest.raises(SchemaMismatch):
            assemble_features(tree, -0.7, {"nucleus": [tree]}, schema)

    def test_certain_sequence_probability_clips_to_known_logit(self):
        assert logit_of_log_prob(0.0) == pytest.approx(27.63102111592755, abs=1e-9)
        assert logit_of_log_prob(-1e9) == pytest.approx(-27.63102111592755, abs=1e-9)

    def test_interior_logit_matches_direct_formula(self):
        for lp in (-0.5, -2.0, -10.0, -25.0):
            p = math.exp(lp)
            assert logit_of_log_prob(lp) == pytest.approx(
                math.log(p / (1 - p)), rel=1e-12
            )

    def test_extras_append_after_standard_block(self):
        tree = q("select a from b")
        schema = resolve_schema("ps", extras=("perplexity", "p_true"))
        assert schema.schema_id == "ps+p_true+perplexity"
        fv = assemble_features(tree, -0.7, {}, schema, {"perplexity": 3.4, "p_true": 0.8})
        assert len(fv.values) == 3
        assert fv.values[1:] == (0.8, 3.4)  # sorted extra order

    def test_schema_lengths(self):
        assert resolve_schema("ps").length == 1
        assert resolve_schema("mps-nucleus").length == 21
        assert resolve_schema("mps-beam").length == 21
        assert resolve_schema("mps-nb").length == 41
        assert len(resolve_schema("mps-nb").feature_names()) == 41

    def test_unknown_schema_rejected(self):
        with pytest.raises(SchemaMismatch):
            resolve_schema("mps-everything")
