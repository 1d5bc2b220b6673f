"""Acceptance gate: one test per exit criterion, each at its pinned tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import functools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from sqlcalib import calibrate, metrics, pipeline
from sqlcalib.calibrate import apply_model, fit_logistic
from sqlcalib.clausefreq import clause_frequencies, query_match, subquery_match
from sqlcalib.parser import parse_sql
from sqlcalib.querygen import generate_query
from sqlcalib.sqlast import CLAUSE_KINDS, SetOperation, canonicalize, decompose, extract_clauses

from corpus import CAKE_COOKIE, CORPUS_ALL, PIPER_CUB
from test_clausefreq import oracle_pairing
from test_metrics import ace_oracle, auc_oracle, ece_oracle

FIXTURE = Path(__file__).parent / "data" / "fixture_candidates.jsonl"


def fit_on(ff, rows, columns=slice(None)):
    """The fit of ``fit`` on some rows and columns of a feature file; the
    first column alone, ``logit_prob``, is what ``fit --method ps`` fits."""
    return fit_logistic(
        ff.X[rows, columns], ff.y[rows],
        schema_id=ff.schema_id, feature_names=ff.feature_names[columns],
    )


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {label}")
                raise
            print(f"criterion {number:2d} PASS  {label}")

        return wrapper

    return decorate


@criterion(1, "constant-predictor Brier equals a(1-a) at the stated base rates")
def test_constant_predictor_brier_identity():
    for ones, published in ((717, 0.2300), (1067, 0.2489)):
        labels = np.array([1] * ones + [0] * (2000 - ones), dtype=float)
        a = ones / 2000
        value = metrics.brier(np.full(2000, a), labels)
        assert abs(value - a * (1 - a)) <= 1e-15
        assert abs(value - published) <= 1e-4


@criterion(2, "identity weights (0, 1) reproduce clipped inputs to 1e-12")
def test_platt_identity_mapping():
    model = calibrate.CalibratorModel(
        schema_id="ps", feature_names=("logit_prob",),
        intercept=0.0, weights=(1.0,), penalty=1.0,
    )
    rng = np.random.default_rng(0)
    scores = np.concatenate([[0.0, 1.0, 1e-15, 1 - 1e-15], rng.uniform(size=2000)])
    back = apply_model(model, calibrate.logit(scores)[:, None])
    clipped = np.clip(scores, 1e-12, 1 - 1e-12)
    assert np.max(np.abs(back - clipped)) <= 1e-12


@criterion(3, "fit on synthetic data recovers (0.5, 2.0) within 0.05 at n=50000")
def test_platt_recovery(tmp_path):
    out = tmp_path / "platt.jsonl"
    sidecar = pipeline.synth_command(50_000, "platt", seed=2024, output_path=out)
    ff = pipeline.load_features(out)
    model = fit_on(ff, slice(None), slice(0, 1))
    assert abs(model.intercept - sidecar["w0"]) <= 0.05
    assert abs(model.weights[0] - sidecar["w1"]) <= 0.05


@criterion(4, "calibrated synthetic raw scores: ECE/ACE <= 0.01, Brier near 1/6")
def test_calibrated_data_sanity(tmp_path):
    out = tmp_path / "cal.jsonl"
    pipeline.synth_command(100_000, "calibrated", seed=7, output_path=out)
    ff = pipeline.load_features(out)
    report = metrics.compute_report(ff.raw_prob, ff.y)
    assert report.ece <= 0.01
    assert report.ace <= 0.01
    assert abs(report.brier - 1 / 6) <= 0.01


@criterion(5, "multivariate fit beats single-signal fit on 9+/10 seeds")
def test_mps_dominates_ps_with_signal():
    mps_wins_brier = 0
    mps_wins_auc = 0
    for seed in range(10):
        ff, _ = pipeline.draw_synth(40_000, "mps-signal", seed=seed)  # the synth file's columns
        cal, test = slice(0, 20_000), slice(20_000, 40_000)

        ps_scores = apply_model(fit_on(ff, cal, slice(0, 1)), ff.X[test, :1])
        mps_scores = apply_model(fit_on(ff, cal), ff.X[test])
        y_test = ff.y[test]
        mps_wins_brier += metrics.brier(mps_scores, y_test) < metrics.brier(ps_scores, y_test)
        mps_wins_auc += metrics.auc(mps_scores, y_test) > metrics.auc(ps_scores, y_test)
    assert mps_wins_brier >= 9, f"brier wins: {mps_wins_brier}/10"
    assert mps_wins_auc >= 9, f"auc wins: {mps_wins_auc}/10"


@criterion(6, "positive-slope recalibration leaves test AUC unchanged to 1e-12")
def test_auc_rank_invariance(tmp_path):
    out = tmp_path / "platt.jsonl"
    pipeline.synth_command(20_000, "platt", seed=99, output_path=out)
    ff = pipeline.load_features(out)
    cal, test = slice(0, 10_000), slice(10_000, 20_000)
    model = fit_on(ff, cal, slice(0, 1))
    assert model.weights[0] > 0
    calibrated = apply_model(model, ff.X[test, :1])
    before = metrics.auc(ff.raw_prob[test], ff.y[test])
    after = metrics.auc(calibrated, ff.y[test])
    assert abs(before - after) <= 1e-12


@criterion(7, "pairing, AUC and binning match their brute-force oracles")
def test_oracle_equivalence():
    rng = random.Random(2718)
    trees = [parse_sql(generate_query(rng)) for _ in range(100)]
    for _ in range(500):
        qa, qb = rng.choice(trees), rng.choice(trees)
        assert query_match(qa, qb) == oracle_pairing(qa, qb)

    nrng = np.random.default_rng(2718)
    for _ in range(50):
        n = int(nrng.integers(5, 200))
        scores = np.round(nrng.uniform(size=n), 2)
        labels = nrng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert metrics.auc(scores, labels) == auc_oracle(scores, labels)

    for _ in range(50):
        n = int(nrng.integers(5, 300))
        scores = np.round(nrng.uniform(size=n), 2)
        labels = nrng.integers(0, 2, size=n)
        k = int(nrng.choice([5, 10, 15]))
        assert metrics.ece(scores, labels, k)[0] == ece_oracle(scores, labels, k)[0]
        assert metrics.ace(scores, labels, k)[0] == ace_oracle(scores, labels, k)[0]


@criterion(8, "frequency scoring properties hold over 1000 generated queries")
def test_scf_property_suite():
    rng = random.Random(314159)
    trees = [parse_sql(generate_query(rng)) for _ in range(1000)]

    for tree in trees[:200]:  # self pools
        assert clause_frequencies(tree, [tree]) == (1.0,) * 20

    for _ in range(1000):  # boundedness + aggregate + symmetry
        qa, qb = rng.choice(trees), rng.choice(trees)
        va, vb = query_match(qa, qb), query_match(qb, qa)
        assert sum(va) == sum(vb)
        pool = [rng.choice(trees) for _ in range(rng.randint(1, 6))]
        freqs = clause_frequencies(qa, pool)
        assert all(0.0 <= f <= 1.0 for f in freqs)
        prod = 1.0
        for f in freqs[:-1]:
            prod *= f
        assert freqs[-1] == pytest.approx(prod, abs=1e-15)


@criterion(9, "round-trip idempotence on 1000 generated plus the hand corpus")
def test_parser_round_trip_suite():
    assert len(CORPUS_ALL) >= 40
    seen_ops = set()
    seen_clauses = set()
    nested = 0
    for q in CORPUS_ALL:
        tree = parse_sql(q)
        once = canonicalize(tree)
        assert canonicalize(parse_sql(once)) == once
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, SetOperation):
                seen_ops.add(node.op)
                stack.extend([node.left, node.right])
                continue
            clauses = extract_clauses(node)
            seen_clauses.update(k for k, v in clauses.items() if v is not None)
            if "( select" in " ".join(v for v in clauses.values() if v):
                nested += 1
    assert seen_ops == {"union", "union all", "intersect", "except"}
    assert seen_clauses == set(CLAUSE_KINDS)
    assert nested >= 3

    # the two worked examples decompose as published
    piper = decompose(parse_sql(PIPER_CUB))
    assert piper.set_op == "union"
    assert extract_clauses(piper.subq1)["where"] == "plane_name = 'Piper Cub' and age > 35"
    cake = decompose(parse_sql(CAKE_COOKIE))
    assert cake.set_op == "intersect"
    assert extract_clauses(cake.subq1)["where"] == "t2.food = 'Cake'"

    rng = random.Random(424242)
    for _ in range(1000):
        q = generate_query(rng)
        once = canonicalize(parse_sql(q))
        assert canonicalize(parse_sql(once)) == once


@criterion(10, "fixture pipeline is byte-deterministic and emits 41-wide vectors")
def test_end_to_end_fixture(tmp_path):
    digests = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        pipeline.featurize_command(FIXTURE, d / "nb.jsonl", "mps-nb")
        pipeline.featurize_command(FIXTURE, d / "ps.jsonl", "ps")
        pipeline.fit_command(d / "ps.jsonl", "ps", d / "ps_model.json")
        pipeline.fit_command(d / "nb.jsonl", "mps", d / "mps_model.json")
        pipeline.evaluate_command(d / "ps.jsonl", d / "ps_model.json", d / "eval_ps")
        pipeline.evaluate_command(d / "nb.jsonl", d / "mps_model.json", d / "eval_mps")
        pipeline.compare_command(
            d / "eval_ps" / "scored.jsonl",
            d / "eval_mps" / "scored.jsonl",
            d / "shift.json",
        )
        digests.append(b"".join(
            p.read_bytes()
            for p in sorted(d.rglob("*"))
            if p.is_file()
        ))
        for line in (d / "nb.jsonl").read_text().splitlines():
            assert len(json.loads(line)["values"]) == 41
    assert digests[0] == digests[1]
