"""Metric values against hand arithmetic and brute-force oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlcalib import calibrate
from sqlcalib.calibrate import CalibratorModel
from sqlcalib.cli import main
from sqlcalib.errors import EmptyInput, LengthMismatch, OutOfDomain, SingleClass, SqlCalibError
from sqlcalib.metrics import (
    _average_ranks,
    ace,
    auc,
    brier,
    compare_shift,
    compute_report,
    ece,
)


# -- independent oracles ---------------------------------------------------


def ece_oracle(scores, labels, k):
    """Brute-force equal-width binning by bound comparison."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n = len(scores)
    total = 0.0
    tables = []
    for i in range(k):
        lower, upper = i / k, (i + 1) / k
        if i == k - 1:
            mask = (scores >= lower) & (scores <= upper)
        else:
            mask = (scores >= lower) & (scores < upper)
        s, y = scores[mask], labels[mask]
        if s.size:
            bias = float(y.mean() - s.mean())
            total += s.size / n * abs(bias)
            tables.append((i, int(s.size), float(s.mean()), float(y.mean())))
        else:
            tables.append((i, 0, 0.0, 0.0))
    return total, tables


def ace_oracle(scores, labels, k):
    """Brute-force equal-mass binning with stable ties and big-bins-first."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n = len(scores)
    order = sorted(range(n), key=lambda i: (scores[i], i))
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    total = 0.0
    start = 0
    tables = []
    for i, size in enumerate(sizes):
        chunk = order[start : start + size]
        start += size
        if chunk:
            s = scores[chunk]
            y = labels[chunk]
            total += size / n * abs(float(y.mean() - s.mean()))
            tables.append((i, size, float(s.mean()), float(y.mean())))
        else:
            tables.append((i, 0, 0.0, 0.0))
    return total, tables


def auc_oracle(scores, labels):
    """All positive-negative pairs, ties worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def average_ranks_oracle(values):
    """A walk over each run of equal sorted values, giving each member the
    run's mean 1-based rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


# few distinct values, so most draws hold long runs of ties (-0.0 ties 0.0)
TIE_HEAVY = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 7.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)


# -- brier -------------------------------------------------------------------


class TestBrier:
    def test_perfect_sharp_predictor(self):
        y = np.array([0, 1, 1, 0, 1], dtype=float)
        assert brier(y, y) == 0.0

    def test_constant_predictor_at_base_rate(self):
        # label sets with means 717/2000 and 1067/2000 give the closed form a(1-a)
        for ones, expected in ((717, 0.22997775), (1067, 0.24887775)):
            y = np.array([1] * ones + [0] * (2000 - ones), dtype=float)
            a = ones / 2000
            assert brier(np.full(2000, a), y) == pytest.approx(expected, abs=1e-12)

    def test_direct_arithmetic(self):
        assert brier([0.2, 0.9], [0, 1]) == pytest.approx(0.025, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            brier([0.5], [0, 1])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            brier([], [])


# -- ece ----------------------------------------------------------------------


class TestEce:
    def test_sharp_predictor_is_zero(self):
        y = np.array([0, 1, 0, 1, 1], dtype=float)
        value, _ = ece(y, y, 10)
        assert value == 0.0

    def test_hand_computed_four_point_instance(self):
        value, rows = ece([0.05, 0.15, 0.85, 0.95], [0, 0, 1, 1], 10)
        assert value == pytest.approx(0.10, abs=1e-12)
        assert [r.count for r in rows] == [1, 1, 0, 0, 0, 0, 0, 0, 1, 1]

    def test_score_one_lands_in_last_bin(self):
        _, rows = ece([1.0], [1], 10)
        assert rows[9].count == 1
        assert rows[9].upper == 1.0

    def test_empty_bins_present_with_zero_count(self):
        _, rows = ece([0.05], [0], 10)
        assert len(rows) == 10
        assert sum(r.count for r in rows) == 1

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            ece([0.5], [1], 0)
        with pytest.raises(ValueError):
            ace([0.5], [1], 0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            scores = np.round(rng.uniform(size=n), 3)
            labels = rng.integers(0, 2, size=n)
            k = int(rng.choice([5, 10, 15]))
            got, rows = ece(scores, labels, k)
            want, table = ece_oracle(scores, labels, k)
            assert got == want
            assert [(r.bin_index, r.count, r.mean_score, r.empirical_accuracy) for r in rows] == table

    def test_scalar_recomputable_from_bin_table(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=500)
        labels = rng.integers(0, 2, size=500)
        value, rows = ece(scores, labels, 10)
        recomputed = sum(r.count / 500 * abs(r.bias) for r in rows)
        assert value == recomputed


# -- ace ------------------------------------------------------------------------


class TestAce:
    def test_constant_scores_reduce_to_overall_bias(self):
        y = np.array([1, 0, 0, 1, 0, 0, 0, 1, 0, 0], dtype=float)
        value, _ = ace(np.full(10, 0.5), y, 3)
        assert value == pytest.approx(abs(y.mean() - 0.5), abs=1e-12)

    def test_singleton_bins_give_mean_absolute_error(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=10)
        labels = rng.integers(0, 2, size=10)
        value, rows = ace(scores, labels, 10)
        assert all(r.count == 1 for r in rows)
        assert value == pytest.approx(np.abs(labels - scores).mean(), abs=1e-12)

    def test_remainder_goes_to_leading_bins(self):
        _, rows = ace(np.linspace(0, 1, 7), np.ones(7), 3)
        assert [r.count for r in rows] == [3, 2, 2]

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(5, 300))
            scores = np.round(rng.uniform(size=n), 2)  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n)
            k = int(rng.choice([4, 10, 13]))
            got, rows = ace(scores, labels, k)
            want, table = ace_oracle(scores, labels, k)
            assert got == want
            assert [(r.bin_index, r.count, r.mean_score, r.empirical_accuracy) for r in rows] == table

    def test_scalar_recomputable_from_bin_table(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=321)
        labels = rng.integers(0, 2, size=321)
        value, rows = ace(scores, labels, 10)
        assert value == sum(r.count / 321 * abs(r.bias) for r in rows)


# -- auc --------------------------------------------------------------------------


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert auc(np.full(10, 0.5), [0, 1] * 5) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            auc([0.1, 0.9], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            scores = np.round(rng.uniform(size=n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == auc_oracle(scores, labels)

    def test_invariant_under_strictly_increasing_maps(self):
        rng = np.random.default_rng(31)
        scores = rng.uniform(size=150)
        labels = rng.integers(0, 2, size=150)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        for _ in range(20):
            knots_x = np.linspace(0, 1, 6)
            knots_y = np.cumsum(rng.uniform(0.1, 1.0, size=6))
            mapped = np.interp(scores, knots_x, knots_y)
            assert auc(mapped, labels) == pytest.approx(base, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TIE_HEAVY, min_size=1, max_size=80))
    def test_average_ranks_equal_the_tie_walk(self, values):
        values = np.asarray(values, dtype=float)
        assert _average_ranks(values).tolist() == average_ranks_oracle(values).tolist()


# -- reliability tables ---------------------------------------------------------------


class TestReliabilityCurve:
    def test_counts_partition_input(self):
        rng = np.random.default_rng(40)
        scores = rng.uniform(size=200)
        labels = rng.integers(0, 2, size=200)
        for metric in (ece, ace):
            rows = metric(scores, labels, 10)[1]
            assert sum(r.count for r in rows) == 200

    def test_equal_width_bounds(self):
        rows = ece(np.random.default_rng(1).uniform(size=50), np.ones(50), 10)[1]
        for i, r in enumerate(rows):
            assert r.lower == i / 10
            assert r.upper == (i + 1) / 10
            assert type(r.lower) is float and type(r.upper) is float

    def test_equal_mass_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(2)
        rows = ace(rng.uniform(size=105), np.ones(105), 10)[1]
        counts = [r.count for r in rows]
        assert max(counts) - min(counts) <= 1


# -- report assembly --------------------------------------------------------------------


class TestComputeReport:
    def test_perfect_sharp_predictor_metrics(self):
        y = np.array([0, 1] * 20, dtype=float)
        rep = compute_report(y, y)
        assert rep.brier == 0.0
        assert rep.ece == 0.0
        assert rep.ace == 0.0
        assert rep.auc == 1.0

    def test_constant_base_rate_predictor_calibrated_but_unresolved(self):
        # labels interleaved so every equal-mass bin of tied scores holds
        # the base rate; a sorted label order would instead expose the
        # index-split tie convention (documented, deterministic)
        y = np.tile([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], 10).astype(float)
        rep = compute_report(np.full(100, 0.3), y)
        assert rep.ece == pytest.approx(0.0, abs=1e-12)
        assert rep.ace == pytest.approx(0.0, abs=1e-12)
        assert rep.brier == pytest.approx(0.21, abs=1e-12)

    def test_single_class_slice_reports_none_auc(self):
        rep = compute_report([0.2, 0.8], [1, 1])
        assert rep.auc is None

    def test_metrics_within_unit_interval(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            n = int(rng.integers(10, 500))
            scores = rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            rep = compute_report(scores, labels)
            assert 0.0 <= rep.brier <= 1.0
            assert 0.0 <= rep.ece <= 1.0
            assert 0.0 <= rep.ace <= 1.0
            if rep.auc is not None:
                assert 0.0 <= rep.auc <= 1.0

    def test_calibrated_synthetic_data_scores_well(self):
        rng = np.random.default_rng(60)
        n = 100_000
        s = rng.uniform(size=n)
        y = (rng.uniform(size=n) < s).astype(float)
        rep = compute_report(s, y)
        assert rep.ece <= 0.01
        assert rep.ace <= 0.01
        assert abs(rep.brier - 1 / 6) <= 0.01


# -- probability-shift strata ----------------------------------------------------------------


class TestCompareShift:
    def test_identical_scores_give_zero_deltas(self):
        rng = np.random.default_rng(70)
        s = rng.uniform(size=40)
        y = rng.integers(0, 2, size=40)
        strata = compare_shift(s, s, y, [0.1, 0.5])
        assert all(st.mean_delta == 0.0 for st in strata)
        top, bottom = strata[2], strata[3]
        assert top.count + bottom.count == 40

    def test_half_fraction_partitions_even_input(self):
        rng = np.random.default_rng(71)
        a = rng.uniform(size=30)
        b = rng.uniform(size=30)
        y = rng.integers(0, 2, size=30)
        strata = compare_shift(a, b, y, [0.5])
        assert strata[0].count == strata[1].count == 15

    def test_matches_sort_and_slice_oracle(self):
        rng = np.random.default_rng(72)
        n = 200
        a = np.round(rng.uniform(size=n), 2)
        b = np.round(rng.uniform(size=n), 2)
        y = rng.integers(0, 2, size=n)
        got = compare_shift(a, b, y, [0.05, 0.2])
        delta = b - a
        order = sorted(range(n), key=lambda i: (delta[i], i))
        for stratum in got:
            m = int(np.ceil(stratum.fraction * n))
            assert stratum.count == m
            pick = order[-m:] if stratum.side == "top" else order[:m]
            assert stratum.mean_delta == pytest.approx(float(np.mean(delta[pick])), abs=1e-15)
            assert stratum.accuracy == pytest.approx(float(np.mean(y[pick])), abs=1e-15)

    def test_default_fractions_make_eight_strata(self):
        rng = np.random.default_rng(73)
        strata = compare_shift(rng.uniform(size=100), rng.uniform(size=100), rng.integers(0, 2, size=100))
        assert len(strata) == 8

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compare_shift([0.1, 0.2], [0.3], [1, 0])

    @pytest.mark.parametrize("fraction", [0.0, 0.6, math.nan])
    def test_fraction_outside_zero_to_half_is_rejected(self, fraction):
        s, y = np.linspace(0.1, 0.9, 8), np.array([0, 1] * 4)
        with pytest.raises(ValueError, match=r"fractions must lie in \(0, 0.5\]"):
            compare_shift(s, s[::-1], y, (0.1, fraction))


# -- inputs no metric can score ---------------------------------------------------------------

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
OUTSIDE_UNIT = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not 0 <= v <= 1)
BAD_LABEL = st.floats(allow_nan=True, allow_infinity=True).filter(lambda v: v not in (0, 1))
PROBABILITY_METRICS = {
    "brier": brier,
    "ece": ece,
    "ace": ace,
    "compute_report": compute_report,
    "compare_shift_a": lambda s, y: compare_shift(s, np.full(len(s), 0.5), y),
    "compare_shift_b": lambda s, y: compare_shift(np.full(len(s), 0.5), s, y),
}


class TestDomain:
    @pytest.mark.parametrize(
        "metric, scores, labels",
        [
            (ece, [-0.5, 0.2, 0.9], [0, 0, 1]),
            (ece, [0.2, math.nan], [0, 1]),
            (brier, [1.7], [1]),
            (brier, [0.5], [3]),
        ],
    )
    def test_reported_cases_raise(self, metric, scores, labels):
        with pytest.raises(OutOfDomain):
            metric(scores, labels)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_metric_raises_on_a_bad_score_or_label(self, data):
        n = data.draw(st.integers(1, 12))
        scores = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
        labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
        i = data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):
            labels[i] = data.draw(BAD_LABEL)
        else:
            scores[i] = data.draw(NON_FINITE | OUTSIDE_UNIT)
        for metric in PROBABILITY_METRICS.values():
            with pytest.raises(OutOfDomain):
                metric(scores, labels)
        # AUC ranks scores, so only a bad label or a non-finite score is out of its domain
        if labels[i] not in (0, 1) or not math.isfinite(scores[i]):
            with pytest.raises(OutOfDomain):
                auc(scores, labels)

    def test_nan_model_scores_are_a_data_error(self, tmp_path, capsys, monkeypatch):
        rows = [
            {"id": f"r{i}", "label": i % 2, "schema_id": "ps", "values": [i / 4 - 1], "raw_prob": 0.5}
            for i in range(8)
        ]
        features = tmp_path / "f.jsonl"
        features.write_text("".join(json.dumps(r) + "\n" for r in rows))
        model = tmp_path / "m.json"
        # a model file with a NaN intercept no longer loads, so hand evaluate the object itself
        nan_model = CalibratorModel("ps", ("logit_prob",), math.nan, (1.0,), 1.0)
        monkeypatch.setattr(calibrate, "load_model", lambda path: nan_model)
        argv = ["evaluate", "--input", str(features), "--model", str(model), "--output", str(tmp_path)]
        assert main(argv) == 2
        assert "scores must be probabilities in [0, 1], got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scores, labels",
        [([0.2, 0.8], 1), ([[0.2, 0.8]], [[0, 1]]), ([0.2, 0.8], [[0, 1]]), ([0.2, 0.8], [0, 1, 1])],
        ids=["scalar-labels", "2-D", "2-D-labels", "too-many-labels"],
    )
    @pytest.mark.parametrize("metric", [*PROBABILITY_METRICS.values(), auc],
                             ids=[*PROBABILITY_METRICS, "auc"])
    def test_every_metric_takes_only_one_dimensional_input_of_one_length(
        self, metric, scores, labels
    ):
        with pytest.raises(SqlCalibError):
            metric(scores, labels)

    # apart from the test above, whose compare_shift entries take len() of the scores
    @pytest.mark.parametrize(
        "metric", [brier, ece, ace, compute_report, auc, lambda s, y: compare_shift(s, s, y)],
        ids=["brier", "ece", "ace", "compute_report", "auc", "compare_shift"],
    )
    def test_a_scalar_score_is_out_of_domain(self, metric):
        with pytest.raises(OutOfDomain, match=r"scores must be 1-D, got shape \(\)"):
            metric(0.5, [1, 0])
