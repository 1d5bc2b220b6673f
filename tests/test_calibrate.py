"""Logistic fitting, Platt-style calibration maps and model persistence."""

import json
import warnings

import numpy as np
import pytest

from sqlcalib import pipeline
from sqlcalib.calibrate import (
    CalibratorModel,
    apply_model,
    fit_logistic,
    load_model,
    logit,
    model_to_dict,
    sigmoid,
)
from sqlcalib.errors import NonFinite, SchemaMismatch, SingleClass


def make_data(X, y, names=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 1 and len(y) > 1:
        X = X.T
    names = tuple(names or (f"f{i}" for i in range(X.shape[1])))
    return dict(
        X=X,
        y=np.asarray(y, dtype=float),
        schema_id="test",
        feature_names=names,
    )


def platt_data(scores, labels):
    """Platt scaling's input: the logit of each score as the one feature."""
    return dict(X=logit(scores)[:, None], y=np.asarray(labels, dtype=float))


def penalized_objective(Xd, y, w, reg):
    z = Xd @ w
    return float(np.sum(np.logaddexp(0.0, z) - y * z) + 0.5 * np.sum(reg * w * w))


def gradient_descent_oracle(X, y, penalty, lr=0.05, iters=300_000):
    """Plain full-batch gradient descent on the same objective."""
    n, m = X.shape
    Xd = np.concatenate([np.ones((n, 1)), X], axis=1)
    reg = np.concatenate([[0.0], np.full(m, 1.0 / penalty)])
    w = np.zeros(m + 1)
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(Xd @ w)))
        g = Xd.T @ (p - y) + reg * w
        w -= lr * g
        if np.max(np.abs(g)) < 1e-10:
            break
    return w


class TestFitLogistic:
    def test_no_signal_symmetric_case(self):
        data = make_data(np.zeros((4, 1)), [0, 1, 0, 1])
        model = fit_logistic(**data)
        assert model.intercept == pytest.approx(0.0, abs=1e-9)
        preds = apply_model(model, np.zeros((4, 1)))
        assert preds == pytest.approx([0.5] * 4, abs=1e-9)

    def test_matches_gradient_descent_oracle_on_separable_pair(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = fit_logistic(**make_data(X, y), penalty=1.0)
        expected = gradient_descent_oracle(X, y, penalty=1.0)
        assert model.intercept == pytest.approx(expected[0], abs=1e-4)
        assert model.weights[0] == pytest.approx(expected[1], abs=1e-4)
        assert np.isfinite(model.weights).all()
        preds = apply_model(model, X)
        assert np.all((preds > 0) & (preds < 1))

    def test_matches_gradient_descent_oracle_on_random_instance(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(120, 3))
        y = (rng.uniform(size=120) < sigmoid(X @ [1.0, -0.5, 0.2])).astype(float)
        model = fit_logistic(**make_data(X, y), penalty=2.0)
        expected = gradient_descent_oracle(X, y, penalty=2.0)
        got = np.concatenate([[model.intercept], model.weights])
        assert got == pytest.approx(expected, abs=1e-4)

    def test_gradient_norm_small_on_random_instances(self):
        """Finite differences of an independent objective vanish at the fit."""
        rng = np.random.default_rng(42)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for trial in range(100):
                n = int(rng.integers(30, 200))
                m = int(rng.integers(1, 5))
                X = rng.normal(size=(n, m))
                y = rng.integers(0, 2, size=n).astype(float)
                if y.min() == y.max():
                    y[0] = 1.0 - y[0]
                penalty = float(rng.choice([0.5, 1.0, 10.0]))
                model = fit_logistic(**make_data(X, y), penalty=penalty)
                w = np.concatenate([[model.intercept], model.weights])
                Xd = np.concatenate([np.ones((n, 1)), X], axis=1)
                reg = np.concatenate([[0.0], np.full(m, 1.0 / penalty)])
                h = 1e-5
                for j in range(m + 1):
                    e = np.zeros(m + 1)
                    e[j] = h
                    fd = (
                        penalized_objective(Xd, y, w + e, reg)
                        - penalized_objective(Xd, y, w - e, reg)
                    ) / (2 * h)
                    assert abs(fd) <= 1e-6, f"trial {trial}, coord {j}: fd grad {fd}"

    def test_objective_not_worse_than_zero_weights(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 4))
        y = rng.integers(0, 2, size=80).astype(float)
        y[0] = 1 - y[0] if y.min() == y.max() else y[0]
        penalty = 1.0
        model = fit_logistic(**make_data(X, y), penalty=penalty)
        Xd = np.concatenate([np.ones((80, 1)), X], axis=1)
        reg = np.concatenate([[0.0], np.full(4, 1.0 / penalty)])
        w = np.concatenate([[model.intercept], model.weights])
        assert penalized_objective(Xd, y, w, reg) <= penalized_objective(
            Xd, y, np.zeros(5), reg
        )

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            fit_logistic(**make_data([[0.1], [0.2]], [1, 1]))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            fit_logistic(**make_data([[np.inf], [0.2]], [0, 1]))

    @pytest.mark.parametrize("penalty", [0.0, -1.0, float("nan"), float("inf")])
    def test_penalty_must_be_finite_and_positive(self, penalty):
        with pytest.raises(ValueError, match="penalty"):
            fit_logistic(**make_data([[0.1], [0.2]], [0, 1]), penalty=penalty)

    def test_underdetermined_fit_warns(self):
        X = np.eye(3)
        with pytest.warns(UserWarning, match="unstable"):
            fit_logistic(**make_data(X, [0, 1, 1]))

    def test_determinism(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 5))
        y = rng.integers(0, 2, size=60).astype(float)
        a = fit_logistic(**make_data(X, y))
        b = fit_logistic(**make_data(X, y))
        assert a == b


class TestPlattFit:
    def test_identity_weights_reproduce_clipped_inputs(self):
        model = CalibratorModel(
            schema_id="ps",
            feature_names=("logit_prob",),
            intercept=0.0,
            weights=(1.0,),
            penalty=1.0,
        )
        rng = np.random.default_rng(1)
        scores = np.concatenate([[0.0, 1.0, 1e-13], rng.uniform(size=500)])
        back = apply_model(model, logit(scores)[:, None])
        clipped = np.clip(scores, 1e-12, 1 - 1e-12)
        assert np.max(np.abs(back - clipped)) <= 1e-12

    def test_recovers_generating_weights(self):
        rng = np.random.default_rng(123)
        n = 50_000
        s = rng.uniform(size=n)
        q = sigmoid(0.5 + 2.0 * logit(s))
        y = (rng.uniform(size=n) < q).astype(float)
        model = fit_logistic(**platt_data(s, y))
        assert model.intercept == pytest.approx(0.5, abs=0.05)
        assert model.weights[0] == pytest.approx(2.0, abs=0.05)

    def test_constant_scores_recover_base_rate(self):
        y = np.array([1] * 30 + [0] * 70, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero slope on a constant feature
            model = fit_logistic(**platt_data(np.full(100, 0.5), y))
        pred = apply_model(model, logit(np.full(100, 0.5))[:, None])
        assert pred == pytest.approx(np.full(100, 0.3), abs=1e-3)

    def test_negative_slope_warns(self):
        # scores anti-correlated with labels
        s = np.array([0.9, 0.8, 0.1, 0.2])
        y = np.array([0, 0, 1, 1], dtype=float)
        with pytest.warns(UserWarning, match="slope"):
            fit_logistic(**platt_data(s, y))


class TestMpsFit:
    def test_constant_feature_gets_zero_standardized_weight(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(300, 3))
        X[:, 1] = 0.42
        y = (rng.uniform(size=300) < sigmoid(3 * X[:, 0] - 1.5)).astype(float)
        model = fit_logistic(**make_data(X, y, names=("a", "const", "c")))
        assert model.standardized_weights()["const"] == 0.0

    def test_informative_feature_dominates_standardized_weights(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.uniform(size=(2000, 4))
            y = (rng.uniform(size=2000) < sigmoid(6 * X[:, 2] - 3)).astype(float)
            if y.min() == y.max():
                continue
            model = fit_logistic(**make_data(X, y, names=("a", "b", "signal", "d")))
            std = {k: abs(v) for k, v in model.standardized_weights().items()}
            assert std["signal"] == max(std.values()), f"seed {seed}"


class TestApply:
    def test_zero_weights_give_half(self):
        model = CalibratorModel("ps", ("logit_prob",), 0.0, (0.0,), 1.0)
        rng = np.random.default_rng(2)
        out = apply_model(model, rng.normal(size=(50, 1)))
        assert np.all(out == 0.5)

    def test_outputs_strictly_inside_unit_interval(self):
        model = CalibratorModel("ps", ("logit_prob",), 0.3, (1.7,), 1.0)
        out = apply_model(model, np.array([[-30.0], [0.0], [30.0]]))
        assert np.all((out > 0) & (out < 1))

    def test_strictly_increasing_in_positively_weighted_feature(self):
        model = CalibratorModel("ps", ("logit_prob",), -0.2, (1.3,), 1.0)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a, b = sorted(rng.uniform(-8, 8, size=2))
            if a == b:
                continue
            pa, pb = apply_model(model, np.array([[a], [b]]))
            assert pa < pb

    def apply_to_one_row(self, tmp_path, model, schema_id, values):
        features, model_path = tmp_path / "f.jsonl", tmp_path / "m.json"
        row = {"id": "r", "label": 1, "schema_id": schema_id, "values": values, "raw_prob": 0.5}
        features.write_text(json.dumps(row) + "\n")
        pipeline._write_json(model_path, model_to_dict(model))
        pipeline.apply_command(features, model_path, tmp_path / "scored.jsonl")
        return json.loads((tmp_path / "scored.jsonl").read_text())["calibrated_prob"]

    def test_schema_mismatch_detected(self, tmp_path):
        model = CalibratorModel("ps", ("logit_prob",), 0.0, (1.0,), 1.0)
        with pytest.raises(SchemaMismatch):
            self.apply_to_one_row(tmp_path, model, "mps-nb", [0.5] * 41)

    def test_masked_model_selects_named_columns(self, tmp_path):
        model = CalibratorModel("mps-nucleus", ("nucleus.agg",), 0.0, (1.0,), 1.0)
        out = self.apply_to_one_row(tmp_path, model, "mps-nucleus", [float(i) for i in range(21)])
        assert out == pytest.approx(sigmoid(20.0))


class TestPersistence:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, 2, size=80).astype(float)
        y[0] = 1 - y[0] if y.min() == y.max() else y[0]
        model = fit_logistic(**make_data(X, y), penalty=0.7)
        path = tmp_path / "model.json"
        pipeline._write_json(path, model_to_dict(model))
        assert load_model(path) == model

    def test_document_fields(self, tmp_path):
        model = CalibratorModel("ps", ("logit_prob",), 0.25, (1.5,), 1.0, (0.1,), (0.9,))
        path = tmp_path / "model.json"
        pipeline._write_json(path, model_to_dict(model))
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "schema_id",
            "feature_names",
            "intercept",
            "weights",
            "penalty",
            "feature_means",
            "feature_scales",
            "toolkit_version",
        }
        assert doc["weights"] == [1.5]
