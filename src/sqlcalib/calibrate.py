"""Post-hoc probability calibration via ridge-penalized logistic regression.

Two entry points share one fitter: ``platt_fit`` maps a single raw
probability through sigmoid(w0 + w1 * logit(p)); ``mps_fit`` does the
same over an arbitrary feature vector. Weights are learned on a held-out
calibration split, never on the split being evaluated.
"""

import json
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clausefreq import PROB_EPS, FeatureVector, resolve_schema
from .errors import NonFinite, SchemaMismatch, SingleClass

# Convergence bound on the penalized gradient's infinity norm. Tightening
# it further is futile on large fits: the objective's float resolution
# (eps * |f| ~ 1e-12 at n = 20k) turns the line search into noise below
# roughly 1e-7.
GRAD_TOL = 1e-6
MAX_ITER = 100


@dataclass(frozen=True)
class LabeledFeatures:
    """A feature matrix with binary labels."""

    X: np.ndarray  # (n, m)
    y: np.ndarray  # (n,) in {0, 1}
    schema_id: str = "ps"
    feature_names: tuple[str, ...] = ("logit_prob",)


@dataclass(frozen=True)
class CalibratorModel:
    schema_id: str
    feature_names: tuple[str, ...]
    intercept: float
    weights: tuple[float, ...]
    penalty: float
    feature_means: Optional[tuple[float, ...]] = None
    feature_scales: Optional[tuple[float, ...]] = None

    def standardized_weights(self) -> dict:
        """weight * feature std, the scale-free importance report."""
        if self.feature_scales is None:
            return {name: w for name, w in zip(self.feature_names, self.weights)}
        return {
            name: w * s
            for name, w, s in zip(self.feature_names, self.weights, self.feature_scales)
        }


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logit(p):
    p = np.clip(np.asarray(p, dtype=float), PROB_EPS, 1.0 - PROB_EPS)
    return np.log(p / (1.0 - p))


def fit_logistic(
    data: LabeledFeatures,
    penalty: float = 1.0,
    *,
    fix_intercept_at_zero: bool = False,
) -> CalibratorModel:
    """Minimize the logistic loss plus (1 / (2*penalty)) * ||w||^2.

    The intercept is never penalized. Damped Newton iterations from zero
    initialization run until the penalized gradient's infinity norm drops
    below tolerance, so refits on identical inputs are bit-identical.
    """
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=float)
    n, m = X.shape
    if not np.all(np.isfinite(X)):
        raise NonFinite("feature matrix contains non-finite entries")
    if y.min() == y.max():
        raise SingleClass("labels are constant; calibration is undefined")
    if n < m + 1:
        warnings.warn(
            f"fitting {m + 1} weights on {n} examples; expect an unstable fit",
            stacklevel=2,
        )
    alpha = 1.0 / penalty

    # design matrix with intercept column first; ridge skips the intercept
    Xd = np.concatenate([np.ones((n, 1)), X], axis=1)
    reg = np.full(m + 1, alpha)
    reg[0] = 0.0
    if fix_intercept_at_zero:
        Xd = Xd[:, 1:]
        reg = reg[1:]

    w = np.zeros(Xd.shape[1])

    def objective(wv):
        z = Xd @ wv
        nll = np.sum(np.logaddexp(0.0, z) - y * z)
        return nll + 0.5 * np.sum(reg * wv * wv)

    f = objective(w)
    for _ in range(MAX_ITER):
        p = sigmoid(Xd @ w)
        g = Xd.T @ (p - y) + reg * w
        if np.max(np.abs(g)) <= GRAD_TOL:
            break
        s = p * (1.0 - p)
        H = (Xd * s[:, None]).T @ Xd + np.diag(reg)
        step = np.linalg.solve(H, g)
        t = 1.0
        decrement = float(g @ step)
        while True:
            w_new = w - t * step
            f_new = objective(w_new)
            if f_new <= f - 1e-4 * t * decrement or t < 1e-12:
                break
            t *= 0.5
        w, f = w_new, f_new
    else:
        warnings.warn("logistic fit hit the iteration cap before converging", stacklevel=2)

    if fix_intercept_at_zero:
        intercept, coef = 0.0, w
    else:
        intercept, coef = float(w[0]), w[1:]
    if tuple(data.feature_names) == ("logit_prob",) and coef[0] <= 0:
        warnings.warn(
            "fitted slope is not positive; calibrated scores will not preserve ranking",
            stacklevel=2,
        )
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales[X.max(axis=0) == X.min(axis=0)] = 0.0  # constant columns: exactly zero
    return CalibratorModel(
        schema_id=data.schema_id,
        feature_names=tuple(data.feature_names),
        intercept=intercept,
        weights=tuple(float(v) for v in coef),
        penalty=penalty,
        feature_means=tuple(float(v) for v in means),
        feature_scales=tuple(float(v) for v in scales),
    )


def platt_fit(
    scores: Sequence[float],
    labels: Sequence[int],
    penalty: float = 1.0,
    *,
    temperature_only: bool = False,
) -> CalibratorModel:
    """Fit sigmoid(w0 + w1 * logit(score)) on raw probabilities.

    ``temperature_only`` pins w0 = 0, leaving a single inverse-temperature
    weight; like every fit on ``logit_prob`` alone, a non-positive slope
    warns (ranking metrics are only preserved under a positive slope).
    """
    data = LabeledFeatures(
        X=logit(scores)[:, None],
        y=np.asarray(labels, dtype=float),
        schema_id="ps",
        feature_names=("logit_prob",),
    )
    return fit_logistic(data, penalty, fix_intercept_at_zero=temperature_only)


def mps_fit(data: LabeledFeatures, penalty: float = 1.0) -> CalibratorModel:
    """Fit the multivariate map sigmoid(w0 + w . x) on a calibration split."""
    return fit_logistic(data, penalty)


def apply_model(model: CalibratorModel, X) -> np.ndarray:
    """Calibrated probabilities for rows of ``X``, strictly inside (0, 1).

    The sigmoid saturates to exact 0.0 or 1.0 in float64 past |z| ~ 37;
    clipping to the toolkit-wide epsilon keeps the open-interval contract.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(model.weights):
        raise SchemaMismatch(
            f"model {model.schema_id!r} expects {len(model.weights)} features, got {X.shape[1]}"
        )
    raw = sigmoid(model.intercept + X @ np.asarray(model.weights))
    return np.clip(raw, PROB_EPS, 1.0 - PROB_EPS)


def select_columns(model: CalibratorModel, X, schema_id: str) -> np.ndarray:
    """Pick the columns the model consumes out of a full feature matrix.

    The matrix must come from the schema the model was fit against; the
    model may use a subset of its columns (a masked fit).
    """
    if schema_id != model.schema_id:
        raise SchemaMismatch(
            f"model was fit on schema {model.schema_id!r}, features are {schema_id!r}"
        )
    X = np.atleast_2d(np.asarray(X, dtype=float))
    names = resolve_schema(schema_id).feature_names()
    if tuple(model.feature_names) == names:
        return X
    try:
        idx = [names.index(n) for n in model.feature_names]
    except ValueError as exc:
        raise SchemaMismatch(f"schema {schema_id!r} lacks feature {exc}") from exc
    return X[:, idx]


def apply_features(model: CalibratorModel, features: FeatureVector) -> float:
    """Calibrated probability for a single assembled feature vector."""
    row = select_columns(model, np.asarray(features.values)[None, :], features.schema_id)
    return float(apply_model(model, row)[0])


# -- persistence ---------------------------------------------------------


def model_to_dict(model: CalibratorModel) -> dict:
    from . import __version__

    return {
        "schema_id": model.schema_id,
        "feature_names": list(model.feature_names),
        "intercept": model.intercept,
        "weights": list(model.weights),
        "penalty": model.penalty,
        "feature_means": list(model.feature_means) if model.feature_means else None,
        "feature_scales": list(model.feature_scales) if model.feature_scales else None,
        "toolkit_version": __version__,
    }


def model_from_dict(doc: dict) -> CalibratorModel:
    return CalibratorModel(
        schema_id=doc["schema_id"],
        feature_names=tuple(doc["feature_names"]),
        intercept=float(doc["intercept"]),
        weights=tuple(float(v) for v in doc["weights"]),
        penalty=float(doc["penalty"]),
        feature_means=tuple(doc["feature_means"]) if doc.get("feature_means") else None,
        feature_scales=tuple(doc["feature_scales"]) if doc.get("feature_scales") else None,
    )


def save_model(model: CalibratorModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> CalibratorModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
