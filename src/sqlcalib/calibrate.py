"""Probabilities and the calibrators fitted on them.

Platt scaling (PS) and multivariate Platt scaling (MPS) are one fit:
``fit_logistic`` learns sigmoid(w0 + w . x) under a ridge penalty, and PS
is that fit on the ``logit_prob`` column alone, the logit of the model's
own probability. Weights are learned on a held-out calibration split,
never on the split being evaluated. ``logit`` and ``apply_model`` clip
by the toolkit's one policy, which lives in ``probability``.
"""

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .errors import NonFinite, SchemaError, SchemaMismatch, SingleClass
from .probability import PROB_EPS, finite_float

# Convergence bound on the penalized gradient's infinity norm. Tightening
# it further is futile on large fits: the objective's float resolution
# (eps * |f| ~ 1e-12 at n = 20k) turns the line search into noise below
# roughly 1e-7.
GRAD_TOL = 1e-6
MAX_ITER = 100


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
    X, y, penalty: float = 1.0, *, schema_id: str = "ps",
    feature_names: tuple[str, ...] = ("logit_prob",),
) -> CalibratorModel:
    """Minimize the logistic loss plus (1 / (2*penalty)) * ||w||^2 over the
    rows of ``X`` (n, m) and labels ``y`` in {0, 1}; the model records
    ``schema_id`` and ``feature_names``, which default to Platt scaling's.

    The intercept is never penalized; ``penalty`` must be a finite number
    > 0 whose reciprocal is finite too. Damped Newton iterations from zero
    initialization run until the penalized gradient's infinity norm drops
    below tolerance, so refits on identical inputs are bit-identical.
    Raises NonFinite when the features or the fitted model are not finite.
    """
    if not (0 < penalty < math.inf and 1.0 / penalty < math.inf):  # NaN fails too
        raise ValueError(
            f"penalty must be a finite number > 0 with a finite reciprocal, got {penalty!r}"
        )
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
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

    w = np.zeros(m + 1)

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
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:  # saturated sigmoids leave H singular
            raise NonFinite("fit failed: singular Newton step; features or penalty too extreme")
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

    intercept, coef = float(w[0]), w[1:]
    if tuple(feature_names) == ("logit_prob",) and coef[0] <= 0:
        warnings.warn(
            "fitted slope is not positive; calibrated scores will not preserve ranking",
            stacklevel=2,
        )
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales[X.max(axis=0) == X.min(axis=0)] = 0.0  # constant columns: exactly zero
    # features near the float limits overflow the Newton steps or the moments
    if not all(np.isfinite(v).all() for v in (w, means, scales)):
        raise NonFinite("fitted model is not finite: features or penalty too extreme")
    return CalibratorModel(
        schema_id=schema_id,
        feature_names=tuple(feature_names),
        intercept=intercept,
        weights=tuple(float(v) for v in coef),
        penalty=penalty,
        feature_means=tuple(float(v) for v in means),
        feature_scales=tuple(float(v) for v in scales),
    )


def apply_model(model: CalibratorModel, X) -> np.ndarray:
    """Calibrated probabilities for rows of ``X``, strictly inside (0, 1).

    The sigmoid saturates to exact 0.0 or 1.0 in float64 past |z| ~ 37;
    clipping to the toolkit-wide epsilon keeps the open-interval contract.
    Raises NonFinite when a logit may overflow: the product's summation
    order, and so an overflow's sign, would depend on the other rows.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(model.weights):
        raise SchemaMismatch(
            f"model {model.schema_id!r} expects {len(model.weights)} features, got {X.shape[1]}"
        )
    w = np.asarray(model.weights)
    # |intercept| + |w| . max |column| bounds every row's |logit|; a NaN
    # intercept is left to the metrics, which reject NaN scores
    col_max = np.maximum(X.max(axis=0, initial=0.0), -X.min(axis=0, initial=0.0))
    with np.errstate(over="ignore"):
        bound = abs(model.intercept) + np.abs(w) @ col_max
    if np.isinf(bound):
        raise NonFinite("model weights overflow the logit on these features")
    raw = sigmoid(model.intercept + X @ w)
    return np.clip(raw, PROB_EPS, 1.0 - PROB_EPS)


# -- persistence ---------------------------------------------------------

def model_to_dict(model: CalibratorModel) -> dict:
    from . import __version__

    return {**asdict(model), "toolkit_version": __version__}


def _model_number(value, key: str) -> float:
    number = finite_float(value)
    if number is None:
        raise SchemaError(f"model {key} must hold finite numbers, got {value!r}")
    return number


def _model_numbers(doc: dict, key: str, length: int) -> tuple[float, ...]:
    values = doc[key]
    if not isinstance(values, list) or len(values) != length:
        raise SchemaError(f"model {key} must be a list of {length} numbers, one per feature")
    return tuple(_model_number(v, key) for v in values)


def model_from_dict(doc) -> CalibratorModel:
    """The model a JSON document describes. Anything but an object holding
    every model field, each well formed, is a SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError(f"model must be a JSON object, got {type(doc).__name__}")
    missing = [f.name for f in fields(CalibratorModel) if f.name not in doc]
    if missing:
        raise SchemaError(f"model lacks fields {missing}")
    if type(doc["schema_id"]) is not str:
        raise SchemaError(f"model schema_id must be a string, got {doc['schema_id']!r}")
    names = doc["feature_names"]
    if not isinstance(names, list) or any(type(n) is not str for n in names):
        raise SchemaError(f"model feature_names must be a list of strings, got {names!r}")
    if len(set(names)) != len(names):
        raise SchemaError(f"model feature_names repeat a name: {names!r}")
    penalty = _model_number(doc["penalty"], "penalty")
    if penalty <= 0:
        raise SchemaError(f"model penalty must be > 0, got {penalty!r}")
    n = len(names)
    means, scales = (
        None if doc[key] is None else _model_numbers(doc, key, n)
        for key in ("feature_means", "feature_scales")
    )
    return CalibratorModel(
        schema_id=doc["schema_id"],
        feature_names=tuple(names),
        intercept=_model_number(doc["intercept"], "intercept"),
        weights=_model_numbers(doc, "weights", n),
        penalty=penalty,
        feature_means=means,
        feature_scales=scales,
    )


def load_model(path) -> CalibratorModel:
    with open(path, "rb") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
            raise SchemaError(f"model file is not JSON: {exc}") from exc
    return model_from_dict(doc)
