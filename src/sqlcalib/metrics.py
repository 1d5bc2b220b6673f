"""Calibration and error-detection metrics with plot-ready bin tables.

All functions are pure and deterministic, including tie handling: equal
scores share their average rank in the AUC, and equal sort keys fall back
to input order everywhere a sort happens. ECE and ACE differ only in how
they cut the examples into bins; one routine, ``_binned``, turns the bins
into the bin table and the calibration error.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyInput, LengthMismatch, OutOfDomain, SingleClass


@dataclass(frozen=True)
class BinRow:
    bin_index: int
    lower: float
    upper: float
    count: int
    mean_score: float
    empirical_accuracy: float
    bias: float  # empirical_accuracy - mean_score


@dataclass(frozen=True)
class MetricsReport:  # field order is the key order of metrics.json
    group: Optional[str]
    n: int
    brier: float
    ece: float
    ace: float
    auc: Optional[float]
    bins_ece: tuple[BinRow, ...]
    bins_ace: tuple[BinRow, ...]


def _check(scores, labels, probabilities: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels as 1-D float arrays of one length, labels 0 or 1,
    scores finite and, when they are ``probabilities``, inside [0, 1]."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    for name, values in (("scores", scores), ("labels", labels)):
        if values.ndim != 1:
            raise OutOfDomain(f"{name} must be 1-D, got shape {values.shape}")
    if scores.shape != labels.shape:
        raise LengthMismatch(f"{scores.shape[0]} scores vs {labels.shape[0]} labels")
    if scores.size == 0:
        raise EmptyInput("no examples")
    # one vectorised pass per array; NaN fails every comparison
    ok = (scores >= 0) & (scores <= 1) if probabilities else np.isfinite(scores)
    if not ok.all():
        kind = "probabilities in [0, 1]" if probabilities else "finite numbers"
        raise OutOfDomain(f"scores must be {kind}, got {float(scores[~ok][0])!r}")
    ok = (labels == 0) | (labels == 1)
    if not ok.all():
        raise OutOfDomain(f"labels must be 0 or 1, got {float(labels[~ok][0])!r}")
    return scores, labels


def brier(scores, labels) -> float:
    """Mean squared error between predicted probability and binary label."""
    scores, labels = _check(scores, labels)
    return float(np.mean((labels - scores) ** 2))


def _binned(bins) -> tuple[float, tuple[BinRow, ...]]:
    """The count-weighted mean |bias| over ``(lower, upper, scores, labels)``
    bins, and their table; an empty bin stays in it with count 0."""
    rows = []
    for i, (lower, upper, s, y) in enumerate(bins):
        ms, acc = (float(s.mean()), float(y.mean())) if s.size else (0.0, 0.0)
        rows.append(BinRow(i, float(lower), float(upper), int(s.size), ms, acc, acc - ms))
    if not rows:
        raise ValueError("need at least one bin")
    n = sum(r.count for r in rows)
    return float(sum(r.count / n * abs(r.bias) for r in rows)), tuple(rows)


def ece(scores, labels, k: int = 10) -> tuple[float, tuple[BinRow, ...]]:
    """l1 calibration error over k equal-width bins.

    Bins are [i/k, (i+1)/k) with the last bin closed on the right so a
    score of exactly 1.0 is representable. Empty bins contribute zero and
    stay in the table with count 0.
    """
    scores, labels = _check(scores, labels)
    # inner edges only, so a score of 1.0 lands in the last bin
    idx = np.searchsorted([i / k for i in range(1, k)], scores, side="right")
    masks = (idx == i for i in range(k))  # one live mask at a time, however many bins
    return _binned((i / k, (i + 1) / k, scores[m], labels[m]) for i, m in enumerate(masks))


def ace(scores, labels, k: int = 10) -> tuple[float, tuple[BinRow, ...]]:
    """l1 calibration error over k equal-mass bins.

    Examples are sorted by score (stable, so ties keep input order) and
    split into k contiguous groups; the first n mod k groups take the
    extra example, so with n < k the last bins are empty. Bin bounds
    report the min and max score inside, 0.0 for an empty bin.
    """
    scores, labels = _check(scores, labels)
    order = np.argsort(scores, kind="stable")
    groups = zip(np.array_split(scores[order], k), np.array_split(labels[order], k))
    return _binned((s[0] if s.size else 0.0, s[-1] if s.size else 0.0, s, y) for s, y in groups)


def auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative,
    counting ties as one half (average-rank Mann-Whitney statistic). Only
    the order of the scores matters, so any finite numbers are accepted."""
    scores, labels = _check(scores, labels, probabilities=False)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUC needs both a positive and a negative example")
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    order = np.argsort(values, kind="stable")
    # a run of ties at sorted positions start .. start + count - 1 shares
    # the rank start + (count + 1) / 2, exact as a whole or half number
    _, start, count = np.unique(values[order], return_index=True, return_counts=True)
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.repeat(start + (count + 1) / 2.0, count)
    return ranks


def compute_report(scores, labels, k: int = 10, group: Optional[str] = None) -> MetricsReport:
    """All four metrics plus both bin tables in one pass.

    AUC is reported as None when the slice holds a single class (common
    for small groups); the calibration metrics are still well defined.
    """
    scores, labels = _check(scores, labels)
    ece_val, bins_e = ece(scores, labels, k)
    ace_val, bins_a = ace(scores, labels, k)
    try:
        auc_val: Optional[float] = auc(scores, labels)
    except SingleClass:
        auc_val = None
    return MetricsReport(
        group=group,
        n=int(scores.size),
        brier=brier(scores, labels),
        ece=ece_val,
        ace=ace_val,
        auc=auc_val,
        bins_ece=bins_e,
        bins_ace=bins_a,
    )


# -- probability-shift strata --------------------------------------------


@dataclass(frozen=True)
class ShiftStratum:
    fraction: float
    side: str  # "top" | "bottom"
    count: int
    mean_delta: float
    mean_a: float
    mean_b: float
    accuracy: float


def compare_shift(
    scores_a, scores_b, labels, fractions: Sequence[float] = (0.01, 0.05, 0.10, 0.20)
) -> tuple[ShiftStratum, ...]:
    """Stratify examples by how far scores_b moved away from scores_a.

    For each fraction f the top and bottom ceil(f*n) examples by
    delta = b - a are summarized; ties in delta keep input order. Each
    fraction must lie in (0, 0.5].
    """
    if not all(0 < f <= 0.5 for f in fractions):  # NaN fails too
        raise ValueError(f"fractions must lie in (0, 0.5], got {tuple(fractions)!r}")
    scores_a, labels = _check(scores_a, labels)
    scores_b, _ = _check(scores_b, labels)
    n = scores_a.size
    delta = scores_b - scores_a
    order = np.argsort(delta, kind="stable")
    strata = []
    for f in fractions:
        m = int(np.ceil(f * n))
        for side, pick in (("top", order[n - m :]), ("bottom", order[:m])):
            strata.append(
                ShiftStratum(
                    fraction=float(f),
                    side=side,
                    count=m,
                    mean_delta=float(delta[pick].mean()),
                    mean_a=float(scores_a[pick].mean()),
                    mean_b=float(scores_b[pick].mean()),
                    accuracy=float(labels[pick].mean()),
                )
            )
    return tuple(strata)
