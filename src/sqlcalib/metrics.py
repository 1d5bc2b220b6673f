"""Calibration and error-detection metrics with plot-ready bin tables.

All functions are pure and deterministic, including tie handling: equal
scores share their average rank in the AUC, and equal sort keys fall back
to input order everywhere a sort happens.
"""

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyInput, LengthMismatch, SingleClass


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
class MetricsReport:
    brier: float
    ece: float
    ace: float
    auc: Optional[float]
    n: int
    bins_ece: tuple[BinRow, ...]
    bins_ace: tuple[BinRow, ...]
    group: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "group": self.group,
            "n": self.n,
            "brier": self.brier,
            "ece": self.ece,
            "ace": self.ace,
            "auc": self.auc,
            "bins_ece": [asdict(b) for b in self.bins_ece],
            "bins_ace": [asdict(b) for b in self.bins_ace],
        }


def _check(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape:
        raise LengthMismatch(f"{scores.shape[0]} scores vs {labels.shape[0]} labels")
    if scores.size == 0:
        raise EmptyInput("no examples")
    return scores, labels


def brier(scores, labels) -> float:
    """Mean squared error between predicted probability and binary label."""
    scores, labels = _check(scores, labels)
    return float(np.mean((labels - scores) ** 2))


def _row(i: int, lower: float, upper: float, s: np.ndarray, y: np.ndarray) -> BinRow:
    if s.size == 0:
        return BinRow(i, lower, upper, 0, 0.0, 0.0, 0.0)
    ms = float(s.mean())
    acc = float(y.mean())
    return BinRow(i, lower, upper, int(s.size), ms, acc, acc - ms)


def ece(scores, labels, k: int = 10) -> tuple[float, tuple[BinRow, ...]]:
    """l1 calibration error over k equal-width bins.

    Bins are [i/k, (i+1)/k) with the last bin closed on the right so a
    score of exactly 1.0 is representable. Empty bins contribute zero and
    stay in the table with count 0.
    """
    if k < 1:
        raise ValueError(f"need at least one bin, got k={k}")
    scores, labels = _check(scores, labels)
    edges = np.array([i / k for i in range(k + 1)])
    idx = np.minimum(np.searchsorted(edges, scores, side="right") - 1, k - 1)
    rows = []
    for i in range(k):
        mask = idx == i
        rows.append(_row(i, edges[i], edges[i + 1], scores[mask], labels[mask]))
    total = sum(r.count / scores.size * abs(r.bias) for r in rows)
    return float(total), tuple(rows)


def ace(scores, labels, k: int = 10) -> tuple[float, tuple[BinRow, ...]]:
    """l1 calibration error over k equal-mass bins.

    Examples are sorted by score (stable, so ties keep input order) and
    split into k contiguous groups; the first n mod k groups take the
    extra example. Bin bounds report the min and max score inside.
    """
    if k < 1:
        raise ValueError(f"need at least one bin, got k={k}")
    scores, labels = _check(scores, labels)
    n = scores.size
    order = np.argsort(scores, kind="stable")
    s_sorted, y_sorted = scores[order], labels[order]
    base, extra = divmod(n, k)
    rows = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        s = s_sorted[start : start + size]
        y = y_sorted[start : start + size]
        lower = float(s[0]) if size else 0.0
        upper = float(s[-1]) if size else 0.0
        rows.append(_row(i, lower, upper, s, y))
        start += size
    total = sum(r.count / n * abs(r.bias) for r in rows)
    return float(total), tuple(rows)


def auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative,
    counting ties as one half (average-rank Mann-Whitney statistic)."""
    scores, labels = _check(scores, labels)
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


def reliability_curve(scores, labels, binning: str = "equal-width", k: int = 10):
    """Bin table for calibration plots; the count column drives marker size."""
    if binning == "equal-width":
        return ece(scores, labels, k)[1]
    if binning == "equal-mass":
        return ace(scores, labels, k)[1]
    raise ValueError(f"unknown binning {binning!r}; use 'equal-width' or 'equal-mass'")


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
        brier=brier(scores, labels),
        ece=ece_val,
        ace=ace_val,
        auc=auc_val,
        n=int(scores.size),
        bins_ece=bins_e,
        bins_ace=bins_a,
        group=group,
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
    delta = b - a are summarized; ties in delta keep input order.
    """
    scores_a, labels = _check(scores_a, labels)
    scores_b, _ = _check(scores_b, labels)
    if scores_a.shape != scores_b.shape:
        raise LengthMismatch(f"{scores_a.size} vs {scores_b.size} scores")
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
