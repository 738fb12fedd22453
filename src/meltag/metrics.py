"""Ranking metrics for multi-label tagging: ROC-AUC, PR-AUC, macro averages.

ROC-AUC uses the Mann-Whitney formulation (fraction of correctly ordered
positive/negative pairs, ties counted half), computed through tied ranks so
it stays exact for heavily quantized scores. PR-AUC is average precision
without interpolation; tied scores are cut in ascending input-index order,
which makes the value deterministic. A NaN or ±inf score has no place in
either order and raises NumericFaultError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllColumnsDegenerateError, ConfigInvalidError, DegenerateLabelsError,
    NoPositivesError, NumericFaultError, ShapeMismatchError,
)


def _finite_scores(scores, ndim: int) -> np.ndarray:
    """Scores as float64; a NaN has no rank and ±inf no place in a cut."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != ndim:
        raise ShapeMismatchError(f"scores must be {ndim}-dimensional, got shape {s.shape}")
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise NumericFaultError(f"scores hold non-finite {s.flat[bad[0]]} at flat index {bad[0]}")
    return s


def _binary_labels(labels, n: int, name: str = "labels") -> np.ndarray:
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ShapeMismatchError(f"{name} has shape {y.shape}, want ({n},)")
    y = y.astype(np.float64)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ConfigInvalidError(f"{name} must be binary 0/1")
    return y


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the average of their positions."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(order):
        j = i + 1  # always advances, even on a value unequal to itself
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)  # average of ranks i+1 .. j
        i = j
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties half).

    Equals (W - P(P+1)/2) / (P*N) where W is the rank sum of positives.
    """
    s = _finite_scores(scores, 1)
    y = _binary_labels(labels, len(s))
    p = int(y.sum())
    n = len(y) - p
    if p == 0 or n == 0:
        raise DegenerateLabelsError("roc_auc needs at least one positive and one negative")
    ranks = _tied_ranks(s)
    u = ranks[y == 1.0].sum() - p * (p + 1) / 2.0
    return float(u / (p * n))


def pr_auc(scores, labels) -> float:
    """Average precision: mean of precision-at-cut over positives, cuts taken
    in descending score order with ties broken by ascending index."""
    s = _finite_scores(scores, 1)
    y = _binary_labels(labels, len(s))
    p = int(y.sum())
    if p == 0:
        raise NoPositivesError("pr_auc needs at least one positive")
    order = np.lexsort((np.arange(len(s)), -s))
    hits = y[order]
    cum_hits = np.cumsum(hits)
    precision = cum_hits / np.arange(1, len(s) + 1)
    return float(precision[hits == 1.0].sum() / p)


@dataclass(frozen=True)
class MacroMetrics:
    """Column-averaged metrics with the skipped (degenerate) columns listed."""

    roc_auc: float
    pr_auc: float
    roc_skipped: tuple[int, ...]
    pr_skipped: tuple[int, ...]


def macro_metrics(scores, labels) -> MacroMetrics:
    """Mean ROC-AUC / PR-AUC over tag columns.

    A column contributes to the ROC mean only if both classes are present,
    and to the PR mean only if it has at least one positive; skipped columns
    are reported. Raises when either mean would have no contributing column,
    and on a NaN or ±inf score in any column.
    """
    s = _finite_scores(scores, 2)
    y = np.asarray(labels)
    if y.shape != s.shape:
        raise ShapeMismatchError(f"labels shape {y.shape} != scores shape {s.shape}")
    roc_values, roc_skipped = [], []
    pr_values, pr_skipped = [], []
    for col in range(s.shape[1]):
        pos = int(np.asarray(y[:, col]).astype(np.float64).sum())
        if 0 < pos < s.shape[0]:
            roc_values.append(roc_auc(s[:, col], y[:, col]))
        else:
            roc_skipped.append(col)
        if pos > 0:
            pr_values.append(pr_auc(s[:, col], y[:, col]))
        else:
            pr_skipped.append(col)
    if not roc_values or not pr_values:
        raise AllColumnsDegenerateError("no column has usable labels for macro metrics")
    return MacroMetrics(
        roc_auc=float(np.mean(roc_values)),
        pr_auc=float(np.mean(pr_values)),
        roc_skipped=tuple(roc_skipped),
        pr_skipped=tuple(pr_skipped),
    )
