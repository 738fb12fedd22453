"""Ranking metrics against pairwise/cut enumeration oracles."""

import threading

import numpy as np
import pytest

from meltag.errors import (
    AllColumnsDegenerateError,
    ConfigInvalidError,
    DegenerateLabelsError,
    NoPositivesError,
    NumericFaultError,
    ShapeMismatchError,
)
from meltag.metrics import _tied_ranks, macro_metrics, pr_auc, roc_auc


def roc_oracle(scores, labels):
    """Count ordered positive/negative pairs directly, ties worth half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def pr_oracle(scores, labels):
    """Walk the cuts in (-score, index) order; average precision at hits."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for k, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            precisions.append(hits / k)
    return sum(precisions) / hits


class TestRocAuc:
    def test_worked_example(self):
        # ranked desc: 0.9(+) 0.7(-) 0.5(+) 0.2(-): 3 of 4 pairs ordered
        assert roc_auc([0.5, 0.2, 0.9, 0.7], [1, 0, 1, 0]) == 0.75

    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_reversed_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied_scores_give_half(self):
        assert roc_auc([0.4] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=20)
        y = rng.integers(0, 2, 20)
        y[0], y[1] = 1, 0  # both classes present
        assert roc_auc(s, y) == roc_auc(np.exp(s), y)
        assert roc_auc(s, y) == roc_auc(3.0 * s + 7.0, y)

    def test_label_complement_without_ties(self):
        rng = np.random.default_rng(1)
        s = rng.permutation(12).astype(np.float64)  # distinct scores
        y = np.array([1, 0] * 6)
        assert roc_auc(s, y) + roc_auc(s, 1 - y) == pytest.approx(1.0, abs=1e-12)

    def test_single_class_raises(self):
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [0, 0])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ConfigInvalidError):
            roc_auc([0.1, 0.2], [1, 2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            roc_auc([0.1, 0.2, 0.3], [1, 0])

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(400):
            n = int(rng.integers(2, 13))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # coarse quantization forces frequent ties
            s = rng.integers(0, 4, n).astype(np.float64) / 3.0
            assert roc_auc(s, y) == pytest.approx(roc_oracle(s, y), abs=1e-12)


class TestPrAuc:
    def test_worked_example(self):
        # hits at cuts 1 and 4: (1/1 + 2/4) / 2 = 0.75
        assert pr_auc([0.9, 0.7, 0.5, 0.2], [1, 0, 0, 1]) == 0.75

    def test_second_worked_example(self):
        # hits at cuts 2 and 3: (1/2 + 2/3) / 2 = 0.5833...
        got = pr_auc([0.9, 0.8, 0.7, 0.1], [0, 1, 1, 0])
        assert got == pytest.approx(0.5833333333333333, abs=1e-12)

    def test_perfect_ranking(self):
        assert pr_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 8
        scores = np.arange(n, 0, -1).astype(np.float64)
        labels = np.zeros(n)
        labels[-1] = 1
        assert pr_auc(scores, labels) == pytest.approx(1.0 / n, abs=1e-12)

    def test_all_positive_is_one(self):
        assert pr_auc([0.3, 0.9, 0.5], [1, 1, 1]) == 1.0

    def test_ties_cut_by_ascending_index(self):
        # equal scores: index 0 (negative) is cut before index 1 (positive),
        # so the hit lands at rank 2 with precision 1/2
        assert pr_auc([0.5, 0.5], [0, 1]) == 0.5
        assert pr_auc([0.5, 0.5], [1, 0]) == 1.0

    def test_no_positives_raises(self):
        with pytest.raises(NoPositivesError):
            pr_auc([0.1, 0.2], [0, 0])

    def test_matches_cut_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            n = int(rng.integers(1, 13))
            y = rng.integers(0, 2, n)
            if y.sum() == 0:
                y[int(rng.integers(0, n))] = 1
            s = rng.integers(0, 4, n).astype(np.float64) / 3.0
            assert pr_auc(s, y) == pytest.approx(pr_oracle(s, y), abs=1e-12)


class TestMacroMetrics:
    def test_single_column_equals_the_scalar_metrics(self):
        s = np.array([[0.5], [0.2], [0.9], [0.7]])
        y = np.array([[1], [0], [1], [0]])
        m = macro_metrics(s, y)
        assert m.roc_auc == roc_auc(s[:, 0], y[:, 0])
        assert m.pr_auc == pr_auc(s[:, 0], y[:, 0])
        assert m.roc_skipped == () and m.pr_skipped == ()

    def test_identical_columns_average_to_the_same_value(self):
        rng = np.random.default_rng(4)
        col_s = rng.uniform(size=10)
        col_y = rng.integers(0, 2, 10)
        col_y[:2] = (0, 1)
        s = np.stack([col_s, col_s], axis=1)
        y = np.stack([col_y, col_y], axis=1)
        m = macro_metrics(s, y)
        assert m.roc_auc == pytest.approx(roc_auc(col_s, col_y), abs=1e-12)
        assert m.pr_auc == pytest.approx(pr_auc(col_s, col_y), abs=1e-12)

    def test_mean_over_columns(self):
        s = np.array([[0.9, 0.1], [0.8, 0.9], [0.2, 0.8], [0.1, 0.2]])
        y = np.array([[1, 0], [1, 1], [0, 1], [0, 0]])
        m = macro_metrics(s, y)
        assert m.roc_auc == pytest.approx(
            (roc_auc(s[:, 0], y[:, 0]) + roc_auc(s[:, 1], y[:, 1])) / 2, abs=1e-12
        )

    def test_degenerate_columns_are_skipped_and_reported(self):
        s = np.array([[0.9, 0.5, 0.3], [0.1, 0.6, 0.4]])
        y = np.array([[1, 1, 0], [0, 1, 0]])  # col 1 all-pos, col 2 all-neg
        m = macro_metrics(s, y)
        assert m.roc_skipped == (1, 2)
        assert m.pr_skipped == (2,)
        assert m.roc_auc == roc_auc(s[:, 0], y[:, 0])
        assert m.pr_auc == pytest.approx(
            (pr_auc(s[:, 0], y[:, 0]) + pr_auc(s[:, 1], y[:, 1])) / 2, abs=1e-12
        )

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(size=(12, 4))
        y = rng.integers(0, 2, (12, 4))
        y[0] = 1
        y[1] = 0
        perm = rng.permutation(12)
        a = macro_metrics(s, y)
        b = macro_metrics(s[perm], y[perm])
        assert a.roc_auc == pytest.approx(b.roc_auc, abs=1e-12)
        assert a.pr_auc == pytest.approx(b.pr_auc, abs=1e-12)

    def test_all_columns_degenerate_raises(self):
        s = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(AllColumnsDegenerateError):
            macro_metrics(s, np.ones((2, 2)))  # no negatives anywhere: ROC empty
        with pytest.raises(AllColumnsDegenerateError):
            macro_metrics(s, np.zeros((2, 2)))  # no positives: PR empty

    def test_label_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            macro_metrics(np.zeros((3, 2)), np.zeros((2, 2)))


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", [roc_auc, pr_auc])
    def test_scalar_metrics_raise(self, metric, bad):
        with pytest.raises(NumericFaultError, match="index 1"):
            metric([0.1, bad, 0.3], [0, 1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_macro_metrics_raises_on_any_column(self, bad):
        s = np.array([[0.9, 0.5], [0.1, 0.6], [0.4, 0.2]])
        y = np.array([[1, 1], [0, 1], [0, 1]])  # column 1 is skipped by ROC
        for cell in ((2, 0), (0, 1)):
            bad_s = s.copy()
            bad_s[cell] = bad
            with pytest.raises(NumericFaultError):
                macro_metrics(bad_s, y)

    def test_tied_ranks_returns_on_nan(self):
        # NaN == NaN is False, so a tie scan that starts at i must still step
        result = {}
        t = threading.Thread(
            target=lambda: result.setdefault("r", _tied_ranks(np.array([0.3, np.nan, 0.1, np.nan]))),
            daemon=True,
        )
        t.start()
        t.join(timeout=10)
        assert not t.is_alive(), "_tied_ranks did not return"
        assert result["r"].tolist() == [2.0, 3.0, 1.0, 4.0]
