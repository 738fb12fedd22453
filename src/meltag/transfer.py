"""Transfer-learning pipeline: clip embeddings -> PCA -> linear SVM.

Both stages are small estimator classes in the familiar fit/transform/predict
shape, with deterministic numerics underneath:

  - PCA by one LAPACK SVD (`np.linalg.svd`) of the centred data, with a sign
    rule that makes each component independent of the signs LAPACK picks.
  - One-vs-rest squared-hinge SVM trained by full-batch gradient descent at
    the Lipschitz step size 1/L, which makes the objective provably
    non-increasing (and we assert that every epoch). All classes train in
    one pass, on one [classes, features] weight matrix.

`run_pipeline` strings them together behind a manifest CSV of
(path, label, split) rows, mirroring a genre-classification experiment.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInvalidError,
    NotFittedError,
    NumericFaultError,
    ShapeMismatchError,
    SingleClassError,
)
from .extractor import clip_embedding, resolve_feature_key
from .network import Model
from .store import check_output_path, read_text
from .tagger import infer_file, resolve_model


def _matrix(X, n_features: int | None = None) -> np.ndarray:
    """X as a finite, C-contiguous float64 [samples, features] matrix, `n_features` wide if given."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or n_features not in (None, X.shape[1]):
        want = "features" if n_features is None else n_features
        raise ShapeMismatchError(f"want a [samples, {want}] matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise NumericFaultError(f"non-finite value {X[row, col]} at row {row}, column {col}")
    return X


class PrincipalComponents:
    """PCA onto the top `n_components` directions of the centered data.

    Fitted attributes: mean_, components_ (rows orthonormal), singular_values_,
    n_components_ (may be clamped below the requested count), rank_deficient_.
    """

    def __init__(self, n_components: int = 128):
        self.n_components = n_components

    def fit(self, X, y=None) -> "PrincipalComponents":
        X = _matrix(X)
        n, d = X.shape
        if n < 2:
            raise ConfigInvalidError(f"PCA needs at least 2 samples, got {n}")
        k = self.n_components
        if not 1 <= k <= min(n, d):
            raise ConfigInvalidError(f"n_components {k} outside 1..min(n={n}, d={d})")
        self.mean_ = X.mean(axis=0)
        _, sigma, rows = np.linalg.svd(X - self.mean_, full_matrices=False)
        # singular values below the working-precision floor are rank loss,
        # not information; keeping their vectors would hand callers noise
        tol = max(n, d) * np.finfo(np.float64).eps * sigma[0]
        rank = int((sigma > tol).sum())
        self.rank_deficient_ = rank < k
        self.n_components_ = min(k, rank)
        components = rows[: self.n_components_]
        lead = components[np.arange(len(components)), np.abs(components).argmax(axis=1)]
        self.components_ = components * np.where(lead < 0, -1.0, 1.0)[:, None]  # largest-|entry| positive
        self.singular_values_ = sigma[: self.n_components_]
        return self

    def transform(self, X) -> np.ndarray:
        if not hasattr(self, "components_"):
            raise NotFittedError("PrincipalComponents is not fitted yet; call fit() first")
        return (_matrix(X, self.components_.shape[1]) - self.mean_) @ self.components_.T


class LinearSvmOneVsRest:
    """One-vs-rest linear SVM with the squared-hinge loss.

    Each binary problem minimizes  reg/2 ||w||^2 + mean(max(0, 1 - t f(x))^2)
    by full-batch gradient descent at step 1/L (L an upper bound on the
    gradient's Lipschitz constant), so the objective can only go down. All
    classes train in one pass: each epoch takes one X @ W.T for the [C, d] W.

    Fitted attributes: classes_, weights_ [C, d], biases_ [C],
    objective_history_ [C, epochs + 1].
    """

    def __init__(self, reg_strength: float = 1e-3, epochs: int = 200):
        if not (np.isfinite(reg_strength) and reg_strength > 0):
            raise ConfigInvalidError(f"reg_strength must be finite and positive, got {reg_strength}")
        if epochs < 1:
            raise ConfigInvalidError(f"epochs must be >= 1, got {epochs}")
        self.reg_strength = reg_strength
        self.epochs = epochs

    def _objective(self, hinge, weights) -> np.ndarray:
        """Per-class objective from the hinges max(0, 1 - t f(x)) [n, C]."""
        return 0.5 * self.reg_strength * (weights * weights).sum(axis=1) + np.mean(hinge**2, axis=0)

    def fit(self, X, y) -> "LinearSvmOneVsRest":
        X, y = _matrix(X), np.asarray(y)
        if y.shape != (X.shape[0],):
            raise ShapeMismatchError(f"want {X.shape[0]} labels, got shape {y.shape}")
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise SingleClassError("need at least two classes to fit a classifier")
        n, d = X.shape
        lipschitz = self.reg_strength + 2.0 * float(np.mean((X * X).sum(axis=1) + 1.0))
        lr = 1.0 / lipschitz
        t = np.where(y[:, None] == self.classes_, 1.0, -1.0)  # [n, C] one-vs-rest targets
        weights = np.zeros((len(self.classes_), d))
        biases = np.zeros(len(self.classes_))
        history = np.zeros((len(self.classes_), self.epochs + 1))
        hinge = np.maximum(0.0, 1.0 - t * (X @ weights.T + biases))
        history[:, 0] = self._objective(hinge, weights)
        for epoch in range(1, self.epochs + 1):
            coeff = -2.0 * t * hinge / n
            weights = weights - lr * (self.reg_strength * weights + coeff.T @ X)
            biases = biases - lr * coeff.sum(axis=0)
            hinge = np.maximum(0.0, 1.0 - t * (X @ weights.T + biases))
            history[:, epoch] = self._objective(hinge, weights)
            rose = np.flatnonzero(history[:, epoch] > history[:, epoch - 1] + 1e-12)
            if len(rose):
                raise NumericFaultError(
                    f"objective increased at epoch {epoch} for class {self.classes_[rose[0]]!r}"
                )
        self.weights_ = weights
        self.biases_ = biases
        self.objective_history_ = history
        return self

    def decision_function(self, X) -> np.ndarray:
        if not hasattr(self, "weights_"):
            raise NotFittedError("LinearSvmOneVsRest is not fitted yet; call fit() first")
        return _matrix(X, self.weights_.shape[1]) @ self.weights_.T + self.biases_

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)  # first, so an unfitted model raises NotFittedError
        return self.classes_[scores.argmax(axis=1)]  # argmax takes the lowest index on ties


# --- dataset manifest and the end-to-end pipeline ------------------------------


@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: str
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    rows: tuple[ManifestRow, ...]
    labels: tuple[str, ...]  # sorted vocabulary derived from the rows

    def split(self, which: str) -> tuple[ManifestRow, ...]:
        return tuple(r for r in self.rows if r.split == which)


def load_manifest(path) -> DatasetManifest:
    """CSV with a `path,label,split` header; paths are taken relative to the
    manifest's own directory unless absolute."""
    base = os.path.dirname(os.path.abspath(path))
    rows = []
    reader = csv.DictReader(io.StringIO(read_text(path)))
    required = {"path", "label", "split"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ConfigInvalidError(f"manifest needs columns {sorted(required)}")
    for record in reader:
        if record["split"] not in ("train", "test"):
            raise ConfigInvalidError(f"bad split {record['split']!r} (want train/test)")
        if "\0" in record["path"]:
            raise ConfigInvalidError(f"{path}:{reader.line_num}: NUL byte in path")
        audio = record["path"]
        if not os.path.isabs(audio):
            audio = os.path.join(base, audio)
        rows.append(ManifestRow(path=audio, label=record["label"], split=record["split"]))
    if not rows:
        raise ConfigInvalidError("manifest has no rows")
    labels = tuple(sorted({r.label for r in rows}))
    return DatasetManifest(rows=tuple(rows), labels=labels)


@dataclass(frozen=True)
class PipelineReport:
    labels: tuple[str, ...]
    feature_key: str
    pca_components: int
    train_accuracy: float
    test_accuracy: float
    confusion: np.ndarray  # test split; rows = true label, columns = predicted
    warnings: tuple[str, ...]

    def as_text(self) -> str:
        lines = [
            "labels: " + ",".join(self.labels),
            f"feature: {self.feature_key}",
            f"pca_components: {self.pca_components}",
            f"train_accuracy: {self.train_accuracy:.6f}",
            f"test_accuracy: {self.test_accuracy:.6f}",
        ]
        lines += [f"warning: {warning}" for warning in self.warnings]
        lines.append("confusion (rows true, columns predicted):")
        for label, row in zip(self.labels, self.confusion):
            lines.append(f"  {label}: " + " ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"

    def confusion_csv(self) -> str:
        header = "," + ",".join(self.labels)
        body = [
            label + "," + ",".join(str(int(v)) for v in row)
            for label, row in zip(self.labels, self.confusion)
        ]
        return "\n".join([header, *body]) + "\n"


def run_pipeline(
    manifest: DatasetManifest,
    model: Model,
    feature_key: str | None = None,
    k: int = 128,
    reg_strength: float = 1e-3,
    epochs: int = 200,
) -> PipelineReport:
    """Embed every clip, fit PCA + SVM on the train split, score both splits.

    Every argument is checked before the first clip is decoded.
    """
    if k < 1:
        raise ConfigInvalidError(f"pca components must be >= 1, got {k}")
    svm = LinearSvmOneVsRest(reg_strength=reg_strength, epochs=epochs)
    train_rows = manifest.split("train")
    test_rows = manifest.split("test")
    if len(train_rows) < 2 or not test_rows:
        n_train, n_test = len(train_rows), len(test_rows)
        raise ConfigInvalidError(f"pipeline needs 2+ train rows and 1+ test rows, got {n_train} and {n_test}")
    if len({r.label for r in train_rows}) < 2:
        raise SingleClassError("every train row has the same label; need at least two classes")
    key = resolve_feature_key(model, feature_key)

    def embed(rows) -> np.ndarray:
        return np.stack([clip_embedding(infer_file(row.path, model, keys=(key,))[1], key) for row in rows])

    x_train = embed(train_rows)
    x_test = embed(test_rows)
    label_index = {label: i for i, label in enumerate(manifest.labels)}
    y_train = np.array([label_index[r.label] for r in train_rows])
    y_test = np.array([label_index[r.label] for r in test_rows])

    warnings: list[str] = []
    k_max = min(len(train_rows), x_train.shape[1])
    k_used = min(k, k_max)
    if k_used < k:
        warnings.append(f"pca components clamped from {k} to {k_used}")
    pca = PrincipalComponents(n_components=k_used).fit(x_train)
    if pca.rank_deficient_:
        warnings.append(
            f"train embeddings are rank deficient; kept {pca.n_components_} components"
        )
    z_train = pca.transform(x_train)
    z_test = pca.transform(x_test)

    svm.fit(z_train, y_train)
    train_accuracy = float(np.mean(svm.predict(z_train) == y_train))
    pred_test = svm.predict(z_test)
    test_accuracy = float(np.mean(pred_test == y_test))

    n_labels = len(manifest.labels)
    confusion = np.zeros((n_labels, n_labels), dtype=np.int64)
    np.add.at(confusion, (y_test, pred_test), 1)

    return PipelineReport(
        labels=manifest.labels,
        feature_key=key,
        pca_components=pca.n_components_,
        train_accuracy=train_accuracy,
        test_accuracy=test_accuracy,
        confusion=confusion,
        warnings=tuple(warnings),
    )


def add_transfer_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", required=True, help="CSV of path,label,split rows")
    parser.add_argument("-m", "--model", default="MTT_musicnn")
    parser.add_argument("--feature", default=None, help="trace key (default: deepest layer)")
    parser.add_argument("--pca", type=int, default=128)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--reg", type=float, default=1e-3)
    parser.add_argument("--confusion-out", metavar="PATH", help="also write the confusion CSV")


def run_transfer(args: argparse.Namespace) -> None:
    check_output_path(args.confusion_out, "--confusion-out")
    report = run_pipeline(
        load_manifest(args.manifest),
        resolve_model(args.model),
        feature_key=args.feature,
        k=args.pca,
        reg_strength=args.reg,
        epochs=args.epochs,
    )
    sys.stdout.write(report.as_text())
    if args.confusion_out:
        with open(args.confusion_out, "w", newline="") as fh:
            fh.write(report.confusion_csv())
