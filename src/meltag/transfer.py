"""Transfer-learning pipeline: clip embeddings -> PCA -> linear SVM.

Both stages are small estimator classes in the familiar fit/transform/predict
shape, with deterministic, hand-rolled numerics underneath:

  - PCA by one-sided Jacobi SVD with a fixed sweep order. No iterative
    eigensolver, so two runs on the same matrix give the same bits.
  - One-vs-rest squared-hinge SVM trained by full-batch gradient descent at
    the Lipschitz step size 1/L, which makes the objective provably
    non-increasing (and we assert that every epoch).

`run_pipeline` strings them together behind a manifest CSV of
(path, label, split) rows, mirroring a genre-classification experiment.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInvalidError,
    MeltagError,
    NumericFaultError,
    ShapeMismatchError,
    SingleClassError,
)
from .extractor import clip_embedding, default_embedding_key, extract
from .network import Model
from .tagger import resolve_model
from .validation import as_float_array, check_X_y, check_is_fitted

_JACOBI_MAX_SWEEPS = 60


def _jacobi_orthogonalize(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-multiply plane rotations until columns are orthogonal.

    Returns (q, v) with m @ v == q, q's columns orthogonal. Column norms of q
    are then singular values of m and v holds right singular vectors.
    """
    q = m.astype(np.float64, copy=True)
    n_cols = q.shape[1]
    v = np.eye(n_cols)
    eps = np.finfo(np.float64).eps
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for i in range(n_cols - 1):
            for j in range(i + 1, n_cols):
                a = q[:, i] @ q[:, i]
                b = q[:, j] @ q[:, j]
                c = q[:, i] @ q[:, j]
                if abs(c) <= eps * np.sqrt(a * b):
                    continue
                rotated = True
                zeta = (b - a) / (2.0 * c)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = cs * t
                qi = q[:, i].copy()
                q[:, i] = cs * qi - sn * q[:, j]
                q[:, j] = sn * qi + cs * q[:, j]
                vi = v[:, i].copy()
                v[:, i] = cs * vi - sn * v[:, j]
                v[:, j] = sn * vi + cs * v[:, j]
        if not rotated:
            return q, v
    raise NumericFaultError("Jacobi sweeps did not converge")


def _svd_right_vectors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(singular values desc, right singular vectors as rows), via Jacobi.

    For wide matrices the rotation work runs on x.T so the sweep cost scales
    with the smaller dimension.
    """
    n, d = x.shape
    if n >= d:
        q, v = _jacobi_orthogonalize(x)
        sigma = np.linalg.norm(q, axis=0)
        rows = v.T
    else:
        q, _ = _jacobi_orthogonalize(x.T)  # q columns = (right svecs of x) * sigma
        sigma = np.linalg.norm(q, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            rows = np.where(sigma[:, None] > 0.0, q.T / sigma[:, None], 0.0)
    order = np.argsort(-sigma, kind="mergesort")
    return sigma[order], rows[order]


class PrincipalComponents:
    """PCA onto the top `n_components` directions of the centered data.

    Fitted attributes: mean_, components_ (rows orthonormal), singular_values_,
    n_components_ (may be clamped below the requested count), rank_deficient_.
    """

    def __init__(self, n_components: int = 128):
        self.n_components = n_components

    def get_params(self, deep: bool = True) -> dict:
        return {"n_components": self.n_components}

    def set_params(self, **params) -> "PrincipalComponents":
        for key, value in params.items():
            if key not in self.get_params():
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, X, y=None) -> "PrincipalComponents":
        X = as_float_array(X, "X", ndim=2)
        n, d = X.shape
        if n < 2:
            raise ValueError("PCA needs at least 2 samples")
        k = self.n_components
        if not 1 <= k <= min(n, d):
            raise ValueError(f"n_components {k} outside 1..min(n={n}, d={d})")
        self.mean_ = X.mean(axis=0)
        sigma, rows = _svd_right_vectors(X - self.mean_)
        # singular values below the working-precision floor are rank loss,
        # not information; keeping their vectors would hand callers noise
        tol = max(n, d) * np.finfo(np.float64).eps * (sigma[0] if len(sigma) else 0.0)
        rank = int((sigma > tol).sum())
        self.rank_deficient_ = rank < k
        self.n_components_ = min(k, rank) if rank else 0
        components = rows[: self.n_components_]
        for row in components:  # fix sign: largest-|entry| coordinate positive
            if row[np.argmax(np.abs(row))] < 0:
                row *= -1.0
        self.components_ = components
        self.singular_values_ = sigma[: self.n_components_]
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "components_")
        X = as_float_array(X, "X")
        single = X.ndim == 1
        X = np.atleast_2d(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ShapeMismatchError(
                f"{X.shape[1]} features, PCA was fitted on {self.mean_.shape[0]}"
            )
        out = (X - self.mean_) @ self.components_.T
        return out[0] if single else out

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).transform(X)


class LinearSvmOneVsRest:
    """One-vs-rest linear SVM with the squared-hinge loss.

    Each binary problem minimizes  reg/2 ||w||^2 + mean(max(0, 1 - t f(x))^2)
    by full-batch gradient descent at step 1/L (L an upper bound on the
    gradient's Lipschitz constant), so the objective can only go down.

    Fitted attributes: classes_, weights_ [C, d], biases_ [C],
    objective_history_ [C, epochs + 1].
    """

    def __init__(self, reg_strength: float = 1e-3, epochs: int = 200, seed: int = 0):
        self.reg_strength = reg_strength
        self.epochs = epochs
        self.seed = seed

    def get_params(self, deep: bool = True) -> dict:
        return {"reg_strength": self.reg_strength, "epochs": self.epochs, "seed": self.seed}

    def set_params(self, **params) -> "LinearSvmOneVsRest":
        for key, value in params.items():
            if key not in self.get_params():
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def _objective(self, X, t, w, b) -> float:
        margin = np.maximum(0.0, 1.0 - t * (X @ w + b))
        return 0.5 * self.reg_strength * (w @ w) + float(np.mean(margin**2))

    def fit(self, X, y) -> "LinearSvmOneVsRest":
        if self.reg_strength <= 0 or self.epochs < 1:
            raise ConfigInvalidError("reg_strength must be positive and epochs >= 1")
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise SingleClassError("need at least two classes to fit a classifier")
        n, d = X.shape
        lipschitz = self.reg_strength + 2.0 * float(np.mean((X * X).sum(axis=1) + 1.0))
        lr = 1.0 / lipschitz
        weights = np.zeros((len(self.classes_), d))
        biases = np.zeros(len(self.classes_))
        history = np.zeros((len(self.classes_), self.epochs + 1))
        for c, label in enumerate(self.classes_):
            t = np.where(y == label, 1.0, -1.0)
            w = weights[c]
            b = 0.0
            history[c, 0] = self._objective(X, t, w, b)
            for epoch in range(1, self.epochs + 1):
                margin = np.maximum(0.0, 1.0 - t * (X @ w + b))
                coeff = -2.0 * t * margin / n
                grad_w = self.reg_strength * w + X.T @ coeff
                grad_b = float(coeff.sum())
                w = w - lr * grad_w
                b = b - lr * grad_b
                history[c, epoch] = self._objective(X, t, w, b)
                if history[c, epoch] > history[c, epoch - 1] + 1e-12:
                    raise NumericFaultError(
                        f"objective increased at epoch {epoch} for class {label!r}"
                    )
            weights[c] = w
            biases[c] = b
        self.weights_ = weights
        self.biases_ = biases
        self.objective_history_ = history
        return self

    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, "weights_")
        X = as_float_array(X, "X")
        single = X.ndim == 1
        X = np.atleast_2d(X)
        if X.shape[1] != self.weights_.shape[1]:
            raise ShapeMismatchError(
                f"{X.shape[1]} features, SVM was fitted on {self.weights_.shape[1]}"
            )
        scores = X @ self.weights_.T + self.biases_
        return scores[0] if single else scores

    def predict(self, X) -> np.ndarray:
        scores = np.atleast_2d(self.decision_function(X))
        idx = scores.argmax(axis=1)  # argmax takes the lowest index on ties
        out = self.classes_[idx]
        return out[0] if np.asarray(X).ndim == 1 else out


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
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"path", "label", "split"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigInvalidError(f"manifest needs columns {sorted(required)}")
        for record in reader:
            if record["split"] not in ("train", "test"):
                raise ConfigInvalidError(f"bad split {record['split']!r} (want train/test)")
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
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
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
    seed: int = 0,
    reduction: str = "mean",
) -> PipelineReport:
    """Embed every clip, fit PCA + SVM on the train split, score both splits."""
    train_rows = manifest.split("train")
    test_rows = manifest.split("test")
    if not train_rows or not test_rows:
        raise ConfigInvalidError("pipeline needs non-empty train and test splits")
    key = feature_key or default_embedding_key(model)

    def embed(rows) -> np.ndarray:
        vecs = []
        for row in rows:
            _, _, features = extract(row.path, model, extract_features=True)
            vecs.append(clip_embedding(features, key, reduction))
        return np.stack(vecs)

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

    svm = LinearSvmOneVsRest(reg_strength=reg_strength, epochs=epochs, seed=seed)
    svm.fit(z_train, y_train)
    train_accuracy = float(np.mean(svm.predict(z_train) == y_train))
    pred_test = svm.predict(z_test)
    test_accuracy = float(np.mean(pred_test == y_test))

    n_labels = len(manifest.labels)
    confusion = np.zeros((n_labels, n_labels), dtype=np.int64)
    for truth, pred in zip(y_test, pred_test):
        confusion[truth, pred] += 1

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
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--reg", type=float, default=1e-3)
    parser.add_argument("--confusion-out", metavar="PATH", help="also write the confusion CSV")


def run_transfer(args: argparse.Namespace) -> int:
    try:
        report = run_pipeline(
            load_manifest(args.manifest),
            resolve_model(args.model),
            feature_key=args.feature,
            k=args.pca,
            reg_strength=args.reg,
            epochs=args.epochs,
            seed=args.seed,
        )
    except (MeltagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(report.as_text())
    if args.confusion_out:
        with open(args.confusion_out, "w", newline="") as fh:
            fh.write(report.confusion_csv())
    return 0
