"""Small input-validation helpers shared by the estimator-style APIs."""

from __future__ import annotations

import numpy as np

from .errors import MeltagError


class NotFittedError(MeltagError):
    """Estimator method called before fit()."""


def as_float_array(x, name: str = "array", ndim: int | None = None) -> np.ndarray:
    """Coerce to a C-contiguous float64 ndarray, optionally checking rank."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (samples x features, labels) pair of matching length."""
    X = as_float_array(X, "X", ndim=2)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-dimensional, got shape {y.shape}")
    if len(y) != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {len(y)} entries")
    return X, y


def check_is_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )
