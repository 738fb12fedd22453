"""Output checks. Each returns a list of problems; an empty list is a pass.

They take plain outputs rather than running anything, so the self-test can
hand each one a corrupted output and see it fail.
"""

from __future__ import annotations

import math

import numpy as np


def taggram(values: np.ndarray, n_patches: int, n_tags: int) -> list[str]:
    """Shape (n_patches, n_tags), finite, every cell a probability.

    The bound is closed: in float32 the sigmoid of a logit beyond about 17
    rounds to exactly 1.0, which meltag's own tests pin (tests/test_ops.py,
    saturation; tests/test_tagger.py, range). ``saturated`` counts such cells.
    """
    values = np.asarray(values)
    if values.shape != (n_patches, n_tags):
        return [f"taggram shape {values.shape}, want {(n_patches, n_tags)}"]
    if not np.all(np.isfinite(values)):
        return ["taggram has non-finite cells"]
    if not np.all((values >= 0.0) & (values <= 1.0)):
        return [f"taggram cells outside [0, 1]: min {values.min()!r}, max {values.max()!r}"]
    return []


def saturated(values: np.ndarray) -> int:
    """Cells whose probability rounded to exactly 0 or 1."""
    values = np.asarray(values)
    return int(np.count_nonzero((values == 0.0) | (values == 1.0)))


def top_listing(listing: list[tuple[str, float]], values: np.ndarray, tags: tuple[str, ...], n: int) -> list[str]:
    """n distinct known tags, scores non-increasing and equal to the column means."""
    if len(listing) != n:
        return [f"top listing has {len(listing)} entries, want {n}"]
    names = [tag for tag, _ in listing]
    if len(set(names)) != n or not set(names) <= set(tags):
        return [f"top listing names are not {n} distinct vocabulary tags"]
    scores = [score for _, score in listing]
    if any(a < b for a, b in zip(scores, scores[1:])):
        return ["top listing is not sorted by score"]
    means = np.asarray(values).mean(axis=0)
    if any(score != float(means[tags.index(tag)]) for tag, score in listing):
        return ["top listing scores differ from the taggram column means"]
    if any(float(means[i]) > scores[-1] for i, tag in enumerate(tags) if tag not in names):
        return ["a tag outside the listing outscores its last entry"]
    return []


def rows_exact(batch_values: np.ndarray, single_rows: list[np.ndarray]) -> list[str]:
    """Batch row i equals the single-patch result for patch i, bit for bit."""
    batch_values = np.asarray(batch_values)
    if len(single_rows) != batch_values.shape[0]:
        return [f"{len(single_rows)} single-patch rows for a {batch_values.shape[0]}-row batch"]
    bad = [i for i, row in enumerate(single_rows) if np.asarray(row).tobytes() != batch_values[i].tobytes()]
    return [f"batch rows {bad} differ from their single-patch results"] if bad else []


def raised(exc: BaseException | None, expected: type) -> list[str]:
    """The call raised exactly the expected named error class."""
    if exc is None:
        return [f"no error raised, want {expected.__name__}"]
    if type(exc) is not expected:
        return [f"raised {type(exc).__name__}: {exc}, want {expected.__name__}"]
    return []


def losses(values) -> list[str]:
    values = list(values)
    if not values:
        return ["no training losses"]
    if not all(math.isfinite(v) for v in values):
        return [f"non-finite training loss in {values}"]
    return []


def transfer_report(test_accuracy: float, confusion: np.ndarray, n_test: int, floor: float) -> list[str]:
    problems = []
    if int(np.asarray(confusion).sum()) != n_test:
        problems.append(f"confusion matrix counts {int(np.asarray(confusion).sum())} of {n_test} test clips")
    if not test_accuracy >= floor:
        problems.append(f"test accuracy {test_accuracy:.3f} below the floor {floor}")
    return problems


def round_trip(built: dict[str, np.ndarray], loaded: dict[str, np.ndarray]) -> list[str]:
    """A saved and reloaded model carries the same tensors, bit for bit."""
    if list(built) != list(loaded):
        return ["reloaded model has a different tensor list"]
    bad = [k for k in built if built[k].astype("<f4").tobytes() != loaded[k].astype("<f4").tobytes()]
    return [f"reloaded tensors differ: {bad[:3]}"] if bad else []
