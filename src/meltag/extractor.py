"""Intermediate-feature extraction: the taggram plus named network layers.

Feature keys follow the forward-trace contract of the model family:
musicnn with temporal pooling exposes {timbral, temporal, cnn1, cnn2, cnn3,
mean_pool, max_pool, penultimate}, the attention variant swaps the two pool
maps for {attention_weights, context}, and vgg exposes {pool1..pool5}. Every
feature is stacked over patches on the leading axis.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ConfigInvalidError, MeltagError, UnknownFeatureKeyError
from .network import Model
from .tagger import Taggram, infer_file, resolve_model

FeatureSet = dict[str, np.ndarray]


def extract(
    path, model: Model, extract_features: bool = False
) -> tuple[Taggram, tuple[str, ...], FeatureSet]:
    """Taggram, vocabulary, and (optionally) every intermediate feature.

    The taggram is identical whichever way the flag is set; with the flag
    off the feature dictionary is simply empty.
    """
    taggram, trace = infer_file(path, model)
    features: FeatureSet = {}
    if extract_features:
        features = {key: value for key, value in trace.items() if key != "output"}
    return taggram, model.tags, features


def clip_embedding(features: FeatureSet, key: str, reduction: str = "mean") -> np.ndarray:
    """One vector per clip: flatten each patch's feature, reduce across patches."""
    if key not in features:
        known = ", ".join(sorted(features))
        raise UnknownFeatureKeyError(f"no feature {key!r}; available: {known}")
    if reduction not in ("mean", "max"):
        raise ConfigInvalidError(f"unknown reduction {reduction!r}")
    flat = features[key].reshape(features[key].shape[0], -1)
    return flat.mean(axis=0) if reduction == "mean" else flat.max(axis=0)


def default_embedding_key(model: Model) -> str:
    """Deepest pre-output representation: penultimate (musicnn) / pool5 (vgg)."""
    return "pool5" if model.config.family == "vgg" else "penultimate"


def write_feature_csv(feature: np.ndarray, path) -> None:
    """Patch-per-row CSV of the flattened feature, fixed 6-decimal cells."""
    flat = feature.reshape(feature.shape[0], -1)
    with open(path, "w", newline="") as fh:
        for row in flat:
            fh.write(",".join(f"{v:.6f}" for v in row) + "\n")


def add_extractor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("audio", help="path to a WAV file")
    parser.add_argument("-m", "--model", default="MTT_musicnn")
    parser.add_argument("--feature", default=None, help="trace key (default: deepest layer)")
    parser.add_argument("--out", required=True, metavar="PATH", help="CSV destination")


def run_extractor(args: argparse.Namespace) -> int:
    try:
        model = resolve_model(args.model)
        _, _, features = extract(args.audio, model, extract_features=True)
        key = args.feature or default_embedding_key(model)
        if key not in features:
            raise UnknownFeatureKeyError(
                f"no feature {key!r}; available: {', '.join(sorted(features))}"
            )
        write_feature_csv(features[key], args.out)
    except (MeltagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
