"""Intermediate-feature extraction: the taggram plus named network layers.

Feature keys follow the forward-trace contract of the model family:
musicnn with temporal pooling exposes {timbral, temporal, cnn1, cnn2, cnn3,
mean_pool, max_pool, penultimate}, the attention variant swaps the two pool
maps for {attention_weights, context}, and vgg exposes {pool1..pool5}. Every
feature is stacked over patches on the leading axis.
"""

from __future__ import annotations

import argparse

import numpy as np

from .errors import UnknownFeatureKeyError
from .network import Model
from .store import check_output_path
from .tagger import Taggram, infer_file, resolve_model

FeatureSet = dict[str, np.ndarray]


def extract(
    path, model: Model, extract_features: bool = False
) -> tuple[Taggram, tuple[str, ...], FeatureSet]:
    """Taggram, vocabulary, and (optionally) every intermediate feature.

    The taggram is identical whichever way the flag is set; with the flag
    off the feature dictionary is simply empty.
    """
    taggram, trace = infer_file(path, model, keys=None if extract_features else ())
    return taggram, model.tags, {key: value for key, value in trace.items() if key != "output"}


def _unknown_key(key: str, known) -> UnknownFeatureKeyError:
    return UnknownFeatureKeyError(f"no feature {key!r}; available: {', '.join(sorted(known))}")


def clip_embedding(features: FeatureSet, key: str) -> np.ndarray:
    """One vector per clip: flatten each patch's feature, mean across patches."""
    if key not in features:
        raise _unknown_key(key, features)
    return features[key].reshape(features[key].shape[0], -1).mean(axis=0)


def default_embedding_key(model: Model) -> str:
    """Deepest pre-output representation: penultimate (musicnn) / pool5 (vgg)."""
    return "pool5" if model.config.family == "vgg" else "penultimate"


def resolve_feature_key(model: Model, key: str | None = None) -> str:
    """`key`, or the deepest layer, checked against the model's forward trace
    before any audio is decoded."""
    known = model.config.trace_keys() - {"output"}
    key = key or default_embedding_key(model)
    if key not in known:
        raise _unknown_key(key, known)
    return key


def write_feature_csv(feature: np.ndarray, path) -> None:
    """Patch-per-row CSV of the flattened feature, fixed 6-decimal cells."""
    with open(path, "w", newline="") as fh:  # "\n" line ends on every platform
        np.savetxt(fh, feature.reshape(len(feature), -1), fmt="%.6f", delimiter=",")


def add_extractor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("audio", help="path to a WAV file")
    parser.add_argument("-m", "--model", default="MTT_musicnn")
    parser.add_argument("--feature", default=None, help="trace key (default: deepest layer)")
    parser.add_argument("--out", required=True, metavar="PATH", help="CSV destination")


def run_extractor(args: argparse.Namespace) -> None:
    check_output_path(args.out, "--out")
    model = resolve_model(args.model)
    key = resolve_feature_key(model, args.feature)
    write_feature_csv(infer_file(args.audio, model, keys=(key,))[1][key], args.out)
