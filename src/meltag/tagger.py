"""Taggram computation, top-N tag ranking, and the tagging command line.

Runnable directly (``python -m meltag.tagger song.wav --model MTT_musicnn
--topN 10 --print``) and also mounted as the ``tag`` subcommand of the main
``meltag`` entry point.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import dsp, network
from .errors import MeltagError, TopNOutOfRangeError
from .network import Model
from .store import MODEL_NAMES, load_model, load_registry_model


@dataclass(frozen=True)
class Taggram:
    """Per-patch tag activations: one row per patch, one column per tag."""

    values: np.ndarray  # [n_patches, n_tags], each cell in [0, 1]: float32 sigmoid saturates
    tags: tuple[str, ...]
    patch_times: np.ndarray  # start second of each patch

    @property
    def n_patches(self) -> int:
        return self.values.shape[0]


def audio_patches(path, model: Model) -> np.ndarray:
    """Decode, mel-transform, and window a file into a [B, T, M] patch stack."""
    cfg = model.config.dsp
    mel = dsp.log_mel(dsp.load_wav(path), cfg)
    return np.stack(dsp.patchify(mel))


def infer_file(path, model: Model) -> tuple[Taggram, dict[str, np.ndarray]]:
    """The inference path shared by tag, extract and transfer: the taggram
    and the forward trace of every patch of a file."""
    cfg = model.config.dsp
    patches = audio_patches(path, model)
    _, trace, _ = network.forward_batch(patches, model, bn_mode="infer")
    seconds_per_patch_hop = cfg.patch_hop_frames * cfg.hop_size / cfg.sample_rate
    times = np.arange(len(patches)) * seconds_per_patch_hop
    return Taggram(values=trace["output"], tags=model.tags, patch_times=times), trace


def compute_taggram(path, model: Model) -> Taggram:
    """Rows ordered by patch start time; row k is forward(patch_k).output."""
    return infer_file(path, model)[0]


def top_tags(taggram: Taggram, top_n: int) -> list[tuple[str, float]]:
    """Highest-scoring tags by column mean, ties broken by vocabulary index."""
    n_tags = len(taggram.tags)
    if not 1 <= top_n <= n_tags:
        raise TopNOutOfRangeError(f"topN {top_n} outside 1..{n_tags}")
    scores = taggram.values.mean(axis=0)
    order = np.lexsort((np.arange(n_tags), -scores))[:top_n]
    return [(taggram.tags[i], float(scores[i])) for i in order]


def format_listing(entries: list[tuple[str, float]]) -> str:
    return "".join(f"{tag}\t{score:.6f}\n" for tag, score in entries)


def resolve_model(name: str) -> Model:
    """A registry name, or a path to a saved .mcn container."""
    if os.sep in name or name.endswith(".mcn"):
        return load_model(name)
    return load_registry_model(name)


def tag_file(path, model_name: str = "MTT_musicnn", top_n: int = 3) -> list[tuple[str, float]]:
    return top_tags(compute_taggram(path, resolve_model(model_name)), top_n)


def add_tagger_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("audio", help="path to a WAV file")
    parser.add_argument(
        "-m",
        "--model",
        default="MTT_musicnn",
        help=f"registry name ({', '.join(MODEL_NAMES)}) or path to a .mcn file",
    )
    parser.add_argument("--topN", type=int, default=3, help="how many tags to rank (default 3)")
    parser.add_argument(
        "--print", action="store_true", dest="print_listing", help="write the listing to stdout"
    )
    parser.add_argument("--save", metavar="PATH", help="write the listing to a file")


def run_tagger(args: argparse.Namespace) -> int:
    try:
        listing = format_listing(tag_file(args.audio, args.model, args.topN))
    except (MeltagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.print_listing:
        sys.stdout.write(listing)
    if args.save is not None:
        with open(args.save, "w", newline="") as fh:
            fh.write(listing)
    return 0


def cli(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="meltag-tagger", description="Rank the most likely tags for an audio file."
    )
    add_tagger_args(parser)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    return run_tagger(args)


if __name__ == "__main__":
    sys.exit(cli())
