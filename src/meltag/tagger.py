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
from .errors import TopNOutOfRangeError
from .network import Model
from .store import MODEL_NAMES, check_output_path, load_model, load_registry_model

INFER_BATCH = 20  # patches per forward_batch in infer_file, which bounds its memory


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
    """Decode, mel-transform, and window a file into a read-only [B, T, M] patch view."""
    return dsp.patchify(dsp.log_mel(dsp.load_wav(path), model.config.dsp))


def infer_file(path, model: Model) -> tuple[Taggram, dict[str, np.ndarray]]:
    """The inference path shared by tag, extract and transfer: the taggram
    and the forward trace of every patch of a file. Patches run INFER_BATCH
    at a time to bound memory; infer-mode rows are independent, so the
    result equals one whole-clip batch bit for bit."""
    cfg = model.config.dsp
    patches = audio_patches(path, model)
    traces = [
        network.forward_batch(patches[lo : lo + INFER_BATCH], model, bn_mode="infer")[1]
        for lo in range(0, len(patches), INFER_BATCH)
    ]
    trace = traces[0]
    if len(traces) > 1:
        trace = {key: np.concatenate([t[key] for t in traces]) for key in trace}
    seconds_per_patch_hop = cfg.patch_hop_frames * cfg.hop_size / cfg.sample_rate
    times = np.arange(len(patches)) * seconds_per_patch_hop
    return Taggram(values=trace["output"], tags=model.tags, patch_times=times), trace


def compute_taggram(path, model: Model) -> Taggram:
    """Rows ordered by patch start time; row k is patch k's sigmoid output."""
    return infer_file(path, model)[0]


def _check_top_n(top_n: int, n_tags: int) -> None:
    if not 1 <= top_n <= n_tags:
        raise TopNOutOfRangeError(f"topN {top_n} outside 1..{n_tags}")


def top_tags(taggram: Taggram, top_n: int) -> list[tuple[str, float]]:
    """Highest-scoring tags by column mean, ties broken by vocabulary index."""
    n_tags = len(taggram.tags)
    _check_top_n(top_n, n_tags)
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
    model = resolve_model(model_name)
    _check_top_n(top_n, len(model.tags))  # before the clip is decoded
    return top_tags(compute_taggram(path, model), top_n)


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


def run_tagger(args: argparse.Namespace) -> None:
    check_output_path(args.save, "--save")
    listing = format_listing(tag_file(args.audio, args.model, args.topN))
    if args.print_listing:
        sys.stdout.write(listing)
    if args.save is not None:
        with open(args.save, "w", newline="") as fh:
            fh.write(listing)


def cli(argv: list[str] | None = None) -> int:
    from .cli import main  # imported here: meltag.cli imports this module

    return main(["tag", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(cli())
