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

INFER_BATCH = 20  # patches per infer_batch call in infer_file, which bounds its memory


@dataclass(frozen=True)
class Taggram:
    """Per-patch tag activations: one row per patch, one column per tag."""

    values: np.ndarray  # [n_patches, n_tags], each cell in [0, 1]: float32 sigmoid saturates
    tags: tuple[str, ...]
    patch_times: np.ndarray  # start second of each patch

    @property
    def n_patches(self) -> int:
        return self.values.shape[0]


def infer_file(path, model: Model, keys=None) -> tuple[Taggram, dict[str, np.ndarray]]:
    """The inference path shared by tag, extract and transfer: the taggram and the trace
    keys `output` plus `keys` (None: all) of every patch of a file. dsp.patch_batches checks
    the header, then streams the clip's log-mel blocks into batches of INFER_BATCH patches;
    each runs through the tapeless network.infer_batch, its full trace dropped before the next.
    So memory is bounded by a batch, and since rows are independent the result equals one
    batch of the whole clip's patches, dsp.patchify(dsp.log_mel(dsp.load_wav(path), cfg)), bit
    for bit."""
    cfg = model.config.dsp
    keep = model.config.trace_keys() if keys is None else {"output", *keys}

    def run(batch):  # no name is bound to a batch's full trace
        return {k: v for k, v in network.infer_batch(batch, model)[1].items() if k in keep}

    traces = list(map(run, dsp.patch_batches(path, cfg, INFER_BATCH)))  # map holds no spent batch
    trace = {key: np.concatenate([t[key] for t in traces]) for key in traces[0]}
    times = np.arange(len(trace["output"])) * (cfg.patch_hop_frames * cfg.hop_size / cfg.sample_rate)
    return Taggram(values=trace["output"], tags=model.tags, patch_times=times), trace


def compute_taggram(path, model: Model) -> Taggram:
    """Rows ordered by patch start time; row k is patch k's sigmoid output."""
    return infer_file(path, model, keys=())[0]


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
