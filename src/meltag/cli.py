"""The `meltag` entry point: tag / extract / transfer / train subcommands.

Each subcommand's flags and its `run_*` function live next to its
implementation; this module assembles the parser and dispatches. It is also
the one place that reports failures: a MeltagError or OSError becomes one
`error: ...` line on stderr and exit status 1, a usage error exits 2, and
success exits 0.
"""

from __future__ import annotations

import argparse
import sys

from .errors import MeltagError
from .extractor import add_extractor_args, run_extractor
from .tagger import add_tagger_args, run_tagger
from .trainer import add_train_args, run_train
from .transfer import add_transfer_args, run_transfer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="meltag", description="Music audio tagging toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    tag = sub.add_parser("tag", help="rank the most likely tags for a file")
    add_tagger_args(tag)
    tag.set_defaults(run=run_tagger)

    ext = sub.add_parser("extract", help="write one intermediate feature as CSV")
    add_extractor_args(ext)
    ext.set_defaults(run=run_extractor)

    tr = sub.add_parser("transfer", help="embeddings + PCA + SVM over a manifest")
    add_transfer_args(tr)
    tr.set_defaults(run=run_transfer)

    train = sub.add_parser("train", help="train on a seeded synthetic dataset")
    add_train_args(train)
    train.set_defaults(run=run_train)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        args.run(args)
    except (MeltagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
