"""Bad inputs to every subcommand end in one `error:` line and exit 1.

Cases that pair a bad flag or manifest with missing audio also check that
the bad value is named, which shows it was rejected before any decoding.
"""

import subprocess
import sys

import numpy as np
import pytest

from meltag import cli
from meltag.network import build_model
from meltag.store import save_model

from conftest import tiny_musicnn

TOY_TRAIN = "model toy_musicnn\ndataset_size 2\nepochs 1\nbatch_size 2\n"


class Inputs:
    def __init__(self, tmp_path, wav_factory):
        self.dir = tmp_path
        self.model = str(tmp_path / "tiny.mcn")
        save_model(build_model(tiny_musicnn(), seed=6), self.model)
        rng = np.random.default_rng(3)
        self.wavs = [str(wav_factory(rng.uniform(-0.5, 0.5, 1024), 2000, fmt="float32")) for _ in range(3)]

    def file(self, name, content) -> str:
        path = self.dir / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        return str(path)

    def manifest(self, *rows, content=None) -> list[str]:
        text = "path,label,split\n" + "".join(f"{p},{label},{split}\n" for p, label, split in rows)
        return ["transfer", "--manifest", self.file("manifest.csv", content or text), "-m", self.model]

    def train(self, config) -> list[str]:
        return ["train", "--config", self.file("train.cfg", config), "--out", str(self.dir / "out.mcn")]

    def unwritable(self, name) -> str:
        return str(self.dir / "no_such_dir" / name)


def _valid_rows(inputs):
    a, b, c = inputs.wavs
    return (a, "tone", "train"), (b, "noise", "train"), (c, "tone", "test")


CASES = {
    "one_train_row": lambda i: (
        i.manifest((i.wavs[0], "tone", "train"), (i.wavs[1], "noise", "test")), "train rows"
    ),
    "one_train_label": lambda i: (
        i.manifest(("gone_a.wav", "tone", "train"), ("gone_b.wav", "tone", "train"), ("gone_c.wav", "noise", "test")),
        "same label",
    ),
    "tag_save_unwritable": lambda i: (
        ["tag", i.wavs[0], "-m", i.model, "--topN", "1", "--save", i.unwritable("listing.txt")], "listing.txt"
    ),
    "transfer_confusion_out_unwritable": lambda i: (
        i.manifest(*_valid_rows(i)) + ["--pca", "2", "--epochs", "5", "--confusion-out", i.unwritable("c.csv")],
        "c.csv",
    ),
    "train_log_unwritable": lambda i: (i.train(TOY_TRAIN) + ["--log", i.unwritable("log.csv")], "log.csv"),
    "manifest_not_utf8": lambda i: (
        i.manifest(content=b"path,label,split\ncaf\xe9.wav,tone,train\n"), "not UTF-8"
    ),
    "train_config_not_utf8": lambda i: (i.train(b"model toy_musicnn # caf\xe9\n"), "not UTF-8"),
    "manifest_nul_in_path": lambda i: (
        i.manifest(*_valid_rows(i), ("a\0b.wav", "noise", "test")), "manifest.csv:5: NUL byte"
    ),
    "train_learning_rate_nan": lambda i: (i.train(TOY_TRAIN + "learning_rate nan\n"), "learning_rate"),
    "tag_topn_zero_before_decoding": lambda i: (
        ["tag", i.unwritable("gone.wav"), "-m", i.model, "--topN", "0", "--print"], "topN 0"
    ),
    "transfer_reg_nan_before_decoding": lambda i: (
        i.manifest(("gone_a.wav", "tone", "train"), ("gone_b.wav", "noise", "train"), ("gone_c.wav", "tone", "test"))
        + ["--reg", "nan"],
        "reg_strength",
    ),
    "extract_bogus_feature_before_decoding": lambda i: (
        ["extract", i.unwritable("gone.wav"), "-m", i.model, "--feature", "bogus", "--out", str(i.dir / "x.csv")],
        "'bogus'",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_exits_one_with_a_named_error(tmp_path, wav_factory, capsys, case):
    argv, needle = CASES[case](Inputs(tmp_path, wav_factory))
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and needle in err, err
    assert "Traceback" not in err


# every output flag, pointed into a missing directory, and the flag's name
OUTPUT_CASES = {
    "tag_save": lambda i: (
        ["tag", i.wavs[0], "-m", i.model, "--topN", "1", "--print", "--save", i.unwritable("x")], "--save"
    ),
    "extract_out": lambda i: (["extract", i.wavs[0], "-m", i.model, "--out", i.unwritable("x.csv")], "--out"),
    "transfer_confusion_out": lambda i: (
        i.manifest(*_valid_rows(i)) + ["--pca", "2", "--epochs", "5", "--confusion-out", i.unwritable("c.csv")],
        "--confusion-out",
    ),
    "train_out": lambda i: (i.train(TOY_TRAIN) + ["--out", i.unwritable("out.mcn")], "--out"),
    "train_log": lambda i: (i.train(TOY_TRAIN) + ["--log", i.unwritable("log.csv")], "--log"),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
def test_unwritable_output_fails_before_any_work(tmp_path, wav_factory, capsys, case):
    argv, flag = OUTPUT_CASES[case](Inputs(tmp_path, wav_factory))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and flag in err, err
    assert not (tmp_path / "out.mcn").exists()


def test_tagger_module_runs_without_runpy_warnings():
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "meltag.tagger", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
