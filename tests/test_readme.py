"""The README's Python API block runs as written, on a generated clip."""

import re
from pathlib import Path

from conftest import sine

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_block_runs(wav_factory, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Python API\n.*?```python\n(.*?)```", text, re.S).group(1)
    assert block.count('"song.wav"') == 3
    song = wav_factory(sine(440.0, 4.0, 16000), 16000)
    names: dict = {}
    exec(compile(block.replace('"song.wav"', repr(str(song))), "README.md", "exec"), names)
    printed = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == [tag for tag, _ in names["tagger"].top_tags(names["gram"], 5)]
    assert names["patches"].shape == (1, 187, 96)
    assert names["embedding"].ndim == 1
