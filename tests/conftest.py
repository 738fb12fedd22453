"""Shared fixtures: a hand-rolled WAV encoder and small model configs.

The encoder here is deliberately independent of the package's decoder --
it assembles RIFF chunks with struct.pack -- so the decode tests exercise
two separately written implementations of the format.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from meltag.dsp import DspConfig
from meltag.network import ModelConfig


@pytest.fixture(autouse=True, scope="session")
def _child_pythonpath():
    """CLI tests run `python -m meltag...` in a child process: let it import
    the checkout that pytest's `pythonpath` gave this one, installed or not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


def encode_wav(
    samples: np.ndarray,
    sample_rate: int,
    fmt: str = "pcm16",
    extra_chunks: list[tuple[bytes, bytes]] | None = None,
) -> bytes:
    """samples: [n] mono or [n, channels]; fmt: pcm16 | float32."""
    data = np.atleast_2d(np.asarray(samples, dtype=np.float64).T).T
    n_channels = data.shape[1]
    if fmt == "pcm16":
        code, width = 1, 2
        payload = np.clip(np.round(data * 32768.0), -32768, 32767).astype("<i2").tobytes()
    elif fmt == "float32":
        code, width = 3, 4
        payload = data.astype("<f4").tobytes()
    else:
        raise ValueError(fmt)
    fmt_chunk = struct.pack(
        "<HHIIHH",
        code,
        n_channels,
        sample_rate,
        sample_rate * n_channels * width,
        n_channels * width,
        width * 8,
    )
    chunks = [(b"fmt ", fmt_chunk)]
    chunks += extra_chunks or []
    chunks.append((b"data", payload))
    body = b"WAVE"
    for tag, content in chunks:
        body += tag + struct.pack("<I", len(content)) + content
        if len(content) % 2:
            body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.fixture
def wav_factory(tmp_path):
    counter = [0]

    def write(samples, sample_rate, fmt="pcm16", name=None, extra_chunks=None):
        counter[0] += 1
        path = tmp_path / (name or f"clip{counter[0]:03d}.wav")
        path.write_bytes(encode_wav(samples, sample_rate, fmt, extra_chunks))
        return path

    return write


@pytest.fixture
def long_wav(tmp_path):
    """Writes a WAV to disk block by block: `blocks` yields [n] or [n, channels] arrays in
    [-1, 1], encoded as encode_wav does, so a long clip never exists whole in memory. The RIFF
    and data sizes are written once the last block is in."""
    counter = [0]

    def write(blocks, sample_rate, fmt="pcm16", channels=1):
        counter[0] += 1
        path = tmp_path / f"long{counter[0]:03d}.wav"
        code, width = {"pcm16": (1, 2), "float32": (3, 4)}[fmt]
        with open(path, "wb") as fh:
            fh.write(b"RIFF\0\0\0\0WAVE")
            fh.write(b"fmt " + struct.pack("<I", 16))
            fh.write(struct.pack("<HHIIHH", code, channels, sample_rate, sample_rate * channels * width,
                                 channels * width, width * 8))
            fh.write(b"data\0\0\0\0")
            n_bytes = 0
            for block in blocks:
                data = np.asarray(block, dtype=np.float64).reshape(-1, channels)
                if fmt == "pcm16":
                    payload = np.clip(np.round(data * 32768.0), -32768, 32767).astype("<i2")
                else:
                    payload = data.astype("<f4")
                n_bytes += fh.write(payload.tobytes())
            if n_bytes % 2:
                fh.write(b"\0")
            fh.seek(4)
            fh.write(struct.pack("<I", 4 + 8 + 16 + 8 + n_bytes + n_bytes % 2))
            fh.seek(40)
            fh.write(struct.pack("<I", n_bytes))
        return path

    return write


def samples_for_frames(frames: int, rate: int, cfg: DspConfig) -> int:
    """A clip length at `rate` that resamples to exactly `frames` STFT frames of cfg."""
    n = (frames - 1) * cfg.hop_size + cfg.fft_size + cfg.hop_size // 2
    return -(-n * rate // cfg.sample_rate)


def sine(freq_hz: float, seconds: float, sample_rate: int, amplitude: float = 0.5) -> np.ndarray:
    t = np.arange(int(seconds * sample_rate)) / sample_rate
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t)


# --- model configs sized for fast tests --------------------------------------


def tiny_dsp(patch_frames: int = 8, n_mels: int = 8) -> DspConfig:
    return DspConfig(
        sample_rate=2000,
        fft_size=64,
        hop_size=32,
        n_mels=n_mels,
        fmax=1000.0,
        patch_frames=patch_frames,
        patch_hop_frames=patch_frames,
    )


def tiny_musicnn(backend: str = "temporal_pooling", n_tags: int = 2, **kwargs) -> ModelConfig:
    defaults = dict(
        family="musicnn",
        backend=backend,
        n_tags=n_tags,
        dsp=tiny_dsp(),
        timbral_channels=2,
        temporal_filter_lengths=(5, 3),
        temporal_channels=1,
        midend_channels=3,
        penultimate_units=4,
    )
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def tiny_vgg(n_tags: int = 2, **kwargs) -> ModelConfig:
    defaults = dict(
        family="vgg",
        n_tags=n_tags,
        dsp=tiny_dsp(),
        vgg_block_channels=(2, 2, 2, 2, 2),
        vgg_pool_shapes=((2, 2), (2, 2), (1, 1), (1, 2), (2, 1)),
    )
    defaults.update(kwargs)
    return ModelConfig(**defaults)
