"""Seeded audio and WAV bytes for the benchmark's inputs.

The encoder is written independently of meltag's decoder, the same way
``tests/conftest.py::encode_wav`` is: RIFF chunks assembled with
``struct.pack``. The malformed variants each break one rule of the format,
so each has exactly one named error the decoder must raise.
"""

from __future__ import annotations

import struct

import numpy as np


def riff(chunks: list[tuple[bytes, bytes]]) -> bytes:
    body = b"WAVE"
    for tag, content in chunks:
        body += tag + struct.pack("<I", len(content)) + content
        if len(content) % 2:
            body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_chunk(code: int, channels: int, rate: int, bits: int) -> bytes:
    width = bits // 8
    return struct.pack("<HHIIHH", code, channels, rate, rate * channels * width, channels * width, bits)


def encode_wav(samples: np.ndarray, rate: int, fmt: str) -> bytes:
    """samples: [n] mono or [n, channels] in [-1, 1]; fmt: pcm16 | float32."""
    data = np.atleast_2d(np.asarray(samples, dtype=np.float64).T).T
    if fmt == "pcm16":
        code, bits = 1, 16
        payload = np.clip(np.round(data * 32768.0), -32768, 32767).astype("<i2").tobytes()
    elif fmt == "float32":
        code, bits = 3, 32
        payload = data.astype("<f4").tobytes()
    else:
        raise ValueError(fmt)
    return riff([(b"fmt ", fmt_chunk(code, data.shape[1], rate, bits)), (b"data", payload)])


def truncated_wav(samples: np.ndarray, rate: int) -> bytes:
    """A PCM16 file cut inside its data chunk: the chunk overruns the file."""
    whole = encode_wav(samples, rate, "pcm16")
    return whole[: len(whole) * 3 // 5]


def pcm24_wav(samples: np.ndarray, rate: int) -> bytes:
    """Well-formed 24-bit PCM, a sample width the decoder does not handle."""
    ints = np.clip(np.round(samples * 8388608.0), -8388608, 8388607).astype("<i4")
    payload = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return riff([(b"fmt ", fmt_chunk(1, 1, rate, 24)), (b"data", payload)])


def no_data_wav(rate: int) -> bytes:
    """A header and a LIST chunk, but no data chunk at all."""
    return riff([(b"fmt ", fmt_chunk(1, 1, rate, 16)), (b"LIST", b"INFOISFT\x06\x00\x00\x00bench\x00")])


def music(rng: np.random.Generator, seconds: float, rate: int, channels: int = 1) -> np.ndarray:
    """Notes with harmonics and decaying envelopes over noise-burst drums."""
    n = int(seconds * rate)
    t = np.arange(n) / rate
    note_len = rng.uniform(0.2, 0.6)
    pitches = 110.0 * 2.0 ** (rng.integers(0, 36, int(seconds / note_len) + 2) / 12.0)
    f0 = pitches[(t / note_len).astype(np.int64)]
    phase = 2.0 * np.pi * np.cumsum(f0) / rate
    envelope = np.exp(-3.0 * (t % note_len) / note_len)
    tone = sum(a * np.sin(k * phase) for k, a in enumerate((1.0, 0.5, 0.25, 0.12), start=1))
    drums = np.exp(-40.0 * (t % rng.uniform(0.3, 0.7)))
    out = []
    for _ in range(channels):
        out.append(0.3 * tone * envelope + 0.2 * drums * rng.standard_normal(n) + 0.01 * rng.standard_normal(n))
    x = np.stack(out, axis=1) if channels > 1 else out[0]
    return 0.8 * x / np.max(np.abs(x))


def tone(rng: np.random.Generator, freq_hz: float, seconds: float, rate: int) -> np.ndarray:
    """A steady partial at freq_hz with its octave, plus faint noise."""
    t = np.arange(int(seconds * rate)) / rate
    phase = rng.uniform(0.0, 2.0 * np.pi)
    x = np.sin(2.0 * np.pi * freq_hz * t + phase) + 0.3 * np.sin(4.0 * np.pi * freq_hz * t)
    return 0.4 * x / 1.3 + 0.02 * rng.standard_normal(len(t))
