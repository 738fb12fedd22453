"""WAV decoding, resampling, and log-mel spectrogram patches.

Everything in this module is a pure function of its inputs and safe to call
concurrently. Audio ingestion is deliberately narrow: RIFF/WAVE files with
PCM 16-bit (format code 1) or IEEE float 32-bit (format code 3) samples,
mono or stereo. Compressed codecs are a preprocessing step for the user.

The spectrogram is made in blocks of MEL_BLOCK frames on a grid from frame 0.
log_mel collects a whole clip's blocks, and patch_batches streams the same
blocks from a file (seek and readinto), so file-to-patches memory is one batch
of patches plus one block's scratch, however long the clip. Blocks change no
bits: resampler positions come from global sample indices, each block rereads
the fft_size - hop_size samples it shares with the next, and each mel GEMM
block starts on a multiple of 4 frames and holds at least MEL_BLOCK of them
(see log_mel). Each block reads at least up to the next block's first sample
and the last reads to the end of the clip, so the blocks read every sample,
and a file is rejected exactly when load_wav rejects it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AudioTooShortError,
    ConfigInvalidError,
    CorruptHeaderError,
    DegenerateBandError,
    EmptyAudioError,
    NumericFaultError,
    UnsupportedFormatError,
)


@dataclass(frozen=True)
class DspConfig:
    """Front-end parameters. Defaults give ~3 s patches of 96 mel bands; fmin and log_offset are fixed."""

    sample_rate: int = 16000
    fft_size: int = 512
    hop_size: int = 256
    n_mels: int = 96
    fmin: ClassVar[float] = 0.0
    fmax: float = 8000.0
    log_offset: ClassVar[float] = 1e-6
    patch_frames: int = 187
    patch_hop_frames: int = 187

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ConfigInvalidError("sample_rate must be positive")
        if self.fft_size <= 0 or self.hop_size <= 0:
            raise ConfigInvalidError("fft_size and hop_size must be positive")
        if self.hop_size > self.fft_size:
            raise ConfigInvalidError("hop_size must not exceed fft_size")
        if not 0 < self.fmax <= self.sample_rate / 2:
            raise ConfigInvalidError("need 0 < fmax <= sample_rate/2")
        if self.n_mels < 1:
            raise ConfigInvalidError("n_mels must be at least 1")
        if self.patch_frames < 1 or self.patch_hop_frames < 1:
            raise ConfigInvalidError("patch_frames and patch_hop_frames must be >= 1")


@dataclass(frozen=True)
class Waveform:
    """Mono audio: float64 samples nominally in [-1, 1] plus a sample rate."""

    samples: np.ndarray
    sample_rate: int


@dataclass(frozen=True)
class MelSpectrogram:
    """Log-compressed mel energies, one row per STFT frame."""

    values: np.ndarray  # [frames, n_mels], natural-log scale
    config: DspConfig = field(default_factory=DspConfig)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


# frames per log-mel block (see log_mel): a multiple of 4 that holds one default 187-frame
# patch, so a block's STFT scratch stays near 2 MB however long the clip
MEL_BLOCK = 192


# --- WAV ingestion ---------------------------------------------------------

_PCM16 = 1
_FLOAT32 = 3


@dataclass(frozen=True)
class _WavData:
    """A checked header: where the data chunk's `frames` sample frames start and how they decode."""

    path: str | os.PathLike
    code: int
    channels: int
    rate: int
    offset: int
    frames: int


def _read_header(fh, path) -> _WavData:
    """Walk the RIFF chunks with seeks, reading only chunk headers and the fmt body, and check
    everything a header can get wrong before any sample is read. Raises
    UnsupportedFormatError for codecs other than PCM16/float32, CorruptHeaderError for a
    malformed chunk structure (a second fmt or data chunk included), EmptyAudioError for a
    zero-length data chunk."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")
    chunks: dict[bytes, tuple[int, int]] = {}  # fmt and data: (body offset, body size)
    fmt = b""
    pos = 12
    while pos + 8 <= size:
        fh.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", fh.read(8))
        body_start = pos + 8
        if body_start + chunk_size > size:
            raise CorruptHeaderError(f"{path}: chunk {chunk_id!r} overruns the file")
        if chunk_id in (b"fmt ", b"data"):
            if chunk_id in chunks:
                raise CorruptHeaderError(f"{path}: second {chunk_id!r} chunk at byte offset {pos}")
            chunks[chunk_id] = (body_start, chunk_size)
            if chunk_id == b"fmt ":
                fmt = fh.read(min(chunk_size, 16))
        pos = body_start + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if len(fmt) < 16:
        raise CorruptHeaderError(f"{path}: missing or short fmt chunk")
    if b"data" not in chunks:
        raise CorruptHeaderError(f"{path}: missing data chunk")

    code, channels, rate, _brate, _balign, bits = struct.unpack("<HHIIHH", fmt)
    if code not in (_PCM16, _FLOAT32):
        raise UnsupportedFormatError(f"{path}: format code {code} (want 1 or 3)")
    if code == _PCM16 and bits != 16:
        raise UnsupportedFormatError(f"{path}: {bits}-bit PCM (want 16)")
    if code == _FLOAT32 and bits != 32:
        raise UnsupportedFormatError(f"{path}: {bits}-bit float (want 32)")
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"{path}: {channels} channels (want mono/stereo)")
    if rate <= 0:
        raise CorruptHeaderError(f"{path}: nonpositive sample rate")

    offset, n_bytes = chunks[b"data"]
    frame_bytes = bits // 8 * channels
    if n_bytes % frame_bytes != 0:
        raise CorruptHeaderError(f"{path}: data chunk is not whole sample frames")
    if n_bytes == 0:
        raise EmptyAudioError(f"{path}: zero audio samples")
    return _WavData(path, code, channels, rate, offset, n_bytes // frame_bytes)


def _read_samples(fh, wav: _WavData, a: int, b: int) -> np.ndarray:
    """Sample frames a..b of the data chunk (seek and readinto), as mono float64.

    16-bit samples are scaled by 1/32768; stereo is downmixed by channel mean. Both are done
    on one float64 buffer: channel 0 is cast, channel 1 added in place, then one power-of-two
    scale (0.5 per stereo mean, 2**-15 for PCM16) is applied. Scaling by a power of two is
    exact here, so the result equals `(left + right) / 2 / 32768` bit for bit. A NaN or Inf
    float sample raises NumericFaultError naming the file, its frame in the clip and its channel.
    """
    frames = np.empty((b - a, wav.channels), dtype="<i2" if wav.code == _PCM16 else "<f4")
    fh.seek(wav.offset + a * frames.itemsize * wav.channels)
    fh.readinto(frames)
    if wav.code == _FLOAT32 and not np.isfinite(frames).all():
        frame, channel = np.argwhere(~np.isfinite(frames))[0]
        raise NumericFaultError(f"{wav.path}: non-finite sample in frame {a + frame}, channel {channel}")
    samples = frames[:, 0].astype(np.float64)
    if wav.channels == 2:
        samples += frames[:, 1]
    scale = (2.0**-15 if wav.code == _PCM16 else 1.0) / wav.channels
    if scale != 1.0:
        samples *= scale
    return samples


def load_wav(path) -> Waveform:
    """Decode a RIFF/WAVE file to a mono float64 waveform: the header check, then the whole
    data chunk as one block of _read_samples. Raises UnsupportedFormatError, CorruptHeaderError,
    EmptyAudioError (see _read_header) and NumericFaultError (see _read_samples)."""
    with open(path, "rb") as fh:
        wav = _read_header(fh, path)
        return Waveform(samples=_read_samples(fh, wav, 0, wav.frames), sample_rate=wav.rate)


def _resampled(s: np.ndarray, first: int, n_in: int, k0: int, k1: int, ratio: float) -> np.ndarray:
    """Output samples k0..k1 of resample over an n_in-sample input whose samples first.. are s,
    at input step `ratio`. Positions come from global indices, so any split into blocks gives
    the same bits; s must reach one sample past the last interpolated position, and the end
    of the input when a block holds its last sample."""
    out = np.arange(k0, k1, dtype=np.float64) * ratio  # positions, rising
    inner = int(np.searchsorted(out, n_in - 1))  # positions below the last index interpolate
    x = out[:inner]
    j = x.astype(np.intp)
    x -= j
    j -= first
    lo = s[j]
    whole = x == 0.0
    x *= s[1:][j] - lo
    x += lo
    np.copyto(x, lo, where=whole)  # np.interp returns s[j] itself at x == j, keeping a -0.0
    out[inner:] = s[-1:]
    return out


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Linear-interpolation resampling with edge-hold extrapolation.

    Output length is floor(len * target / source). At identical rates the
    input is returned unchanged (exact identity). Output sample k sits at
    position x = k * (source / target) in the input; below the last input
    index it is `(s[j+1] - s[j]) * (x - j) + s[j]` with j = floor(x), or
    `s[j]` itself where x == j, and from there on it holds `s[-1]`. That is
    np.interp's formula on unit-spaced xp, so for finite samples the result
    equals `np.interp(x, arange(len), s)` bit for bit, without building xp.
    """
    if target_rate <= 0:
        raise ConfigInvalidError("target_rate must be positive")
    if target_rate == w.sample_rate:
        return w
    n = len(w.samples)
    out = _resampled(w.samples, 0, n, 0, n * target_rate // w.sample_rate, w.sample_rate / target_rate)
    return Waveform(samples=out, sample_rate=target_rate)


# --- spectrogram -----------------------------------------------------------

def stft_magnitude(w: Waveform, fft_size: int, hop_size: int) -> np.ndarray:
    """Magnitude of the one-sided DFT of Hann-windowed, non-centered frames.

    Frames start at multiples of hop_size with no padding, so the frame
    count is exactly floor((len - fft_size) / hop_size) + 1.
    """
    n = len(w.samples)
    if n < fft_size:
        raise AudioTooShortError(f"{n} samples < fft_size {fft_size}")
    frames = sliding_window_view(w.samples, fft_size)[::hop_size]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(fft_size) / fft_size)
    return np.abs(np.fft.rfft(frames * window, axis=1))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_grid(cfg: DspConfig) -> np.ndarray:
    """n_mels + 2 frequencies: filter feet and peaks, equal mel spacing."""
    return mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2))


def mel_center_frequencies(cfg: DspConfig) -> np.ndarray:
    """Peak frequency (Hz) of each of the n_mels triangular filters."""
    return _mel_grid(cfg)[1:-1]


@lru_cache(maxsize=16)
def mel_filterbank(cfg: DspConfig) -> np.ndarray:
    """Cached, read-only n_mels x (fft_size/2 + 1) matrix of unnormalized filters.

    Filter i rises from grid point i to a peak of 1 at point i+1 and falls
    to zero at point i+2; rows are the triangles evaluated at the FFT bin
    frequencies. A filter whose support captures no FFT bin would silently
    vanish, so that case raises DegenerateBandError instead.
    """
    grid = _mel_grid(cfg)
    bin_freqs = np.arange(cfg.fft_size // 2 + 1) * (cfg.sample_rate / cfg.fft_size)
    left = grid[:-2, None]
    center = grid[1:-1, None]
    right = grid[2:, None]
    rising = (bin_freqs[None, :] - left) / (center - left)
    falling = (right - bin_freqs[None, :]) / (right - center)
    bank = np.maximum(0.0, np.minimum(rising, falling))
    empty = np.flatnonzero(bank.sum(axis=1) == 0.0)
    if empty.size:
        raise DegenerateBandError(
            f"mel filter(s) {empty.tolist()} have no FFT-bin support; "
            f"adjacent centers collapse into one bin gap"
        )
    bank.flags.writeable = False
    return bank


def _frame_count(n_in: int, rate: int, cfg: DspConfig) -> tuple[int, int]:
    """(samples, STFT frames) of an n_in-sample clip at `rate` resampled to cfg.sample_rate;
    frames < 1 when not even one fits."""
    n = n_in * cfg.sample_rate // rate
    return n, (n - cfg.fft_size) // cfg.hop_size + 1


def _block_bounds(frames: int) -> list[tuple[int, int]]:
    """The grid of mel blocks over a clip's frames: MEL_BLOCK each from frame 0, the last
    taking the remainder, so it holds MEL_BLOCK to 2 * MEL_BLOCK - 1 frames (or the clip)."""
    stops = [*range(MEL_BLOCK, frames - MEL_BLOCK + 1, MEL_BLOCK), frames]
    return list(zip([0, *stops[:-1]], stops))


def _log_mel_blocks(read, n_in: int, rate: int, cfg: DspConfig, frames: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first frame, log-mel frames) of each _block_bounds block of a clip with `frames` frames
    and n_in samples at `rate`, in order, its samples read with read(start, stop). A block makes
    only its frames' resampled samples, from global indices, so it rereads the fft_size -
    hop_size samples it shares with the next instead of carrying them. Its read reaches past
    the next block's first sample (int(k1 * ratio) with k1 >= the next block's k0), and the last
    block's to the end of the clip, so together the reads cover every sample."""
    ratio = rate / cfg.sample_rate
    for a, b in _block_bounds(frames):
        k0, k1 = a * cfg.hop_size, (b - 1) * cfg.hop_size + cfg.fft_size
        first = min(int(k0 * ratio), n_in - 1)
        s = read(first, n_in if b == frames else min(n_in, int(k1 * ratio) + 2))
        s = s[: k1 - k0] if rate == cfg.sample_rate else _resampled(s, first, n_in, k0, k1, ratio)
        values = stft_magnitude(Waveform(s, cfg.sample_rate), cfg.fft_size, cfg.hop_size) @ mel_filterbank(cfg).T
        values += cfg.log_offset
        yield a, np.log(values, out=values)


def log_mel(w: Waveform, cfg: DspConfig = DspConfig()) -> MelSpectrogram:
    """Resample to cfg.sample_rate, then ln(filterbank @ magnitudes + offset), made block by
    block on the grid of _block_bounds, so the STFT's scratch is bounded by a block.

    Every block starts on a multiple of 4 frames and holds at least MEL_BLOCK of them (or the
    whole clip). On OpenBLAS that kept the mel GEMM's bits those of one whole-clip product in
    every case tried, while 187-frame blocks, and blocks of under about 1,200 output cells,
    changed them. patch_batches streams these very blocks, so it relies on no such rule.
    """
    n = len(w.samples)
    if n == 0:
        raise EmptyAudioError("empty waveform")
    n_out, frames = _frame_count(n, w.sample_rate, cfg)
    if frames < 1:
        raise AudioTooShortError(f"{n_out} samples < fft_size {cfg.fft_size}")
    values = np.empty((frames, cfg.n_mels))
    for a, block in _log_mel_blocks(lambda i, j: w.samples[i:j], n, w.sample_rate, cfg, frames):
        values[a : a + len(block)] = block
    return MelSpectrogram(values=values, config=cfg)


def patchify(m: MelSpectrogram) -> np.ndarray:
    """Non-ragged windows of patch_frames rows at stride patch_hop_frames,
    as one read-only [B, patch_frames, n_mels] view of the mel values.

    A trailing remainder shorter than patch_frames is dropped. Raises
    AudioTooShortError when even one patch does not fit.
    """
    cfg = m.config
    frames = m.n_frames
    if frames < cfg.patch_frames:
        raise AudioTooShortError(
            f"{frames} frames < patch_frames {cfg.patch_frames}"
        )
    windows = sliding_window_view(m.values, cfg.patch_frames, axis=0)  # [frames', M, T]
    return windows[:: cfg.patch_hop_frames].swapaxes(1, 2)


def patch_batches(path, cfg: DspConfig, size: int) -> Iterator[np.ndarray]:
    """The patches of a WAV file, `size` at a time, in memory bounded by a batch, not by the
    clip: the header is checked first, then log_mel's blocks are read from the data chunk in
    turn and each batch is cut from them, so the batches equal
    patchify(log_mel(load_wav(path), cfg)) bit for bit. A clip too short for one patch is
    decoded whole, so it raises what the whole-clip path raises. The blocks' reads cover the
    data chunk and every block is made before the last batch is yielded, so a bad sample
    anywhere raises as load_wav raises it.
    """
    with open(path, "rb") as fh:
        wav = _read_header(fh, path)
        _, frames = _frame_count(wav.frames, wav.rate, cfg)
        pf, ph = cfg.patch_frames, cfg.patch_hop_frames
        if frames < pf:  # raises, as the whole-clip path would
            patchify(log_mel(Waveform(_read_samples(fh, wav, 0, wav.frames), wav.rate), cfg))
        blocks = _log_mel_blocks(lambda a, b: _read_samples(fh, wav, a, b), wav.frames, wav.rate, cfg, frames)
        made: list[tuple[int, np.ndarray]] = []  # (first frame, frames) of blocks still to be read
        n_patches = (frames - pf) // ph + 1
        for p0 in range(0, n_patches, size):
            p1 = min(p0 + size, n_patches)
            start, stop = p0 * ph, (p1 - 1) * ph + pf
            while not made or made[-1][0] + len(made[-1][1]) < stop:
                made.append(next(blocks))
            batch = patchify(MelSpectrogram(_cut(made, start, stop), cfg))
            made = [(a, block) for a, block in made if a + len(block) > p1 * ph]  # the next batch's
            if p1 == n_patches:
                for _ in blocks:  # the blocks past the last patch: read, so their samples are checked
                    pass
            yield batch
            del batch  # freed before the next batch is made, if the caller has let it go


def _cut(made: list[tuple[int, np.ndarray]], start: int, stop: int) -> np.ndarray:
    """Frames start..stop copied out of blocks given as (first frame, frames)."""
    values = np.empty((stop - start, made[0][1].shape[1]))
    for a, block in made:
        lo, hi = max(a, start), min(a + len(block), stop)
        if lo < hi:
            values[lo - start : hi - start] = block[lo - a : hi - a]
    return values
