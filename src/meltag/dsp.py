"""WAV decoding, resampling, and log-mel spectrogram patches.

Everything in this module is a pure function of its inputs and safe to call
concurrently. Audio ingestion is deliberately narrow: RIFF/WAVE files with
PCM 16-bit (format code 1) or IEEE float 32-bit (format code 3) samples,
mono or stereo. Compressed codecs are a preprocessing step for the user.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

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
    """Front-end parameters. Defaults give ~3 s patches of 96 mel bands."""

    sample_rate: int = 16000
    fft_size: int = 512
    hop_size: int = 256
    n_mels: int = 96
    fmin: float = 0.0
    fmax: float = 8000.0
    log_offset: float = 1e-6
    patch_frames: int = 187
    patch_hop_frames: int = 187

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ConfigInvalidError("sample_rate must be positive")
        if self.fft_size <= 0 or self.hop_size <= 0:
            raise ConfigInvalidError("fft_size and hop_size must be positive")
        if self.hop_size > self.fft_size:
            raise ConfigInvalidError("hop_size must not exceed fft_size")
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise ConfigInvalidError("need 0 <= fmin < fmax <= sample_rate/2")
        if self.n_mels < 1:
            raise ConfigInvalidError("n_mels must be at least 1")
        if self.log_offset <= 0:
            raise ConfigInvalidError("log_offset must be positive")
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


# --- WAV ingestion ---------------------------------------------------------

_PCM16 = 1
_FLOAT32 = 3


def load_wav(path) -> Waveform:
    """Decode a RIFF/WAVE file to a mono float64 waveform.

    16-bit samples are scaled by 1/32768; stereo is downmixed by channel
    mean. Both are done on one float64 buffer: channel 0 is cast, channel 1
    added in place, then one power-of-two scale (0.5 per stereo mean, 2**-15
    for PCM16) is applied. Scaling by a power of two is exact here, so the
    result equals `(left + right) / 2 / 32768` bit for bit. Raises
    UnsupportedFormatError for codecs other than PCM16/float32,
    CorruptHeaderError for malformed chunk structure, EmptyAudioError for a
    zero-length data chunk, NumericFaultError for a NaN or Inf float sample.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12 or buf[0:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")

    view = memoryview(buf)  # chunk bodies are views, not copies
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(buf):
        chunk_id = buf[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", buf, pos + 4)
        body_start = pos + 8
        if body_start + chunk_size > len(buf):
            raise CorruptHeaderError(f"{path}: chunk {chunk_id!r} overruns the file")
        body = view[body_start : body_start + chunk_size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos = body_start + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or len(fmt) < 16:
        raise CorruptHeaderError(f"{path}: missing or short fmt chunk")
    if data is None:
        raise CorruptHeaderError(f"{path}: missing data chunk")

    code, channels, rate, _brate, _balign, bits = struct.unpack_from("<HHIIHH", fmt, 0)
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

    width = bits // 8
    frame_bytes = width * channels
    if len(data) % frame_bytes != 0:
        raise CorruptHeaderError(f"{path}: data chunk is not whole sample frames")
    if len(data) == 0:
        raise EmptyAudioError(f"{path}: zero audio samples")

    frames = np.frombuffer(data, dtype="<i2" if code == _PCM16 else "<f4").reshape(-1, channels)
    if code == _FLOAT32 and not np.isfinite(frames).all():
        frame, channel = np.argwhere(~np.isfinite(frames))[0]
        raise NumericFaultError(f"{path}: non-finite sample in frame {frame}, channel {channel}")
    samples = frames[:, 0].astype(np.float64)
    if channels == 2:
        samples += frames[:, 1]
    scale = (2.0**-15 if code == _PCM16 else 1.0) / channels
    if scale != 1.0:
        samples *= scale
    return Waveform(samples=samples, sample_rate=rate)


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
    s = w.samples
    n_out = len(s) * target_rate // w.sample_rate
    out = np.arange(n_out, dtype=np.float64) * (w.sample_rate / target_rate)  # positions, rising
    inner = int(np.searchsorted(out, len(s) - 1))  # positions below the last index interpolate
    x = out[:inner]
    j = x.astype(np.intp)
    x -= j
    lo = s[j]
    whole = x == 0.0
    x *= s[1:][j] - lo
    x += lo
    np.copyto(x, lo, where=whole)  # np.interp returns s[j] itself at x == j, keeping a -0.0
    out[inner:] = s[-1:]
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


def log_mel(w: Waveform, cfg: DspConfig = DspConfig()) -> MelSpectrogram:
    """Resample to cfg.sample_rate, then ln(filterbank @ magnitudes + offset)."""
    if len(w.samples) == 0:
        raise EmptyAudioError("empty waveform")
    w = resample(w, cfg.sample_rate)
    magnitudes = stft_magnitude(w, cfg.fft_size, cfg.hop_size)
    bank = mel_filterbank(cfg)
    values = magnitudes @ bank.T
    values += cfg.log_offset
    np.log(values, out=values)
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
