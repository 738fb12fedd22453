"""SplitMix64 block draws against the one-shot formula, and the registry weights they make.

Registry models have no weight files: their weights are this stream. The
oracle below is the plain full-length formula, so any change to the chunked
kernel in meltag.rng that moves a bit fails here.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from meltag import rng
from meltag.errors import ConfigInvalidError
from meltag.rng import SplitMix64
from meltag.store import MODEL_NAMES, load_registry_model

GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
MASK = (1 << 64) - 1

C = rng._CHUNK
COUNTS = [0, 1, 2, 3, C - 1, C, C + 1, 2 * C + 1, 5_070_251]
SEED = 0x5EED_1234_ABCD


def oracle_block(state: int, n: int) -> tuple[np.ndarray, int]:
    """The outputs of steps 1..n of a stream at `state`, and the state after them."""
    z = np.uint64(state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31)), (state + n * GOLDEN) & MASK


def oracle_uniforms(state: int, n: int) -> tuple[np.ndarray, int]:
    z, state = oracle_block(state, n)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53, state


def oracle_normals(state: int, n: int) -> tuple[np.ndarray, int]:
    pairs = (n + 1) // 2
    z1, state = oracle_block(state, pairs)
    z2, state = oracle_block(state, pairs)
    u1 = ((z1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (z2 >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n], state


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["normals", "uniforms"])
@pytest.mark.parametrize(
    "n, chunk", [(n, None) for n in COUNTS] + [(n, c) for n in COUNTS[:-1] for c in (1, 3)]
)
def test_block_draws_match_the_one_shot_formula(kind, n, chunk, monkeypatch):
    # chunking must not move a bit: also draw in chunks of 1 and 3 (None: rng._CHUNK)
    if chunk is not None:
        monkeypatch.setattr(rng, "_CHUNK", chunk)
    oracle = {"normals": oracle_normals, "uniforms": oracle_uniforms}[kind]
    stream = SplitMix64(SEED)
    got = getattr(stream, kind)(n)
    want, state = oracle(SEED, n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    # the stream continues where the one-shot draw leaves it
    assert stream.next_uint64() == SplitMix64(state).next_uint64()
    state = (state + GOLDEN) & MASK
    assert stream.normals(5).tobytes() == oracle_normals(state, 5)[0].tobytes()


@pytest.mark.parametrize(
    "draw, count",
    [(lambda s: s.uniforms(-2), "-2"), (lambda s: s.normals(-3), "-3"),
     (lambda s: s.randbelow(0), "0"), (lambda s: s.randbelow(-4), "-4")],
)
def test_bad_counts_raise_and_leave_the_stream_alone(draw, count):
    stream = SplitMix64(5)
    with pytest.raises(ConfigInvalidError, match=count):
        draw(stream)
    assert stream.next_uint64() == SplitMix64(5).next_uint64()


# sha256 of the registry models' tensors, concatenated in model.tensors() order
REGISTRY_SHA256 = {
    "MTT_musicnn": "09f2e583264631473016d6aa747ad19c9fa967846f070bbdead99b8dbd47be47",
    "MSD_musicnn": "2f074968cf8e2dde0e8b3217a9786b1f3ea0f104207f38dcb2a0f114a77f6e68",
    "MSD_musicnn_big": "40a768fb4bc63284f6baa31c7b9131c3325563f49a1eb49fade8296ec7b3c519",
    "MTT_vgg": "61affd1e87af005685070e9bcf6497caaa6744eaa44370f67c6bdefa335ff8b9",
    "MSD_vgg": "c946a627d17ffb3e8077e31da1a74525a928aaa631e7012b49a6a428de27f96e",
}


def test_registry_pins_every_model():
    assert set(MODEL_NAMES) == set(REGISTRY_SHA256)


@pytest.mark.parametrize("name", sorted(REGISTRY_SHA256))
def test_registry_weights_keep_their_bits(name):
    tensors = load_registry_model(name).tensors().values()
    assert hashlib.sha256(b"".join(t.tobytes() for t in tensors)).hexdigest() == REGISTRY_SHA256[name]


def test_registry_build_peak_memory_is_bounded():
    tracemalloc.start()
    try:
        model = load_registry_model("MSD_musicnn_big")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tensor_bytes = sum(t.nbytes for t in model.tensors().values())
    assert peak <= 2.25 * tensor_bytes, (peak / 2**20, tensor_bytes / 2**20)
