"""Weight container format and the registry of shipped model names.

The on-disk format is deliberately boring: a magic string, a fixed-width
decimal manifest length, a line-oriented UTF-8 manifest describing the config
(one line per `ModelConfig`/`DspConfig` field) and every tensor in order, then
the model's one parameter buffer (see `network`) as little-endian float32,
written in one call and read back as the loaded model's buffer. The loader
rejects truncated or overlong files, a corrupt manifest, tensors that disagree
with the config, non-finite values and invalid layers before it returns a
model. A flipped payload bit that leaves a valid finite value needs a
checksum, which format version 1 does not carry.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from .errors import (
    BadMagicError,
    ConfigInvalidError,
    ManifestCorruptError,
    NumericFaultError,
    PayloadTruncatedError,
    ShapeMismatchError,
    UnknownModelError,
)
from .network import Model, ModelConfig, build_model, tensor_specs
from .rng import fnv1a64

MAGIC = b"MCN1"
_LEN_DIGITS = 10  # manifest byte length, zero-padded decimal

FORMAT_VERSION = 1

MTT_TAGS = (
    "guitar", "classical", "slow", "techno", "strings", "drums", "electronic",
    "rock", "fast", "piano", "ambient", "beat", "violin", "vocal", "synth",
    "female", "indian", "opera", "male", "singing", "vocals", "no vocals",
    "harpsichord", "loud", "quiet", "flute", "woman", "male vocal", "no vocal",
    "pop", "soft", "sitar", "solo", "man", "classic", "choir", "voice",
    "new age", "dance", "male voice", "female vocal", "beats", "harp",
    "cello", "no voice", "weird", "country", "metal", "female voice", "choral",
)

MSD_TAGS = (
    "rock", "pop", "alternative", "indie", "electronic", "female vocalists",
    "dance", "00s", "alternative rock", "jazz", "beautiful", "metal",
    "chillout", "male vocalists", "classic rock", "soul", "indie rock",
    "mellow", "electronica", "80s", "folk", "90s", "chill", "instrumental",
    "punk", "oldies", "blues", "hard rock", "ambient", "acoustic",
    "experimental", "female vocalist", "guitar", "hip-hop", "70s", "party",
    "country", "easy listening", "sexy", "catchy", "funk", "electro",
    "heavy metal", "progressive rock", "60s", "rnb", "indie pop",
    "sad", "house", "happy",
)


_REGISTRY: dict[str, tuple[ModelConfig, tuple[str, ...]]] = {
    "MTT_musicnn": (ModelConfig(family="musicnn", backend="temporal_pooling"), MTT_TAGS),
    "MSD_musicnn": (ModelConfig(family="musicnn", backend="attention"), MSD_TAGS),
    "MSD_musicnn_big": (
        ModelConfig(
            family="musicnn",
            backend="attention",
            midend_channels=512,
            penultimate_units=500,
        ),
        MSD_TAGS,
    ),
    "MTT_vgg": (ModelConfig(family="vgg"), MTT_TAGS),
    "MSD_vgg": (ModelConfig(family="vgg"), MSD_TAGS),
}
MODEL_NAMES = tuple(_REGISTRY)


def registry_get(name: str) -> tuple[ModelConfig, tuple[str, ...]]:
    if name not in _REGISTRY:
        known = ", ".join(MODEL_NAMES)
        raise UnknownModelError(f"unknown model {name!r}; known models: {known}")
    return _REGISTRY[name]


def load_registry_model(name: str) -> Model:
    """Deterministically materialized weights for a registry name.

    The seed is derived from the model name, so every process that asks for
    e.g. 'MTT_musicnn' gets bit-identical parameters.
    """
    config, tags = registry_get(name)
    return build_model(config, init="random", seed=fnv1a64(name.encode()), tags=tags)


# --- serialization ------------------------------------------------------------


def _format(value, sep: str = " ") -> str:
    if isinstance(value, tuple):
        return sep.join(_format(v, "x") for v in value)
    return str(value)


def _parse(text: str, like, sep: str | None = None):
    """`text` as the type of `like`; tuple items split on spaces, pairs on 'x'."""
    if not isinstance(like, tuple):
        return type(like)(text)
    parts = text.split(sep)
    if sep and len(parts) != len(like):
        raise ValueError(f"{text!r} is not {len(like)} values joined by {sep!r}")
    return tuple(_parse(p, like[0], "x") for p in parts)


def field_lines(config) -> list[str]:
    """One 'name value' line per field of a config dataclass, nested ones inlined."""
    lines = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        lines += field_lines(value) if dataclasses.is_dataclass(value) else [f"{f.name} {_format(value)}"]
    return lines


def parse_fields(cls, fields: dict[str, str], defaults: bool = False):
    """Build config dataclass `cls` from name -> value text, popping each name used.

    Values take the type of the field's default (int, float, str, or tuples of
    those or of 'HxW' pairs); nested configs read the same flat namespace. A
    missing field raises ConfigInvalidError unless `defaults` is set.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        like = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if dataclasses.is_dataclass(like):
            kwargs[f.name] = parse_fields(type(like), fields, defaults)
        elif f.name in fields:
            try:
                kwargs[f.name] = _parse(fields.pop(f.name), like)
            except ValueError as exc:
                raise ConfigInvalidError(f"{f.name}: {exc}") from None
        elif not defaults:
            raise ConfigInvalidError(f"missing field {f.name!r}")
    return cls(**kwargs)


def read_text(path) -> str:
    """A UTF-8 text file (train config, transfer manifest), line endings kept and a leading
    byte-order mark, as spreadsheets write it, dropped."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigInvalidError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def check_output_path(path, flag: str) -> None:
    """Fail before a command does any work if the file `flag` names (None: the
    flag was not given) could not be written."""
    if path is None:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ConfigInvalidError(f"{flag} {path}: no directory {folder}")
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ConfigInvalidError(f"{flag} {path}: not a writable file")


def save_model(model: Model, path: str | os.PathLike) -> None:
    """Write config, tags and the parameter buffer, as little-endian float32."""
    lines = [f"format_version {FORMAT_VERSION}", *field_lines(model.config)]
    lines += [f"tag {tag}" for tag in model.tags]
    lines += [f"tensor {key} {_format(shape)}" for key, shape in tensor_specs(model.config)]
    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + f"{len(manifest):0{_LEN_DIGITS}d}".encode("ascii") + manifest)
        fh.write(model.buffer.astype("<f4", copy=False))


def load_model(path: str | os.PathLike) -> Model:
    """Read a container back; raises a named error for each failure mode.

    BadMagicError         not this format at all
    ManifestCorruptError  header fields unreadable, unknown or inconsistent, or
                          bytes after the payload
    PayloadTruncatedError file shorter than the length field or the manifest's
                          tensor shapes promise
    ShapeMismatchError    tensor list disagrees with the config algebra (the
                          first differing tensor line is named), or a layer
                          fails validation (e.g. a negative bn_var)
    NumericFaultError     a tensor holds NaN or Inf

    A flipped payload bit that leaves every value finite and valid still
    loads; only a checksum (a v2 manifest) could catch it.

    The payload is read once into one float32 buffer that becomes the
    model's buffer, so the weights are held once (a byteswap copy is made
    only on a big-endian host).
    """
    start = len(MAGIC) + _LEN_DIGITS
    with open(path, "rb") as fh:  # the whole file, its payload read once into one aligned buffer
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(start)
        length_field = head[len(MAGIC) :]
        manifest_bytes = fh.read(min(int(length_field), file_size)) if length_field.isdigit() else b""
        payload = np.empty(max(0, file_size - fh.tell()) // 4, dtype="<f4")
        fh.readinto(payload)
    if head[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"bad magic {head[: len(MAGIC)]!r}, expected {MAGIC!r}")
    if len(length_field) < _LEN_DIGITS:
        raise PayloadTruncatedError(
            f"file ends inside the manifest length field ({len(length_field)} of {_LEN_DIGITS} bytes)"
        )
    if not length_field.isdigit():
        raise ManifestCorruptError(f"manifest length field {length_field!r} is not decimal")
    end = start + int(length_field)
    if end > file_size:
        raise PayloadTruncatedError(
            f"manifest length {int(length_field)} overruns the {file_size - start} bytes left in the file"
        )
    try:
        manifest = manifest_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestCorruptError(f"manifest is not UTF-8: {exc}") from None

    fields: dict[str, str] = {}
    tags: list[str] = []
    listed: list[tuple[str, tuple[int, ...]]] = []
    for lineno, line in enumerate(manifest.splitlines(), start=1):
        if not line.strip():
            continue
        key, _, rest = line.partition(" ")
        if key == "tag":
            tags.append(rest)
        elif key == "tensor":
            name, _, shape_part = rest.partition(" ")
            try:
                shape = tuple(int(n) for n in shape_part.split())
            except ValueError:
                raise ManifestCorruptError(
                    f"manifest line {lineno}: bad tensor shape {shape_part!r}"
                ) from None
            listed.append((name, shape))
        elif key in fields:
            raise ManifestCorruptError(f"manifest line {lineno}: duplicate field {key!r}")
        else:
            fields[key] = rest
    if fields.get("format_version") != str(FORMAT_VERSION):
        raise ManifestCorruptError(
            f"unsupported format_version {fields.get('format_version')!r}"
        )
    try:
        config = parse_fields(ModelConfig, fields)
    except ConfigInvalidError as exc:
        raise ManifestCorruptError(f"manifest config invalid: {exc}") from None
    unknown = sorted(fields.keys() - {"format_version"})
    if unknown:
        raise ManifestCorruptError(f"unknown manifest field(s): {', '.join(unknown)}")
    if len(tags) != config.n_tags:
        raise ManifestCorruptError(
            f"manifest lists {len(tags)} tags for an n_tags={config.n_tags} config"
        )

    expected = tensor_specs(config)
    if listed != expected:  # name the first tensor line that differs
        found, want = (
            [f"'tensor {key} {_format(shape)}'" for key, shape in specs] + ["the end of the list"]
            for specs in (listed, expected)
        )
        i = next(i for i, pair in enumerate(zip(found, want)) if pair[0] != pair[1])
        raise ShapeMismatchError(f"manifest tensor line {i + 1} is {found[i]}; the config implies {want[i]}")
    sizes = [math.prod(shape) for _, shape in expected]
    n_bytes = 4 * sum(sizes)
    if end + n_bytes > file_size:
        raise PayloadTruncatedError(f"payload holds {file_size - end} of the {n_bytes} bytes its tensors need")
    if end + n_bytes < file_size:
        raise ManifestCorruptError(
            f"{file_size - end - n_bytes} trailing bytes after the payload, at byte offset {end + n_bytes}"
        )

    if payload.size and not (math.isfinite(payload.max()) and math.isfinite(payload.min())):
        bad = int(np.flatnonzero(~np.isfinite(payload))[0])
        stops = np.cumsum(sizes)
        i = int(np.searchsorted(stops, bad, side="right"))
        raise NumericFaultError(
            f"tensor {expected[i][0]} at byte offset {end + 4 * int(stops[i] - sizes[i])} "
            f"holds a non-finite value at byte offset {end + 4 * bad}"
        )
    return Model(config, payload.astype(np.float32, copy=False), tuple(tags))  # copies on big-endian only
