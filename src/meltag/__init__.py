"""meltag: a self-contained music audio tagging engine.

Log-mel DSP front end, a hand-written convolutional network core with two
architecture families, a taggram-based tagger CLI, an intermediate-feature
extractor, and a PCA+SVM transfer-learning pipeline.
"""

from importlib import import_module

from .dsp import DspConfig, MelSpectrogram, Waveform, load_wav, log_mel, patchify
from .errors import MeltagError
from .network import Model, ModelConfig, build_model, forward
from .store import load_model, load_registry_model, registry_get, registry_names, save_model

__version__ = "0.1.0"

__all__ = [
    "DspConfig",
    "MelSpectrogram",
    "Model",
    "ModelConfig",
    "MeltagError",
    "Taggram",
    "Waveform",
    "build_model",
    "clip_embedding",
    "compute_taggram",
    "extract",
    "forward",
    "load_model",
    "load_registry_model",
    "load_wav",
    "log_mel",
    "patchify",
    "registry_get",
    "registry_names",
    "save_model",
    "tag_file",
    "top_tags",
]

_LAZY = {
    "tagger": ("Taggram", "compute_taggram", "tag_file", "top_tags"),
    "extractor": ("clip_embedding", "extract"),
}


def __getattr__(name: str):
    """Tagger and extractor names load on first use, so that `python -m
    meltag.tagger` runs a module the package has not imported already."""
    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
