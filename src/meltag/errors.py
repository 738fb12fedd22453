"""Exception taxonomy shared by all meltag modules."""


class MeltagError(Exception):
    """Base class for every error raised by this package."""


# --- audio ingestion / DSP ---

class UnsupportedFormatError(MeltagError):
    """WAV format code or sample layout this decoder does not handle."""


class CorruptHeaderError(MeltagError):
    """RIFF/fmt/data chunk structure is missing or inconsistent."""


class EmptyAudioError(MeltagError):
    """Decoded audio contains zero samples."""


class AudioTooShortError(MeltagError):
    """Audio is shorter than one analysis window or one patch."""


class DegenerateBandError(MeltagError):
    """A mel filter has no FFT-bin support (centers crowded into one bin gap)."""


# --- tensor core / architectures ---

class ShapeMismatchError(MeltagError):
    """Operand shapes are inconsistent with the operation's contract."""


class NumericFaultError(MeltagError):
    """An operation produced NaN or Inf."""


class TapeConsumedError(MeltagError):
    """A forward tape was read after backward_batch had consumed it."""


class ConfigInvalidError(MeltagError):
    """A model or DSP configuration violates one of its invariants."""


# --- weight containers / registry ---

class BadMagicError(MeltagError):
    """File does not start with the MCN1 container magic."""


class ManifestCorruptError(MeltagError):
    """Container manifest cannot be parsed or is internally inconsistent."""


class PayloadTruncatedError(MeltagError):
    """Container payload is shorter than the manifest declares."""


class UnknownModelError(MeltagError):
    """Requested name is not in the model registry."""


# --- tagger / extractor ---

class TopNOutOfRangeError(MeltagError):
    """Requested topN is outside 1..n_tags."""


class UnknownFeatureKeyError(MeltagError):
    """Requested feature name is not produced by the model's forward trace."""


# --- transfer learning / metrics ---

class NotFittedError(MeltagError):
    """Estimator method called before fit()."""


class SingleClassError(MeltagError):
    """Classifier training needs at least two classes."""


class DegenerateLabelsError(MeltagError):
    """ROC-AUC needs both a positive and a negative example."""


class NoPositivesError(MeltagError):
    """PR-AUC needs at least one positive example."""


class AllColumnsDegenerateError(MeltagError):
    """No tag column had enough label diversity for the requested metric."""
