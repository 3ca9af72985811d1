"""Exception hierarchy shared across the package."""


class CrossmodalError(Exception):
    """Base class for all errors raised by this package."""


class CorpusFormatError(CrossmodalError):
    """A corpus file is malformed or violates a data invariant."""


class VocabularyError(CrossmodalError):
    """Vocabulary construction failed (e.g. no terms survive)."""


class EmptySequenceError(CrossmodalError):
    """A query sentence has no in-vocabulary term, so ``query`` has nothing to score."""


class ZeroNormError(CrossmodalError):
    """An embedding has zero norm and cannot be cosine-scored; for a split, every pair had one."""


class NonFiniteGradientError(CrossmodalError):
    """A gradient, or an embedding it comes from, contained NaN or inf; the epoch must abort."""


class CheckpointVersionError(CrossmodalError):
    """The checkpoint was written with an unsupported format version."""


class CheckpointCorruptError(CrossmodalError):
    """The checkpoint file is truncated or fails its integrity check."""


class ConfigError(CrossmodalError, ValueError):
    """A run configuration value is missing or invalid; also a ValueError, like JSONDecodeError."""
