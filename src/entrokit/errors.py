"""Typed errors shared across the toolkit.

Every guard or contract failure raises one of these, so callers (and the
CLI exit-code mapping) can tell validation problems apart from feasibility
guards and data corruption.
"""

from __future__ import annotations


class EntrokitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(EntrokitError):
    """A model/config file or argument violates its declared invariants."""


class NonErgodicError(ValidationError):
    """Context chain is reducible or periodic."""


class BadContextError(ValidationError):
    """Conditioning context has the wrong length or unknown symbols."""


class BadDeltaError(ValidationError):
    """delta outside (0, 1]."""


class WindowTooShortError(ValidationError):
    """Conditioning window W shorter than the requested gap."""


class TooShortError(ValidationError):
    """Sequence shorter than the block order m."""


class TooLargeError(EntrokitError):
    """Brute-force enumeration guard tripped (l**d too large)."""


class GuardExceededError(EntrokitError):
    """Feasibility guard tripped (header size, matrix size, ...)."""


class InfeasibleError(EntrokitError):
    """Block-frequency descriptor admits no sequence (type class empty)."""


class IndexOutOfRangeError(EntrokitError):
    """Enumerative index is outside [0, type_class_size)."""


class CorruptError(EntrokitError):
    """Codeword cannot be decoded (truncated, inconsistent, or junk)."""


class ZeroProbabilityBlockError(EntrokitError):
    """A block with positive empirical count has zero model probability."""


class NotStableError(EntrokitError):
    """Some conditional probability is zero, so the stability coefficient is infinite."""


class BelowThresholdError(EntrokitError):
    """Concentration bound requested at t at or below its validity threshold."""


class EmptySampleError(ValidationError):
    """Statistic requested on an empty sample."""
