"""Typed errors raised across the package.

Every failure mode callers are expected to handle has its own class so that
batch drivers can report machine-readable error kinds.
"""


class MotionSegError(Exception):
    """Base class for all errors raised by this package."""


# -- pixel-grid data --------------------------------------------------------

class DimensionMismatch(MotionSegError):
    """Two per-pixel structures disagree in width/height/channels."""


class NegativeScore(MotionSegError):
    """A score map contains a negative entry."""


class NotNormalized(MotionSegError):
    """A score map pixel does not sum to 1 within tolerance."""


# -- file formats -----------------------------------------------------------

class BadMagic(MotionSegError):
    """File does not start with the expected magic / format marker."""


class TruncatedFile(MotionSegError):
    """File ends before the payload promised by its header."""


class BadDimensions(MotionSegError):
    """Header declares nonpositive or inconsistent dimensions."""


class NonBinaryMask(MotionSegError):
    """A mask file contains a value other than 0 or 255."""


class NonFiniteValue(MotionSegError):
    """A checkpoint holds a NaN or infinite weight."""


class LabelOutOfRange(MotionSegError):
    """A label file contains an index outside the label set."""


class SizeMismatch(MotionSegError):
    """Payload length does not match the header."""


class SchemaError(MotionSegError):
    """Manifest JSON violates the documented schema."""


class EmptyShot(MotionSegError):
    """A manifest shot has no frames."""


class UnknownLabel(MotionSegError):
    """A weak label is missing, is the background class, or is not in the label set."""


# -- model fitting ----------------------------------------------------------

class TooFewSamples(MotionSegError):
    """Fewer samples than mixture components."""


class EmptyForeground(MotionSegError):
    """No foreground pixels available to fit or segment."""


class EmptyBackground(MotionSegError):
    """No background pixels available to fit or segment."""


# -- energies and labelings -------------------------------------------------

class LabelNotAllowed(MotionSegError):
    """A labeling uses a label outside the energy model's allowed set."""


class WrongLabelCount(MotionSegError):
    """Operation requires a specific number of allowed labels."""


class MultiLabelVideo(MotionSegError):
    """Hard assignment and coloc are only defined for single-label videos."""


# -- loss / metrics ---------------------------------------------------------

class ZeroCount(MotionSegError):
    """A class weight was requested for a class with no samples."""


class RangeTooShort(MotionSegError):
    """Frame range shorter than the number of samples requested."""


class NoClasses(MotionSegError):
    """Mean IoU requested but no class has a nonzero union."""


class EmptyList(MotionSegError):
    """CorLoc requested on an empty list of box pairs."""
