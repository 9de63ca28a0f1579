"""Exception hierarchy shared by every gaitview module."""


class GaitViewError(Exception):
    """Base class for all gaitview errors."""


# --- signal errors ---

class DegenerateSignal(GaitViewError):
    """Signal too short (or empty) for the requested operation."""


class ConstantSignal(GaitViewError):
    """Zero-variance (or zero-range) signal where variation is required."""


class LengthMismatch(GaitViewError):
    """Two signals were required to have equal length but do not."""


# --- ingest errors ---

class ParseError(GaitViewError):
    def __init__(self, line: int, column: int, reason: str, path=None):
        self.line = line
        self.column = column
        self.reason = reason
        self.path = path
        where = f"line {line}, column {column}"
        super().__init__(f"{path}: {where}: {reason}" if path else f"{where}: {reason}")


class SchemaError(GaitViewError):
    """Value violates the declared CSV schema (unknown name, out-of-range field)."""


class DuplicateError(GaitViewError):
    """Duplicate (frame, keypoint) or (frame, marker) row."""


class GapTooLarge(GaitViewError):
    def __init__(self, keypoint: str, frame_range: tuple):
        self.keypoint = keypoint
        self.frame_range = frame_range
        super().__init__(f"gap for {keypoint!r} spanning frames {frame_range} cannot be repaired")


# --- filtering errors ---

class InvalidFilterSpec(GaitViewError):
    """Filter specification violates its invariants (e.g. cutoff at/above Nyquist)."""


class SignalTooShort(GaitViewError):
    """Signal shorter than the filter's padding requirement."""


# --- feature errors ---

class MissingLandmark(GaitViewError):
    """A landmark required by a feature is absent from the sequence."""


class NoWalkingDirection(GaitViewError):
    """Hip midpoint shows no net displacement; walking axis undefined."""


class DegenerateGeometry(GaitViewError):
    """Zero-length segment where an angle or direction is required."""


class FeatureError(GaitViewError):
    """Wraps a per-feature failure with the feature and side it occurred in."""

    def __init__(self, feature: str, side: str, cause: Exception):
        self.feature = feature
        self.side = side
        self.cause = cause
        super().__init__(f"({feature}, {side}): {cause}")


# --- metric errors ---

class MetricError(GaitViewError):
    """Wraps a metric failure with the (subject, trial, feature, side, view)
    it occurred in."""

    def __init__(self, subject: int, trial: int, feature: str, side: str, view: str,
                 cause: Exception):
        self.subject = subject
        self.trial = trial
        self.feature = feature
        self.side = side
        self.view = view
        self.cause = cause
        super().__init__(
            f"(subject {subject}, trial {trial}, {feature}, {side}, {view}): {cause}"
        )


# --- stats errors ---

class AllZeroDifferences(GaitViewError):
    """Every paired difference is zero; the signed-rank test is undefined."""


class EmptySample(GaitViewError):
    """An empty sample where at least one observation is required."""


class UnpairedSubject(GaitViewError):
    """A subject is missing one of the two views being compared."""


# --- dimensionality-reduction errors ---

class DegenerateMatrix(GaitViewError):
    """All-constant matrix: no variance to decompose."""


# --- synthesis errors ---

class BehindCamera(GaitViewError):
    def __init__(self, frame: int, marker: str):
        self.frame = frame
        self.marker = marker
        super().__init__(f"marker {marker!r} at or behind the camera plane in frame {frame}")


# --- cli errors ---

class InputFileError(GaitViewError):
    """Wraps a failure while one input file is parsed, gap-filled, filtered
    or feature-extracted, with the (subject, trial, view) and file it came from."""

    def __init__(self, subject: int, trial: int, view: str, path, cause: Exception):
        self.subject = subject
        self.trial = trial
        self.view = view
        self.path = path
        self.cause = cause
        super().__init__(f"(subject {subject}, trial {trial}, {view}, {path}): {cause}")


class NotAnalyzed(GaitViewError):
    """Recommendation requested before an analyze run produced outputs."""
