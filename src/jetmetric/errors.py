"""Error taxonomy shared by all jetmetric modules.

Every failure mode that callers are expected to handle gets its own class so
the CLI can report a stable ``type`` string.  All of them derive from
:class:`JetMetricError`.
"""

from __future__ import annotations


class JetMetricError(Exception):
    """Base class for all errors raised by this package."""


class FieldError(JetMetricError):
    """Invalid field description (non-prime p, reducible minpoly, bad base change)."""


class FieldMismatchError(JetMetricError):
    """Two operands live over different coefficient fields."""


class CrossCharacteristicError(FieldMismatchError):
    """Comparison across different characteristics is rejected outright."""


class PresentationSyntaxError(JetMetricError):
    """Parse error in the presentation grammar, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class GradingError(JetMetricError):
    """A graded presentation contains a non-homogeneous ideal generator."""


class NonHomogeneousError(JetMetricError):
    """A graded-component computation was fed a generator mixing degrees."""


class ConstantTermError(JetMetricError):
    """An ideal generator or tuple entry has a nonzero constant term."""


class RangeError(JetMetricError):
    """A number outside its admissible range: a family template's parameter
    or range, a jet, deformation or maximum order, a search budget, a family
    tail, or a homological cap."""


class CapacityError(JetMetricError):
    """A computation would exceed the configured capacity: a truncated
    quotient, the leading-ideal engine's span, a family's size, a slope
    trace's size, a Hilbert series prefix's length or a Hilbert numerator's
    degree."""

    def __init__(self, needed: int, cap: int, context: str = "",
                 what: str = "jet dimension"):
        msg = f"{what} {needed} exceeds capacity {cap}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.needed = needed
        self.cap = cap


class ZeroRingError(JetMetricError):
    """Operation undefined on the zero ring (order-0 jet)."""


class NotPrimaryError(JetMetricError):
    """Deformation tuple does not generate an ideal primary to the maximal ideal."""


class TupleError(JetMetricError):
    """Deformation-pair operation on a presentation without a tuple."""


class NilpotencyOneError(JetMetricError):
    """delta0 is undefined on fields (nilpotency index 1)."""


class DimensionZeroError(JetMetricError):
    """rho / quasi-dimension require positive Krull dimension."""


class PrefixTooShortError(JetMetricError):
    """Series prefix too short to certify the rational form."""


class PoleOrderZeroError(JetMetricError):
    """Euler characteristic of an empty scheme (Artinian section ring)."""


class WindowTooSmallError(JetMetricError):
    """A jet window has fewer than three orders, or starts below order 0, to
    check the Hilbert-Samuel polynomial on."""


class NotStabilizedError(JetMetricError):
    """A family of jets failed to stabilize: a tail jet is not isomorphic to
    the last."""


class UnknownStabilizationError(JetMetricError):
    """Family-limit tail verdicts came back UNKNOWN, so stabilization is undecided."""


class InternalInconsistencyError(JetMetricError):
    """A result failed its own check, such as a witness pushed down to a lower
    order that does not verify there: an engine fault, not an input error."""
