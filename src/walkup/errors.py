"""Exception hierarchy for the toolkit.

Every error raised by the library derives from WalkupError, so callers
(including the CLI) can distinguish bad input from genuine bugs.
"""

from __future__ import annotations


class WalkupError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------- complexes

class InvalidLabel(WalkupError):
    """Vertex label is empty or contains a forbidden character."""


class EmptyInput(WalkupError):
    """No facets were supplied."""


class DuplicateVertexInFacet(WalkupError):
    """A facet lists the same vertex twice."""


class MixedDimensions(WalkupError):
    """Facets of different cardinalities in one pure complex."""


class DuplicateFacet(WalkupError):
    """The same facet appears twice."""


class UnknownVertex(WalkupError):
    """A vertex label outside the complex's vertex set."""


class NotPseudomanifoldWithBoundary(WalkupError):
    """Some ridge lies in more than two facets."""


class EmptyBoundary(WalkupError):
    """Boundary requested of a closed complex."""


class ParseError(WalkupError):
    """Malformed facet-list input; carries a 1-based line (and column)."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


# ------------------------------------------------------------------ homology

class NotClosedPseudomanifold(WalkupError):
    """Operation needs a closed weak pseudomanifold."""


# -------------------------------------------------------------------- theory

class InvalidParameters(WalkupError):
    """Parameters outside the formula's domain."""


class OddDimension(WalkupError):
    """Even dimension required."""


class NonIntegralResult(WalkupError):
    """Closed-form face count came out non-integral; inputs are inconsistent."""


class NotClosedConnected4Manifold(WalkupError):
    """Input is not a closed connected 4-dimensional pseudomanifold."""


# ------------------------------------------------------------------- surgery

class NotAFacet(WalkupError):
    """Referenced facet is not a facet of the complex."""


class NotAdmissible(WalkupError):
    """Bijection moves some vertex to distance < 3."""


class WouldCreateDuplicateFacet(WalkupError):
    """Identification would merge two facets; input is corrupt."""


class NotInducedStandardSphere(WalkupError):
    """Vertex set does not induce a standard sphere."""


class CutValidationFailed(WalkupError):
    """Handle deletion round-trip failed to reproduce the input."""


class NotWalkup(WalkupError):
    """Complex is not a connected member of the Walkup class."""


class DimensionTooLow(WalkupError):
    """Operation requires a higher dimension."""


# ----------------------------------------------------------------- tightness

class SubsetSpaceTooLarge(WalkupError):
    """Exhaustive subset scan requested above the vertex ceiling."""
