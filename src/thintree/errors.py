"""Exception hierarchy for the thintree package.

Every failure mode that callers are expected to handle gets its own class so
tests can assert on the precise condition.  All of them derive from
:class:`ThinTreeError`.
"""


class ThinTreeError(Exception):
    """Base class for all package errors."""


class InvalidInputError(ThinTreeError, ValueError):
    """An argument is outside what the operation accepts: too few vertices,
    a non-positive or too small denominator, a graph without costs."""


# --- embedding construction / queries ---

class MalformedRotationError(ThinTreeError):
    """A dart is repeated or missing in the per-vertex rotations."""


class BadTwinError(ThinTreeError):
    """Twin pairs do not form the canonical fixed-point-free involution."""


class OddEulerDefectError(ThinTreeError):
    """V - E + F - 2*components came out odd: rotation data is corrupted."""


class DisconnectedError(ThinTreeError):
    """Operation requires a connected graph."""


# --- dual queries ---

class NoCycleError(ThinTreeError):
    """The dual graph is a forest, so it has no girth."""


class EdgeAbsentError(ThinTreeError, ValueError):
    """Queried or deleted edge id is not present in the graph."""


class DualMismatchError(InvalidInputError):
    """A dual handed in with a graph has another face or edge count than
    the graph: it is the dual of some other graph."""


# --- thread selection ---

class DegreeOneVertexError(ThinTreeError):
    """find_threads requires every face of the dual graph to have degree 0
    or at least 2."""


class NoLongThreadError(ThinTreeError):
    """No sufficiently long thread exists; signals an internal invariant bug."""


# --- surgery ---

class DichotomyViolationError(ThinTreeError):
    """Deleting a dual cycle neither lowered genus nor split a component."""


class NotEdgeConnectedError(ThinTreeError):
    """Measured edge connectivity is below the requested k."""


class ZeroGenusError(ThinTreeError):
    """Surgery was asked to run on a genus-zero embedding."""


# --- pipeline ---

class ExtractionFailureError(ThinTreeError):
    """Residual connectivity dropped below the extraction schedule."""


# --- LP / rounding ---

class InfeasibleError(ThinTreeError):
    """The LP has no feasible solution (impossible for valid instances)."""


class IterationLimitError(ThinTreeError):
    """Cutting-plane loop exceeded its iteration budget."""


class DualCertificateError(ThinTreeError):
    """The Held-Karp duals do not prove the LP value optimal."""


class ConnectivityShortfallError(ThinTreeError):
    """Discretized multigraph is less connected than the rounding guarantee."""


class CirculationInfeasibleError(ThinTreeError):
    """No integral circulation respects the tree lower bounds; the thinness
    certificate that promised feasibility was wrong."""


class CostBoundViolatedError(ThinTreeError):
    """The rounded tour exceeded its certified cost bound."""


class EmbeddingMismatchError(ThinTreeError):
    """Supplied embedding does not cover the LP support."""


# --- oracle ---

class TooLargeError(ThinTreeError):
    """Instance exceeds the brute-force oracle's size budget."""


class NotHamiltonianError(ThinTreeError):
    """Claimed tour does not visit every vertex exactly once."""


class ThinnessBoundViolatedError(ThinTreeError):
    """An edge set is thicker, over some cut, than the thinness bound its
    tree file claims."""


# --- generators / file formats ---

class BadParamsError(ThinTreeError):
    """Generator parameters are out of range."""


class FormatError(ThinTreeError):
    """Malformed EMB/1 or ATSP/1 input, including unknown directives."""
