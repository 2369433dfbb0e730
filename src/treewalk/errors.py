"""Exception types raised across the package."""

from __future__ import annotations


class TreewalkError(Exception):
    """Base class for all package errors."""


class TreeValidationError(TreewalkError):
    """A vertex/edge list does not describe a tree."""


class CycleDetected(TreeValidationError):
    pass


class Disconnected(TreeValidationError):
    pass


class DuplicateEdge(TreeValidationError):
    pass


class SelfLoop(TreeValidationError):
    pass


class VertexOutOfRange(TreeValidationError):
    pass


class TooFewVertices(TreewalkError):
    """A statistic needs more vertices than the tree has."""


class SplitAtLeaf(TreewalkError):
    """v-split requested at a vertex of degree < 2."""


class EntryOutOfRange(TreewalkError):
    """Prufer code entry outside 0..n-1."""


class CapExceeded(TreewalkError):
    """Enumeration request above the configured order cap, or a formula
    audit or family sweep whose trees pass the build budget."""


class ParseError(TreewalkError):
    """Malformed edge-list input; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidFamilyParameters(TreewalkError):
    """Family parameters outside the admissible range."""


class ParityMismatch(TreewalkError):
    """Closed form evaluated with the wrong parity of n or d."""


class OutOfStatedRange(TreewalkError):
    """Closed form evaluated outside its stated (n, d) range."""


class NotALeaf(TreewalkError):
    pass


class WrongNeighbor(TreewalkError):
    pass


class SelfAttach(TreewalkError):
    pass


class DiameterOutOfRange(TreewalkError):
    """Pipeline precondition 3 <= d <= n-2 violated."""


class InvalidWalkParameters(TreewalkError, ValueError):
    """Simulation vertex, walk count or seed outside its range. Also a
    ValueError, the type a bad walk count raised before this class."""


class UnknownClaim(TreewalkError):
    """Audit claim identifier not recognized."""
