"""Exception types shared across the package."""


class TermAlgError(Exception):
    """Base class for all domain errors."""


class InvalidPositionError(TermAlgError):
    """A position does not address a node of the given term."""


class MalformedArraysError(TermAlgError):
    """Position/variable arrays do not describe a full binary tree."""


class NestedPatternsError(TermAlgError):
    """Simultaneous replacement patterns are nested in one another."""


class IncomparablePositionsError(TermAlgError):
    """A position tuple contains two prefix-comparable positions."""


class UndecidedError(TermAlgError):
    """An equivalence or essentiality query came back Unknown.

    Carries the failing sub-query so callers can report or count it.
    """

    def __init__(self, message, query=None):
        super().__init__(message)
        self.query = query


class NotReducibleError(TermAlgError):
    """The given pair is not a reducible pair of the term."""


class NotRemovableError(TermAlgError):
    """The given position is not removable in the term."""


class NonOrientableError(TermAlgError):
    """A rule cannot be oriented into a size-decreasing rewrite."""


class SideConditionError(TermAlgError):
    """A derivation rule's side condition failed; names the condition."""


class MissingAssignmentError(TermAlgError):
    """Term evaluation hit a variable without an assigned value."""


class ModelSearchLimitError(TermAlgError):
    """Exhaustive finite-model search was asked for a carrier too large to scan."""


class BoundsError(TermAlgError, ValueError):
    """A search or sweep bound lies outside its allowed range."""


class ParseError(TermAlgError):
    """Bad term, position, or file syntax."""
