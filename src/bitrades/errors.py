"""Exception types shared across the package."""


class BitradesError(Exception):
    """Base class for all errors raised by this package."""


class GroupError(BitradesError):
    """Domain error in group arithmetic (mixed operands, bad parameters)."""


class ParseError(BitradesError):
    """Malformed textual input (cycle notation, group specs, documents).

    ``position`` is the character offset of the offending token when the
    input is a single string, else None.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class ValidationError(BitradesError):
    """A named structural condition failed.

    ``condition`` is the short code of the violated condition (P1, P2,
    R1-R3, Q1-Q3, G1, G2, "separated", ...); ``witness`` carries the
    offending labels/triples; ``violations`` lists every recorded failure
    as (condition, witness, message) when the caller checked more than one.
    """

    def __init__(self, condition, message, witness=None, violations=None):
        super().__init__(f"{condition}: {message}")
        self.condition = condition
        self.witness = witness
        self.violations = violations or [(condition, witness, message)]


class ConsistencyError(BitradesError):
    """Two computations that must agree did not: a scan and its group
    criterion, the orbit and the definitional primality search, thin and
    primary against the minimality oracle, the integer check of a mate
    square rejecting a pair that the label check accepts, a conjugate
    subgroup of another order, or a thin criterion missing a trivial
    solution.  This is a defect in the package, not in the input, and
    unlike an ``assert`` it is raised under ``python -O`` too."""


class ResourceCapError(BitradesError):
    """An enumeration or search exceeded its configured cap."""

    def __init__(self, message, cap):
        super().__init__(f"{message} (cap: {cap})")
        self.cap = cap
