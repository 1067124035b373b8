"""Exception hierarchy shared across the package."""


class SmaError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(SmaError):
    """Malformed input file or JSON document."""


class InvalidRelation(SmaError):
    """Relation is not reflexive and transitive."""


class InvalidOverride(SmaError):
    """Class order override is not an admissible linear extension."""


class OffPattern(SmaError):
    """A matrix entry is nonzero outside the governing relation."""


class Singular(SmaError):
    """Matrix has no inverse."""


class NotTransitive(SmaError):
    """Scaling function violates the multiplicative chain property."""


class NotRelationAutomorphism(SmaError):
    """Permutation does not preserve the relation."""


class Mismatch(SmaError):
    """Operands disagree: they are over different fields or relations, or
    values are missing for some relation pairs or given for pairs outside it."""


class NotAutomorphism(SmaError):
    """Map is not an algebra automorphism."""


class BoundExceeded(SmaError):
    """Instance is larger than the configured enumeration bound."""
