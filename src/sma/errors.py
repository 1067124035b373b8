"""Exception hierarchy shared across the package."""


class SmaError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(SmaError):
    """Malformed input file or JSON document."""


class InvalidRelation(SmaError):
    """Relation is not reflexive and transitive."""


class InvalidOverride(SmaError):
    """Class order override is not an admissible linear extension."""


class FieldMismatch(SmaError):
    """Operands belong to different scalar fields."""


class PatternMismatch(SmaError):
    """Operands are constrained by different relations."""


class OffPattern(SmaError):
    """A matrix entry is nonzero outside the governing relation."""


class Singular(SmaError):
    """Matrix has no inverse."""


class DomainMismatch(SmaError):
    """Values are missing for some relation pairs, or given for pairs outside it."""


class NotTransitive(SmaError):
    """Scaling function violates the multiplicative chain property."""


class NotRelationAutomorphism(SmaError):
    """Permutation does not preserve the relation."""


class Mismatch(SmaError):
    """Objects built over different relations or fields were combined."""


class NotAutomorphism(SmaError):
    """Map is not an algebra automorphism."""


class NotSemisimple(SmaError):
    """Relation is not symmetric, so the algebra is not semisimple."""


class BoundExceeded(SmaError):
    """Instance is larger than the configured enumeration bound."""
