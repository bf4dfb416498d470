"""Exception hierarchy shared by all steinerloops modules."""


class SteinerError(Exception):
    """Base class for all library errors."""


class ValidationError(SteinerError):
    """Input data violates a structural invariant."""


class NotAdmissible(ValidationError):
    def __init__(self, v):
        super().__init__(f"order {v} is not admissible (need v == 1 or 3 mod 6)")
        self.v = v


class BadTriple(ValidationError):
    def __init__(self, triple, reason="repeated or out-of-range point"):
        super().__init__(f"bad triple {tuple(triple)}: {reason}")
        self.triple = tuple(triple)


class PairMissing(ValidationError):
    def __init__(self, x, y):
        super().__init__(f"pair ({x},{y}) is covered by no triple")
        self.pair = (x, y)


class PairDuplicated(ValidationError):
    def __init__(self, x, y):
        super().__init__(f"pair ({x},{y}) is covered by more than one triple")
        self.pair = (x, y)


class NotTotallySymmetric(ValidationError):
    """Multiplication table fails a Steiner-loop axiom."""


class NotASubloop(ValidationError):
    pass


class NotASubsystem(ValidationError):
    pass


class NotNormal(SteinerError):
    pass


class NotCentral(SteinerError):
    pass


class ElementInsideN(SteinerError):
    pass


class OrderTooSmall(SteinerError):
    pass


class BoundExceeded(SteinerError):
    """A configured search or enumeration bound would be exceeded."""


class NotAutomorphism(SteinerError):
    pass


class UnknownKey(SteinerError):
    def __init__(self, key):
        super().__init__(f"unknown catalog key {key!r}")
        self.key = key


class OperatorError(SteinerError):
    """Base class for Latin-square operator violations."""


class NotLatin(OperatorError):
    def __init__(self, p, q):
        super().__init__(f"block ({p},{q}) is not a Latin square")
        self.block = (p, q)


class BadIdentityBlock(OperatorError):
    pass


class TransposeViolation(OperatorError):
    def __init__(self, p, q):
        super().__init__(f"blocks ({p},{q}) and ({q},{p}) are not transposes")
        self.block = (p, q)


class DiagonalViolation(OperatorError):
    def __init__(self, p):
        super().__init__(f"diagonal block ({p},{p}) has a non-identity diagonal entry")
        self.block = (p, p)


class TotalSymmetryViolation(OperatorError):
    def __init__(self, p, q):
        super().__init__(f"blocks at ({p},{q}) break the cancellation condition")
        self.block = (p, q)


class Incompletable(OperatorError):
    def __init__(self, p, q, reason="derived block is not Latin"):
        super().__init__(f"cannot complete operator at block ({p},{q}): {reason}")
        self.block = (p, q)


class NotSymmetric(ValidationError):
    pass


class BadDiagonal(ValidationError):
    pass


class BadSection(SteinerError):
    pass


class ShapeMismatch(SteinerError):
    pass


class FormatError(ValidationError):
    """A file does not parse as the expected text format."""
