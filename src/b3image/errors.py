"""Exception types shared across the package."""


class B3ImageError(ValueError):
    """Base class for input and arithmetic contract violations."""


class ConductorMismatch(B3ImageError):
    """Operands live over different cyclotomic conductors; lift explicitly first."""


class OrderNotDividingConductor(B3ImageError):
    """A root of unity cannot be embedded: its order does not divide the conductor."""


class NotCoprime(B3ImageError):
    """Galois exponent shares a factor with the conductor."""


class DimensionMismatch(B3ImageError):
    """Matrix operands have incompatible shapes."""


class SingularMatrix(B3ImageError):
    """Matrix has no inverse over the field."""


class SingularGenerator(SingularMatrix):
    """A closure generator is not invertible."""


class ZeroMatrix(B3ImageError):
    """The zero matrix has no projective canonical form."""


class InvalidSpec(B3ImageError):
    """Eigenvalue data violates a builder or classifier precondition."""


class InvalidRange(B3ImageError):
    """A builder parameter is outside its valid range."""


class OutOfRange(InvalidRange):
    """A gallery row parameter is outside the family's valid range."""


class MissingParam(B3ImageError):
    """An operation needs the optional spec parameter (sign or gamma) and it is absent."""


class InvalidOrder(B3ImageError):
    """The block-case ratio has a forbidden multiplicative order."""


class NotPO7(B3ImageError):
    """The parity rule applies only to dimension-3 spectra of projective order 7."""


class InternalInconsistency(RuntimeError):
    """A case the decision table proves unreachable was reached; report a bug."""
