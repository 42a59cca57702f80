"""Exception types shared across the package."""


class SingmatError(Exception):
    """Base class for all singmat errors."""


class NotSquare(SingmatError):
    """Operation requires a square matrix."""


class DimensionMismatch(SingmatError):
    """Operand shapes are incompatible."""


class PairingInfeasible(SingmatError):
    """Cannot place 2*d distinct indices into n slots."""


class KernelTooLarge(SingmatError):
    """Kernel dimension exceeds the enumeration budget."""


class BudgetExceeded(SingmatError):
    """An enumeration or precision budget was exceeded."""


class EmptyVector(SingmatError):
    """Operation requires a nonempty vector."""


class InfeasibleDensity(SingmatError):
    """Requested density is outside the valid range for the model."""


class KernelLiftFailed(SingmatError):
    """The kernel search ended without a lucky prime: a finite prime
    sequence ran out, or the unlucky primes multiplied past the bound
    the matrix sets on them, which only a bug can bring about."""


class CertificateRejected(SingmatError):
    """A freshly produced certificate failed independent verification."""


class SelfCheckFailed(SingmatError):
    """A computed kernel vector failed the exact check run before return."""


class MatrixFormatError(SingmatError):
    """Malformed matrix file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
