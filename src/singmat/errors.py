"""Exception types shared across the package.

This module is the one table of the CLI's failure exit codes: each type
carries its code in ``exit_code``, and ``cli.main`` returns it.  2 is a
usage or input error (the default), 3 an enumeration or precision budget
exceeded, and 4 an internal error: a result failed its own check, or the
kernel search passed its bound on unlucky primes.
"""


class SingmatError(Exception):
    """Base class for all singmat errors."""

    exit_code = 2


class InvalidInput(SingmatError, ValueError):
    """A caller's argument is out of range or malformed."""


class NotSquare(InvalidInput):
    """Operation requires a square matrix."""


class DimensionMismatch(InvalidInput):
    """Operand shapes are incompatible."""


class PairingInfeasible(InvalidInput):
    """Cannot place 2*d distinct indices into n slots."""


class KernelTooLarge(SingmatError):
    """Kernel dimension exceeds the enumeration budget."""

    exit_code = 3


class BudgetExceeded(SingmatError):
    """An enumeration or precision budget was exceeded."""

    exit_code = 3


class EmptyVector(InvalidInput):
    """Operation requires a nonempty vector."""


class InfeasibleDensity(InvalidInput):
    """Requested density is outside the valid range for the model."""


class KernelLiftFailed(SingmatError):
    """The kernel search ended without a lucky prime: a finite prime
    sequence ran out, or the unlucky primes multiplied past the bound
    the matrix sets on them, which only a bug can bring about."""

    exit_code = 4


class CertificateRejected(SingmatError):
    """A freshly produced certificate failed independent verification."""

    exit_code = 4


class SelfCheckFailed(SingmatError):
    """A computed kernel vector failed the exact check run before return."""

    exit_code = 4


class MatrixFormatError(SingmatError):
    """Malformed matrix file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
