"""Exception types shared across the package.

This module is the one table of the CLI's failure exit codes: each type
carries its code in ``exit_code``, and ``cli.main`` returns it.  2 is a
usage or input error (the default), 3 an enumeration or precision budget
exceeded, and 4 an internal error: a result failed its own check, or the
kernel search passed its bound on unlucky primes.

``check_int`` is the one integer rule: it refuses a bool, a non-integer
or an out-of-range count, size, weight, modulus or seed (seeds lie in
[0, 2**64), since the generator would alias a seed mod 2**64).
"""

import numbers


class SingmatError(Exception):
    """Base class for all singmat errors."""

    exit_code = 2


class InvalidInput(SingmatError, ValueError):
    """A caller's argument is out of range or malformed."""


def check_int(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Refuse a bool, a non-integer, or an integer outside [low, high); a missing bound is none."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{name} must be an integer, not {value!r}")
    if high is None and low is not None and value < low:
        raise InvalidInput(f"{name} must be >= {low}, not {value}")
    if high is not None and not low <= value < high:
        what = "a 64-bit unsigned integer" if (low, high) == (0, 1 << 64) else f"in [{low}, {high - 1}]"
        raise InvalidInput(f"{name} must be {what}, not {value}")


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
