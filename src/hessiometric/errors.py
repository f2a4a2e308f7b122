"""Exception hierarchy shared across the package."""


class HessiometricError(Exception):
    """Base class for all errors raised by this package.  ``exit_code`` is
    the command line's exit status for it: 2, a model or usage error."""

    exit_code = 2


class DomainError(HessiometricError):
    """A point or argument lies outside the admissible domain
    (non-positive argument to ln/sqrt, division by zero, point
    violating a model's domain constraints).  Exit status 3."""

    exit_code = 3


class ExprSyntaxError(HessiometricError):
    """Expression text could not be parsed.  Carries the byte offset
    of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(HessiometricError):
    """An expression references names that are neither declared
    variables nor parameters."""

    def __init__(self, names):
        super().__init__("unknown identifier(s): " + ", ".join(sorted(names)))
        self.names = tuple(sorted(names))


class ModelSchemaError(HessiometricError):
    """A model document does not conform to the on-disk schema."""


class RankDeficientError(HessiometricError):
    """Slice constraint matrix does not have full row rank."""


class DegenerateSliceError(HessiometricError):
    """The pulled-back metric on a slice is singular (the slice is not
    transversal to the kernel of the ambient metric)."""


class SingularDualChartError(HessiometricError):
    """The dual-coordinate map is not locally invertible at the
    requested point."""
