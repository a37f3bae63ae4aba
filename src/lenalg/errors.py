"""Error types shared across the package.

Every error raised by the library derives from LenalgError so callers can
catch the whole family at once.  Names double as stable error codes in CLI
output.
"""


class LenalgError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LenalgError):
    """Vectors or matrices with inconsistent dimensions were combined."""


class SingularMatrix(LenalgError):
    """A basis-change matrix is not invertible."""


class InvalidIdentity(LenalgError):
    """The claimed identity vector does not act as a two-sided identity."""


class NonPrimeModulus(LenalgError):
    """The characteristic p of a finite field spec is not prime."""


class ReducibleModulus(LenalgError):
    """The extension-field modulus polynomial factors over F_p."""


class UnsupportedExtension(LenalgError):
    """The requested finite field is larger than the configured bound."""


class CharacteristicTwo(LenalgError):
    """Operation requires characteristic != 2 (division by two, etc.)."""


class CharacteristicNotTwo(LenalgError):
    """Operation is only defined in characteristic 2."""


class InfiniteFieldUnsupported(LenalgError):
    """Exhaustive enumeration was requested over an infinite field."""


class BudgetExceeded(LenalgError):
    """Estimated enumeration work exceeds the configured budget."""


class CapExceeded(LenalgError):
    """Word-span iteration ran past its provable stabilization cap.

    This signals an implementation bug, never a mathematical possibility.
    """


class ModeCharacteristicMismatch(LenalgError):
    """Generator mode is incompatible with the field characteristic or dim."""


class UnknownFixture(LenalgError):
    """No fixture with the requested name is registered."""


class NoIdentityError(LenalgError):
    """The table has no two-sided identity and adjoining one was not allowed."""


class SchemaError(LenalgError):
    """An algebra document does not match the expected JSON shape."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ScalarSyntaxError(SchemaError):
    """A scalar string in a document failed to parse for the chosen field."""


class AssemblyError(LenalgError):
    """Internal consistency check failed while assembling a certificate.

    Indicates a bug in the decision procedure, never a property of the input.
    """
