"""Exception types shared across the package."""


class JspecError(Exception):
    """Base class for all package-specific errors."""


class AlgebraMismatchError(JspecError):
    """Two operands live on different algebra descriptors."""


class DegenerateInputError(JspecError):
    """An input is zero / non-invertible where the operation needs otherwise."""


class NonFiniteInputError(JspecError):
    """An element or map holds a NaN or infinite entry."""


class UnsupportedCaseError(JspecError):
    """No closed form or bound is known for the requested combination."""


class DescriptorError(JspecError):
    """Malformed algebra descriptor string."""


class ReportError(JspecError):
    """A report file could not be read or written, or failed schema or
    checksum validation."""
