"""Exception types shared across the package, and the one helper that locates them."""

__all__ = [
    "ValidationError",
    "SizeLimitError",
    "OutOfUnitIntervalError",
    "NotConsistentError",
    "InfeasibleError",
    "IterationLimitError",
    "ParseError",
]


class ValidationError(ValueError):
    """A domain object violates one of its structural invariants."""


class SizeLimitError(ValidationError):
    """A problem exceeds a documented size limit."""


class OutOfUnitIntervalError(ValidationError):
    """A reconstructed relation entry would leave the unit interval."""


class NotConsistentError(ValueError):
    """An operation requiring a consistent relation received an inconsistent one."""


class InfeasibleError(RuntimeError):
    """The optimization model admits no feasible point."""


class IterationLimitError(RuntimeError):
    """The LP solver exhausted its pivot budget."""


class ParseError(ValueError):
    """A problem file is structurally malformed."""


def located(where: str, build, *args):
    """``build(*args)``, with a ValidationError's or ParseError's message prefixed by ``where``."""
    try:
        return build(*args)
    except (ValidationError, ParseError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc
