"""Exception types shared across the package, the one wrong-type rule, and ``located``."""

from collections.abc import Iterable

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
    """A model admits no feasible point; not raised, since every deviation LP has one."""


class IterationLimitError(RuntimeError):
    """The LP solver exhausted its pivot budget."""


class ParseError(ValueError):
    """A problem file is structurally malformed."""


def located(where: str, build, *args):
    """``build(*args)``, with a refusal's or pivot-budget error's message prefixed by ``where``."""
    try:
        return build(*args)
    except (ValidationError, ParseError, IterationLimitError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _expect(value, types, where: str, noun: str):
    """``value`` if it is an instance of ``types``; otherwise the one wrong-type refusal.

    Every public door refuses an argument of the wrong type with
    ``ValidationError("<where>: expected <noun>, got <type name>")``.  A bool
    is never accepted: no door takes one, and it is not a number.
    """
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValidationError(f"{where}: expected {noun}, got {type(value).__name__}")
    return value


def _items(value, where: str) -> tuple:
    """``tuple(value)``; a value that is not ``Iterable`` is refused as ``a sequence``.

    So is a 0-d array, which claims to be ``Iterable`` but raises when iterated.
    """
    iterable = () if getattr(value, "ndim", None) == 0 else Iterable
    return tuple(_expect(value, iterable, where, "a sequence"))
