"""Exception hierarchy shared across the package.

Three failure families are distinguished so callers (and the CLI exit-code
mapping) can react differently:

* ``DomainError`` -- an argument is outside the mathematical domain of an
  operation (composite modulus, coordinate outside the unit cube, zero
  denominator, ...).
* ``AdmissibilityError`` -- a structural divisibility requirement fails,
  e.g. the subgroup construction needs ``2d | n - 1``.
* ``SizeLimitError`` -- a deliberately guarded brute-force path was asked
  to run at a size it refuses.

Two private guards are shared across the package: ``_require_memory``
raises ``SizeLimitError`` before an allocation larger than physical memory,
and ``_at_least`` raises ``DomainError`` for an int argument below its limit.
"""

import operator
import os

__all__ = ["DomainError", "AdmissibilityError", "SizeLimitError"]


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class AdmissibilityError(ValueError):
    """A divisibility / admissibility precondition does not hold."""


class SizeLimitError(RuntimeError):
    """A guarded brute-force computation exceeds its size cap."""


def _physical_memory() -> "int | None":
    """Bytes of physical memory, or None where ``os.sysconf`` cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _require_memory(nbytes: int, what: str) -> None:
    """Raise ``SizeLimitError`` when ``nbytes`` exceed physical memory."""
    mem = _physical_memory()
    if mem is not None and nbytes > mem:
        raise SizeLimitError(
            f"{what} needs {nbytes / 2**30:.1f} GiB, "
            f"more than the {mem / 2**30:.1f} GiB of physical memory"
        )


def _at_least(value: int, low: int, name: str) -> int:
    """``value`` as an int; raise ``DomainError`` when it is below ``low``."""
    value = operator.index(value)
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    return value
