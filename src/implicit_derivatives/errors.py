"""Exception types shared across the package, and the one order policy."""

#: Every construction refuses orders above this; the families grow
#: combinatorially and larger orders are a deliberate opt-in (edit here).
HARD_CAP = 30


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class CapError(DomainError):
    """A derivative order is above the hard cap or the caller's cap."""


class FormulaError(ValueError):
    """A formula object is malformed or a serialized formula cannot be parsed."""


class JetError(ValueError):
    """A derivative jet is malformed, of insufficient order, or cannot be parsed."""


class SingularJetError(JetError):
    """The jet has f_y = 0 at the base point, so no implicit function exists."""


class NewtonError(RuntimeError):
    """Newton iteration failed to converge on the implicit equation."""


def check_order(n: int, minimum: int) -> None:
    """Raise :class:`DomainError` below ``minimum``, :class:`CapError` above the cap."""
    if n < minimum:
        raise DomainError(f"order must be at least {minimum}, got {n}")
    if n > HARD_CAP:
        raise CapError(f"order {n} exceeds the hard cap {HARD_CAP}")
