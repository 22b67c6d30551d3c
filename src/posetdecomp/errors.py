"""Exception types shared across the package, and the one size-cap refusal.

The CLI maps these onto exit codes: FormatError and CycleError mean the input
file was bad (exit 2), ScopeExceededError means a size cap refused the work
(exit 3), CheckFailure means a verified statement actually failed on a
concrete witness (exit 1).

Every size cap refuses through `refuse_above`, so a cap means the same thing
everywhere: the size is compared with the cap, cap=None lifts it, and the
refusal is a ScopeExceededError whose message names the work, the cap and the
size.  The cut enumeration cap bounds a product of chain lengths, not a size,
and raises its own message.
"""


class PosetError(Exception):
    """Base class for all errors raised by this package."""


class UnknownElementError(PosetError, KeyError):
    """An element label that is not part of the poset."""


class CycleError(PosetError, ValueError):
    """Cover relations contain a directed cycle; `cycle` is a witness."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cover relations contain a cycle: " + " < ".join(map(str, self.cycle + self.cycle[:1])))


class InvalidDecompositionError(PosetError, ValueError):
    """A family of element sets is not a partition of the poset into chains."""


class NotHomogeneousError(PosetError, ValueError):
    """A chain decomposition whose chain pairs mix comparable and incomparable elements."""


class ScatteringError(PosetError, ValueError):
    """An automorphism mapped one chain into several chains of the decomposition."""


class ScopeExceededError(PosetError, ValueError):
    """Input larger than a brute-force cap; pass cap=None (CLI: --unsafe-scope) to force."""


def refuse_negative(name: str, size: int) -> None:
    """Raise ValueError when a size is negative."""
    if size < 0:
        raise ValueError(f"{name} must be >= 0 (got {size})")


def refuse_density(density: float) -> None:
    """Raise ValueError unless 0 <= density <= 1 (NaN is refused too)."""
    if not 0 <= density <= 1:
        raise ValueError(f"density must be in [0, 1] (got {density})")


def refuse_above(what: str, cap: int | None, got: int, unit: str = "n") -> None:
    """Raise ScopeExceededError when got > cap; cap=None lifts the cap."""
    if cap is not None and got > cap:
        raise ScopeExceededError(f"{what} capped at {unit} <= {cap} (got {unit} = {got})")


class InternalInconsistencyError(PosetError, RuntimeError):
    """A structural property guaranteed by construction failed; always a bug."""


class FormatError(PosetError, ValueError):
    """Malformed poset text; `line` is the 1-based offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


class CheckFailure(PosetError, AssertionError):
    """A verified theorem statement failed; `witness` describes the instance."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message if witness is None else f"{message} (witness: {witness!r})")
