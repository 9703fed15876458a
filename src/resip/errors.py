"""Shared exception types.

Every cap violation is a distinct, catchable outcome; nothing is ever
silently treated as "infinite" or "trivial".
"""


class ResipError(Exception):
    """Base class for all library errors."""


class RankMismatch(ResipError):
    """Words or endomorphisms over free groups of different ranks."""


class NotInvertible(ResipError):
    """Integer matrix is not an automorphism of Z^n (det != +-1)."""


class NotInvertibleMod(ResipError):
    """Matrix is not invertible modulo the requested prime power."""


class CapExceeded(ResipError):
    """A configured search cap was hit before an answer was found.

    Signals "raise the cap and retry", never a mathematical verdict.
    """

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what}: cap {cap} exceeded")
        self.what = what
        self.cap = cap


class NotTransitive(ResipError):
    """Cover assignments do not generate the deck group (graph disconnected)."""


class NotInvariant(ResipError):
    """Endomorphism does not preserve the cover subgroup."""


class NotAPGroup(ResipError):
    """Generated finite group order is not a prime power."""


class NotNormal(ResipError):
    """Subgroup fails the required normality check."""


class NotHomomorphism(ResipError):
    """Claimed homomorphism table violates multiplicativity."""


class MixedPrimes(ResipError):
    """Witness combination across different primes."""


class InternalInvariant(ResipError):
    """An internal cross-check between two routes to the same answer
    failed.  Raised explicitly, so it also runs under ``python -O``."""


class NonPPowerOrder(ResipError):
    """The monodromy is not unipotent on H_1 mod p, so its induced order on
    no level-(p, d) Magnus quotient is a power of p."""


class InvalidQ(ResipError):
    """Baumslag-Solitar parameter q must be a positive integer."""


class InvalidSpec(ResipError):
    """Malformed domain object (bad genus, Euler number, dimension, ...)."""


class SchemaError(ResipError):
    """Task file fails schema validation; carries the offending field path."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class RankTooSmall(ResipError):
    """Free-fiber classifier needs a nonabelian fiber (rank >= 2)."""
