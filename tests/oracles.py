"""Brute-force searches the tests hold the closed forms against.

They step through powers one at a time, so they only suit small primes;
the library computes the same numbers without a search, or with a bound
from a theorem.
"""

from typing import Optional

from resip import (
    CapExceeded,
    IntMatrix,
    InvalidSpec,
    ModMatrix,
    NotInvertibleMod,
    SeriesSubstitution,
    TruncatedSeries,
    det_exact,
)
from resip.intlin import _require_prime


def matrix_order_mod(m: IntMatrix, p: int, k: int, cap: Optional[int] = None) -> int:
    """Least e >= 1 with M^e = I mod p^k.

    Requires gcd(det M, p) = 1.  The default cap p^(k * n^2) bounds the
    order of GL_n(Z/p^k); exceeding any cap raises CapExceeded.
    """
    _require_prime(p)
    if k < 1:
        raise InvalidSpec("precision k must be >= 1")
    if det_exact(m) % p == 0:
        raise NotInvertibleMod(f"det divisible by {p}")
    modulus = p ** k
    if cap is None:
        cap = p ** (k * m.n * m.n)
    base = ModMatrix.reduce(m, modulus)
    ident = ModMatrix.identity(m.n, modulus)
    power = base
    for e in range(1, cap + 1):
        if power == ident:
            return e
        power = power * base
    raise CapExceeded("matrix_order_mod", cap)


def sl2_power_by_search(a: IntMatrix, p: int) -> int:
    """Least k >= 1 with p | det(A^k - I), for A in SL_2(Z), by trying
    k = 1, 2, ... up to p(p^2 - 1) on 2x2 matrices of plain ints mod p."""
    (a11, a12), (a21, a22) = a.entries
    b11, b12, b21, b22 = a11 % p, a12 % p, a21 % p, a22 % p  # A^k mod p
    for k in range(1, p * (p * p - 1) + 1):
        if ((b11 - 1) * (b22 - 1) - b12 * b21) % p == 0:
            return k
        b11, b12, b21, b22 = (
            (b11 * a11 + b12 * a21) % p,
            (b11 * a12 + b12 * a22) % p,
            (b21 * a11 + b22 * a21) % p,
            (b21 * a12 + b22 * a22) % p,
        )
    raise AssertionError("no k <= p(p^2 - 1) found")


def induced_order_by_iteration(sub: SeriesSubstitution) -> int:
    """Least m >= 1 with sub^m fixing every 1 + X_i, by applying sub until
    the generator images come back.  There is no bound: the truncated ring
    over F_p is finite, so an automorphism of it has finite order."""
    start = [
        TruncatedSeries.generator_term(sub.rank, sub.degree, i, sub.modulus)
        for i in range(1, sub.rank + 1)
    ]
    current = [sub(s) for s in start]
    order = 1
    while current != start:
        current = [sub(s) for s in current]
        order += 1
    return order
