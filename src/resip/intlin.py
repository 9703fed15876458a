"""Exact integer and modular linear algebra.

Everything here is bit-exact: Python integers only, no floating point.
Determinants use fraction-free Bareiss elimination, characteristic
polynomials the division-free Berkowitz scheme, and lattice indices go
through Hermite/Smith normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import sympy
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from .errors import CapExceeded, InternalInvariant, InvalidSpec, NotInvertibleMod


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square matrix of arbitrary-precision integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise InvalidSpec("dimension 0 matrix rejected")
        if any(len(row) != n for row in self.entries):
            raise InvalidSpec("matrix must be square")
        if any(not isinstance(x, int) for row in self.entries for x in row):
            raise InvalidSpec("entries must be exact integers")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        # int(x) admits exact types like sympy Integer; floats are refused
        # rather than silently truncated
        materialized = [list(row) for row in rows]
        if any(isinstance(x, float) for row in materialized for x in row):
            raise InvalidSpec("matrix entries must be exact integers")
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in materialized))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def n(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_dim(other)
        return IntMatrix.from_rows(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_dim(other)
        return IntMatrix.from_rows(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_dim(other)
        n = self.n
        cols = list(zip(*other.entries))
        return IntMatrix.from_rows(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.entries
            ]
        )

    def __pow__(self, k: int) -> "IntMatrix":
        if k < 0:
            raise InvalidSpec("negative powers of IntMatrix are not defined")
        result = IntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def minus_identity(self) -> "IntMatrix":
        return self - IntMatrix.identity(self.n)

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.n))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def _check_dim(self, other: "IntMatrix") -> None:
        if self.n != other.n:
            raise InvalidSpec("matrix dimensions differ")


@dataclass(frozen=True)
class ModMatrix:
    """Square matrix over Z/m with m a prime power >= 2; entries reduced."""

    modulus: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise InvalidSpec("modulus must be >= 2")
        if not _is_prime_power(self.modulus):
            raise InvalidSpec(f"modulus {self.modulus} is not a prime power")
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise InvalidSpec("matrix must be square and nonempty")
        if any(not (0 <= x < self.modulus) for row in self.entries for x in row):
            raise InvalidSpec("entries must be reduced mod the modulus")

    @staticmethod
    def reduce(m: IntMatrix, modulus: int) -> "ModMatrix":
        return ModMatrix(
            modulus, tuple(tuple(x % modulus for x in row) for row in m.entries)
        )

    @staticmethod
    def identity(n: int, modulus: int) -> "ModMatrix":
        return ModMatrix.reduce(IntMatrix.identity(n), modulus)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __mul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.modulus != other.modulus or self.n != other.n:
            raise InvalidSpec("modulus or dimension mismatch")
        m = self.modulus
        cols = list(zip(*other.entries))
        return ModMatrix(
            m,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) % m for col in cols)
                for row in self.entries
            ),
        )

    def __pow__(self, k: int) -> "ModMatrix":
        if k < 0:
            raise InvalidSpec("negative powers not supported, invert explicitly")
        result = ModMatrix.identity(self.n, self.modulus)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return self == ModMatrix.identity(self.n, self.modulus)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


@lru_cache(maxsize=32)
def _is_prime_power(m: int) -> bool:
    # memoised: every ModMatrix product validates its modulus again
    factors = sympy.factorint(m)
    return len(factors) == 1


def det_exact(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = m.n
    a = m.rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division: Sylvester identity guarantees divisibility.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def charpoly_exact(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients of det(xI - M), monic, descending powers of x.

    Uses Berkowitz's division-free algorithm, so all intermediate values
    stay integral.
    """
    n = m.n
    a = m.entries
    coeffs = [1]
    for k in range(n):
        # Toeplitz column for the k-th leading principal submatrix step:
        # [1, -a_kk, -R C, -R M C, -R M^2 C, ...]
        row = list(a[k][:k])
        col = [a[i][k] for i in range(k)]
        sub = [list(a[i][:k]) for i in range(k)]
        t = [1, -a[k][k]]
        vec = col
        for _ in range(k):
            t.append(-sum(r * v for r, v in zip(row, vec)))
            vec = [sum(sub[i][j] * vec[j] for j in range(k)) for i in range(k)]
        new = [0] * (k + 2)
        for i in range(k + 2):
            for j in range(len(coeffs)):
                if 0 <= i - j < len(t):
                    new[i] += t[i - j] * coeffs[j]
        coeffs = new
    return tuple(coeffs)


def poly_pow_x_minus_one(n: int) -> tuple[int, ...]:
    """(x - 1)^n as descending coefficients."""
    coeffs = [1]
    for _ in range(n):
        coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Polynomial division over Q for integer inputs (descending coeffs).

    Exact: raises if a quotient coefficient is non-integral, which cannot
    happen for monic divisors.
    """
    num = list(num)
    den = list(den)
    while den and den[0] == 0:
        den.pop(0)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot: list[int] = []
    while len(num) >= len(den) and any(num):
        if num[0] % den[0] != 0:
            raise ValueError("non-exact polynomial division")
        q = num[0] // den[0]
        quot.append(q)
        for i, d in enumerate(den):
            num[i] -= q * d
        if num[0] != 0:
            raise InternalInvariant("polynomial division left a leading term")
        num.pop(0)
    while num and num[0] == 0 and len(num) > 1:
        num.pop(0)
    if not quot:
        quot = [0]
    return tuple(quot), tuple(num)


@dataclass(frozen=True)
class UnipotenceResult:
    unipotent: bool
    index: Optional[int]  # least j with (M - I)^j = 0 mod p, when unipotent

    def __bool__(self) -> bool:
        return self.unipotent


def is_unipotent_mod(m: IntMatrix, p: int) -> UnipotenceResult:
    """Is M unipotent mod p, i.e. (M - I)^n = 0 over F_p?

    Returns the nilpotency index of M - I when true.
    """
    _require_prime(p)
    n = m.n
    nil = ModMatrix.reduce(m.minus_identity(), p)
    power = ModMatrix.identity(n, p)
    for j in range(1, n + 1):
        power = power * nil
        if power.is_zero():
            return UnipotenceResult(True, j)
    return UnipotenceResult(False, None)


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


def rank_exact(m: IntMatrix) -> int:
    """Rank over the rationals via exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in m.entries]
    n = m.n
    rank = 0
    col = 0
    while rank < n and col < n:
        pivot = next((i for i in range(rank, n) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, n):
            if rows[i][col] != 0:
                factor = rows[i][col] / pv
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def column_lattice_basis(m: IntMatrix) -> list[list[int]]:
    """Basis (as columns) of the lattice spanned by the columns of m.

    Computed by Hermite normal form; returns r = rank columns.
    """
    h = hermite_normal_form(sympy.Matrix(m.rows()))
    return [[int(h[i, j]) for i in range(h.rows)] for j in range(h.cols)]


def smith_diagonal(m: IntMatrix) -> list[int]:
    """Nonnegative diagonal of the Smith normal form."""
    s = smith_normal_form(sympy.Matrix(m.rows()))
    return [abs(int(s[i, i])) for i in range(min(s.rows, s.cols))]


def _solve_exact(columns: list[list[int]], targets: list[list[int]]) -> list[list[Fraction]]:
    """Solve C x = t for each target t, C given by independent columns."""
    n = len(columns[0])
    r = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(r)] for i in range(n)]
    rhs = [[Fraction(t[i]) for t in targets] for i in range(n)]
    pivots = []
    row = 0
    for col in range(r):
        pivot = next((i for i in range(row, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise InternalInvariant("columns not independent")
        aug[row], aug[pivot] = aug[pivot], aug[row]
        rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
        pv = aug[row][col]
        for i in range(n):
            if i != row and aug[i][col] != 0:
                f = aug[i][col] / pv
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
                rhs[i] = [x - f * y for x, y in zip(rhs[i], rhs[row])]
        pivots.append((row, col, pv))
        row += 1
    solutions = [[Fraction(0)] * len(targets) for _ in range(r)]
    for row, col, pv in pivots:
        for t in range(len(targets)):
            solutions[col][t] = rhs[row][t] / pv
    return solutions


@dataclass(frozen=True)
class LatticeChainInvariants:
    """Invariants of the image chain B^i(Z^n).

    stable_rank: rank of B^n over Q.
    stable_index: index [B^n Z^n : B^(n+1) Z^n] (None when stable_rank = 0).
    intersection_trivial: whether the chain intersects in {0}.
    """

    stable_rank: int
    stable_index: Optional[int]
    intersection_trivial: bool


def lattice_chain_invariants(b: IntMatrix) -> LatticeChainInvariants:
    """Invariants of the decreasing lattice chain Z^n > B Z^n > B^2 Z^n > ...

    The intersection of the chain is trivial exactly when B has no
    invariant sublattice on which it acts unimodularly; equivalently, no
    irreducible factor of charpoly(B) other than x has constant term +-1.
    The stable index is computed independently through the Smith normal
    form of B acting on a Hermite basis of the stable lattice, and the two
    routes are cross-checked.
    """
    n = b.n
    bn = b ** n
    r = rank_exact(bn)
    factors = sympy.Poly(list(charpoly_exact(b)), sympy.Symbol("x")).factor_list()[1]
    unit_part = False
    index_from_factors = 1
    for poly, mult in factors:
        c0 = int(poly.TC())
        if c0 == 0:
            continue
        if abs(c0) == 1:
            unit_part = True
        index_from_factors *= abs(c0) ** mult
    if r == 0:
        return LatticeChainInvariants(0, None, True)
    basis = column_lattice_basis(bn)
    if len(basis) != r:
        raise InternalInvariant("stable lattice basis size differs from the rank")
    b_rows = b.rows()
    images = [
        [sum(b_rows[i][k] * vec[k] for k in range(n)) for i in range(n)]
        for vec in basis
    ]
    coords = _solve_exact(basis, images)
    t_rows = [[coords[i][j] for j in range(r)] for i in range(r)]
    if any(c.denominator != 1 for row in t_rows for c in row):
        raise InternalInvariant("stable lattice not preserved")
    t = IntMatrix.from_rows([[int(c) for c in row] for row in t_rows])
    diag = smith_diagonal(t)
    if any(d == 0 for d in diag):
        raise InternalInvariant("B not injective on stable lattice")
    index = 1
    for d in diag:
        index *= d
    if index != index_from_factors:
        raise InternalInvariant(
            "lattice index disagrees between SNF and factorization routes"
        )
    return LatticeChainInvariants(r, index, not unit_part)


def _require_prime(p: int) -> None:
    if not sympy.isprime(p):
        raise InvalidSpec(f"{p} is not prime")
