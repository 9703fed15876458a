"""Exact integer and modular linear algebra, and the integer arithmetic
under it.

Everything here is bit-exact: Python integers only, no floating point.
Determinants use fraction-free Bareiss elimination and characteristic
polynomials the division-free Berkowitz scheme.  Hermite and Smith normal
forms are computed in-tree by the algorithms sympy uses, so the forms are
the same matrices sympy returns; no verdict needs them.

Primality is trial division for small n, then Miller-Rabin with the
first 13 prime bases, which is exact below 3.317 * 10^24; from there on a
strong Lucas test with Selfridge's parameters joins it, so the test is the
strong Baillie-PSW test, the one sympy.isprime runs there.  Above that
bound the answer is a probable-prime answer: no composite is known to pass,
but none is proved not to.  Prime factors come from trial division, then
Pollard-Brent rho on every composite cofactor.

Whether the lattice chain B^i Z^n meets in {0} is read off the
irreducible factors of charpoly(B), found by Zassenhaus
(resip.polyfactor): it does iff no factor other than x has constant term
+-1 (proved in ``lattice_chain_invariants``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import gcd, isqrt
from operator import index, mul

from .errors import InternalInvariant, InvalidSpec
from .record import Record


class IntMatrix(Record):
    """Immutable square matrix of arbitrary-precision integers."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        n = len(entries)
        if n == 0:
            raise InvalidSpec("dimension 0 matrix rejected")
        if any(len(row) != n for row in entries):
            raise InvalidSpec("matrix must be square")
        if any(not isinstance(x, int) for row in entries for x in row):
            raise InvalidSpec("entries must be exact integers")
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        # operator.index takes ints and other integer types, such as
        # numpy's, and refuses what int() would round or parse: floats,
        # Fractions, Decimals, strings
        try:
            entries = tuple(tuple(index(x) for x in row) for row in rows)
        except TypeError:
            raise InvalidSpec("matrix entries must be exact integers") from None
        return IntMatrix(entries)

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

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """A matrix from entries already known to be a nonempty square of
        ints, such as the product of valid matrices of one size; skips the
        checks of __init__."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        return m

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_dim(other)
        cols = list(zip(*other.entries))
        return IntMatrix._trusted(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def __pow__(self, k: int) -> "IntMatrix":
        if k < 0:
            raise InvalidSpec("negative powers of IntMatrix are not defined")
        result, base = IntMatrix.identity(self.n), self  # binary powering
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def minus_identity(self) -> "IntMatrix":
        return IntMatrix._trusted(
            tuple(
                tuple(x - 1 if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(self.entries)
            )
        )

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.n))

    def _check_dim(self, other: "IntMatrix") -> None:
        if self.n != other.n:
            raise InvalidSpec("matrix dimensions differ")


class ModMatrix(Record):
    """Square matrix over Z/m with m a prime power >= 2; entries reduced."""

    __slots__ = ("modulus", "entries")

    def __init__(self, modulus: int, entries: tuple[tuple[int, ...], ...]):
        _check_modulus(modulus)
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise InvalidSpec("matrix must be square and nonempty")
        if any(not (0 <= x < modulus) for row in entries for x in row):
            raise InvalidSpec("entries must be reduced mod the modulus")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, modulus: int, entries: tuple[tuple[int, ...], ...]) -> "ModMatrix":
        """A matrix from entries already reduced mod a modulus already
        validated, such as a product of valid matrices; skips the checks
        of __init__."""
        m = object.__new__(cls)
        object.__setattr__(m, "modulus", modulus)
        object.__setattr__(m, "entries", entries)
        return m

    @staticmethod
    def reduce(m: IntMatrix, modulus: int) -> "ModMatrix":
        """M mod modulus.  The modulus is checked here; the entries are a
        valid IntMatrix's, reduced, so they need no check."""
        _check_modulus(modulus)
        return ModMatrix._trusted(
            modulus, tuple(tuple(x % modulus for x in row) for row in m.entries)
        )

    @property
    def n(self) -> int:
        return len(self.entries)

    def __mul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.modulus != other.modulus or self.n != other.n:
            raise InvalidSpec("modulus or dimension mismatch")
        m = self.modulus
        cols = list(zip(*other.entries))
        return ModMatrix._trusted(
            m,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) % m for col in cols)
                for row in self.entries
            ),
        )


def _check_modulus(modulus: int) -> None:
    if modulus < 2:
        raise InvalidSpec("modulus must be >= 2")
    if not _is_prime_power(modulus):
        raise InvalidSpec(f"modulus {modulus} is not a prime power")


@lru_cache(maxsize=32)
def _is_prime_power(m: int) -> bool:
    # memoised: every reduction validates its modulus again
    return len(prime_factors(m)) == 1


def primes_up_to(bound: int) -> list[int]:
    """The primes p <= bound, by the sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, bound + 1, q)))
    return [q for q in range(bound + 1) if sieve[q]]


_TRIAL_PRIMES = tuple(primes_up_to(1000))
_MR_BASES = _TRIAL_PRIMES[:13]  # 2, 3, ..., 41
# Miller-Rabin with _MR_BASES is exact below this bound (Sorenson-Webster)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality: trial division, then Miller-Rabin with bases that make
    it exact below 3.317 * 10^24.  From there on a strong Lucas test
    follows, and with the base 2 among the bases that is the strong
    Baillie-PSW test (Baillie-Wagstaff, Math. Comp. 35, 1980): a
    probable-prime answer, since no composite is known to pass it, but
    none is proved not to.  Every prime passes both tests."""
    if n < 2:
        return False
    for q in _TRIAL_PRIMES:
        if q * q > n:
            return True
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n >= 1, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """The strong Lucas probable-prime test of odd n >= 1 with Selfridge's
    parameters: D is the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1 and Q = (1 - D) / 4.  With n + 1 = d 2^s, d odd, n passes iff
    U_d = 0 or V_(d 2^r) = 0 mod n for some 0 <= r < s.  Every odd prime
    passes; so do a few composites (5459, 5777, 10877, ...)."""
    if isqrt(n) ** 2 == n:  # (D/n) is never -1: no D exists
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and d % n:  # gcd(D, n) is a proper factor of n
            return False
        d = -d - 2 if d > 0 else 2 - d
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k, s = k // 2, s + 1

    def half(x: int) -> int:  # x / 2 mod n, n odd
        return (x + n if x & 1 else x) // 2 % n

    u, v, qk = 1, 1, q % n  # U_1, V_1 and Q^1 with P = 1
    for bit in bin(k)[3:]:  # the ladder: index j -> 2j, then 2j + 1
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n != 0, in increasing order.

    Trial division below 1000, then for the cofactor: a primality test,
    and Pollard-Brent rho on what is composite.
    """
    if n == 0:
        raise ValueError("0 has no finite set of prime factors")
    n = abs(n)
    found = []
    for q in _TRIAL_PRIMES:
        if q * q > n:
            break
        if n % q == 0:
            found.append(q)
            while n % q == 0:
                n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found.append(m)
        else:
            d = _pollard_brent(m)
            stack += [d, m // d]
    return tuple(sorted(set(found)))


def p_power_exponent(n: int, p: int) -> int | None:
    """s when n = p^s with s >= 0, None when n is not a power of p >= 2."""
    if n < 1:
        return None
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return s if n == 1 else None


def least_p_power_exponent(n: int, p: int) -> int:
    """The least s >= 0 with p^s >= n.

    It gives the order of a unipotent matrix in closed form: if N over F_p
    is nilpotent of index nu (N^nu = 0 != N^(nu - 1)), then I + N has
    order p^s with s = least_p_power_exponent(nu, p).  Proof: I and N
    commute, and p divides binom(p^t, k) for 0 < k < p^t, so
    (I + N)^(p^t) = I + N^(p^t), which is I iff p^t >= nu.  So the order
    divides p^s, hence is some p^t, and p^t >= nu forces t >= s.
    """
    s, q = 0, 1
    while q < n:
        s, q = s + 1, q * p
    return s


def _pollard_brent(n: int) -> int:
    """A proper divisor of the composite n, which has no factor below 1000
    (Brent's cycle finding on x -> x^2 + c, gcds batched 128 at a time)."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


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
            t.append(-sum(map(mul, row, vec)))
            vec = [sum(map(mul, sub_row, vec)) for sub_row in sub]
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
    if quot and len(num) >= len(den):
        # what is left of num is zero, so are the quotient's remaining digits
        quot += [0] * (len(num) - len(den) + 1)
    while num and num[0] == 0 and len(num) > 1:
        num.pop(0)
    if not quot:
        quot = [0]
    return tuple(quot), tuple(num)


def _power_chain(a: IntMatrix, modulus: int) -> list[int]:
    """d_j = gcd(modulus, entries of (A - I)^j mod modulus) for
    j = 1, 2, ..., up to n or to the first d_j equal to the modulus."""
    nil = [[x % modulus for x in row] for row in a.minus_identity().entries]
    cols = list(zip(*nil))
    power, chain = nil, []
    while True:
        chain.append(gcd(modulus, *(x for row in power for x in row)))
        if len(chain) == a.n or chain[-1] == modulus:
            return chain
        power = [[sum(map(mul, row, col)) % modulus for col in cols] for row in power]


def is_unipotent_mod(m: IntMatrix, p: int) -> int | None:
    """The nilpotency index of M - I over F_p, the least j >= 1 with
    (M - I)^j = 0 mod p, when M is unipotent mod p; None when it is not.
    The index is the length of ``_power_chain(m, p)``, which stops at the
    first such j, and it is at least 1, so the answer is true exactly
    when M is unipotent."""
    _require_prime(p)
    chain = _power_chain(m, p)
    return len(chain) if chain[-1] == p else None


def rref_mod(
    rows: Sequence[Sequence[int]], p: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Gauss-Jordan elimination over F_p, for a prime p: the nonzero rows
    of the reduced row echelon form of ``rows`` (entries are taken mod p)
    and their pivot columns.  The rows are a canonical basis of the row
    space."""
    mat = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        top = mat[r] = [x * inv % p for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != r:
                mat[i] = [(x - f * y) % p for x, y in zip(row, top)]
        pivots.append(col)
    return tuple(tuple(row) for row in mat[: len(pivots)]), tuple(pivots)


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    """x, y, g with x a + y b = g = gcd(a, b), as sympy's igcdex gives them."""
    if not a or not b:
        g = abs(a) or abs(b)
        return (0, 0, 0) if not g else (a // g, b // g, g)
    sa, a = (-1, -a) if a < 0 else (1, a)
    sb, b = (-1, -b) if b < 0 else (1, b)
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        x, r = r, x - q * r
        y, s = s, y - q * s
    return x * sa, y * sb, a


def _add_columns(m: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    # column i <- a col_i + b col_j, column j <- c col_i + d col_j
    for row in m:
        e = row[i]
        row[i] = a * e + b * row[j]
        row[j] = c * e + d * row[j]


def _add_rows(m: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    # row i <- a row_i + b row_j, row j <- c row_i + d row_j
    m[i], m[j] = (
        [a * x + b * y for x, y in zip(m[i], m[j])],
        [c * x + d * y for x, y in zip(m[i], m[j])],
    )


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column-style Hermite normal form of an integer matrix, as rows.

    Cohen's Algorithm 2.4.5, step for step as sympy's hermite_normal_form:
    rows are treated from the bottom, pivots go to the rightmost columns,
    are made positive, and the entries right of a pivot are reduced into
    [0, pivot).  Only the columns holding a pivot are returned.
    """
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    k = n
    for i in range(len(a) - 1, -1, -1):
        if k == 0:
            break
        k -= 1
        for j in range(k - 1, -1, -1):
            if a[i][j] != 0:
                u, v, d = _gcdex(a[i][k], a[i][j])
                if a[i][k] != 0 and a[i][j] % a[i][k] == 0:  # keep col j out of col k
                    u, v = (-1 if a[i][k] < 0 else 1), 0
                _add_columns(a, k, j, u, v, -(a[i][j] // d), a[i][k] // d)
        b = a[i][k]
        if b < 0:
            _add_columns(a, k, k, -1, 0, -1, 0)
            b = -b
        if b == 0:
            k += 1
        else:
            for j in range(k + 1, n):
                _add_columns(a, j, k, 1, -(a[i][j] // b), 0, 1)
    return [row[k:] for row in a]


def _invariant_factors(m: list[list[int]]) -> tuple[int, ...]:
    """sympy's Smith invariant factors of a nonempty matrix, step for step:
    clear the first row and column by gcd row and column operations, make
    the corner nonnegative, recurse on the lower right block, then repair
    divisibility between the corner and the block's first factor."""
    rows, cols = len(m), len(m[0])

    def clear_column() -> None:
        pivot = m[0][0]
        for j in range(1, rows):
            if m[j][0] == 0:
                continue
            d, r = divmod(m[j][0], pivot)
            if r == 0:
                _add_rows(m, 0, j, 1, 0, -d, 1)
            else:
                a, b, g = _gcdex(pivot, m[j][0])
                _add_rows(m, 0, j, a, b, m[j][0] // g, -(pivot // g))
                pivot = g

    def clear_row() -> None:
        pivot = m[0][0]
        for j in range(1, cols):
            if m[0][j] == 0:
                continue
            d, r = divmod(m[0][j], pivot)
            if r == 0:
                _add_columns(m, 0, j, 1, 0, -d, 1)
            else:
                a, b, g = _gcdex(pivot, m[0][j])
                _add_columns(m, 0, j, a, b, m[0][j] // g, -(pivot // g))
                pivot = g

    first = next((i for i in range(rows) if m[i][0] != 0), None)
    if first:  # a row below the first with a nonzero lead
        m[0], m[first] = m[first], m[0]
    elif first is None:
        first = next((j for j in range(cols) if m[0][j] != 0), None)
        if first:
            for row in m:
                row[0], row[first] = row[first], row[0]
    while any(m[0][j] != 0 for j in range(1, cols)) or any(
        m[i][0] != 0 for i in range(1, rows)
    ):
        clear_column()
        clear_row()
    if m[0][0] < 0:
        m[0][0] = -m[0][0]
    invs = () if 1 in (rows, cols) else _invariant_factors([r[1:] for r in m[1:]])
    if not m[0][0]:
        return invs + (0,)
    result = [m[0][0], *invs]
    for i in range(len(result) - 1):
        a, b = result[i], result[i + 1]
        if not b or b % a == 0:
            break
        d = gcd(a, b)
        result[i], result[i + 1] = d, b * (a // d)
    return tuple(result)


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Smith normal form of an integer matrix, as rows, with the diagonal
    sympy's smith_normal_form gives."""
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    out = [[0] * n_cols for _ in range(n_rows)]
    if n_rows and n_cols:
        for i, d in enumerate(_invariant_factors([list(r) for r in rows])):
            out[i][i] = d
    return out


def lattice_chain_invariants(b: IntMatrix) -> bool:
    """Does the decreasing lattice chain Z^n > B Z^n > B^2 Z^n > ... meet
    in {0}?  It does exactly when no irreducible factor of charpoly(B)
    other than x has constant term +-1.

    Proof.  Let g be charpoly(B) with its powers of x removed, and
    L = B^n Z^n.  Q^n is the direct sum of K = ker B^n and W = im_Q B^n
    (Fitting), both B-invariant, with B nilpotent on K and invertible on
    W, so charpoly(B|W) = g and L spans W.
    * If a monic irreducible factor f of g has f(0) = +-1, then
      L_f = L cap ker f(B) is a nonzero lattice (ker f(B) is a nonzero
      subspace of W), which B maps into itself with determinant
      +-f(0)^k = +-1, so onto itself: L_f = B^i L_f lies in every
      B^i Z^n.
    * Otherwise let I be the intersection.  It lies in L, so in W, and
      B I = I: an x in I is B y_i with y_i in B^(i-1) Z^n, which lies in
      W once i > n, where B is one-to-one, so all y_i are one y, and y is
      in I.  So B is an automorphism of the lattice I, of determinant
      +-1, while its characteristic polynomial there is a product of
      factors of g, each with |f(0)| >= 2: I = {0}.
    """
    from .polyfactor import factor_monic  # polyfactor imports intlin

    g = list(charpoly_exact(b))
    while g[-1] == 0:  # strip the powers of x; g stays monic
        g.pop()
    return len(g) == 1 or not any(abs(f[-1]) == 1 for f, _ in factor_monic(g))


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise InvalidSpec(f"{p} is not prime")
