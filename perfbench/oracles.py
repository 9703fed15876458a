"""Independent oracles for the benchmark's correctness checks.

Written from the textbook statements, standard library only, without
importing resip, so a fault in the program cannot hide in its own check.
Polynomials are coefficient lists in descending powers of x; matrices are
lists of integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian
from math import gcd

# ---------------------------------------------------------------------------
# integers and polynomials


def primes_up_to(bound: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def prime_divisors(n: int) -> list[int]:
    """Trial division; n >= 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_p_power(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def strip(a) -> list[int]:
    a = list(a)
    while len(a) > 1 and a[0] == 0:
        a.pop(0)
    return a


def poly_divmod_monic(num, den) -> tuple[list[int], list[int]]:
    """Division by a monic integer polynomial; exact over Z."""
    den = strip(den)
    if den[0] != 1:
        raise ValueError("divisor must be monic")
    rem = strip(num)
    quot = []
    while len(rem) >= len(den):
        q = rem[0]
        quot.append(q)
        for i, d in enumerate(den):
            rem[i] -= q * d
        rem.pop(0)
    return strip(quot or [0]), strip(rem or [0])


def x_minus_one_power(n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = poly_mul(out, [1, -1])
    return out


def totient(k: int) -> int:
    out = k
    for q in prime_divisors(k):
        out = out // q * (q - 1)
    return out


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> tuple[int, ...]:
    """Phi_k = (x^k - 1) / prod of Phi_d over proper divisors d of k."""
    num = [1] + [0] * (k - 1) + [-1]
    for d in range(1, k):
        if k % d == 0:
            num, rem = poly_divmod_monic(num, cyclotomic(d))
            assert rem == [0]
    return tuple(num)


def is_cyclotomic_product(poly) -> bool:
    """Are all roots of the monic polynomial roots of unity?  Divide out
    Phi_k while it divides; phi(k) >= sqrt(k / 2) bounds k by 2 deg^2 + 1."""
    rest = strip(poly)
    deg = len(rest) - 1
    for k in range(1, 2 * deg * deg + 2):
        if totient(k) > len(rest) - 1:
            continue
        phi = cyclotomic(k)
        while len(rest) >= len(phi):
            quot, rem = poly_divmod_monic(rest, phi)
            if rem != [0]:
                break
            rest = quot
    return rest == [1]


# ---------------------------------------------------------------------------
# matrices


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b, mod: int | None = None) -> list[list[int]]:
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    if mod is not None:
        out = [[x % mod for x in row] for row in out]
    return out


def minus_identity(a) -> list[list[int]]:
    return [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]


def det(a) -> int:
    """Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(out)


def charpoly(a) -> list[int]:
    """det(xI - A) by Faddeev-LeVerrier: c_k = -tr(A M_k) / k."""
    n = len(a)
    coeffs = [1]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = Fraction(-sum(am[i][i] for i in range(n)), k)
        assert c.denominator == 1
        coeffs.append(int(c))
        m = [[am[i][j] + (int(c) if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def rank_mod(a, p: int) -> int:
    m = [[x % p for x in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def abelianization(images) -> list[list[int]]:
    """Entry (i, j) is the exponent sum of x_i in the image of x_j; images
    are words of signed generator indices."""
    n = len(images)
    out = [[0] * n for _ in range(n)]
    for j, w in enumerate(images):
        for a in w:
            out[abs(a) - 1][j] += 1 if a > 0 else -1
    return out


def parse_word(text: str) -> tuple[int, ...]:
    if text.strip() in ("", "1"):
        return ()
    return tuple(int(t[1:]) * (1 if t[0].islower() else -1) for t in text.split())


# ---------------------------------------------------------------------------
# residual-p criteria


def unipotent_mod(a, p: int) -> bool:
    """charpoly(A) = (x - 1)^n mod p."""
    return [c % p for c in charpoly(a)] == [c % p for c in x_minus_one_power(len(a))]


def nilpotency_index_mod(a, p: int) -> int | None:
    """Least j with (A - I)^j = 0 mod p, or None."""
    b = minus_identity(a)
    power = identity(len(a))
    for j in range(1, len(a) + 1):
        power = mat_mul(power, b, p)
        if all(x == 0 for row in power for x in row):
            return j
    return None


def prime_set(a) -> tuple[bool, list[int], int]:
    """(all primes?, the primes, gcd) from the gap charpoly(A) - (x-1)^n."""
    g = 0
    for c, t in zip(charpoly(a), x_minus_one_power(len(a))):
        g = gcd(g, c - t)
    if g == 0:
        return True, [], 0
    return False, prime_divisors(g), g


def bs_expect(q: int) -> tuple[bool, list[int], int, bool]:
    """BS(1,q): residually p exactly for p | q - 1; omega-nilpotent iff q != 2."""
    g = abs(q - 1)
    if g == 0:
        return True, [], 0, True
    return False, prime_divisors(g), g, q != 2


def sl2_least_k(a, p: int) -> int:
    """Brute force: least k >= 1 with p | det(A^k - I)."""
    power = [[x % p for x in row] for row in a]
    k = 1
    while det(minus_identity(power)) % p:
        power = mat_mul(power, a, p)
        k += 1
    return k


def fitting_qualifies(a, p: int) -> bool:
    """An invariant W with dim(F_p^n / W) >= 2 and unipotent quotient
    action exists iff dim ker((A - I)^n) over F_p is at least 2."""
    n = len(a)
    power = identity(n)
    for _ in range(n):
        power = mat_mul(power, minus_identity(a), p)
    return n - rank_mod(power, p) >= 2


def _rref(rows, p: int) -> tuple[tuple[int, ...], ...]:
    m = [[x % p for x in row] for row in rows]
    out = []
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in m if r[c]), None)
        if pivot is None:
            continue
        m.remove(pivot)
        inv = pow(pivot[c], -1, p)
        pivot = [x * inv % p for x in pivot]
        out = [[(x - r[c] * y) % p for x, y in zip(r, pivot)] for r in out]
        m = [[(x - r[c] * y) % p for x, y in zip(r, pivot)] for r in m]
        out.append(pivot)
    return tuple(sorted(tuple(r) for r in out))


def brute_force_qualifies(a, p: int) -> bool:
    """Enumerate every subspace W of F_p^n (tiny n and p only) and test
    invariance, codimension >= 2 and unipotence of the quotient action by
    (A - I)^n V contained in W."""
    n = len(a)
    vectors = [v for v in cartesian(range(p), repeat=n) if any(v)]
    subspaces = {()}
    for dim in range(1, n - 1):
        for basis in cartesian(vectors, repeat=dim):
            key = _rref(basis, p)
            if len(key) == dim:
                subspaces.add(key)
    power = identity(n)
    for _ in range(n):
        power = mat_mul(power, minus_identity(a), p)
    image = [list(col) for col in zip(*power)]
    for w in subspaces:
        if n - len(w) < 2:
            continue
        invariant = all(
            len(_rref(list(w) + [[sum(a[i][j] * v[j] for j in range(n)) for i in range(n)]], p))
            == len(w)
            for v in w
        )
        if invariant and len(_rref(list(w) + image, p)) == len(w):
            return True
    return False


# ---------------------------------------------------------------------------
# Magnus expansion


def magnus_coefficient(word, monomial, p: int) -> int:
    """Coefficient of X_{m_1}..X_{m_k} in the Magnus image of the word,
    mod p.  Prefix recurrence: c[j] is the coefficient of m[:j] in the
    product of the letters read so far; x_g contributes 1 + X_g, and x_g^-1
    contributes sum_r (-1)^r X_g^r."""
    k = len(monomial)
    c = [1] + [0] * k
    for a in word:
        g = abs(a)
        new = c[:]
        for j in range(1, k + 1):
            total = 0
            r = 1
            while r <= j and monomial[j - r] == g:
                total += c[j - r] * (1 if a > 0 else (-1) ** r)
                if a > 0:
                    break
                r += 1
            new[j] = (c[j] + total) % p
        c = new
    return c[k] % p


def magnus_depth(word, rank: int, p: int, cap: int) -> int | None:
    """Least degree d with a nonzero degree-d coefficient mod p."""
    if not word:
        return None
    for d in range(1, cap + 1):
        for mono in cartesian(range(1, rank + 1), repeat=d):
            if magnus_coefficient(word, mono, p):
                return d
    return None


# ---------------------------------------------------------------------------
# braids


def braid_permutation(letters, strands: int) -> tuple[int, ...]:
    """Each sigma_i^+-1 swaps the strands at positions i and i + 1."""
    perm = list(range(1, strands + 1))
    for a in letters:
        i = abs(a)
        lo, hi = perm.index(i), perm.index(i + 1)
        perm[lo], perm[hi] = perm[hi], perm[lo]
    return tuple(perm)


def permutation_order(perm) -> int:
    order, seen = 1, set()
    for start in range(len(perm)):
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v = perm[v] - 1
            length += 1
        if length:
            order = order * length // gcd(order, length)
    return order


# ---------------------------------------------------------------------------
# p-group closed forms


def ut3_expect(p: int) -> dict:
    """UT(3,p): Phi = Z = [P,P] has order p, Frattini rank 2, and for odd p
    the subgroup orders are 1, p (p^2+p+1 times), p^2 (p+1 times), p^3."""
    return {
        "order": p ** 3,
        "frattini_order": p,
        "rank": 2,
        "center": p,
        "subgroup_orders": [1] + [p] * (p * p + p + 1) + [p * p] * (p + 1) + [p ** 3],
    }


def elementary_abelian_expect(p: int) -> dict:
    """(Z/p)^2: Phi = 1, rank 2, p + 3 subgroups."""
    return {
        "order": p * p,
        "frattini_order": 1,
        "rank": 2,
        "center": p * p,
        "subgroup_orders": [1] + [p] * (p + 1) + [p * p],
    }


def cyclic_p2_expect(p: int) -> dict:
    """Z/p^2: Phi = pZ/p^2 of order p, rank 1, one subgroup per divisor."""
    return {
        "order": p * p,
        "frattini_order": p,
        "rank": 1,
        "center": p * p,
        "subgroup_orders": [1, p, p * p],
    }
