"""Factorisation of monic integer polynomials over Z, by Zassenhaus.

Polynomials are lists of integer coefficients in descending powers of x,
as in the rest of resip.  The squarefree part of the input is factored
mod a small prime p by Berlekamp's algorithm, the modular factors are
Hensel-lifted to mod p^l with p^l > 2B, where B = 2^n ||f||_2 bounds every
coefficient of every factor of f over Z (Mignotte), and each factor over Z
is then the product of a subset of the lifted factors, read in the
symmetric range.  Subsets are tried in order of size, so a product that
divides f exactly is irreducible: no smaller subset of its factors did.

This is the scheme of sympy's factor_list, so the worst case is the same:
a polynomial with many factors mod every prime, such as x^4 - 10x^2 + 1,
which is irreducible over Z, costs a recombination over subsets.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt
from typing import Optional, Sequence

from .intlin import is_prime, poly_divmod, rref_mod

_GOOD_PRIMES_TRIED = 5  # the fewest modular factors among these primes wins


def _trim(f: list) -> list:
    i = 0
    while i < len(f) and f[i] == 0:
        i += 1
    return f[i:]


def _reduce(f: list[int], m: int) -> list[int]:
    return _trim([c % m for c in f])


def _symmetric(f: list[int], m: int) -> list[int]:
    half = m // 2
    return [c % m - m if c % m > half else c % m for c in f]


def _add(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    d = len(f) - len(g)
    return f[:d] + [a + b for a, b in zip(f[d:], g)]


def _sub(f: list[int], g: list[int]) -> list[int]:
    return _add(f, [-c for c in g])


def _mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _divmod(f: list[int], g: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g mod m, with lc(g) a unit mod m."""
    lead = 1 if g[0] == 1 else pow(g[0], -1, m)
    r = list(f)
    q = []
    for i in range(len(r) - len(g) + 1):
        c = r[i] % m * lead % m
        q.append(c)
        if c:  # entries of r are reduced only where read
            for j in range(1, len(g)):
                r[i + j] -= c * g[j]
    return _trim(q), _trim([c % m for c in r[len(q):]])


def _exact_quotient(f: list[int], g: list[int]) -> Optional[list[int]]:
    """f / g over Z for g with leading coefficient +-1, or None when g does
    not divide f."""
    q, r = poly_divmod(f, g)
    return None if any(r) else list(q)


def _monic(f: list[int], p: int) -> list[int]:
    inv = pow(f[0], -1, p)
    return [c * inv % p for c in f]


def _gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd mod p; f nonzero."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p)


def _gcdex(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t mod p with s f + t g = 1, for f and g coprime mod p."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _reduce(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _reduce(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)  # r0 is a nonzero constant
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _derivative(f: list[int]) -> list[int]:
    n = len(f) - 1
    return _trim([c * (n - i) for i, c in enumerate(f[:-1])])


def _nullspace(a: list[list[int]], p: int) -> list[list[int]]:
    """A basis of {v : a v = 0} over F_p."""
    n = len(a[0])
    rows, pivots = rref_mod(a, p)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for row, c in zip(rows, pivots):
            v[c] = -row[free] % p
        basis.append(v)
    return basis


def _berlekamp_kernel(f: list[int], p: int) -> list[list[int]]:
    """Berlekamp's subalgebra of f, monic and squarefree mod p, as
    ascending coefficient vectors.

    g = sum v_i x^i satisfies g^p = g mod f iff sum_i v_i (x^(ip) mod f) = v:
    the kernel of Q - I, whose dimension is the number of factors of f.
    """
    n = len(f) - 1
    xp = [1]
    base, e = [1, 0], p
    while e:  # x^p mod f by squaring
        if e & 1:
            xp = _divmod(_mul(xp, base), f, p)[1]
        base = _divmod(_mul(base, base), f, p)[1]
        e >>= 1
    powers, cur = [], [1]
    for _ in range(n):
        powers.append(cur[::-1] + [0] * (n - len(cur)))  # ascending x^(ip) mod f
        cur = _divmod(_mul(cur, xp), f, p)[1]
    return _nullspace(
        [[(powers[i][j] - (i == j)) % p for i in range(n)] for j in range(n)], p
    )


def _berlekamp_split(f: list[int], kernel: list[list[int]], p: int) -> list[list[int]]:
    """The monic irreducible factors of f mod p.  Each kernel element is
    constant mod every factor, so gcd(h, g - s) over s in F_p splits h
    wherever g tells two of its factors apart."""
    factors = [f]
    for v in kernel:
        g = _trim(v[::-1])
        if len(g) <= 1:
            continue  # a constant tells no factors apart
        for h in list(factors):
            for s in range(p):
                if len(factors) == len(kernel):
                    return factors
                d = _gcd(h, _reduce(_sub(g, [s]), p), p)
                if 1 < len(d) < len(h):
                    factors.remove(h)
                    h = _divmod(h, d, p)[0]
                    factors += [d, h]
    return factors


def _good_prime(f: list[int]) -> tuple[int, list[list[int]]]:
    """A prime p keeping f squarefree, and f's factors mod p: the fewest
    factors among the first few such primes.  Only primes dividing the
    discriminant of f are skipped, so the search ends."""
    best: Optional[tuple[int, list[int], list[list[int]]]] = None
    tried, p = 0, 2
    df = _derivative(f)
    while tried < _GOOD_PRIMES_TRIED:
        p += 1
        if not is_prime(p):
            continue
        fp = _reduce(f, p)
        if len(_gcd(fp, _reduce(df, p), p)) != 1:
            continue
        tried += 1
        kernel = _berlekamp_kernel(fp, p)
        if best is None or len(kernel) < len(best[2]):
            best = (p, fp, kernel)
        if len(kernel) == 1:
            break
    p, fp, kernel = best
    return p, _berlekamp_split(fp, kernel, p)


def _hensel_step(m, f, g, h, s, t):
    """From f = g h, s g + t h = 1 mod m (h monic) to the same mod m^2."""
    mm = m * m
    e = _reduce(_sub(f, _mul(g, h)), mm)
    q, r = _divmod(_mul(s, e), h, mm)
    g = _reduce(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    h = _reduce(_add(h, r), mm)
    b = _reduce(_sub(_add(_mul(s, g), _mul(t, h)), [1]), mm)
    c, d = _divmod(_mul(s, b), h, mm)
    s = _reduce(_sub(s, d), mm)
    t = _reduce(_sub(t, _add(_mul(t, b), _mul(c, g))), mm)
    return g, h, s, t


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, pl: int) -> list[list[int]]:
    """Lift f = prod(factors) mod p, all monic and the factors pairwise
    coprime mod p, to monic factors of f mod pl, by halving the list."""
    if len(factors) == 1:
        return [_reduce(f, pl)]
    k = len(factors) // 2
    g, h = [1], [1]
    for u in factors[:k]:
        g = _reduce(_mul(g, u), p)
    for u in factors[k:]:
        h = _reduce(_mul(h, u), p)
    s, t = _gcdex(g, h, p)
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return _hensel_lift(g, factors[:k], p, pl) + _hensel_lift(h, factors[k:], p, pl)


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of f, monic and squarefree with f(0) != 0."""
    n = len(f) - 1
    if n == 1:
        return [f]
    p, modular = _good_prime(f)
    if len(modular) == 1:
        return [f]
    bound = 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    pl = p
    while pl <= 2 * bound:
        pl *= p
    lifted = [_symmetric(g, pl) for g in _hensel_lift(f, modular, p, pl)]
    found = []
    rest = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(rest):
        for subset in combinations(rest, size):
            g = [1]
            for i in subset:
                g = _symmetric(_mul(g, lifted[i]), pl)
            if g[-1] == 0 or f[-1] % g[-1]:
                continue  # g(0) divides f(0) for a true factor
            q = _exact_quotient(f, g)
            if q is None:
                continue
            found.append(g)
            rest = [i for i in rest if i not in subset]
            f = q
            break
        else:
            size += 1
    found.append(f)
    return found


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for monic f: the product of its distinct irreducible
    factors.  The gcd comes from the primitive remainder sequence over Z;
    it divides the monic f, so its leading coefficient is +-1 (Gauss)."""
    a, b = f, _derivative(f)
    while b:
        while len(a) >= len(b):  # pseudo-remainder of a by b
            a = _trim([b[0] * x - a[0] * y for x, y in zip(a, b + [0] * (len(a) - len(b)))])
        content = gcd(*a) if a else 1
        a, b = b, [x // content for x in a]
    content = gcd(*a) if a[0] > 0 else -gcd(*a)
    return _exact_quotient(f, [x // content for x in a])


def factor_monic(coeffs: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factors over Z of a monic integer polynomial (descending
    coefficients), with multiplicities, ordered by degree and then by
    coefficients; x is a factor when the constant term vanishes, and a
    constant has no factors.  Matches sympy's Poly.factor_list up to order.
    """
    f = _trim(list(coeffs))
    if not f or f[0] != 1:
        raise ValueError("factor_monic needs a monic polynomial")
    out = []
    zeros = 0
    while f[-1] == 0:
        f.pop()
        zeros += 1
    if zeros:
        out.append(((1, 0), zeros))
    if len(f) > 1:
        for g in _zassenhaus(_squarefree_part(f)):
            mult = 0
            while True:
                q = _exact_quotient(f, g)
                if q is None:
                    break
                f, mult = q, mult + 1
            out.append((tuple(g), mult))
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))
