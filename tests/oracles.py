"""Brute-force routes the tests hold the closed forms against.

They step through powers one at a time, build the quotients, lattices
and layer matrices the library only reasons about, or sample where the
library applies a theorem, so they only suit small inputs; the library
computes the same answers without a search, or with a bound from a
theorem.
"""

import json
import math
import random
import re
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from resip.braid import _elementary_endo
from resip.caps import DEFAULT_CAPS
from resip.classify import (
    BSReport,
    NOT_RESIDUALLY_P,
    PrimeSet,
    RESIDUALLY_P,
    UNDECIDED,
    Verdict,
    p_power_order_quotient_exists,
)
from resip.errors import CapExceeded, InternalInvariant, InvalidSpec
from resip.extension import (
    ExtensionElement,
    ext_commutator,
    ext_identity,
    ext_multiply,
)
from resip.freegrp import (
    FreeEndo,
    FreeWord,
    _reduce,
    abelianization_matrix,
    apply_endo,
    commutator,
    compose_endos,
    conjugate,
    endo_power,
    nielsen_transvection,
)
from resip.intlin import (
    IntMatrix,
    LatticeChainInvariants,
    ModMatrix,
    UnipotenceResult,
    _require_prime,
    charpoly_exact,
    det_exact,
    hermite_normal_form,
    is_unipotent_mod,
    lattice_chain_invariants,
    poly_divmod,
    poly_pow_x_minus_one,
    prime_factors,
    smith_normal_form,
)
from resip.magnus import SeriesSubstitution, TruncatedSeries, magnus_embed, monomial_code, monomial_of
from resip.pgrouplab import _bits, _mask


def matrix_order_mod(m: IntMatrix, p: int, k: int, cap: Optional[int] = None) -> int:
    """Least e >= 1 with M^e = I mod p^k.

    Requires gcd(det M, p) = 1.  The default cap p^(k * n^2) bounds the
    order of GL_n(Z/p^k); exceeding any cap raises CapExceeded.
    """
    _require_prime(p)
    if k < 1:
        raise InvalidSpec("precision k must be >= 1")
    if det_exact(m) % p == 0:
        raise InvalidSpec(f"det divisible by {p}")
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


def chain_lengths(sub: SeriesSubstitution) -> list[int]:
    """For each X_i, the number of nonzero terms of X_i, (U - I) X_i,
    (U - I)^2 X_i, ..., with U = sub and no bound on the length."""
    lengths = []
    for i in range(1, sub.rank + 1):
        term = TruncatedSeries(sub.rank, sub.degree, sub.modulus, encoded({(i,): 1}, sub.rank))
        length = 0
        while term.table:
            term = sub(term) - term
            length += 1
        lengths.append(length)
    return lengths


def depth_minimal_by_ladder(w: FreeWord, d: int, p: int, caps=DEFAULT_CAPS) -> bool:
    """Is magnus_depth(w) = d over F_p?  Embeds w at degree 1, 2, ... up
    to the cap and stops at the first embedding that is not 1; the
    identity has no depth, and a depth beyond the cap is CapExceeded."""
    if w.is_identity():
        return False
    for k in range(1, caps.magnus_degree + 1):
        if not magnus_embed(w, k, p, caps).is_one():
            return k == d
    raise CapExceeded("magnus_degree", caps.magnus_degree)


_WORD_TOKEN = re.compile(r"([xX])([0-9]+)")  # ASCII digits only: \d takes any Unicode digit


def parse_word_by_regex(text: str, rank: int) -> FreeWord:
    """parse_word with each token matched by a regular expression, its
    letters reduced by the checked constructor."""
    tokens = text.split()
    if not tokens or tokens == ["1"]:
        return FreeWord.identity(rank)
    letters = []
    for tok in tokens:
        m = _WORD_TOKEN.fullmatch(tok)
        if not m:
            raise InvalidSpec(f"bad word token {tok!r}")
        try:
            idx = int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise InvalidSpec(f"generator index of {len(m.group(2))} digits out of range 1..{rank}") from None
        if not 1 <= idx <= rank:
            raise InvalidSpec(f"generator index {idx} out of range 1..{rank}")
        letters.append(idx if m.group(1) == "x" else -idx)
    return FreeWord.from_letters(rank, letters)


def unit_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a series with constant term 1, by the geometric
    expansion 1 - y + y^2 - ... with y = s - 1, which stops at the
    truncation degree; magnus_embed inverts a letter in place instead."""
    if s.coefficient(()) != 1:
        raise InvalidSpec("unit_inverse needs constant term 1")
    one = TruncatedSeries.one(s.rank, s.degree, s.modulus)
    y = s - one
    inv = one
    for _ in range(s.degree):
        inv = one - y * inv
    return inv


def homogeneous(s: TruncatedSeries, i: int) -> dict:
    """Degree-i coefficient slice of a series, keyed by monomial."""
    return {m: c for m, c in decoded(s).items() if len(m) == i}


def decoded(s: TruncatedSeries) -> dict:
    """The table of a series keyed by monomial tuples, the form the
    straightforward oracles work in."""
    return {monomial_of(code, s.rank): c for code, c in s.table.items()}


def encoded(table: dict, rank: int) -> dict:
    """A monomial-keyed table keyed by codes, as a series holds it."""
    return {monomial_code(m, rank): c for m, c in table.items()}


def _apply(m: ModMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    p = m.modulus
    return tuple(
        sum(m.entries[i][j] * v[j] for j in range(m.n)) % p for i in range(m.n)
    )


def quotient_matrix(m: ModMatrix, w_basis: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """Matrix of the action induced on F_p^n / W, in the coordinates of the
    non-pivot standard basis vectors.  W must be given by an RREF basis
    and be M-invariant; both are checked."""
    p = m.modulus
    n = m.n
    pivots = [next(i for i, x in enumerate(row) if x) for row in w_basis]
    free = [j for j in range(n) if j not in pivots]

    def reduce_mod_w(v: tuple[int, ...]) -> list[int]:
        out = list(v)
        for row, c in zip(w_basis, pivots):
            f = out[c] % p
            if f:
                out = [(x - f * y) % p for x, y in zip(out, row)]
        return out

    if any(any(reduce_mod_w(_apply(m, w))) for w in w_basis):
        raise InternalInvariant("quotient subspace is not M-invariant")
    cols = []
    for j in free:
        e = tuple(1 if i == j else 0 for i in range(n))
        image = reduce_mod_w(_apply(m, e))
        if any(image[c] % p for c in pivots):
            raise InternalInvariant("subspace basis is not in reduced echelon form")
        cols.append([image[i] % p for i in free])
    d = len(free)
    return IntMatrix.from_rows([[cols[j][i] for j in range(d)] for i in range(d)])


def unipotence_by_powers(m: IntMatrix, p: int) -> UnipotenceResult:
    """Unipotence of M mod p and the nilpotency index of M - I, by forming
    (M - I)^j over F_p for j = 1, ..., n until one is zero."""
    nil = ModMatrix.reduce(m.minus_identity(), p)
    power = nil
    for j in range(1, m.n + 1):
        if not any(map(any, power.entries)):
            return UnipotenceResult(True, j)
        power = power * nil
    return UnipotenceResult(False, None)


def mod_matrix_power(m: ModMatrix, k: int) -> ModMatrix:
    """m^k for k >= 0, by binary powering on ModMatrix products."""
    power = ModMatrix.identity(m.n, m.modulus)
    while k:
        if k & 1:
            power = power * m
        m, k = m * m, k >> 1
    return power


def unipotent_order_by_iteration(q: IntMatrix, p: int) -> int:
    """Order of a unipotent matrix mod p, by taking p-th powers until the
    identity comes up: the least p^s with q^(p^s) = I."""
    power = ModMatrix.reduce(q, p)
    ident = ModMatrix.identity(q.n, p)
    order = 1
    while power != ident:
        power = mod_matrix_power(power, p)
        order *= p
    return order


def cocycle_by_sampling(f, samples: int = 200, seed: int = 0) -> Optional[tuple]:
    """Normalization and the cocycle identity of a bilinear cocycle on
    seeded sampled triples with entries in [-5, 5]: None, or the first
    triple (g, h, k) that breaks one of them."""
    rng = random.Random(seed)
    zero = (0,) * f.r

    def plus(u, v):
        return tuple(a + b for a, b in zip(u, v))

    for _ in range(samples):
        g, h, k = (
            tuple(rng.randint(-5, 5) for _ in range(f.r)) for _ in range(3)
        )
        if f(zero, g) != 0 or f(g, zero) != 0:
            return (zero, g, zero)
        lhs = f(g, h) + f(plus(g, h), k)
        rhs = f(h, k) + f(g, plus(h, k))
        if f.coeff_modulus:
            lhs %= f.coeff_modulus
            rhs %= f.coeff_modulus
        if lhs != rhs:
            return (g, h, k)
    return None


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


def kernel_samples(rank: int, d: int, seed: int, count: int = 20) -> list[FreeWord]:
    """Random elements of gamma_{d+1}, hence of every level-(p, d) kernel:
    conjugated left-nested commutators of weight d + 1."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        letters = [rng.randint(1, rank) for _ in range(d + 1)]
        w = FreeWord.generator(rank, letters[-1])
        for a in letters[-2::-1]:
            x = FreeWord.generator(rank, a)
            w = commutator(x, w)
        conj_letters = [
            rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(rng.randint(0, 3))
        ]
        out.append(conjugate(w, FreeWord.from_letters(rank, conj_letters)))
    return out


def random_certified_automorphism(rng, rank):
    """Random product of transvections and their inverses, permutations
    and inversions of the generators, each with its certified inverse."""
    gens = range(1, rank + 1)
    phi = FreeEndo.identity(rank)
    for _ in range(rng.randint(1, 5)):
        pick = rng.random()
        if pick < 0.5:
            i, j = rng.sample(gens, 2)
            step = endo_power(nielsen_transvection(rank, i, j), rng.choice((1, -1)))
        elif pick < 0.75:
            perm = rng.sample(gens, rank)
            inverse = [perm.index(g) + 1 for g in gens]
            step = FreeEndo.from_letters(rank, [(g,) for g in perm], [(g,) for g in inverse])
        else:
            k = rng.choice(gens)
            images = [(-g,) if g == k else (g,) for g in gens]
            step = FreeEndo.from_letters(rank, images, images)
        phi = compose_endos(step, phi)
    return phi


def substitute_then_reduce(images, letters) -> tuple[int, ...]:
    """x_i replaced by images[i - 1] in the letters, written out whole and
    only then freely reduced."""
    out = []
    for a in letters:
        img = images[abs(a) - 1]
        out.extend(img if a > 0 else [-b for b in reversed(img)])
    return _reduce(out)


def inverse_holds_both_ways(images, inverse) -> bool:
    """Does the claimed inverse psi of phi pass both compositions,
    psi(phi(x_i)) = x_i and phi(psi(x_i)) = x_i for every i?  Images are
    letter tuples."""
    return all(
        substitute_then_reduce(inverse, phi_x) == (i,) == substitute_then_reduce(images, psi_x)
        for i, (phi_x, psi_x) in enumerate(zip(images, inverse), start=1)
    )


def kernel_invariance_by_sampling(cert, caps=DEFAULT_CAPS) -> bool:
    """A magnus certificate's kernel invariance on 20 sampled kernel
    elements: each one and its monodromy image embed to 1, and so does
    the substitution applied to its embedding."""
    phi = cert.monodromy()
    p, d = cert.p, cert.data["degree"]
    sub = SeriesSubstitution(phi, d, p, caps)
    invariant = True
    for sample in kernel_samples(cert.rank, d, seed=p * 1009 + d):
        image = apply_endo(phi, sample)
        if not magnus_embed(image, d, p, caps).is_one():
            invariant = False
        if not sub(magnus_embed(sample, d, p, caps)).is_one():
            invariant = False
    return invariant


def _powers(x: ExtensionElement, count: int, f):
    """x^1, ..., x^count, each one product from the one before."""
    acc = ext_identity(f)
    for _ in range(count):
        acc = ext_multiply(acc, x, f)
        yield acc


def _bilinear(pairing, u, v) -> int:
    return sum(
        u[i] * pairing[i][j] * v[j] for i in range(len(u)) for j in range(len(v))
    )


def gamma2_by_grid(f, pairing) -> bool:
    """Every commutator of base elements (a, b), (c, d) of a rank-2
    extension, with coordinates in [-3, 3], is (u^T P v, 0) for P the
    given pairing; for Heisenberg's, u^T P v = a d - b c."""
    gamma2_central = True
    for a in range(-3, 4):
        for b in range(-3, 4):
            u = ExtensionElement(0, (a, b))
            for c in range(-3, 4):
                for d in range(-3, 4):
                    v = ExtensionElement(0, (c, d))
                    comm = ext_commutator(u, v, f)
                    if comm.base != (0, 0) or comm.central != _bilinear(pairing, (a, b), (c, d)):
                        gamma2_central = False
    return gamma2_central


def torsion_free_by_grid(f) -> bool:
    """No element (a, (u1, u2)) of a rank-2 extension with coordinates in
    [-5, 5], other than the identity, has a power up to 12 equal to it."""
    ident = ext_identity(f)
    torsion_free = True
    for a in range(-5, 6):
        for u1 in range(-5, 6):
            for u2 in range(-5, 6):
                g = ExtensionElement(a, (u1, u2))
                if g != ident and any(gm == ident for gm in _powers(g, 12, f)):
                    torsion_free = False
    return torsion_free


def class_two_and_torsion_free_by_sampling(f, pairing=None) -> tuple[bool, bool]:
    """Class two and torsion-freeness on 100 seeded random pairs (u, v)
    with coordinates in [-3, 3]: [u, v] is central, [[u, v], u] = 1 and
    no power of u up to 12 is the identity.  With a pairing P, class two
    also asks that [u, v] = (u^T P v, 0) on the base parts."""
    r = f.r
    ident = ext_identity(f)
    rng = random.Random(11)
    class_two = True
    torsion_free = True
    for _ in range(100):
        u = ExtensionElement(rng.randint(-3, 3), tuple(rng.randint(-3, 3) for _ in range(r)))
        v = ExtensionElement(rng.randint(-3, 3), tuple(rng.randint(-3, 3) for _ in range(r)))
        comm = ext_commutator(u, v, f)
        if comm.base != (0,) * r:
            class_two = False
        if ext_commutator(comm, u, f) != ident:
            class_two = False
        if pairing is not None and comm.central != _bilinear(pairing, u.base, v.base):
            class_two = False
        if u != ident and any(um == ident for um in _powers(u, 12, f)):
            torsion_free = False
    return class_two, torsion_free


def torus_verdicts_per_prime(a: IntMatrix, primes) -> list[dict]:
    """Torus-bundle verdict dicts with the powers of A - I taken at every
    prime, and the det(A - I) criterion compared on SL_2 input."""
    if det_exact(a) not in (1, -1):
        raise InvalidSpec("matrix is not in GL_n(Z)")
    out = []
    for p in primes:
        unip = is_unipotent_mod(a, p)
        if a.n == 2 and det_exact(a) == 1:
            det_door = det_exact(a.minus_identity()) % p == 0
            if det_door != unip.unipotent:
                raise InternalInvariant(
                    "unipotence and det(A-I) criteria disagree on an SL2 input"
                )
        if unip:
            verdict = Verdict(
                p,
                RESIDUALLY_P,
                certificate={
                    "criterion": "unipotent_mod_p",
                    "nilpotency_index": unip.index,
                },
            )
        else:
            charpoly_mod = tuple(c % p for c in charpoly_exact(a))
            verdict = Verdict(
                p,
                NOT_RESIDUALLY_P,
                obstruction={
                    "criterion": "not_unipotent_mod_p",
                    "charpoly_mod_p": list(charpoly_mod),
                    "target": list(c % p for c in poly_pow_x_minus_one(a.n)),
                },
            )
        out.append(verdict.to_dict())
    return out


def fibered_verdicts_per_prime(spec, primes) -> list[dict]:
    """Free-fiber verdict dicts with the H_1 action rebuilt at every prime:
    the powers of M - I decide unipotence, and the ranks of those powers
    (``p_power_order_quotient_exists``) decide whether an invariant
    quotient of dimension >= 2 and p-power order exists."""
    if spec.rank < 2:
        raise InvalidSpec("rank-1 fibers are torus/BS territory")
    out = []
    for p in primes:
        a = abelianization_matrix(spec.fiber)
        abelianization = [list(r) for r in a.entries]
        unip = is_unipotent_mod(a, p)
        if unip:
            verdict = Verdict(
                p,
                RESIDUALLY_P,
                certificate={
                    "criterion": "unipotent_on_H1_mod_p",
                    "nilpotency_index": unip.index,
                    "abelianization": abelianization,
                },
            )
        elif not p_power_order_quotient_exists(ModMatrix.reduce(a, p), p).exists:
            verdict = Verdict(
                p,
                NOT_RESIDUALLY_P,
                obstruction={
                    "criterion": "no_p_power_invariant_quotient",
                    "examined_subspaces": 1,
                    "abelianization": abelianization,
                },
            )
        else:
            verdict = Verdict(
                p,
                UNDECIDED,
                reason=(
                    "not unipotent mod p, but an invariant quotient with p-power "
                    "order exists; no criterion applies"
                ),
            )
        out.append(verdict.to_dict())
    return out


def json_safe(value):
    """A copy of a report value that json.dumps takes: integers of absolute
    value 2^53 or more become strings and tuples lists; any other type
    than those of JSON is a TypeError."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= 2 ** 53 else value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    raise TypeError(f"unserializable value {value!r}")


def report_text_by_dumps(value) -> str:
    """The report text by copying the value and running json.dumps on it."""
    return json.dumps(json_safe(value), indent=2, sort_keys=True)


def artin_endo_by_composition(b) -> FreeEndo:
    """The braid's automorphism by compose_endos, one letter at a time,
    each step building and checking a certified endo."""
    endo = FreeEndo.identity(b.strands)
    for a in b.letters:
        endo = compose_endos(_elementary_endo(b.strands, a), endo)
    return endo


def trace_loop(cover, w: FreeWord) -> tuple[int, ...]:
    """Read w as a loop at the cover's base; its letters in the Schreier
    basis (signed 1-based indices).  InvalidSpec if w does not close up."""
    if w.rank != cover.rank:
        raise InvalidSpec("word rank differs from cover rank")
    index = {edge: i for i, edge in enumerate(cover.schreier_edges, start=1)}
    out: list[int] = []
    v = 0
    for a in w.letters:
        g = abs(a)
        step = cover.assignments[g - 1]
        if a > 0:
            edge = (v, g)
            v = (v + step) % cover.modulus
            if edge in index:
                out.append(index[edge])
        else:
            v = (v - step) % cover.modulus
            edge = (v, g)
            if edge in index:
                out.append(-index[edge])
    if v != 0:
        raise InvalidSpec("word is not a loop at the base vertex")
    return tuple(out)


def endo_preserves_cover_by_rewriting(phi: FreeEndo, cover) -> bool:
    """Does every Schreier basis loop's image die under chi?"""
    return all(cover.chi(apply_endo(phi, s)) == 0 for s in cover.schreier_basis_words)


def induced_cover_homology_by_rewriting(phi: FreeEndo, cover) -> IntMatrix:
    """phi on H_1 of the cover: apply phi to each Schreier basis loop,
    rewrite the image in the basis by trace_loop and abelianize it; the
    image of loop j is column j."""
    images = [apply_endo(phi, s) for s in cover.schreier_basis_words]
    if any(cover.chi(w) != 0 for w in images):
        raise InvalidSpec("endomorphism does not preserve the cover subgroup")
    r = cover.subgroup_rank
    cols = []
    for image in images:
        sums = [0] * r
        for a in trace_loop(cover, image):
            sums[abs(a) - 1] += 1 if a > 0 else -1
        cols.append(sums)
    return IntMatrix.from_rows([[cols[j][i] for j in range(r)] for i in range(r)])


def totients(limit: int) -> list[int]:
    """phi(k) for 0 <= k <= limit, by a sieve over the primes."""
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:  # untouched so far: q is prime
            for k in range(q, limit + 1, q):
                phi[k] -= phi[k] // q
    return phi


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> tuple[int, ...]:
    """Phi_k: x^k - 1 divided by Phi_d for each proper divisor d of k."""
    poly = (1,) + (0,) * (k - 1) + (-1,)
    for d in range(1, k):
        if k % d == 0:
            poly = poly_divmod(poly, cyclotomic(d))[0]
    return poly


def is_cyclotomic_product_by_division(coeffs) -> bool:
    """Divide out each Phi_k with phi(k) <= deg, as often as it divides
    exactly; a product of cyclotomics up to its content leaves 1.  Since
    phi(k) >= sqrt(k/2), every such k is at most 2 deg^2 + 1."""
    poly = list(coeffs)
    while len(poly) > 1 and poly[0] == 0:
        poly.pop(0)
    deg = len(poly) - 1
    if deg <= 0:
        return True
    content = math.gcd(*poly) if poly[0] > 0 else -math.gcd(*poly)
    poly = [c // content for c in poly]
    phi = totients(2 * deg * deg + 1)
    for k in range(1, len(phi)):
        if phi[k] > len(poly) - 1:
            continue
        while True:
            quotient, rest = poly_divmod(poly, cyclotomic(k))
            if any(rest):
                break
            poly = list(quotient)
    return poly == [1]


def endo_power_by_composition(phi: FreeEndo, k: int) -> FreeEndo:
    """phi^k by k calls of compose_endos (k >= 0)."""
    result = FreeEndo.identity(phi.rank)
    for _ in range(k):
        result = compose_endos(phi, result)
    return result


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


def lattice_chain_by_normal_forms(b: IntMatrix) -> LatticeChainInvariants:
    """The lattice chain's invariants from the lattices themselves.  A
    Hermite basis of L = B^n Z^n gives the stable rank; B written in that
    basis, by an exact rational solve that must come out integral, is a
    matrix T whose Smith diagonal multiplies to [L : B L].  The chain meets
    in {0} iff sympy's factorisation of charpoly(B) has no factor with
    constant term +-1 (x itself has 0)."""
    import sympy

    n = b.n
    h = hermite_normal_form((b ** n).rows())
    basis = [[row[j] for row in h] for j in range(len(h[0]))]
    r = len(basis)
    if r == 0:
        return LatticeChainInvariants(0, None, True)
    images = [
        [sum(b.entries[i][k] * vec[k] for k in range(n)) for i in range(n)]
        for vec in basis
    ]
    coords = _solve_exact(basis, images)
    if any(c.denominator != 1 for row in coords for c in row):
        raise InternalInvariant("B does not preserve B^n Z^n")
    t = IntMatrix.from_rows([[int(coords[i][j]) for j in range(r)] for i in range(r)])
    s = smith_normal_form(t.rows())
    index = math.prod(abs(s[i][i]) for i in range(r))
    if index == 0:
        raise InternalInvariant("B is not injective on B^n Z^n")
    x = sympy.Symbol("x")
    factors = sympy.Poly(list(charpoly_exact(b)), x).factor_list()[1]
    unit_part = any(abs(int(f.TC())) == 1 for f, _ in factors)
    return LatticeChainInvariants(r, index, not unit_part)


def bs_classify_by_matrix(q: int) -> BSReport:
    """BS(1,q) through the 1x1 matrix A = [q]: the primes dividing the gcd
    of the coefficients of charpoly(A) - (x - 1), and omega-nilpotence from
    the lattice chain of A - I."""
    a = IntMatrix.from_rows([[q]])
    g = math.gcd(*(c - t for c, t in zip(charpoly_exact(a), poly_pow_x_minus_one(1))))
    primes = PrimeSet(True, (), 0) if g == 0 else PrimeSet(False, prime_factors(g), g)
    omega = lattice_chain_invariants(a.minus_identity()).intersection_trivial
    return BSReport(q, primes, omega, trivial_case=q == 1)


# ---------------------------------------------------------------------------
# Lower-central layers through Lyndon words.  The library decides
# unipotence on every layer from H_1 by a theorem (the magnus module
# docstring): is_unipotent_mod of the H_1 action; these build each layer
# matrix.


@lru_cache(maxsize=None)
def lyndon_words(rank: int, max_len: int) -> tuple[tuple[int, ...], ...]:
    """All Lyndon words over 1..rank of length <= max_len (Duval), lex order."""
    words = []
    w = [1]
    while w:
        words.append(tuple(w))
        last = len(w)
        while len(w) < max_len:
            w.append(w[len(w) % last])
        while w and w[-1] == rank:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(sorted(words))


def lie_layer_basis(rank: int, i: int) -> tuple[tuple[int, ...], ...]:
    return tuple(w for w in lyndon_words(rank, i) if len(w) == i)


def witt_dimension(rank: int, i: int) -> int:
    """(1/i) * sum over e | i of mu(e) * rank^(i/e)"""
    total = sum(_mobius(e) * rank ** (i // e) for e in range(1, i + 1) if i % e == 0)
    if total % i:
        raise InternalInvariant("necklace count not divisible by the length")
    return total // i


def _mobius(m: int) -> int:
    result = 1
    for q in range(2, m + 1):
        if m % q == 0:
            if (m // q) % q == 0:
                return 0
            m //= q
            result = -result
    return result


@lru_cache(maxsize=None)
def standard_factorization(w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Chen-Fox-Lyndon factorization of a Lyndon word of length >= 2:
    w = u v with v the lexicographically least proper suffix."""
    if len(w) < 2:
        raise InvalidSpec("factorization needs length >= 2")
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


@lru_cache(maxsize=None)
def lyndon_bracket_word(rank: int, w: tuple[int, ...]) -> FreeWord:
    """Group commutator realizing the Lyndon bracketing of w."""
    if len(w) == 1:
        return FreeWord.generator(rank, w[0])
    u, v = standard_factorization(w)
    return commutator(lyndon_bracket_word(rank, u), lyndon_bracket_word(rank, v))


@lru_cache(maxsize=None)
def _lyndon_polynomial(w: tuple[int, ...]) -> dict:
    """Lie polynomial of the Lyndon bracketing, as monomial -> coefficient:
    w itself with coefficient 1 plus lex-greater monomials."""
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    out: dict = {}
    for m1, c1 in _lyndon_polynomial(u).items():
        for m2, c2 in _lyndon_polynomial(v).items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
            out[m2 + m1] = out.get(m2 + m1, 0) - c1 * c2
    poly = {m: c for m, c in out.items() if c}
    if poly.get(w) != 1 or any(m < w for m in poly):
        raise InternalInvariant("Lyndon triangularity violated")
    return poly


def _lie_coordinates(component: dict, basis, modulus: Optional[int]) -> list[int]:
    """Rewrite a degree-i Lie element (as a coefficient slice) in the Lyndon
    basis.  P_w = w + lex-greater monomials, so ascending-lex elimination
    terminates with remainder zero exactly for Lie elements."""
    remaining = dict(component)
    coords = []
    for w in basis:
        c = remaining.get(w, 0)
        coords.append(c)
        if not c:
            continue
        for m, pc in _lyndon_polynomial(w).items():
            v = remaining.get(m, 0) - c * pc
            if modulus is not None:
                v %= modulus
            if v:
                remaining[m] = v
            else:
                remaining.pop(m, None)
    if remaining:
        raise InvalidSpec("coefficient slice is not a Lie element")
    return coords


def lie_layer_matrix(phi: FreeEndo, i: int, modulus: Optional[int] = None) -> IntMatrix:
    """Action induced by a certified automorphism phi on gamma_i/gamma_(i+1)
    tensor the coefficients, in the basis of Lyndon words of length i,
    ascending lex: column j is the image of the bracket of basis word j,
    read off the degree-i slice of its Magnus embedding.  Entries are
    reduced when modulus is set; layer 1 is the abelianization matrix."""
    if not phi.is_certified:
        raise InvalidSpec("layer matrices need a certified automorphism")
    if i < 1:
        raise InvalidSpec("layer index must be >= 1")
    basis = lie_layer_basis(phi.rank, i)
    if len(basis) != witt_dimension(phi.rank, i):
        raise InternalInvariant("Lyndon basis size differs from the Witt dimension")
    columns = []
    for w in basis:
        image = apply_endo(phi, lyndon_bracket_word(phi.rank, w))
        series = magnus_embed(image, i, modulus)
        columns.append(_lie_coordinates(homogeneous(series, i), basis, modulus))
    return IntMatrix.from_rows([[col[r] for col in columns] for r in range(len(basis))])


def _joins(group, h: int, gens: tuple[int, ...]):
    """(g, <H, g>) for one g outside H from each double coset HgH.

    Every x in HgH gives <H, x> = <H, g>.  <H, g> is grown from H by whole
    right cosets (Dimino's algorithm): a union of right cosets of H that
    holds r*s for each coset representative r and each generator s of
    <H, g> is that subgroup."""
    todo = ((1 << group.order) - 1) & ~h
    if not todo:
        return
    members = _bits(h)
    rows = [group._row(y) for y in members]
    coset = [0] * group.order  # the bitmask of the right coset Hx, for every x
    for x in range(group.order):
        if not coset[x]:
            hx = [row[x] for row in rows]
            mask = _mask(hx)
            for z in hx:
                coset[z] = mask
    while todo:
        g = (todo & -todo).bit_length() - 1
        g_row = group._row(g)
        double = 0
        for y in members:
            double |= coset[g_row[y]]
        todo &= ~double
        joined = h | coset[g]
        reps = [g]
        for r in reps:  # grows as cosets are added
            row = group._row(r)
            for s in gens + (g,):
                x = row[s]
                if not joined >> x & 1:
                    joined |= coset[x]
                    reps.append(x)
        yield g, joined


def subgroup_lattice_by_joins(group) -> list[tuple[int, tuple[int, ...]]]:
    """(bitmask, generators) of every subgroup of a FinitePGroup, by joining
    each subgroup found with one element of every double coset, the way of
    any finite group; sorted as FinitePGroup._subgroup_lattice sorts."""
    found = {1: ()}  # bitmask -> generators
    queue = [1]
    for h in queue:  # breadth-first: the list is the queue
        for g, k in _joins(group, h, found[h]):
            if k not in found:
                found[k] = found[h] + (g,)
                queue.append(k)
    rank = [0] * group.order  # position of each element in matrix order
    for r, i in enumerate(sorted(range(group.order), key=group.elements.__getitem__)):
        rank[i] = r
    masks = sorted(found, key=lambda m: (m.bit_count(), sorted(rank[i] for i in _bits(m))))
    return [(m, found[m]) for m in masks]
