"""Braids acting on free groups, and finite cyclic covers of the wedge.

Artin action of B_n on F_n = pi_1(n-punctured disk):
    sigma_i:   x_i -> x_i x_{i+1} x_i^-1,  x_{i+1} -> x_i
    sigma_i^-1: x_i -> x_{i+1},            x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}

CONVENTION: in a braid word read left to right, the leftmost letter acts
first, so the endomorphism of "s1 S2" is (action of S2) after (action of s1).

Braid text syntax mirrors word syntax: "s1 S2" with uppercase = inverse.

Covers.  A cover is the coset graph of K = ker(chi), chi: F_n -> Z/m onto,
x_k -> a_k.  Its vertices are Z/m with base 0; the edge labelled k at
vertex v, written t^v e_k, runs from v to v + a_k.  So the 1-chains are
Z[Z/m]^n, and H_1(K) is the group of 1-cycles (a graph has no 2-cells).
The Schreier basis is fixed by a breadth-first spanning tree from the base
with generators tried in index order: the loop of the non-tree edge
(v, g) -> w is path(v) x_g path(w)^-1, and the loops are ordered by vertex
then generator, so induced homology matrices are reproducible bit for bit.

Cover homology from colored Fox Jacobians (Fox, "Free differential
calculus I", Ann. of Math. 1953; the Burau matrix as the action on H_1 of a
cyclic cover, Birman, "Braids, Links, and Mapping Class Groups", 1974).
For a homomorphism c: F_n -> Z/m, write (dw/dx_l)^c for the Fox derivative
of w with each group element g sent to t^c(g) in Z[Z/m], and J^c(phi) for
the n x n matrix with entries J_kl = (d phi(x_k) / dx_l)^c: row k holds the
derivatives of phi(x_k).  Write c0 = chi o phi.

(1) Lift formula.  The path that reads w from vertex 0 has the 1-chain
    sum_l (dw/dx_l)^chi e_l.  By induction on the length, with
    d(uv) = du + u dv: after u the path stands at chi(u), so v's chain is
    multiplied by t^chi(u); the letter x_l read at vertex s crosses t^s e_l
    (dx_l/dx_l = 1), and x_l^-1 read at s crosses t^(s - a_l) e_l
    backwards (dx_l^-1/dx_l = -x_l^-1).  A cancelling pair crosses one edge
    both ways, so the chain depends only on the group element.  Read from
    vertex e instead of 0, the chain is multiplied by t^e.

(2) Image of a basis loop.  phi(y x_g) = phi(y) phi(x_g), so by (1) the
    chain of phi(y x_g) read from 0 is that of phi(y) plus t^c0(y) times
    row g of J^chi(phi): each edge a path crosses maps to row g shifted by
    the c0-level of the path up to it.  phi(K) lies in K iff c0 = u chi
    for some u in Z/m (``endo_preserves_cover``); otherwise InvalidSpec
    is raised.  Then the level of path(v) is L[v] = c0(path(v)) = u v.
    Let P[v] be the chain of phi(path(v)).  Along the tree edge
    v' --g--> v, P[v] = P[v'] + t^L[v'] J_g, prefix sums in breadth-first
    order from P[0] = 0.  The image of the loop of the non-tree edge
    (v, g) -> w is phi(path(v)) phi(x_g) phi(path(w))^-1, whose way back
    is read from level L[w], so its chain is P[v] + t^L[v] J_g - P[w].

(3) Schreier coordinates are non-tree edge coefficients.  The loop of the
    non-tree edge e crosses e once, forwards, and no other non-tree edge.
    If z is a cycle with coefficient z_e on e, then z - sum_e z_e loop_e is
    a cycle carried by the tree, and a tree carries no cycle but 0.  So
    column j of the matrix is the image of loop j read at the non-tree
    edges in basis order: what rewriting phi(loop j) in the Schreier basis
    and abelianizing gives, without rewriting a word.

(4) Chain rule with suffix colorings.  Fox's chain rule
    d psi(w)/dx_l = sum_j psi(dw/dx_j) d psi(x_j)/dx_l, evaluated by c,
    reads J^c(psi o rho) = J^(c o psi)(rho) J^c(psi).  For a braid
    phi = phi_L o ... o phi_1 (letter 1 acts first) induction gives
        J^chi(phi) = J^chi_1(phi_1) J^chi_2(phi_2) ... J^chi_L(phi_L),
    chi_k = chi o phi_L o ... o phi_(k+1).  sigma_i^(+-1) sends x_i and
    x_(i+1) to conjugates of x_(i+1) and x_i, so chi o sigma_i^(+-1) is chi
    with a_i and a_(i+1) swapped: chi_k is chi with the assignments
    permuted by the letters after k, and chi_0 = c0.  With colors b, the
    factor is the identity except in rows i and i + 1:
        sigma_i:     row i = (1 - t^b_(i+1)) e_i + t^b_i e_(i+1),
                     row i+1 = e_i;
        sigma_i^-1:  row i = e_(i+1),
                     row i+1 = t^-b_(i+1) e_i
                               + (t^(b_i - b_(i+1)) - t^-b_(i+1)) e_(i+1).
    braid_cover_homology multiplies the factors in from the left, last
    letter first, swapping two colors after each, so the colors end as c0.
    Each letter rewrites two rows of n entries of Z[Z/m]; no image word is
    formed, and the cost is linear in the braid's length.

A row of J is stored vertex-major: entry v*n + l - 1 is the coefficient of
t^v e_l, so multiplying by t^s rotates the list by s*n places, and a chain
of the cover is a list of the same shape.

Cyclotomic test, by Dandelin-Graeffe root squaring (Bradford and
Davenport, "Effective tests for cyclotomic polynomials", ISSAC '88, LNCS
358).  For f of degree d, G(f)(x^2) = (-1)^d f(x) f(-x) defines G(f): its
roots are the squares of those of f, and it is monic if f is.  Claim: for
f monic over Z with f(0) != 0 and S = d.bit_length(), every root of f is
a root of unity iff G^(S+1)(f) = G^S(f).

(a) G is multiplicative.  Squaring permutes the primitive k-th roots of
    unity for odd k, maps them one to one onto the primitive (k/2)-th
    roots for k = 2 mod 4, and two to one for 4 | k; by degree, G(Phi_k)
    is Phi_k, Phi_(k/2) and Phi_(k/2)^2 in these cases.
(b) If every root of f is a root of unity, f is the product of their
    minimal polynomials Phi_k, with phi(k) <= d.  As
    phi(k) >= 2^(v_2(k) - 1) and d < 2^S, v_2(k) <= S.  By (a) each step
    halves every even k and keeps every odd one, so G fixes G^S(f).
(c) If G(g) = g for g = G^s(f), squaring maps the roots of g, none 0,
    onto themselves, so it permutes them and some power of it, the t-th
    with t >= 1, is the identity: beta^(2^t - 1) = 1 for each root beta.
    Each root alpha of f has alpha^(2^s) among them, so it is a root of
    unity.

is_cyclotomic_product applies G at most S + 1 times and answers True at
the first fixed point, by (c).  It answers False once an iterate has a
coefficient of x^(d-i) above C(d, i) in absolute value, the bound on the
i-th elementary symmetric function of d roots on the unit circle: by (a)
every iterate of a product of Phi_k is one.  This keeps the integers
small.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from math import comb, gcd
from typing import Optional

from .errors import InternalInvariant, InvalidSpec
from .freegrp import FreeEndo, FreeWord, _compose
from .intlin import IntMatrix
from .record import Record


class BraidWord(Record):
    """Word in B_strands; letters are signed generator indices in 1..strands-1."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...]):
        if strands < 2:
            raise InvalidSpec("braid group needs at least 2 strands")
        for a in letters:
            if a == 0 or abs(a) > strands - 1:
                raise InvalidSpec(f"braid letter {a} out of range")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-a for a in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise InvalidSpec("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)

    def __pow__(self, k: int) -> "BraidWord":
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord(self.strands, self.letters * k)


_TOKEN = re.compile(r"([sS])([0-9]+)")  # ASCII digits only: \d takes any Unicode digit


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse "s1 S2" style input; empty or "1" is the trivial braid."""
    tokens = text.split()
    if not tokens or tokens == ["1"]:
        return BraidWord(strands, ())
    letters = []
    for tok in tokens:
        m = _TOKEN.fullmatch(tok)
        if not m:
            raise InvalidSpec(f"bad braid token {tok!r}")
        try:
            idx = int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise InvalidSpec(f"braid letter of {len(m.group(2))} digits out of range") from None
        letters.append(idx if m.group(1) == "s" else -idx)
    return BraidWord(strands, tuple(letters))


def format_braid(b: BraidWord) -> str:
    if not b.letters:
        return "1"
    return " ".join(f"s{a}" if a > 0 else f"S{-a}" for a in b.letters)


@lru_cache(maxsize=None)
def _elementary_endo(strands: int, letter: int) -> FreeEndo:
    i = abs(letter)
    images = [(g,) for g in range(1, strands + 1)]
    inverses = list(images)
    images[i - 1 : i + 1] = (i, i + 1, -i), (i,)
    inverses[i - 1 : i + 1] = (i + 1,), (-(i + 1), i, i + 1)
    endo = FreeEndo.from_letters(strands, images, inverses)
    return endo if letter > 0 else endo.inverse_endo()


def artin_endo(b: BraidWord) -> FreeEndo:
    """Automorphism of F_strands induced by the braid, with certified
    inverse: the composite of its letters' automorphisms, the first letter
    acting first."""
    return _compose(b.strands, (_elementary_endo(b.strands, a) for a in b.letters))


def braid_permutation(b: BraidWord) -> tuple[tuple[int, ...], bool]:
    """Image in S_n as a tuple (perm[i-1] = image of strand i), plus purity."""
    n = b.strands
    perm = list(range(1, n + 1))
    for a in b.letters:
        i = abs(a)
        # each generator induces the transposition (i, i+1)
        lo = perm.index(i)
        hi = perm.index(i + 1)
        perm[lo], perm[hi] = perm[hi], perm[lo]
    result = tuple(perm)
    return result, result == tuple(range(1, n + 1))


def permutation_order(perm: tuple[int, ...]) -> int:
    order = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        v = start
        while v not in seen:
            seen.add(v)
            v = perm[v] - 1
            length += 1
        order = order * length // gcd(order, length)
    return order


class CoverGraph(Record):
    """Coset graph of ker(F_rank -> Z/m), generator g acting by +a_g.

    Vertices are 0..m-1 with base 0; the edge labelled g at vertex v goes to
    v + a_g mod m.  The spanning tree, the Schreier edges and the basis
    loops are computed once per cover, on first use.
    """

    __slots__ = ("rank", "modulus", "assignments", "__dict__")  # __dict__: the cached properties

    def __init__(self, rank: int, modulus: int, assignments: tuple[int, ...]):
        if modulus < 1:
            raise InvalidSpec("cover index must be >= 1")
        if len(assignments) != rank:
            raise InvalidSpec("one assignment per generator required")
        if any(not 0 <= a < modulus for a in assignments):
            raise InvalidSpec("assignments must be reduced mod m")
        if gcd(modulus, *assignments) != 1 and modulus > 1:
            raise InvalidSpec(f"assignments {assignments} do not generate Z/{modulus}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "assignments", assignments)

    @property
    def subgroup_rank(self) -> int:
        # Euler characteristic of the cover graph: rank = E - V + 1
        return self.modulus * (self.rank - 1) + 1

    def chi(self, w: FreeWord) -> int:
        """Image of w in Z/m."""
        total = 0
        for a in w.letters:
            total += self.assignments[abs(a) - 1] if a > 0 else -self.assignments[abs(a) - 1]
        return total % self.modulus

    @cached_property
    def _tree_edges(self) -> tuple[tuple[int, int, int], ...]:
        """The BFS tree edges u --g--> v, in the order the BFS finds them,
        so each u is the base or an earlier edge's v."""
        m = self.modulus
        edges = []
        seen = [False] * m
        seen[0] = True
        queue = [0]
        for u in queue:
            for g in range(1, self.rank + 1):
                v = (u + self.assignments[g - 1]) % m
                if not seen[v]:
                    seen[v] = True
                    edges.append((u, g, v))
                    queue.append(v)
        if not all(seen):  # __init__ requires the assignments to generate Z/m
            raise InternalInvariant("cover graph disconnected")
        return tuple(edges)

    @cached_property
    def _schreier_edges(self) -> tuple[tuple[int, int], ...]:
        """The non-tree edges (v, g), in order of vertex then generator."""
        tree = {(u, g) for u, g, _ in self._tree_edges}
        return tuple(
            (v, g)
            for v in range(self.modulus)
            for g in range(1, self.rank + 1)
            if (v, g) not in tree
        )

    @cached_property
    def _basis(self) -> tuple[FreeWord, ...]:
        paths: list[tuple[int, ...]] = [()] * self.modulus
        for u, g, v in self._tree_edges:
            paths[v] = paths[u] + (g,)
        words = []
        for v, g in self._schreier_edges:
            w = (v + self.assignments[g - 1]) % self.modulus
            letters = paths[v] + (g,) + tuple(-a for a in reversed(paths[w]))
            words.append(FreeWord.from_letters(self.rank, letters))
        return tuple(words)

    def schreier_edges(self) -> list[tuple[int, int]]:
        """Non-tree edges (v, g), the index set of the Schreier basis,
        ordered by vertex then generator."""
        return list(self._schreier_edges)

    def schreier_basis_words(self) -> list[FreeWord]:
        """The basis loops: tree path to v, edge g, tree path back."""
        return list(self._basis)


def cover_from_finite_quotient(rank: int, assignments, modulus: int) -> CoverGraph:
    """Cover attached to F_rank -> Z/modulus, x_g -> assignments[g-1]."""
    reduced = tuple(a % modulus for a in assignments)
    return CoverGraph(rank, modulus, reduced)


def endo_preserves_cover(phi: FreeEndo, cover: CoverGraph) -> bool:
    """Does phi map the cover subgroup K = ker(chi) into itself?

    Criterion: phi(K) <= K iff chi o phi = u chi for some u in Z/m, and
    then u = chi(phi(path(1))), with path(1) the tree path to the vertex
    1 mod m.  So it suffices to compute that u and check
    chi(phi(x_k)) = u a_k for every k.

    Proof.  If chi o phi = u chi, then chi(phi(w)) = u chi(w) = 0 for w in
    K.  Conversely, if phi(K) <= K then chi o phi kills K, so it factors
    through F/K, which chi maps onto Z/m (CoverGraph requires chi onto):
    chi o phi = f o chi for an endomorphism f of Z/m, that is, multiplication
    by some u.  As chi(path(1)) = 1 mod m, chi(phi(path(1))) = u.  Two
    homomorphisms that agree on the generators x_k are equal.
    """
    if phi.rank != cover.rank:
        raise InvalidSpec("endo rank differs from cover rank")
    return _cover_unit(cover, [cover.chi(w) for w in phi.images]) is not None


def _cover_unit(cover: CoverGraph, c0: list[int]) -> Optional[int]:
    """The u with chi o phi = u chi, from c0[k] = chi(phi(x_(k+1))), or
    None if phi does not preserve the cover subgroup: the criterion of
    ``endo_preserves_cover``, with levels[v] = chi(phi(path(v)))."""
    m = cover.modulus
    levels = [0] * m
    for u, g, v in cover._tree_edges:
        levels[v] = (levels[u] + c0[g - 1]) % m
    unit = levels[1 % m]
    if any((c - unit * a) % m for c, a in zip(c0, cover.assignments)):
        return None
    return unit


def _shift(row: list[int], s: int, n: int, m: int) -> list[int]:
    """t^s times a vertex-major row or chain: entry v*n + l - 1 moves to
    (v + s)*n + l - 1."""
    cut = s % m * n
    return row[-cut:] + row[:-cut]  # cut = 0 gives a copy of row


def _cover_matrix(cover: CoverGraph, rows: list[list[int]], c0: list[int]) -> IntMatrix:
    """The matrix of phi on H_1 of the cover, from the rows of J^chi(phi)
    and c0[k] = chi(phi(x_(k+1))), by (2) and (3) of the module docstring.
    InvalidSpec unless phi preserves the cover subgroup."""
    n, m = cover.rank, cover.modulus
    unit = _cover_unit(cover, c0)
    if unit is None:
        raise InvalidSpec("endomorphism does not preserve the cover subgroup")
    chains: list[list[int]] = [[0] * (n * m)] * m  # P[v]; every v is set below
    for u, g, v in cover._tree_edges:
        chains[v] = [x + y for x, y in zip(chains[u], _shift(rows[g - 1], unit * u, n, m))]
    edges = cover._schreier_edges
    if len(edges) != cover.subgroup_rank:
        raise InternalInvariant("Schreier basis size differs from the subgroup rank")
    positions = [v * n + g - 1 for v, g in edges]
    columns = []
    for v, g in edges:
        w = (v + cover.assignments[g - 1]) % m
        step = _shift(rows[g - 1], unit * v, n, m)
        image = [x + y - z for x, y, z in zip(chains[v], step, chains[w])]
        columns.append([image[p] for p in positions])
    return IntMatrix._trusted(tuple(zip(*columns)))


def induced_cover_homology(phi: FreeEndo, cover: CoverGraph) -> IntMatrix:
    """Matrix of phi on H_1 of the cover in the fixed Schreier basis.

    Row k of J^chi(phi) is the chain of phi(x_k) read from the base, (1) of
    the module docstring, so one pass over the image words builds J and c0;
    the matrix is then read off J as the braid path reads it.
    """
    if phi.rank != cover.rank:
        raise InvalidSpec("endo rank differs from cover rank")
    n, m, a = cover.rank, cover.modulus, cover.assignments
    rows, c0 = [], []
    for word in phi.images:
        row = [0] * (n * m)
        s = 0
        for x in word.letters:
            if x > 0:
                row[s * n + x - 1] += 1
                s = (s + a[x - 1]) % m
            else:
                s = (s - a[-x - 1]) % m
                row[s * n - x - 1] -= 1
        rows.append(row)
        c0.append(s)
    return _cover_matrix(cover, rows, c0)


def braid_cover_homology(b: BraidWord, cover: CoverGraph) -> IntMatrix:
    """Matrix of the braid's automorphism on H_1 of the cover, equal to
    induced_cover_homology(artin_endo(b), cover) but built letter by letter
    from colored Burau factors, (4) of the module docstring, without the
    automorphism or any image word."""
    n, m = b.strands, cover.modulus
    if cover.rank != n:
        raise InvalidSpec("braid strand count differs from cover rank")
    rows = [[0] * (n * m) for _ in range(n)]
    for k in range(n):
        rows[k][k] = 1  # J of the identity: e_k at vertex 0
    colors = list(cover.assignments)
    for a in reversed(b.letters):
        i = abs(a)  # rows i - 1 and i hold rows i and i + 1 of J
        first, second = rows[i - 1], rows[i]
        bi, bj = colors[i - 1], colors[i]
        if a > 0:
            rows[i - 1] = [
                x - y + z
                for x, y, z in zip(first, _shift(first, bj, n, m), _shift(second, bi, n, m))
            ]
            rows[i] = first
        else:
            rows[i - 1] = second
            rows[i] = [
                x + y - z
                for x, y, z in zip(
                    _shift(first, -bj, n, m),
                    _shift(second, bi - bj, n, m),
                    _shift(second, -bj, n, m),
                )
            ]
        colors[i - 1], colors[i] = bj, bi
    return _cover_matrix(cover, rows, colors)


def _graeffe(f: list[int]) -> list[int]:
    """G(f) of the module docstring, in descending coefficients."""
    twisted = [-c if i % 2 else c for i, c in enumerate(f)]  # (-1)^d f(-x)
    product = [0] * (2 * len(f) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(twisted, i):
            product[j] += a * b
    return product[::2]  # the odd coefficients of an even polynomial are 0


def is_cyclotomic_product(coeffs: tuple[int, ...]) -> bool:
    """Is the integer polynomial, up to its content, a product of
    cyclotomics?  Decided by root squaring (module docstring).  A constant
    is an empty product; x is not one, since 0 is not a root of unity."""
    poly = list(coeffs)
    while len(poly) > 1 and poly[0] == 0:
        poly.pop(0)
    deg = len(poly) - 1
    if deg <= 0:
        return True
    content = gcd(*poly) if poly[0] > 0 else -gcd(*poly)
    poly = [c // content for c in poly]
    if poly[0] != 1 or poly[-1] == 0:
        return False
    bounds = [comb(deg, i) for i in range(deg + 1)]
    for _ in range(deg.bit_length() + 1):
        if any(abs(c) > b for c, b in zip(poly, bounds)):
            return False
        image = _graeffe(poly)
        if image == poly:
            return True
        poly = image
    return False


def beta_braid() -> BraidWord:
    """sigma_1 sigma_2^-1 in B_3, the once-punctured-torus monodromy braid."""
    return BraidWord(3, (1, -2))
