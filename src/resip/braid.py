"""Braids acting on free groups, and finite cyclic covers of the wedge.

Artin action of B_n on F_n = pi_1(n-punctured disk):
    sigma_i:   x_i -> x_i x_{i+1} x_i^-1,  x_{i+1} -> x_i
    sigma_i^-1: x_i -> x_{i+1},            x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}

CONVENTION: in a braid word read left to right, the leftmost letter acts
first, so the endomorphism of "s1 S2" is (action of S2) after (action of s1).

Braid text syntax mirrors word syntax: "s1 S2" with uppercase = inverse.

Covers here are coset graphs of kernels of F_n -> Z/m (generator g sent to
assignment a_g).  The Schreier basis is fixed by a breadth-first spanning
tree from the base vertex with generators tried in index order, so induced
homology matrices are reproducible bit for bit.

Cyclotomic test: the roots of a monic integer polynomial are all roots of
unity iff dividing out each Phi_k with phi(k) <= deg, as often as it
divides exactly, leaves 1.  Phi_k itself is x^k - 1 divided by Phi_d for
the proper divisors d of k, so no factorisation is needed.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from math import gcd
from typing import Optional

from .errors import InternalInvariant, InvalidSpec, NotInvariant, NotTransitive, RankMismatch
from .freegrp import FreeEndo, FreeWord, apply_endo, substitute
from .intlin import IntMatrix, poly_divmod
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
            raise RankMismatch("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)

    def __pow__(self, k: int) -> "BraidWord":
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord(self.strands, self.letters * k)


_TOKEN = re.compile(r"^([sS])(\d+)$")


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse "s1 S2" style input; empty or "1" is the trivial braid."""
    tokens = text.split()
    if not tokens or tokens == ["1"]:
        return BraidWord(strands, ())
    letters = []
    for tok in tokens:
        m = _TOKEN.match(tok)
        if not m:
            raise InvalidSpec(f"bad braid token {tok!r}")
        idx = int(m.group(2))
        letters.append(idx if m.group(1) == "s" else -idx)
    return BraidWord(strands, tuple(letters))


def format_braid(b: BraidWord) -> str:
    if not b.letters:
        return "1"
    return " ".join(f"s{a}" if a > 0 else f"S{-a}" for a in b.letters)


@lru_cache(maxsize=None)
def _elementary_endo(strands: int, letter: int) -> FreeEndo:
    n = strands
    i = abs(letter)
    images = []
    inverses = []
    for g in range(1, n + 1):
        if g == i:
            images.append(FreeWord.from_letters(n, (i, i + 1, -i)))
            inverses.append(FreeWord.generator(n, i + 1))
        elif g == i + 1:
            images.append(FreeWord.generator(n, i))
            inverses.append(FreeWord.from_letters(n, (-(i + 1), i, i + 1)))
        else:
            images.append(FreeWord.generator(n, g))
            inverses.append(FreeWord.generator(n, g))
    endo = FreeEndo(n, tuple(images), tuple(inverses))
    return endo if letter > 0 else endo.inverse_endo()


def artin_endo(b: BraidWord) -> FreeEndo:
    """Automorphism of F_strands induced by the braid, with certified inverse.

    Images and inverse are composed letter by letter as letter tuples, as
    compose_endos would compose them, so the inverse is checked once, when
    the result is built.
    """
    images = inverse = tuple((g,) for g in range(1, b.strands + 1))
    for a in b.letters:
        step = _elementary_endo(b.strands, a)
        images = tuple(substitute(step.letter_images, w) for w in images)
        inverse = tuple(substitute(inverse, w.letters) for w in step.certified_inverse)
    return FreeEndo.from_letters(b.strands, images, inverse)


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
            raise RankMismatch("one assignment per generator required")
        if any(not 0 <= a < modulus for a in assignments):
            raise InvalidSpec("assignments must be reduced mod m")
        if gcd(modulus, *assignments) != 1 and modulus > 1:
            raise NotTransitive(
                f"assignments {assignments} do not generate Z/{modulus}"
            )
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
    def _spanning_tree(self) -> tuple[Optional[tuple[int, int]], ...]:
        """parent[v] = (u, g) for the BFS tree edge u --g--> v; None at base."""
        m = self.modulus
        parent: list[Optional[tuple[int, int]]] = [None] * m
        seen = [False] * m
        seen[0] = True
        queue = [0]
        while queue:
            v = queue.pop(0)
            for g in range(1, self.rank + 1):
                w = (v + self.assignments[g - 1]) % m
                if not seen[w]:
                    seen[w] = True
                    parent[w] = (v, g)
                    queue.append(w)
        if not all(seen):
            raise NotTransitive("cover graph disconnected")
        return tuple(parent)

    @cached_property
    def _tree_paths(self) -> tuple[tuple[int, ...], ...]:
        """Letter sequence of the tree path base -> v, for each vertex v."""
        parent = self._spanning_tree
        paths: list[Optional[tuple[int, ...]]] = [None] * self.modulus
        paths[0] = ()

        def path(v: int) -> tuple[int, ...]:
            if paths[v] is None:
                u, g = parent[v]
                paths[v] = path(u) + (g,)
            return paths[v]

        for v in range(self.modulus):
            path(v)
        return tuple(paths)  # type: ignore[arg-type]

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        """Non-tree edge (v, g) -> its 1-based index in the Schreier basis,
        in order of vertex then generator."""
        tree = {(pg[0], pg[1], v) for v, pg in enumerate(self._spanning_tree) if pg is not None}
        edges = []
        for v in range(self.modulus):
            for g in range(1, self.rank + 1):
                w = (v + self.assignments[g - 1]) % self.modulus
                if (v, g, w) not in tree:
                    edges.append((v, g))
        return {edge: i for i, edge in enumerate(edges, start=1)}

    @cached_property
    def _basis(self) -> tuple[FreeWord, ...]:
        paths = self._tree_paths
        words = []
        for v, g in self._edge_index:
            w = (v + self.assignments[g - 1]) % self.modulus
            letters = paths[v] + (g,) + tuple(-a for a in reversed(paths[w]))
            words.append(FreeWord.from_letters(self.rank, letters))
        return tuple(words)

    def schreier_edges(self) -> list[tuple[int, int]]:
        """Non-tree edges (v, g), the index set of the Schreier basis,
        ordered by vertex then generator."""
        return list(self._edge_index)

    def schreier_basis_words(self) -> list[FreeWord]:
        """The basis loops: tree path to v, edge g, tree path back."""
        return list(self._basis)

    def trace_loop(self, w: FreeWord) -> tuple[int, ...]:
        """Read w as a loop at the base; return its letters in the Schreier
        basis (signed indices).  NotInvariant if w does not close up."""
        if w.rank != self.rank:
            raise RankMismatch("word rank differs from cover rank")
        index = self._edge_index
        out: list[int] = []
        v = 0
        for a in w.letters:
            g = abs(a)
            step = self.assignments[g - 1]
            if a > 0:
                edge = (v, g)
                v = (v + step) % self.modulus
                if edge in index:
                    out.append(index[edge])
            else:
                v = (v - step) % self.modulus
                edge = (v, g)
                if edge in index:
                    out.append(-index[edge])
        if v != 0:
            raise NotInvariant("word is not a loop at the base vertex")
        return tuple(out)


def cover_from_finite_quotient(rank: int, assignments, modulus: int) -> CoverGraph:
    """Cover attached to F_rank -> Z/modulus, x_g -> assignments[g-1]."""
    reduced = tuple(a % modulus for a in assignments)
    return CoverGraph(rank, modulus, reduced)


def endo_preserves_cover(phi: FreeEndo, cover: CoverGraph) -> bool:
    """Does phi map the cover subgroup into itself?

    Checked on the Schreier generators: each basis loop's image must again
    be readable as a loop, i.e. die under chi.  (Checking chi(phi(x_i)) =
    chi(x_i) for all i is sufficient but not necessary; the subgroup only
    needs chi(phi(w)) = 0 whenever chi(w) = 0.)
    """
    if phi.rank != cover.rank:
        raise RankMismatch("endo rank differs from cover rank")
    return all(
        cover.chi(apply_endo(phi, s)) == 0 for s in cover.schreier_basis_words()
    )


def induced_cover_homology(phi: FreeEndo, cover: CoverGraph) -> IntMatrix:
    """Matrix of phi on H_1 of the cover in the fixed Schreier basis.

    Column j is the abelianized rewrite of phi(basis loop j).
    """
    if phi.rank != cover.rank:
        raise RankMismatch("endo rank differs from cover rank")
    images = [apply_endo(phi, s) for s in cover.schreier_basis_words()]
    if any(cover.chi(w) != 0 for w in images):  # as endo_preserves_cover
        raise NotInvariant("endomorphism does not preserve the cover subgroup")
    r = cover.subgroup_rank
    if len(images) != r:
        raise InternalInvariant("Schreier basis size differs from the subgroup rank")
    cols = []
    for image in images:
        letters = cover.trace_loop(image)
        sums = [0] * r
        for a in letters:
            sums[abs(a) - 1] += 1 if a > 0 else -1
        cols.append(sums)
    return IntMatrix.from_rows([[cols[j][i] for j in range(r)] for i in range(r)])


def _totients(limit: int) -> list[int]:
    """phi(k) for 0 <= k <= limit, by a sieve over the primes."""
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:  # untouched so far: q is prime
            for k in range(q, limit + 1, q):
                phi[k] -= phi[k] // q
    return phi


@lru_cache(maxsize=None)
def _cyclotomic(k: int) -> tuple[int, ...]:
    """Phi_k: x^k - 1 divided by Phi_d for each proper divisor d of k."""
    poly = (1,) + (0,) * (k - 1) + (-1,)
    for d in range(1, k):
        if k % d == 0:
            poly = poly_divmod(poly, _cyclotomic(d))[0]
    return poly


def is_cyclotomic_product(coeffs: tuple[int, ...]) -> bool:
    """Does the integer polynomial, up to its content, divide a product of
    cyclotomics, i.e. are all its roots roots of unity?

    Criterion: divide out each Phi_k with phi(k) <= deg, as often as it
    divides exactly; the polynomial is a product of cyclotomics iff what
    is left is 1.  Since phi(k) >= sqrt(k/2), every such k is at most
    2 deg^2 + 1.  A constant is an empty product; x is not one, because
    the root 0 is not a root of unity.
    """
    poly = list(coeffs)
    while len(poly) > 1 and poly[0] == 0:
        poly.pop(0)
    deg = len(poly) - 1
    if deg <= 0:
        return True
    content = gcd(*poly) if poly[0] > 0 else -gcd(*poly)
    poly = [c // content for c in poly]
    phi = _totients(2 * deg * deg + 1)
    for k in range(1, len(phi)):
        if phi[k] > len(poly) - 1:
            continue
        while True:
            quotient, rest = poly_divmod(poly, _cyclotomic(k))
            if any(rest):
                break
            poly = list(quotient)
    return poly == [1]


def beta_braid() -> BraidWord:
    """sigma_1 sigma_2^-1 in B_3, the once-punctured-torus monodromy braid."""
    return BraidWord(3, (1, -2))
