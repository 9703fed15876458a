"""Truncated Magnus expansion, and the lower-central layers decided on H_1.

The free group F_n embeds into the units of Z<<X_1..X_n>> by x_i -> 1 + X_i.
Truncating at degree d (and optionally reducing coefficients mod a prime
power) yields finite nilpotent images; over F_p the kernels are the mod-p
dimension subgroups, which are fully invariant and of p-power index.  These
kernels, not the lower p-central series, are the quotient family used by
the witness engine.

Kernels.  A series is one sparse table {monomial: coefficient} holding
nonzero reduced coefficients only; there is no dense form.
* magnus_embed multiplies the running table by one letter at a time, in
  place: by 1 + X_i, every m of degree < d adds its coefficient at
  m + (i,); by (1 + X_i)^-1, the result y solves y = x - y X_i, filled in
  ascending degree.  No series product is formed.
* SeriesSubstitution is linear, so it memoises the image of each monomial
  it meets, one product from the image of its prefix, and a call sums
  c * image(m) into one table that is reduced once.
* TruncatedSeries.__mul__ walks, for each left monomial, only the right
  monomials whose degree still fits under the truncation.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from .caps import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InvalidSpec
from .freegrp import FreeEndo, FreeWord, abelianization_matrix
from .intlin import charpoly_exact, is_unipotent_mod, poly_pow_x_minus_one

Monomial = tuple[int, ...]  # sequence of generator indices, () = constant term


class TruncatedSeries:
    """Noncommutative polynomial truncated at total degree d.

    Coefficients are integers, reduced mod `modulus` when set (None = Z).
    The table maps monomials to nonzero coefficients only.
    """

    __slots__ = ("rank", "degree", "modulus", "table")

    def __init__(self, rank: int, degree: int, modulus: Optional[int], table: dict):
        if rank < 1 or degree < 1:
            raise InvalidSpec("rank and degree must be >= 1")
        if modulus is not None and modulus < 2:
            raise InvalidSpec("modulus must be >= 2")
        self.rank = rank
        self.degree = degree
        self.modulus = modulus
        self.table = table

    @staticmethod
    def one(rank: int, degree: int, modulus: Optional[int] = None) -> "TruncatedSeries":
        return TruncatedSeries(rank, degree, modulus, {(): 1})

    @staticmethod
    def generator_term(rank: int, degree: int, i: int, modulus: Optional[int] = None) -> "TruncatedSeries":
        """1 + X_i"""
        return TruncatedSeries(rank, degree, modulus, {(): 1, (i,): 1})

    def _red(self, c: int) -> int:
        return c % self.modulus if self.modulus is not None else c

    def _compatible(self, other: "TruncatedSeries") -> None:
        if (self.rank, self.degree, self.modulus) != (
            other.rank,
            other.degree,
            other.modulus,
        ):
            raise InvalidSpec("series parameters differ")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and (self.rank, self.degree, self.modulus) == (other.rank, other.degree, other.modulus)
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.rank, self.degree, self.modulus, frozenset(self.table.items())))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compatible(other)
        table = dict(self.table)
        for m, c in other.table.items():
            v = self._red(table.get(m, 0) + c)
            if v:
                table[m] = v
            else:
                table.pop(m, None)
        return TruncatedSeries(self.rank, self.degree, self.modulus, table)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scale(-1)

    def scale(self, k: int) -> "TruncatedSeries":
        k = self._red(k)
        table = {}
        for m, c in self.table.items():
            v = self._red(c * k)
            if v:
                table[m] = v
        return TruncatedSeries(self.rank, self.degree, self.modulus, table)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Truncated product.  The right factor is sorted by degree once, so
        a left monomial of degree k walks only the prefix of degree <= d - k
        and no pair past the truncation is visited."""
        self._compatible(other)
        d = self.degree
        items = sorted(other.table.items(), key=lambda mc: len(mc[0]))
        ends = [0] * (d + 1)  # ends[k] = number of right monomials of degree <= k
        for m, _ in items:
            ends[len(m)] += 1
        for k in range(1, d + 1):
            ends[k] += ends[k - 1]
        table: dict = {}
        get = table.get
        for m1, c1 in self.table.items():
            for m2, c2 in islice(items, ends[d - len(m1)]):
                m = m1 + m2
                table[m] = get(m, 0) + c1 * c2
        return TruncatedSeries(self.rank, d, self.modulus, _reduced(table, self.modulus))

    def is_one(self) -> bool:
        return self.table == {(): 1}

    def coefficient(self, m: Monomial) -> int:
        return self.table.get(tuple(m), 0)

    def homogeneous(self, i: int) -> dict:
        """Degree-i coefficient slice."""
        return {m: c for m, c in self.table.items() if len(m) == i}

    def unit_inverse(self) -> "TruncatedSeries":
        """Inverse of a series with constant term 1 (geometric expansion)."""
        if self.table.get((), 0) != 1:
            raise InvalidSpec("unit_inverse needs constant term 1")
        one = TruncatedSeries.one(self.rank, self.degree, self.modulus)
        y = self - one
        inv = one
        for _ in range(self.degree):
            inv = one - y * inv
        return inv

    def __repr__(self):
        if not self.table:
            return "0"
        parts = []
        for m in sorted(self.table, key=lambda m: (len(m), m)):
            c = self.table[m]
            name = "".join(f"X{i}" for i in m) if m else "1"
            parts.append(f"{c}*{name}" if m else str(c))
        return " + ".join(parts)


def _reduced(table: dict, modulus: Optional[int]) -> dict:
    """The table with coefficients reduced and zero entries dropped."""
    if modulus is None:
        return {m: c for m, c in table.items() if c}
    return {m: v for m, c in table.items() if (v := c % modulus)}


def _times_generator(table: dict, i: int, d: int, modulus: Optional[int]) -> None:
    """table <- table * (1 + X_i), in place: every m of degree < d adds its
    coefficient at m + (i,), read from a snapshot of the table."""
    step = (i,)
    for m, c in [(m, c) for m, c in table.items() if len(m) < d]:
        n = m + step
        v = table.get(n, 0) + c
        if modulus is not None:
            v %= modulus
        if v:
            table[n] = v
        else:
            del table[n]


def _times_generator_inverse(table: dict, i: int, d: int, modulus: Optional[int]) -> None:
    """table <- table * (1 + X_i)^-1, in place.

    The result y of x * (1 + X_i)^-1 solves y = x - y X_i.  The coefficient
    of m + (i,) in y X_i is the coefficient of m in y, one degree lower, so
    ascending degree order finishes every y[m] before it is used."""
    step = (i,)
    levels: list[list] = [[] for _ in range(d + 1)]
    for m in table:
        levels[len(m)].append(m)
    for k in range(d):
        above = levels[k + 1]
        for m in levels[k]:
            c = table.get(m)
            if c is None:  # cancelled earlier in this pass
                continue
            n = m + step
            old = table.get(n)
            if old is None:
                above.append(n)
                old = 0
            v = old - c
            if modulus is not None:
                v %= modulus
            if v:
                table[n] = v
            else:
                del table[n]


def magnus_embed(
    w: FreeWord,
    d: int,
    modulus: Optional[int] = None,
    caps: Caps = DEFAULT_CAPS,
) -> TruncatedSeries:
    """Image of w under x_i -> 1 + X_i, truncated at degree d.

    Inverse letters map to the truncated geometric series of (1 + X_i)^-1,
    so the map is multiplicative on the nose: embed(uv) = embed(u) *
    embed(v).  The running table is multiplied by one letter at a time, in
    place and reduced after each letter; no series product is formed.
    """
    if d < 1:
        raise InvalidSpec("degree must be >= 1")
    if d > caps.magnus_degree:
        raise CapExceeded("magnus_degree", caps.magnus_degree)
    if w.rank > caps.max_rank:
        raise CapExceeded("max_rank", caps.max_rank)
    table: dict = {(): 1}
    for a in w.letters:
        if a > 0:
            _times_generator(table, a, d, modulus)
        else:
            _times_generator_inverse(table, -a, d, modulus)
    return TruncatedSeries(w.rank, d, modulus, table)


def magnus_depth(w: FreeWord, p: int, caps: Caps = DEFAULT_CAPS) -> Optional[int]:
    """Least d with embed(w, d, F_p) != 1; None when w is the identity.

    The search stops at ``caps.magnus_degree``; CapExceeded means "raise
    the cap", never "w is trivial".
    """
    if w.is_identity():
        return None
    for d in range(1, caps.magnus_degree + 1):
        if not magnus_embed(w, d, p, caps).is_one():
            return d
    raise CapExceeded("magnus_depth", caps.magnus_degree)


# ---------------------------------------------------------------------------
# Lower-central layers, decided on H_1


def unipotent_on_layers(phi: FreeEndo, p: int, c: int) -> bool:
    """Is the induced action unipotent mod p on every layer i <= c?

    For c >= 1 this holds iff M = abelianization_matrix(phi) is unipotent
    mod p; c <= 0 names no layer and is True.  Proof, over K = F_p (or Q,
    for ``unipotent_over_Z``):

    * g -> (degree-i part of magnus_embed(g)) maps layer i,
      gamma_i/gamma_(i+1), isomorphically onto Lie_i, the degree-i Lie
      polynomials in T_i = (Z^n)^(tensor i).  The Lyndon polynomials
      P_w = w + lex-greater monomials are a basis of Lie_i, so with the
      non-Lyndon monomials they form a unitriangular basis of T_i: Lie_i
      is a direct summand, and Lie_i tensor K embeds in T_i tensor K.
    * phi substitutes X_j -> magnus_embed(phi(x_j)) - 1, whose degree-1
      part is sum_k M_kj X_k, and g in gamma_i has magnus_embed(g) =
      1 + (its Lie element) + higher degree.  So phi acts on layer i
      tensor K as M^(tensor i) restricted to Lie_i tensor K.
    * If M = I + N with N nilpotent, M^(tensor i) is the product of the i
      commuting unipotent maps I x .. x M x .. x I, hence unipotent, and
      so is its restriction to an invariant subspace.
    * Layer 1 is H_1, acted on by M.  So all layers i <= c are unipotent
      iff M is.

    A monodromy without a certified inverse, or a non-prime p, raises
    InvalidSpec.
    """
    if c < 1:
        return True
    if not phi.is_certified:
        raise InvalidSpec("layer actions need a certified automorphism")
    return bool(is_unipotent_mod(abelianization_matrix(phi), p))


def unipotent_over_Z(phi: FreeEndo, c: int) -> bool:
    """Is the induced action unipotent over Z (hence Q) on layers i <= c?

    A layer matrix is unipotent over Q iff its charpoly is (x-1)^dim.  By
    the theorem of ``unipotent_on_layers`` over K = Q, every layer i <= c
    is unipotent iff layer 1 is, so for c >= 1 the answer is
    charpoly(M) == (x-1)^n with M = abelianization_matrix(phi), n the
    rank; c <= 0 is True.
    """
    if c < 1:
        return True
    if not phi.is_certified:
        raise InvalidSpec("layer actions need a certified automorphism")
    return charpoly_exact(abelianization_matrix(phi)) == poly_pow_x_minus_one(phi.rank)


# ---------------------------------------------------------------------------
# Series-level substitution: lets the witness engine iterate an
# automorphism inside the truncated algebra without expanding group words.


class SeriesSubstitution:
    """Algebra endomorphism X_i -> embed(phi(x_i)) - 1 of the truncated
    series ring.  Satisfies sub(embed(w)) = embed(phi(w)).

    The map is linear, so a call is the sum of c * image(m) over the terms
    of its argument.  Monomial images are memoised on the instance, each
    one product away from its prefix's: image(m) = image(m[:-1]) *
    images[m[-1] - 1].  Repeated calls, as in the induced-order iteration,
    only ever multiply for monomials they have not met before."""

    def __init__(self, phi: FreeEndo, d: int, modulus: Optional[int], caps: Caps = DEFAULT_CAPS):
        self.rank = phi.rank
        self.degree = d
        self.modulus = modulus
        one = TruncatedSeries.one(phi.rank, d, modulus)
        self.images = [
            magnus_embed(phi.images[i], d, modulus, caps) - one
            for i in range(phi.rank)
        ]
        self._monomial_images: dict[Monomial, TruncatedSeries] = {(): one}

    def _image(self, m: Monomial) -> TruncatedSeries:
        image = self._monomial_images.get(m)
        if image is None:
            image = self._image(m[:-1]) * self.images[m[-1] - 1]
            self._monomial_images[m] = image
        return image

    def __call__(self, s: TruncatedSeries) -> TruncatedSeries:
        if (s.rank, s.degree, s.modulus) != (self.rank, self.degree, self.modulus):
            raise InvalidSpec("series parameters differ from substitution")
        acc: dict = {}
        get = acc.get
        for m, c in s.table.items():
            for n, v in self._image(m).table.items():
                acc[n] = get(n, 0) + c * v
        return TruncatedSeries(self.rank, self.degree, self.modulus, _reduced(acc, self.modulus))
