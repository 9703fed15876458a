"""Truncated Magnus expansion and lower-central-series layer matrices.

The free group F_n embeds into the units of Z<<X_1..X_n>> by x_i -> 1 + X_i.
Truncating at degree d (and optionally reducing coefficients mod a prime
power) yields finite nilpotent images; over F_p the kernels are the mod-p
dimension subgroups, which are fully invariant and of p-power index.  These
kernels, not the lower p-central series, are the quotient family used by
the witness engine.

Layer matrices: gamma_i/gamma_{i+1} of F_n is the degree-i component of the
free Lie ring, with basis indexed by Lyndon words of length i.  An element
g of gamma_i has magnus_embed(g) = 1 + (its Lie class) + higher degree, so
the induced action of an automorphism on layer i is read off from the
degree-i coefficient slice and rewritten in the Lyndon basis by triangular
elimination (the Lyndon polynomial P_w is w plus lex-greater monomials).

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

from functools import lru_cache
from itertools import islice
from typing import Callable, Optional

from .caps import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InternalInvariant, InvalidSpec
from .freegrp import FreeEndo, FreeWord, apply_endo, commutator
from .intlin import IntMatrix, charpoly_exact, is_unipotent_mod, poly_pow_x_minus_one
from .record import Record

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
# Lyndon words and the free Lie basis


@lru_cache(maxsize=None)
def lyndon_words(rank: int, max_len: int) -> tuple[Monomial, ...]:
    """All Lyndon words over 1..rank of length <= max_len (Duval), lex order."""
    words: list[Monomial] = []
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


def lie_layer_basis(rank: int, i: int) -> tuple[Monomial, ...]:
    return tuple(w for w in lyndon_words(rank, i) if len(w) == i)


def witt_dimension(rank: int, i: int) -> int:
    """(1/i) * sum over e | i of mu(e) * rank^(i/e)"""
    total = 0
    for e in range(1, i + 1):
        if i % e == 0:
            total += _mobius(e) * rank ** (i // e)
    if total % i:
        raise InternalInvariant("necklace count not divisible by the length")
    return total // i


def _mobius(m: int) -> int:
    if m == 1:
        return 1
    result = 1
    for q in range(2, m + 1):
        if m % q == 0:
            if (m // q) % q == 0:
                return 0
            m //= q
            result = -result
    return result


@lru_cache(maxsize=None)
def standard_factorization(w: Monomial) -> tuple[Monomial, Monomial]:
    """Chen-Fox-Lyndon factorization of a Lyndon word of length >= 2:
    w = u v with v the lexicographically least proper suffix."""
    if len(w) < 2:
        raise InvalidSpec("factorization needs length >= 2")
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


@lru_cache(maxsize=None)
def lyndon_bracket_word(rank: int, w: Monomial) -> FreeWord:
    """Group commutator realizing the Lyndon bracketing of w."""
    if len(w) == 1:
        return FreeWord.generator(rank, w[0])
    u, v = standard_factorization(w)
    return commutator(lyndon_bracket_word(rank, u), lyndon_bracket_word(rank, v))


def _lie_coordinates(
    component: dict, basis: tuple[Monomial, ...], modulus: Optional[int]
) -> list[int]:
    """Rewrite a degree-i Lie element (as a coefficient slice) in the Lyndon
    basis.  P_w = w + lex-greater monomials, so ascending-lex elimination
    terminates with remainder zero exactly for Lie elements."""
    remaining = dict(component)
    coords = []
    for w in basis:
        c = remaining.get(w, 0)
        coords.append(c)
        if c:
            poly = _lyndon_polynomial(w)
            for m, pc in poly.items():
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


@lru_cache(maxsize=None)
def _lyndon_polynomial(w: Monomial) -> dict:
    """Lie polynomial of the Lyndon bracketing, as monomial -> coefficient."""
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    pu, pv = _lyndon_polynomial(u), _lyndon_polynomial(v)
    out: dict = {}
    for m1, c1 in pu.items():
        for m2, c2 in pv.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
            out[m2 + m1] = out.get(m2 + m1, 0) - c1 * c2
    poly = {m: c for m, c in out.items() if c}
    if poly.get(w) != 1:
        raise InternalInvariant("Lyndon triangularity violated: leading coefficient")
    if any(m < w for m in poly):
        raise InternalInvariant("Lyndon triangularity violated: smaller monomial")
    return poly


class LieLayerMatrix(Record):
    """Matrix of an induced action on layer i of the lower central series.

    Basis: Lyndon words of length i, ascending lex; column j is the image
    of basis word j.  Entries are reduced when modulus is set.
    """

    __slots__ = ("layer", "basis", "matrix", "modulus")

    def __init__(
        self, layer: int, basis: tuple[Monomial, ...], matrix: IntMatrix, modulus: Optional[int]
    ):
        object.__setattr__(self, "layer", layer)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "modulus", modulus)


def lie_layer_matrix(
    phi: FreeEndo,
    i: int,
    modulus: Optional[int] = None,
    caps: Caps = DEFAULT_CAPS,
) -> LieLayerMatrix:
    """Action induced by phi on gamma_i/gamma_{i+1} tensor the coefficients.

    Requires a certified automorphism.  For i = 1 this is the
    abelianization matrix over the ring.  The layer is read from an
    embedding at degree i, so i above ``caps.magnus_degree`` is CapExceeded,
    as is a Witt dimension above ``caps.layer_basis``, before any Lyndon
    word is enumerated.
    """
    if not phi.is_certified:
        raise InvalidSpec("layer matrices need a certified automorphism")
    if i < 1:
        raise InvalidSpec("layer index must be >= 1")
    if i > caps.magnus_degree:
        raise CapExceeded("magnus_degree", caps.magnus_degree)
    if phi.rank > caps.max_rank:
        raise CapExceeded("max_rank", caps.max_rank)
    size = witt_dimension(phi.rank, i)
    if size > caps.layer_basis:
        raise CapExceeded("layer_basis", caps.layer_basis)
    basis = lie_layer_basis(phi.rank, i)
    if len(basis) != size:
        raise InternalInvariant("Lyndon basis size differs from the Witt dimension")
    columns = []
    for w in basis:
        g = lyndon_bracket_word(phi.rank, w)
        image = apply_endo(phi, g)
        series = magnus_embed(image, i, modulus, caps)
        columns.append(_lie_coordinates(series.homogeneous(i), basis, modulus))
    rows = [[columns[j][r] for j in range(size)] for r in range(size)]
    return LieLayerMatrix(i, basis, IntMatrix.from_rows(rows), modulus)


def unipotent_on_layers(
    phi: FreeEndo, p: int, c: int, caps: Caps = DEFAULT_CAPS
) -> bool:
    """Is the induced action unipotent mod p on every layer i <= c?"""
    for i in range(1, c + 1):
        layer = lie_layer_matrix(phi, i, p, caps)
        if not is_unipotent_mod(layer.matrix, p):
            return False
    return True


def unipotent_over_Z(phi: FreeEndo, c: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """Is the induced action unipotent over Z (hence Q) on layers i <= c?

    Checked as charpoly = (x-1)^dim, i.e. layer matrix minus identity is
    nilpotent over the rationals.
    """
    for i in range(1, c + 1):
        layer = lie_layer_matrix(phi, i, None, caps)
        size = layer.matrix.n
        if charpoly_exact(layer.matrix) != poly_pow_x_minus_one(size):
            return False
    return True


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
