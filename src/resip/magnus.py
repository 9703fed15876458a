"""Truncated Magnus expansion, and the lower-central layers decided on H_1.

The free group F_n embeds into the units of Z<<X_1..X_n>> by x_i -> 1 + X_i.
Truncating at degree d (and optionally reducing coefficients mod a prime
power) yields finite nilpotent images; over F_p the kernels are the mod-p
dimension subgroups, which are fully invariant and of p-power index.  These
kernels, not the lower p-central series, are the quotient family used by
the witness engine.

Kernels.  A series is one sparse table {monomial: coefficient} holding
nonzero reduced coefficients only; there is no dense form.
* magnus_embed holds the running series as one dict per degree and
  multiplies it by one letter at a time, in place, in one pass over the
  levels below the top; the top level is only written.  By 1 + X_i, each
  term c m of level k adds c at m + (i,) in level k + 1, for k = d - 1
  .. 0: level k + 1 has already been read in this pass.  By
  (1 + X_i)^-1, the result y solves y_(k+1) = x_(k+1) - y_k X_i, for
  k = 0 .. d - 1: y_k is already final.  No series product is formed,
  and the levels are merged into one table at the end.
* SeriesSubstitution is linear, so it memoises the image of each monomial
  it meets, one product from the image of its prefix.  One accumulation
  kernel sums c * image(m) into one table that is reduced once; it serves
  both a call, U(t), and a step of a (U - I)-chain, U(t) - t, which starts
  the sum from -t and so works on raw tables, with no series built and no
  difference taken per step.
* One product kernel, _product, serves TruncatedSeries.__mul__ and the
  memo: its right factor is sorted by degree, so each left monomial walks
  only the right monomials whose degree still fits under the truncation.
  The memo's right factors are the rank fixed images, sorted once.
"""

from __future__ import annotations

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

    def __init__(self, rank: int, degree: int, modulus: int | None, table: dict):
        if rank < 1 or degree < 1:
            raise InvalidSpec("rank and degree must be >= 1")
        if modulus is not None and modulus < 2:
            raise InvalidSpec("modulus must be >= 2")
        self.rank = rank
        self.degree = degree
        self.modulus = modulus
        self.table = table

    @staticmethod
    def one(rank: int, degree: int, modulus: int | None = None) -> "TruncatedSeries":
        return TruncatedSeries(rank, degree, modulus, {(): 1})

    @staticmethod
    def generator_term(rank: int, degree: int, i: int, modulus: int | None = None) -> "TruncatedSeries":
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
        return self._plus(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._plus(other, -1)

    def _plus(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * other, in one pass over other's terms."""
        self._compatible(other)
        table = dict(self.table)
        for m, c in other.table.items():
            v = self._red(table.get(m, 0) + sign * c)
            if v:
                table[m] = v
            else:
                table.pop(m, None)
        return TruncatedSeries(self.rank, self.degree, self.modulus, table)

    def scale(self, k: int) -> "TruncatedSeries":
        k = self._red(k)
        table = {}
        for m, c in self.table.items():
            v = self._red(c * k)
            if v:
                table[m] = v
        return TruncatedSeries(self.rank, self.degree, self.modulus, table)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Truncated product, by the kernel of ``_product``."""
        self._compatible(other)
        d = self.degree
        table = _product(self.table, _by_degree(other.table, d), d, self.modulus)
        return TruncatedSeries(self.rank, d, self.modulus, table)

    def is_one(self) -> bool:
        return self.table == {(): 1}

    def coefficient(self, m: Monomial) -> int:
        return self.table.get(tuple(m), 0)

    def __repr__(self):
        if not self.table:
            return "0"
        parts = []
        for m in sorted(self.table, key=lambda m: (len(m), m)):
            c = self.table[m]
            name = "".join(f"X{i}" for i in m) if m else "1"
            parts.append(f"{c}*{name}" if m else str(c))
        return " + ".join(parts)


def _reduced(table: dict, modulus: int | None) -> dict:
    """The table with coefficients reduced and zero entries dropped."""
    if modulus is None:
        return {m: c for m, c in table.items() if c}
    return {m: v for m, c in table.items() if (v := c % modulus)}


def _by_degree(table: dict, d: int) -> list[list]:
    """The right factor of a product, sorted by degree once: entry k holds
    its terms of degree <= k, so a left monomial of degree k walks entry
    d - k and no pair past the truncation is visited."""
    items = sorted(table.items(), key=lambda mc: len(mc[0]))
    ends = [0] * (d + 1)  # ends[k] = number of terms of degree <= k
    for m, _ in items:
        ends[len(m)] += 1
    for k in range(1, d + 1):
        ends[k] += ends[k - 1]
    return [items[:end] for end in ends]


def _product(left: dict, right: list[list], d: int, modulus: int | None) -> dict:
    """Table of left * right truncated at degree d, right given by
    ``_by_degree``; reduced once at the end."""
    table: dict = {}
    get = table.get
    for m1, c1 in left.items():
        for m2, c2 in right[d - len(m1)]:
            m = m1 + m2
            table[m] = get(m, 0) + c1 * c2
    return _reduced(table, modulus)


def magnus_embed(
    w: FreeWord,
    d: int,
    modulus: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> TruncatedSeries:
    """Image of w under x_i -> 1 + X_i, truncated at degree d.

    Inverse letters map to the truncated geometric series of (1 + X_i)^-1,
    so the map is multiplicative on the nose: embed(uv) = embed(u) *
    embed(v).  The running series is held as one dict per degree, levels[k]
    the terms of degree k, and each letter is one pass over the levels
    below the top; no series product is formed.  Multiplying x by 1 + X_i
    adds x_k X_i to level k + 1, so the pass runs k = d - 1 .. 0 and reads
    each level before the level below writes into it.  Multiplying by
    (1 + X_i)^-1 gives the y with y_(k+1) = x_(k+1) - y_k X_i, so the pass
    runs k = 0 .. d - 1 and reads each level once it is final.  The levels
    are merged into one table at the end.
    """
    if d < 1:
        raise InvalidSpec("degree must be >= 1")
    if modulus is not None and modulus < 2:
        raise InvalidSpec("modulus must be >= 2")
    if d > caps.magnus_degree:
        raise CapExceeded("magnus_degree", caps.magnus_degree)
    if w.rank > caps.max_rank:
        raise CapExceeded("max_rank", caps.max_rank)
    levels: list[dict] = [{(): 1}] + [{} for _ in range(d)]
    up, down = range(d), range(d - 1, -1, -1)
    for a in w.letters:
        step, sign, order = (a,), 1, down
        if a < 0:
            step, sign, order = (-a,), -1, up
        for k in order:
            above = levels[k + 1]
            get = above.get
            for m, c in levels[k].items():
                n = m + step
                v = get(n, 0) + sign * c
                if modulus is not None:
                    v %= modulus
                if v:
                    above[n] = v
                else:  # stored coefficients are nonzero, so n is present
                    del above[n]
    table = levels[0]
    for level in levels[1:]:
        table.update(level)
    return TruncatedSeries(w.rank, d, modulus, table)


def magnus_depth(w: FreeWord, p: int, caps: Caps = DEFAULT_CAPS) -> int | None:
    """Least d with embed(w, d, F_p) != 1; None when w is the identity.

    The search stops at ``caps.magnus_degree``; CapExceeded means "raise
    the cap", never "w is trivial".
    """
    found = _depth_and_embedding(w, p, caps)
    return None if found is None else found[0]


def _depth_and_embedding(
    w: FreeWord, p: int, caps: Caps = DEFAULT_CAPS
) -> tuple[int, TruncatedSeries] | None:
    """(magnus_depth(w, p), embed(w) at that depth over F_p): the last rung
    of the depth ladder is the embedding a certificate reads its evidence
    from, so it is returned, not built again.  None when w is the
    identity."""
    if w.is_identity():
        return None
    for d in range(1, caps.magnus_degree + 1):
        series = magnus_embed(w, d, p, caps)
        if not series.is_one():
            return d, series
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
    of its argument, and chain_step(t), the table of (U - I) t, is that sum
    minus t; one kernel sums both on raw tables.  The images are read from
    ``self.images`` when the first sum runs.  Monomial images are memoised
    on the instance as tables, each one product away from its prefix's:
    image(m) = image(m[:-1]) * images[m[-1] - 1], the right factor sorted
    by degree once per instance; a monomial of degree 1 is its image.
    Repeated sums only ever multiply for monomials they have not met
    before."""

    def __init__(self, phi: FreeEndo, d: int, modulus: int | None, caps: Caps = DEFAULT_CAPS):
        self.rank = phi.rank
        self.degree = d
        self.modulus = modulus
        self.images = []
        for word in phi.images:
            image = magnus_embed(word, d, modulus, caps)
            del image.table[()]  # the constant term of an embedding is 1
            self.images.append(image)
        self._monomial_images: dict[Monomial, dict] = {(): {(): 1}}
        self._factors: list[list[list]] | None = None  # images by degree

    def _image(self, m: Monomial) -> dict:
        image = self._monomial_images.get(m)
        if image is None:
            if len(m) == 1:
                image = self.images[m[0] - 1].table
            else:
                factor = self._factors[m[-1] - 1]
                image = _product(self._image(m[:-1]), factor, self.degree, self.modulus)
            self._monomial_images[m] = image
        return image

    def _accumulate(self, table: dict, acc: dict) -> dict:
        """acc + the sum of c * image(m) over the terms of table, in acc
        itself, reduced once: the kernel of a call and of a chain step."""
        if self._factors is None:  # images are final once the first sum runs
            self._factors = [_by_degree(image.table, self.degree) for image in self.images]
        get = acc.get
        for m, c in table.items():
            for n, v in self._image(m).items():
                acc[n] = get(n, 0) + c * v
        return _reduced(acc, self.modulus)

    def __call__(self, s: TruncatedSeries) -> TruncatedSeries:
        if (s.rank, s.degree, s.modulus) != (self.rank, self.degree, self.modulus):
            raise InvalidSpec("series parameters differ from substitution")
        return TruncatedSeries(self.rank, self.degree, self.modulus, self._accumulate(s.table, {}))

    def chain_step(self, table: dict) -> dict:
        """The table of (U - I) t, U this substitution and t the series of
        the given table, one step of a (U - I)-chain: the sum of c *
        image(m) - t, accumulated in one dict and reduced once."""
        return self._accumulate(table, {m: -c for m, c in table.items()})
