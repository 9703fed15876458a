"""Truncated Magnus expansion, and the lower-central layers decided on H_1.

The free group F_n embeds into the units of Z<<X_1..X_n>> by x_i -> 1 + X_i.
Truncating at degree d and reducing coefficients mod m >= 2 yields finite
nilpotent images; over F_p the kernels are the mod-p dimension subgroups,
which are fully invariant and of p-power index.  These kernels, not the
lower p-central series, are the quotient family used by the witness
engine, so every series here has a modulus: the witness route passes its
p, and there is no series over Z.

Lower-central layers, decided on H_1.  Theorem: let phi be an
automorphism of F_n with M = abelianization_matrix(phi), and let K = F_p
or Q.  For every c >= 1, phi acts unipotently on each layer
gamma_i/gamma_(i+1) tensor K with i <= c iff M is unipotent over K.  So
unipotence mod p on every layer is ``is_unipotent_mod(M, p)``, and over Z
(hence Q) it is charpoly(M) == (x - 1)^n (``charpoly_exact`` against
``poly_pow_x_minus_one``), at any depth and under no cap; no layer basis
is built.  Proof:
* g -> (degree-i part of the Magnus embedding of g over Z) maps layer i
  isomorphically onto Lie_i, the degree-i Lie polynomials in
  T_i = (Z^n)^(tensor i).
  The Lyndon polynomials P_w = w + lex-greater monomials are a basis of
  Lie_i, so with the non-Lyndon monomials they form a unitriangular basis
  of T_i: Lie_i is a direct summand, and Lie_i tensor K embeds in
  T_i tensor K.
* phi substitutes X_j -> embed(phi(x_j)) - 1, whose degree-1 part is
  sum_k M_kj X_k, and g in gamma_i has embed(g) = 1 + (its Lie element)
  + higher degree.  So phi acts on layer i tensor K as
  M^(tensor i) restricted to Lie_i tensor K.
* If M = I + N with N nilpotent, M^(tensor i) is the product of the i
  commuting unipotent maps I x .. x M x .. x I, hence unipotent, and so
  is its restriction to an invariant subspace.
* Layer 1 is H_1, acted on by M.  So all layers i <= c are unipotent iff
  M is.

Monomial codes.  Every table is keyed by the integer code of each
monomial, its bijective base-r numeral (r the rank): code(()) = 0 and
code(m X_i) = r code(m) + i.  ``monomial_code`` and ``monomial_of``
convert, and the theorem of ``monomial_code`` makes numeric order the
order by degree and then lexicographically; so the codes of one degree
are one interval (``code_range``), and monomials leave a table only where
a certificate reads them.

Kernels.  A series is one sparse table {code: coefficient} holding
nonzero reduced coefficients only; there is no dense form.
* magnus_embed holds the running series as one dict per degree and
  multiplies it by one letter at a time, in place, in one pass over the
  levels below the top; the top level is only written.  By 1 + X_i, each
  term c m of level k adds c at m X_i, code r m + i, in level k + 1, for
  k = d - 1 .. 0: level k + 1 has already been read in this pass.  By
  (1 + X_i)^-1, the result y solves y_(k+1) = x_(k+1) - y_k X_i, for
  k = 0 .. d - 1: y_k is already final.  A letter adds, or an inverse
  letter subtracts, a reduced coefficient from a reduced one, so one
  subtraction or addition of m reduces the sum.  No series product is
  formed, and the levels are merged into one table at the end.
* SeriesSubstitution is linear, so it memoises the image of each monomial
  it meets, one product from the image of its prefix, whose code is
  (m - 1) // r.  One accumulation kernel sums c * image(m) into one table that is
  reduced once; it serves both a call, U(t), and a step of a
  (U - I)-chain, U(t) - t, which starts the sum from -t and so works on
  raw tables, with no series built and no difference taken per step.
* One product kernel, _product, serves TruncatedSeries.__mul__ and the
  memo.  Its right factor is grouped by degree j once, each group with
  r^j, so the code of m1 m2 is m1 r^j + m2, and with S_(d-j+1), which
  the left codes of degree <= d - j lie below: each left monomial walks
  only the groups whose degree still fits under the truncation.  The
  memo's right factors are the rank fixed images, grouped once.
"""

from __future__ import annotations

from .caps import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InvalidSpec
from .freegrp import FreeEndo, FreeWord

Monomial = tuple[int, ...]  # sequence of generator indices, () = constant term


def monomial_code(m: Monomial, rank: int) -> int:
    """The code of monomial m at rank r: its bijective base-r numeral,
    code(()) = 0 and code(m X_i) = r code(m) + i, so code(m) = sum of
    m_j r^(k - j) over the k letters m_1 .. m_k of m.  A letter outside
    1..r is InvalidSpec.

    Theorem.  With S_k = 1 + r + ... + r^(k - 1) (S_0 = 0):
    (a) the codes of degree k are exactly the integers in [S_k, S_(k+1));
    (b) within one degree, numeric order is lexicographic order;
    (c) code(m1 m2) = code(m1) r^|m2| + code(m2).
    Proof.  (c) is the definition for |m2| = 1, and follows by induction
    on |m2|.  (a): a code of degree k is least for m = (1, .., 1), where
    it is S_k, and greatest for m = (r, .., r), where it is r S_k =
    S_(k+1) - 1.  Codes are distinct: n > 0 determines its last letter,
    i = (n - 1) mod r + 1, the one in 1..r congruent to n mod r, and
    its prefix's code (n - 1) // r < n, so by induction n determines m
    (``monomial_of``).  So the r^k monomials of degree k have r^k
    distinct codes in an interval of r^k integers, and fill it.
    (b): if m and m' of degree k first differ at position j, with
    m_j < m'_j, then code(m') - code(m) >= r^(k - j) - (r - 1)(r^(k-j-1)
    + .. + 1) = 1.  By (a) and (b), numeric order is the order by degree
    and then lexicographically: the least nonzero code of a table has its
    least degree, and the least code of one degree its least monomial."""
    code = 0
    for i in m:
        if not 1 <= i <= rank:
            raise InvalidSpec(f"letter {i} out of range 1..{rank}")
        code = code * rank + i
    return code


def monomial_of(code: int, rank: int) -> Monomial:
    """The monomial of a code at this rank, the inverse of
    ``monomial_code``: the last letter is i = (code - 1) mod r + 1, and
    the prefix's code is (code - 1) // r."""
    letters = []
    while code:
        code, i = divmod(code - 1, rank)
        letters.append(i + 1)
    return tuple(reversed(letters))


def _starts(rank: int, d: int) -> list[int]:
    """[S_0, .., S_(d+1)], S_k the least code of degree k: S_0 = 0 and
    S_(k+1) = r S_k + 1, the code of (1, .., 1)."""
    starts = [0]
    for _ in range(d + 1):
        starts.append(starts[-1] * rank + 1)
    return starts


def code_range(rank: int, k: int) -> range:
    """The codes of the monomials of degree k: [S_k, S_(k+1)), by the
    theorem of ``monomial_code``."""
    low, high = _starts(rank, k)[k:]
    return range(low, high)


class TruncatedSeries:
    """Noncommutative polynomial truncated at total degree d.

    Coefficients are residues mod `modulus`, an int >= 2.  The table maps
    monomial codes (``monomial_code``) to nonzero residues only.
    """

    __slots__ = ("rank", "degree", "modulus", "table")

    def __init__(self, rank: int, degree: int, modulus: int, table: dict):
        if rank < 1 or degree < 1:
            raise InvalidSpec("rank and degree must be >= 1")
        if modulus is None or modulus < 2:
            raise InvalidSpec("modulus must be >= 2")
        self.rank = rank
        self.degree = degree
        self.modulus = modulus
        self.table = table

    @staticmethod
    def generator_term(rank: int, degree: int, i: int, modulus: int) -> "TruncatedSeries":
        """1 + X_i"""
        return TruncatedSeries(rank, degree, modulus, {0: 1, i: 1})

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

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Truncated product, by the kernel of ``_product``."""
        self._compatible(other)
        d, r = self.degree, self.rank
        table = _product(self.table, _by_degree(other.table, d, r), self.modulus)
        return TruncatedSeries(r, d, self.modulus, table)

    def is_one(self) -> bool:
        return self.table == {0: 1}

    def coefficient(self, m: Monomial) -> int:
        """The coefficient of monomial m; 0 for a monomial past the
        degree or with a letter outside 1..rank, which is no monomial of
        this series (and whose code would name another)."""
        m = tuple(m)
        if len(m) > self.degree or not all(1 <= i <= self.rank for i in m):
            return 0
        return self.table.get(monomial_code(m, self.rank), 0)


def _reduced(table: dict, modulus: int) -> dict:
    """The table with coefficients reduced and zero entries dropped."""
    return {m: v for m, c in table.items() if (v := c % modulus)}


def _by_degree(table: dict, d: int, rank: int) -> list[tuple]:
    """The right factor of a product, grouped by degree once: one
    (limit, shift, terms) per degree j that has terms, j ascending, with
    shift = r^j, so a left code m1 times a term m2 is m1 shift + m2, and
    limit = S_(d-j+1), so a left code m1 < limit has degree <= d - j and
    the product survives the truncation.  Limits fall as j grows, so a
    left monomial stops at the first group it fails."""
    starts = _starts(rank, d)
    groups: list[list] = [[] for _ in range(d + 1)]
    for m, c in table.items():
        k = 0
        while m >= starts[k + 1]:
            k += 1
        groups[k].append((m, c))
    return [
        (starts[d - j + 1], rank ** j, terms) for j, terms in enumerate(groups) if terms
    ]


def _product(left: dict, right: list[tuple], modulus: int) -> dict:
    """Table of left * right truncated at degree d, right given by
    ``_by_degree`` at that d; reduced once at the end."""
    table: dict = {}
    get = table.get
    for m1, c1 in left.items():
        for limit, shift, terms in right:
            if m1 >= limit:
                break
            base = m1 * shift
            for m2, c2 in terms:
                m = base + m2
                table[m] = get(m, 0) + c1 * c2
    return _reduced(table, modulus)


def magnus_embed(
    w: FreeWord,
    d: int,
    modulus: int,
    caps: Caps = DEFAULT_CAPS,
) -> TruncatedSeries:
    """Image of w under x_i -> 1 + X_i, truncated at degree d, with
    coefficients mod m = modulus >= 2.

    Inverse letters map to the truncated geometric series of (1 + X_i)^-1,
    so the map is multiplicative on the nose: embed(uv) = embed(u) *
    embed(v).  The running series is held as one dict per degree, levels[k]
    the terms of degree k, and each letter is one pass over the levels
    below the top; no series product is formed.  Multiplying x by 1 + X_i
    adds x_k X_i to level k + 1, so the pass runs k = d - 1 .. 0 and reads
    each level before the level below writes into it.  Multiplying by
    (1 + X_i)^-1 gives the y with y_(k+1) = x_(k+1) - y_k X_i, so the pass
    runs k = 0 .. d - 1 and reads each level once it is final.  The stored
    coefficients lie in 1..m - 1, so a sum lies in 1..2m - 2 and a
    difference in 1 - m..m - 2, and one step of m reduces it.  The levels
    are merged into one table at the end.
    """
    if d < 1:
        raise InvalidSpec("degree must be >= 1")
    if modulus is None or modulus < 2:
        raise InvalidSpec("modulus must be >= 2")
    if d > caps.magnus_degree:
        raise CapExceeded("magnus_degree", caps.magnus_degree)
    if w.rank > caps.max_rank:
        raise CapExceeded("max_rank", caps.max_rank)
    r, p = w.rank, modulus
    levels: list[dict] = [{0: 1}] + [{} for _ in range(d)]
    up, down = range(d), range(d - 1, -1, -1)
    # stored coefficients are nonzero, so a sum that is 0 has its key present
    for a in w.letters:
        if a > 0:
            for k in down:
                above = levels[k + 1]
                get = above.get
                for m, c in levels[k].items():
                    n = m * r + a
                    v = get(n, 0) + c
                    if v >= p:
                        v -= p
                    if v:
                        above[n] = v
                    else:
                        del above[n]
        else:
            for k in up:
                above = levels[k + 1]
                get = above.get
                for m, c in levels[k].items():
                    n = m * r - a
                    v = get(n, 0) - c
                    if v < 0:
                        v += p
                    if v:
                        above[n] = v
                    else:
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
    raise CapExceeded("magnus_degree", caps.magnus_degree)


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
    on the instance as tables, by code, each one product away from its
    prefix's: with q, j = divmod(m - 1, r), the code of the prefix is q
    and the last letter j + 1, so image(m) = image(q) * images[j], the
    right factor grouped by degree once per instance; a monomial of degree
    1 (code 1..r) is its image.  Repeated sums only ever multiply for
    monomials they have not met before."""

    def __init__(self, phi: FreeEndo, d: int, modulus: int, caps: Caps = DEFAULT_CAPS):
        self.rank = phi.rank
        self.degree = d
        self.modulus = modulus
        self.images = []
        for word in phi.images:
            image = magnus_embed(word, d, modulus, caps)
            del image.table[0]  # the constant term of an embedding is 1
            self.images.append(image)
        self._monomial_images: dict[int, dict] = {0: {0: 1}}
        self._factors: list[list[tuple]] | None = None  # images by degree

    def _image(self, m: int) -> dict:
        image = self._monomial_images.get(m)
        if image is None:
            r = self.rank
            if m <= r:
                image = self.images[m - 1].table
            else:
                prefix, j = divmod(m - 1, r)
                image = _product(self._image(prefix), self._factors[j], self.modulus)
            self._monomial_images[m] = image
        return image

    def _accumulate(self, table: dict, acc: dict) -> dict:
        """acc + the sum of c * image(m) over the terms of table, in acc
        itself, reduced once: the kernel of a call and of a chain step."""
        if self._factors is None:  # images are final once the first sum runs
            d, r = self.degree, self.rank
            self._factors = [_by_degree(image.table, d, r) for image in self.images]
        get, memo = acc.get, self._monomial_images
        for m, c in table.items():
            image = memo.get(m)
            if image is None:
                image = self._image(m)
            for n, v in image.items():
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
