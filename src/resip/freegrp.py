"""Free-group words and endomorphisms.

Words live in a free group F_n with generators x1..xn.  Text syntax:
whitespace-separated letters, lowercase for a generator ("x1 x2"),
uppercase for its inverse ("X1"); "1" alone is the empty word.

CONVENTION: compose_endos(phi, rho) applies rho first, so
apply_endo(compose_endos(phi, rho), w) == apply_endo(phi, apply_endo(rho, w)).
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Iterable, Optional

from .errors import InvalidSpec
from .intlin import IntMatrix
from .record import Record


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


class FreeWord(Record):
    """Freely reduced word in F_rank; a letter i means x_i, -i x_i^-1."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: tuple[int, ...]):
        if rank < 1:
            raise InvalidSpec("rank must be >= 1")
        for a in letters:
            if a == 0 or abs(a) > rank:
                raise InvalidSpec(f"letter {a} out of range for rank {rank}")
        if any(a == -b for a, b in zip(letters, letters[1:])):
            raise InvalidSpec("word not freely reduced")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", letters)

    @staticmethod
    def from_letters(rank: int, letters: Iterable[int]) -> "FreeWord":
        return FreeWord(rank, _reduce(letters))

    @classmethod
    def _trusted(cls, rank: int, letters: tuple[int, ...]) -> "FreeWord":
        """A word from letters already known to be in range for rank and
        freely reduced, such as those of valid words of that rank; skips
        the checks of __init__."""
        word = object.__new__(cls)
        object.__setattr__(word, "rank", rank)
        object.__setattr__(word, "letters", letters)
        return word

    @staticmethod
    def identity(rank: int) -> "FreeWord":
        return FreeWord(rank, ())

    @staticmethod
    def generator(rank: int, i: int) -> "FreeWord":
        return FreeWord(rank, (i,))

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return word_multiply(self, other)

    def inverse(self) -> "FreeWord":
        return word_inverse(self)

    def exponent_sums(self) -> list[int]:
        sums = [0] * self.rank
        for a in self.letters:
            sums[abs(a) - 1] += 1 if a > 0 else -1
        return sums


def word_multiply(u: FreeWord, v: FreeWord) -> FreeWord:
    if u.rank != v.rank:
        raise InvalidSpec(f"ranks {u.rank} and {v.rank}")
    return FreeWord._trusted(u.rank, _reduce(u.letters + v.letters))


def word_inverse(u: FreeWord) -> FreeWord:
    return FreeWord._trusted(u.rank, tuple(-a for a in reversed(u.letters)))


def conjugate(u: FreeWord, by: FreeWord) -> FreeWord:
    """by * u * by^-1"""
    return word_multiply(word_multiply(by, u), word_inverse(by))


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    """[u, v] = u v u^-1 v^-1"""
    return word_multiply(
        word_multiply(u, v), word_multiply(word_inverse(u), word_inverse(v))
    )


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse "x1 X2 x1" style input; "1" or empty means the identity.  A
    token is x or X and then ASCII digits: str.isdigit alone also takes
    other Unicode digits."""
    tokens = text.split()
    if not tokens or tokens == ["1"]:
        return FreeWord.identity(rank)
    letters = []
    for tok in tokens:
        head, digits = tok[0], tok[1:]
        if head not in "xX" or not (digits.isascii() and digits.isdigit()):
            raise InvalidSpec(f"bad word token {tok!r}")
        try:
            idx = int(digits)
        except ValueError:  # more digits than int() converts
            raise InvalidSpec(f"generator index of {len(digits)} digits out of range 1..{rank}") from None
        if not 1 <= idx <= rank:
            raise InvalidSpec(f"generator index {idx} out of range 1..{rank}")
        letters.append(idx if head == "x" else -idx)
    return FreeWord._trusted(rank, _reduce(letters))


def format_word(w: FreeWord) -> str:
    if w.is_identity():
        return "1"
    return " ".join(f"x{a}" if a > 0 else f"X{-a}" for a in w.letters)


def image_table(images) -> list[list[int]]:
    """The image of every letter, indexed by the letter: t[i] = images[i - 1]
    and t[-i], at index 2n + 1 - i, its inverse; t[0] is unused."""
    inverses = [[-b for b in reversed(w)] for w in reversed(images)]
    return [[]] + [list(w) for w in images] + inverses


def substitute(table: list[list[int]], letters: Iterable[int]) -> tuple[int, ...]:
    """The reduced letters of a word with each letter a replaced by its
    image table[a] (``image_table`` of reduced images): the image of the
    word under an endomorphism, without building a FreeWord or a FreeEndo.

    It reduces as it writes, so it never holds an unreduced word.  An image
    cancels only against the end of what is written, and img[:k] cancels
    iff that ends in its inverse, table[-a][-k:]; if it does for some k, it
    does for every smaller k, so the longest k is found by bisection."""
    out: list[int] = []
    for a in letters:
        img = table[a]
        if out and img and out[-1] == -img[0]:
            inv, k, hi = table[-a], 1, min(len(out), len(img))
            while k < hi:
                mid = (k + hi + 1) // 2
                if out[-mid:] == inv[-mid:]:
                    k = mid
                else:
                    hi = mid - 1
            del out[-k:]
            img = img[k:]
        out.extend(img)
    return tuple(out)


class FreeEndo(Record):
    """Endomorphism phi of F_rank by generator images.

    certified_inverse, when given, is a claimed inverse psi, checked by one
    composition: psi(phi(x_i)) = x_i for every i, on letter tuples.
    Classifiers require it (they only accept genuine automorphisms).

    Claim: if psi o phi fixes every generator, then psi and phi are
    automorphisms and phi = psi^-1, so phi o psi = id needs no check.

    Proof.  psi o phi = id, as two endomorphisms that agree on the
    generators are equal.  So every w = psi(phi(w)) lies in the image of
    psi: psi is onto.  A finitely generated free group is Hopfian, that
    is, every onto endomorphism of it is one to one (Nielsen 1921; Malcev
    1940, for every finitely generated residually finite group).  So psi
    is an automorphism, and phi = psi^-1 o (psi o phi) = psi^-1.
    """

    __slots__ = ("rank", "images", "certified_inverse", "__dict__")  # __dict__: letter_table

    def __init__(
        self,
        rank: int,
        images: tuple[FreeWord, ...],
        certified_inverse: Optional[tuple[FreeWord, ...]] = None,
    ):
        for words in (images,) if certified_inverse is None else (images, certified_inverse):
            if len(words) != rank:
                raise InvalidSpec("need one image per generator")
            if any(w.rank != rank for w in words):
                raise InvalidSpec("image rank differs from endo rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "certified_inverse", certified_inverse)
        if certified_inverse is not None:
            inverse = image_table([w.letters for w in certified_inverse])
            for i, w in enumerate(images, start=1):
                if substitute(inverse, w.letters) != (i,):
                    raise InvalidSpec(f"claimed inverse fails on x{i} (left)")

    @staticmethod
    def identity(rank: int) -> "FreeEndo":
        gens = tuple(FreeWord.generator(rank, i) for i in range(1, rank + 1))
        return FreeEndo(rank, gens, gens)

    @staticmethod
    def from_letters(rank: int, images, inverse=None) -> "FreeEndo":
        """An endo whose images (and certified inverse) are given as letter
        tuples already in range for rank and freely reduced, such as those
        substitute returns.  The certified inverse is still checked."""
        def words(tuples):
            return tuple(FreeWord._trusted(rank, w) for w in tuples)

        return FreeEndo(rank, words(images), None if inverse is None else words(inverse))

    @cached_property
    def letter_table(self) -> list[list[int]]:
        """The images as the table substitute takes."""
        return image_table([w.letters for w in self.images])

    @property
    def is_certified(self) -> bool:
        return self.certified_inverse is not None

    def inverse_endo(self) -> "FreeEndo":
        if self.certified_inverse is None:
            raise InvalidSpec("no certified inverse attached")
        return FreeEndo(self.rank, self.certified_inverse, self.images)


def apply_endo(phi: FreeEndo, w: FreeWord) -> FreeWord:
    if phi.rank != w.rank:
        raise InvalidSpec(f"endo rank {phi.rank} vs word rank {w.rank}")
    # the images are words of this rank, so their letters need no checks
    return FreeWord._trusted(phi.rank, substitute(phi.letter_table, w.letters))


def _compose(rank: int, steps: Iterable[FreeEndo]) -> FreeEndo:
    """phi_L o ... o phi_1 for the steps phi_1, ..., phi_L (the first acts
    first), with the inverse psi_1 o ... o psi_L when every step phi_k
    carries an inverse psi_k.  Both are composed on letter tuples, so the
    inverse is checked once, when the result is built."""
    images = inverse = tuple((i,) for i in range(1, rank + 1))
    for step in steps:
        images = tuple(substitute(step.letter_table, w) for w in images)
        if inverse is not None and step.certified_inverse is not None:
            table = image_table(inverse)
            inverse = tuple(substitute(table, w.letters) for w in step.certified_inverse)
        else:
            inverse = None
    return FreeEndo.from_letters(rank, images, inverse)


def compose_endos(phi: FreeEndo, rho: FreeEndo) -> FreeEndo:
    """phi after rho (rho acts first)."""
    if phi.rank != rho.rank:
        raise InvalidSpec(f"ranks {phi.rank} and {rho.rank}")
    return _compose(phi.rank, (rho, phi))


def endo_power(phi: FreeEndo, k: int) -> FreeEndo:
    """phi^k, composed as one product of k steps."""
    if k < 0:
        return endo_power(phi.inverse_endo(), -k)
    return _compose(phi.rank, repeat(phi, k))


def abelianization_matrix(phi: FreeEndo) -> IntMatrix:
    """Entry (i,j) = exponent sum of x_i in phi(x_j); columns are images."""
    n = phi.rank
    cols = [w.exponent_sums() for w in phi.images]
    return IntMatrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


def is_mod_p_torelli(phi: FreeEndo, p: int) -> bool:
    """Does phi act trivially on H_1 mod p?"""
    m = abelianization_matrix(phi)
    ident = IntMatrix.identity(phi.rank)
    return all(
        (a - b) % p == 0
        for ra, rb in zip(m.entries, ident.entries)
        for a, b in zip(ra, rb)
    )


def inner_automorphism(u: FreeWord) -> FreeEndo:
    """Conjugation w -> u w u^-1, with its obvious inverse."""
    gens = [FreeWord.generator(u.rank, i) for i in range(1, u.rank + 1)]
    images = tuple(conjugate(g, u) for g in gens)
    return FreeEndo(u.rank, images, tuple(conjugate(g, word_inverse(u)) for g in gens))


def nielsen_transvection(rank: int, i: int, j: int) -> FreeEndo:
    """x_i -> x_i x_j, other generators fixed.  Requires i != j."""
    if i == j:
        raise InvalidSpec("transvection needs distinct indices")
    def moved(x_j: int) -> tuple[FreeWord, ...]:  # x_i -> x_i x_j
        letters = [(g, x_j) if g == i else (g,) for g in range(1, rank + 1)]
        return tuple(FreeWord.from_letters(rank, w) for w in letters)

    return FreeEndo(rank, moved(j), moved(-j))


class MappingTorusSpec(Record):
    """A mapping torus of a free group: fiber F_n, monodromy a certified
    automorphism, stable letter t acting by the monodromy."""

    __slots__ = ("fiber", "description")

    def __init__(self, fiber: FreeEndo, description: str = ""):
        if not fiber.is_certified:
            raise InvalidSpec("mapping torus monodromy must carry a certified inverse")
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "description", description)

    @property
    def rank(self) -> int:
        return self.fiber.rank


class MappingTorusElement(Record):
    """Normal form t^m * w with w in the fiber."""

    __slots__ = ("t_exponent", "fiber_word")

    def __init__(self, t_exponent: int, fiber_word: FreeWord):
        object.__setattr__(self, "t_exponent", t_exponent)
        object.__setattr__(self, "fiber_word", fiber_word)

    def is_identity(self) -> bool:
        return self.t_exponent == 0 and self.fiber_word.is_identity()
