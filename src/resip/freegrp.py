"""Free-group words and endomorphisms.

Words live in a free group F_n with generators x1..xn.  Text syntax:
whitespace-separated letters, lowercase for a generator ("x1 x2"),
uppercase for its inverse ("X1"); "1" alone is the empty word.

CONVENTION: compose_endos(phi, rho) applies rho first, so
apply_endo(compose_endos(phi, rho), w) == apply_endo(phi, apply_endo(rho, w)).
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Optional

from .errors import InvalidSpec, RankMismatch
from .intlin import IntMatrix
from .record import Record

# A letter is a nonzero int: i means x_i, -i means x_i^-1.
Letter = int


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


class FreeWord(Record):
    """Freely reduced word in F_rank; letters are signed generator indices."""

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
        raise RankMismatch(f"ranks {u.rank} and {v.rank}")
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


_TOKEN = re.compile(r"([xX])([0-9]+)")  # ASCII digits only: \d takes any Unicode digit


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse "x1 X2 x1" style input; "1" or empty means the identity."""
    tokens = text.split()
    if not tokens or tokens == ["1"]:
        return FreeWord.identity(rank)
    letters = []
    for tok in tokens:
        m = _TOKEN.fullmatch(tok)
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


def format_word(w: FreeWord) -> str:
    if w.is_identity():
        return "1"
    return " ".join(f"x{a}" if a > 0 else f"X{-a}" for a in w.letters)


def substitute(images: tuple[tuple[int, ...], ...], letters: Iterable[int]) -> tuple[int, ...]:
    """The reduced letters of a word with x_i replaced by images[i - 1],
    each image a letter tuple: the image of the word under an
    endomorphism, without building a FreeWord or a FreeEndo."""
    out: list[int] = []
    for a in letters:
        img = images[abs(a) - 1]
        out.extend(img if a > 0 else [-b for b in reversed(img)])
    return _reduce(out)


class FreeEndo(Record):
    """Endomorphism of F_rank by generator images.

    certified_inverse, when given, is checked: both compositions must fix
    every generator.  Classifiers require it (they only accept genuine
    automorphisms).
    """

    __slots__ = ("rank", "images", "certified_inverse", "__dict__")  # __dict__: letter_images

    def __init__(
        self,
        rank: int,
        images: tuple[FreeWord, ...],
        certified_inverse: Optional[tuple[FreeWord, ...]] = None,
    ):
        if len(images) != rank:
            raise RankMismatch("need one image per generator")
        for w in images:
            if w.rank != rank:
                raise RankMismatch("image rank differs from endo rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "certified_inverse", certified_inverse)
        if certified_inverse is not None:
            inv = FreeEndo(rank, certified_inverse)
            for i in range(1, rank + 1):
                g = FreeWord.generator(rank, i)
                if apply_endo(inv, images[i - 1]) != g:
                    raise InvalidSpec(f"claimed inverse fails on x{i} (left)")
                if self.apply_raw(certified_inverse[i - 1]) != g:
                    raise InvalidSpec(f"claimed inverse fails on x{i} (right)")

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

    def apply_raw(self, w: FreeWord) -> FreeWord:
        # the images are words of this rank, so their letters need no checks
        return FreeWord._trusted(self.rank, substitute(self.letter_images, w.letters))

    @cached_property
    def letter_images(self) -> tuple[tuple[int, ...], ...]:
        """The images as letter tuples, the map substitute takes."""
        return tuple(w.letters for w in self.images)

    @property
    def is_certified(self) -> bool:
        return self.certified_inverse is not None

    def inverse_endo(self) -> "FreeEndo":
        if self.certified_inverse is None:
            raise InvalidSpec("no certified inverse attached")
        return FreeEndo(self.rank, self.certified_inverse, self.images)


def apply_endo(phi: FreeEndo, w: FreeWord) -> FreeWord:
    if phi.rank != w.rank:
        raise RankMismatch(f"endo rank {phi.rank} vs word rank {w.rank}")
    return phi.apply_raw(w)


def compose_endos(phi: FreeEndo, rho: FreeEndo) -> FreeEndo:
    """phi after rho (rho acts first)."""
    if phi.rank != rho.rank:
        raise RankMismatch(f"ranks {phi.rank} and {rho.rank}")
    images = tuple(phi.apply_raw(w) for w in rho.images)
    inverse = None
    if phi.certified_inverse is not None and rho.certified_inverse is not None:
        rho_inv = FreeEndo(rho.rank, rho.certified_inverse)
        inverse = tuple(rho_inv.apply_raw(w) for w in phi.certified_inverse)
    return FreeEndo(phi.rank, images, inverse)


def endo_power(phi: FreeEndo, k: int) -> FreeEndo:
    """phi^k.  The k compositions run on letter tuples, so a certified
    inverse is checked once, when the result is built."""
    if k < 0:
        return endo_power(phi.inverse_endo(), -k)
    images = inverse = tuple((i,) for i in range(1, phi.rank + 1))
    for _ in range(k):
        images = tuple(substitute(phi.letter_images, w) for w in images)
        if phi.is_certified:
            inverse = tuple(substitute(inverse, w.letters) for w in phi.certified_inverse)
    return FreeEndo.from_letters(
        phi.rank, images, inverse if phi.is_certified or k == 0 else None
    )


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
    rank = u.rank
    images = tuple(
        conjugate(FreeWord.generator(rank, i), u) for i in range(1, rank + 1)
    )
    inv = tuple(
        conjugate(FreeWord.generator(rank, i), word_inverse(u))
        for i in range(1, rank + 1)
    )
    return FreeEndo(rank, images, inv)


def nielsen_transvection(rank: int, i: int, j: int) -> FreeEndo:
    """x_i -> x_i x_j, other generators fixed.  Requires i != j."""
    if i == j:
        raise InvalidSpec("transvection needs distinct indices")
    images = []
    inverses = []
    for g in range(1, rank + 1):
        if g == i:
            images.append(FreeWord.from_letters(rank, (i, j)))
            inverses.append(FreeWord.from_letters(rank, (i, -j)))
        else:
            images.append(FreeWord.generator(rank, g))
            inverses.append(FreeWord.generator(rank, g))
    return FreeEndo(rank, tuple(images), tuple(inverses))


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
