"""Seeded input generators: matrices, Nielsen automorphisms, braids, words.

Standard library only; nothing here imports resip.  Words are tuples of
nonzero ints (i is x_i, -i its inverse), always freely reduced.  An
automorphism is a pair (images, inverse) of word tuples; every generator
below builds the inverse as the reversed product of the inverse moves, so
the program under test receives a certified inverse it can check.
"""

from __future__ import annotations

import random

from oracles import charpoly, mat_mul

# ---------------------------------------------------------------------------
# words


def reduce_word(letters) -> tuple[int, ...]:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def invert(w) -> tuple[int, ...]:
    return tuple(-a for a in reversed(w))


def substitute(images, w) -> tuple[int, ...]:
    """The image of w under the endomorphism x_i -> images[i-1]."""
    letters: list[int] = []
    for a in w:
        letters.extend(images[a - 1] if a > 0 else invert(images[-a - 1]))
    return reduce_word(letters)


def commutator(u, v) -> tuple[int, ...]:
    """[u, v] = u v u^-1 v^-1"""
    return reduce_word(u + v + invert(u) + invert(v))


def format_word(w) -> str:
    if not w:
        return "1"
    return " ".join(f"x{a}" if a > 0 else f"X{-a}" for a in w)


# ---------------------------------------------------------------------------
# automorphisms of F_rank as (images, inverse)


def identity_auto(rank: int):
    gens = tuple((i,) for i in range(1, rank + 1))
    return gens, gens


def compose(a, b):
    """a after b (b acts first), with the inverse b^-1 after a^-1."""
    images = tuple(substitute(a[0], w) for w in b[0])
    inverse = tuple(substitute(b[1], w) for w in a[1])
    return images, inverse


def _move(rank: int, i: int, image, inverse_image):
    """The automorphism changing only x_i, given its image and the image
    under the inverse move."""
    images = [(g,) for g in range(1, rank + 1)]
    inverse = [(g,) for g in range(1, rank + 1)]
    images[i - 1] = reduce_word(image)
    inverse[i - 1] = reduce_word(inverse_image)
    return tuple(images), tuple(inverse)


def transvection(rank: int, i: int, j: int, e: int = 1, left: bool = False):
    """x_i -> x_i x_j^e (or x_j^e x_i); e = +-p gives a mod-p Torelli move."""
    power = (j,) * e if e > 0 else (-j,) * -e
    if left:
        return _move(rank, i, power + (i,), invert(power) + (i,))
    return _move(rank, i, (i,) + power, (i,) + invert(power))


def inversion(rank: int, i: int):
    return _move(rank, i, (-i,), (-i,))


def inner(rank: int, u):
    """Conjugation w -> u w u^-1; acts trivially on H_1."""
    images = tuple(reduce_word(u + (g,) + invert(u)) for g in range(1, rank + 1))
    inverse = tuple(reduce_word(invert(u) + (g,) + u) for g in range(1, rank + 1))
    return images, inverse


def commutator_transvection(rank: int, i: int, j: int, k: int):
    """x_i -> x_i [x_j, x_k] with i not in {j, k}; acts trivially on H_1."""
    c = commutator((j,), (k,))
    return _move(rank, i, (i,) + c, (i,) + invert(c))


def product(rank: int, moves):
    """m_1 o m_2 o ... o m_k; its inverse is m_k^-1 o ... o m_1^-1."""
    auto = identity_auto(rank)
    for m in moves:
        auto = compose(auto, m)
    return auto


def random_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    letters: list[int] = []
    while len(letters) < length:
        a = rng.choice([1, -1]) * rng.randint(1, rank)
        if not letters or letters[-1] != -a:
            letters.append(a)
    return tuple(letters)


def _pair(rng: random.Random, rank: int) -> tuple[int, int]:
    i, j = rng.sample(range(1, rank + 1), 2)
    return i, j


def nielsen_move(rng: random.Random, rank: int):
    """A random elementary Nielsen move: transvection or inversion."""
    if rng.random() < 0.8:
        i, j = _pair(rng, rank)
        return transvection(rank, i, j, rng.choice([1, -1]), rng.random() < 0.5)
    return inversion(rank, rng.randint(1, rank))


def random_nielsen(rng: random.Random, rank: int, moves: int):
    return product(rank, [nielsen_move(rng, rank) for _ in range(moves)])


def unipotent_auto(rng: random.Random, rank: int, moves: int):
    """Transvections x_i -> x_i x_j^+-1 with j > i and inner automorphisms:
    upper unitriangular on H_1, so unipotent over Z and mod every prime."""
    parts = []
    for _ in range(moves):
        if rng.random() < 0.75:
            i = rng.randint(1, rank - 1)
            j = rng.randint(i + 1, rank)
            parts.append(transvection(rank, i, j, rng.choice([1, -1]), rng.random() < 0.5))
        else:
            parts.append(inner(rank, random_word(rng, rank, rng.randint(1, 2))))
    return product(rank, parts)


def torelli_mod_p(rng: random.Random, rank: int, p: int, moves: int):
    """Moves that act trivially on H_1 mod p: x_i -> x_i x_j^+-p,
    commutator transvections and inner automorphisms."""
    parts = []
    for _ in range(moves):
        r = rng.random()
        if r < 0.4:
            i, j = _pair(rng, rank)
            parts.append(transvection(rank, i, j, rng.choice([p, -p]), rng.random() < 0.5))
        elif r < 0.7 and rank >= 3:
            i, j, k = rng.sample(range(1, rank + 1), 3)
            parts.append(commutator_transvection(rank, i, j, k))
        else:
            parts.append(inner(rank, random_word(rng, rank, 1)))
    return product(rank, parts)


def sign_pattern(rank: int, signs):
    """x_i -> x_i^signs[i-1]: the diagonal +-1 pattern on H_1."""
    images = tuple((i,) if s > 0 else (-i,) for i, s in zip(range(1, rank + 1), signs))
    return images, images


def auto_payload(auto) -> dict:
    images, inverse = auto
    return {
        "rank": len(images),
        "images": [format_word(w) for w in images],
        "inverse": [format_word(w) for w in inverse],
    }


# ---------------------------------------------------------------------------
# integer matrices


def elementary(n: int, i: int, j: int, e: int) -> list[list[int]]:
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    m[i][j] = e
    return m


def random_gl(rng: random.Random, n: int, steps: int, sl: bool = False) -> list[list[int]]:
    """A product of elementary matrices E_ij(+-1), with sign flips unless
    sl is set; determinant +-1 by construction (1 when sl)."""
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(steps):
        if not sl and rng.random() < 0.15:
            i = rng.randrange(n)
            flip = [[int(r == c) * (-1 if r == i else 1) for c in range(n)] for r in range(n)]
            m = mat_mul(m, flip)
        else:
            i, j = rng.sample(range(n), 2)
            m = mat_mul(m, elementary(n, i, j, rng.choice([1, -1])))
    return m


# ---------------------------------------------------------------------------
# braids and commutators


def random_braid(rng: random.Random, strands: int, length: int) -> str:
    letters = []
    while len(letters) < length:
        a = rng.choice([1, -1]) * rng.randint(1, strands - 1)
        if not letters or letters[-1] != -a:
            letters.append(a)
    return " ".join(f"s{a}" if a > 0 else f"S{-a}" for a in letters)


def left_nested_commutator(rng: random.Random, rank: int, weight: int) -> tuple[int, ...]:
    """[[..[x_a, x_b], x_c].., x_z] of the given weight with a != b, so its
    Lie element is a nonzero left-normed bracket."""
    a, b = _pair(rng, rank)
    w = commutator((rng.choice([a, -a]),), (rng.choice([b, -b]),))
    for _ in range(weight - 2):
        c = rng.randint(1, rank)
        w = commutator(w, (rng.choice([c, -c]),))
    return w


def artin(strands: int, letters):
    """Artin action of a braid word; the leftmost letter acts first.
    sigma_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i."""
    auto = identity_auto(strands)
    for a in letters:
        i = abs(a)
        sigma = _move(strands, i, (i, i + 1, -i), (i + 1,))
        images, inverse = list(sigma[0]), list(sigma[1])
        images[i], inverse[i] = (i,), (-(i + 1), i, i + 1)
        sigma = (tuple(images), tuple(inverse))
        auto = compose(sigma if a > 0 else (sigma[1], sigma[0]), auto)
    return auto


def charpoly_mod_squarefree(m, p: int) -> bool:
    """Is the characteristic polynomial of m squarefree over F_p?  Then m
    has at most 2^n invariant subspaces, which keeps the obstruction
    search cheap."""
    coeffs = [c % p for c in reversed(charpoly(m))]  # ascending powers
    return len(_poly_gcd_mod(coeffs, _derivative(coeffs, p), p)) == 1


def _derivative(coeffs, p: int) -> list[int]:
    return [(i * c) % p for i, c in enumerate(coeffs)][1:]


def _poly_gcd_mod(a, b, p: int) -> list[int]:
    def trim(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            shift = len(a) - len(b)
            for k, c in enumerate(b):
                a[shift + k] = (a[shift + k] - f * c) % p
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return a
