"""Truncated Magnus expansion; lower-central layers held against the Lyndon-basis oracle."""

import random

import pytest

from oracles import (
    lie_layer_basis,
    lie_layer_matrix,
    lyndon_words,
    random_certified_automorphism,
    standard_factorization,
    unit_inverse,
    witt_dimension,
)
from resip.braid import artin_endo, beta_braid
from resip.caps import Caps
from resip.errors import CapExceeded, InvalidSpec
from resip.freegrp import (
    FreeEndo,
    FreeWord,
    abelianization_matrix,
    apply_endo,
    commutator,
    compose_endos,
    inner_automorphism,
    nielsen_transvection,
    parse_word,
    word_multiply,
)
from resip.intlin import charpoly_exact, det_exact, is_unipotent_mod, poly_pow_x_minus_one
from resip.magnus import (
    SeriesSubstitution,
    TruncatedSeries,
    magnus_depth,
    magnus_embed,
    unipotent_on_layers,
    unipotent_over_Z,
)


def _random_word(rng, rank, length):
    letters = [rng.choice([-1, 1]) * rng.randint(1, rank) for _ in range(length)]
    return FreeWord.from_letters(rank, letters)


# ---------------------------------------------------------------------------
# Oracles: the straightforward kernels, on plain coefficient dicts.


def _oracle_reduce(table, modulus):
    out = {}
    for m, c in table.items():
        c = c % modulus if modulus is not None else c
        if c:
            out[m] = c
    return out


def _oracle_product(a, b, d, modulus):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if len(m1) + len(m2) <= d:
                out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return _oracle_reduce(out, modulus)


def _oracle_embed(w, d, modulus):
    """One full series product per letter: 1 + X_i, or the (d+1)-term
    geometric series 1 - X_i + X_i^2 - ... for the inverse letter."""
    table = {(): 1}
    for a in w.letters:
        i = abs(a)
        if a > 0:
            factor = {(): 1, (i,): 1}
        else:
            factor = {(i,) * r: (-1) ** r for r in range(d + 1)}
        table = _oracle_product(table, factor, d, modulus)
    return table


def _oracle_substitute(phi, s_table, d, modulus):
    """Rebuild the image of every monomial from scratch and add them up."""
    images = [
        {m: c for m, c in _oracle_embed(w, d, modulus).items() if m}
        for w in phi.images
    ]
    acc = {}
    for m, c in s_table.items():
        term = {(): c}
        for idx in m:
            term = _oracle_product(term, images[idx - 1], d, modulus)
        for n, v in term.items():
            acc[n] = acc.get(n, 0) + v
    return _oracle_reduce(acc, modulus)


MODULI = (None, 2, 3, 5, 9)


def _oracle_words(rng, rank):
    """Empty, random, long and cancelling words: conjugates, commutators
    and p-th powers, whose series cancel in low degrees."""
    u = _random_word(rng, rank, rng.randint(1, 6))
    v = _random_word(rng, rank, rng.randint(1, 6))
    x = FreeWord.generator(rank, rng.randint(1, rank))
    return [
        FreeWord.identity(rank),
        _random_word(rng, rank, rng.randint(1, 12)),
        _random_word(rng, rank, 60),
        word_multiply(word_multiply(u, v), u.inverse()),
        commutator(u, v),
        commutator(commutator(u, v), x),
        FreeWord.from_letters(rank, list(u.letters) * rng.choice((2, 3, 5, 9))),
    ]


def _random_endo(rng, rank):
    return FreeEndo(rank, tuple(_random_word(rng, rank, rng.randint(0, 5)) for _ in range(rank)))


def _random_table(rng, rank, d, modulus):
    """A series that is not group-like: random coefficients, constant term
    included."""
    table = {}
    for _ in range(rng.randint(0, 12)):
        m = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, d)))
        table[m] = rng.randint(-20, 20)
    return _oracle_reduce(table, modulus)


def test_embed_matches_oracle():
    rng = random.Random(71)
    for rank in range(1, 5):
        for d in range(1, 7):
            for modulus in MODULI:
                for w in _oracle_words(rng, rank):
                    assert magnus_embed(w, d, modulus).table == _oracle_embed(w, d, modulus)


def test_product_matches_oracle():
    rng = random.Random(73)
    for rank in range(1, 5):
        for d in range(1, 7):
            for modulus in MODULI:
                a = _random_table(rng, rank, d, modulus)
                b = _random_table(rng, rank, d, modulus)
                prod = TruncatedSeries(rank, d, modulus, a) * TruncatedSeries(rank, d, modulus, b)
                assert prod.table == _oracle_product(a, b, d, modulus)


def test_substitution_matches_oracle():
    rng = random.Random(79)
    for rank in range(1, 5):
        for d in range(1, 5):
            for modulus in MODULI:
                phi = _random_endo(rng, rank)
                sub = SeriesSubstitution(phi, d, modulus)
                # repeated calls on one instance reuse its memoised images
                for _ in range(3):
                    s = _random_table(rng, rank, d, modulus)
                    out = sub(TruncatedSeries(rank, d, modulus, s))
                    assert out.table == _oracle_substitute(phi, s, d, modulus)
                for w in _oracle_words(rng, rank)[:2]:
                    s = magnus_embed(w, d, modulus)
                    assert sub(s).table == _oracle_substitute(phi, s.table, d, modulus)


def test_substitution_commutes_with_embedding():
    rng = random.Random(83)
    for rank in range(1, 5):
        for d in range(1, 6):
            for modulus in MODULI:
                phi = _random_endo(rng, rank)
                sub = SeriesSubstitution(phi, d, modulus)
                for w in _oracle_words(rng, rank):
                    lhs = sub(magnus_embed(w, d, modulus))
                    assert lhs == magnus_embed(apply_endo(phi, w), d, modulus)


def test_embed_identity_and_generator():
    one = magnus_embed(FreeWord.identity(2), 3)
    assert one.is_one()
    g = magnus_embed(FreeWord.generator(2, 1), 3)
    assert g.coefficient(()) == 1
    assert g.coefficient((1,)) == 1
    assert g.coefficient((2,)) == 0


def test_embed_commutator_degree_two():
    w = commutator(FreeWord.generator(2, 1), FreeWord.generator(2, 2))
    s = magnus_embed(w, 2)
    assert s.coefficient(()) == 1
    assert s.coefficient((1, 2)) == 1
    assert s.coefficient((2, 1)) == -1
    assert s.coefficient((1,)) == 0 and s.coefficient((2,)) == 0


def test_embed_pth_power_vanishes_at_degree_one():
    for p in (2, 3, 5):
        w = FreeWord.from_letters(1, [1] * p)
        assert magnus_embed(w, 1, p).is_one()
        # but not over Z
        assert not magnus_embed(w, 1).is_one()


def test_embed_multiplicative_random_pairs():
    rng = random.Random(41)
    for _ in range(200):
        rank = rng.randint(1, 3)
        d = rng.randint(1, 5)
        mod = rng.choice([None, 2, 3, 5])
        u = _random_word(rng, rank, rng.randint(0, 8))
        v = _random_word(rng, rank, rng.randint(0, 8))
        lhs = magnus_embed(word_multiply(u, v), d, mod)
        rhs = magnus_embed(u, d, mod) * magnus_embed(v, d, mod)
        assert lhs == rhs


def test_embed_inverse_is_unit_inverse():
    rng = random.Random(43)
    for _ in range(40):
        u = _random_word(rng, 2, rng.randint(1, 8))
        s = magnus_embed(u, 4)
        assert (s * unit_inverse(s)).is_one()


def test_depth_fixtures():
    x1 = FreeWord.generator(2, 1)
    x2 = FreeWord.generator(2, 2)
    assert magnus_depth(commutator(x1, x2), 2) == 2
    assert magnus_depth(x1, 7) == 1
    assert magnus_depth(FreeWord.identity(2), 3) is None


def test_depth_cap_is_a_distinct_outcome():
    # x1^9 has depth 9 over F_3 (> default cap 8): must raise, not decide
    w = FreeWord.from_letters(1, [1] * 9)
    with pytest.raises(CapExceeded):
        magnus_depth(w, 3)
    assert magnus_depth(w, 3, Caps(magnus_degree=9)) == 9


def test_depth_of_pth_powers():
    for p in (2, 3):
        w = FreeWord.from_letters(1, [1] * p)
        assert magnus_depth(w, p) == p


def test_kernel_filtration_fully_invariant():
    rng = random.Random(47)
    phi = compose_endos(
        nielsen_transvection(3, 1, 2), inner_automorphism(parse_word("x2 x3", 3))
    )
    for _ in range(25):
        p = rng.choice([2, 3])
        w = _random_word(rng, 3, rng.randint(1, 8))
        if w.is_identity():
            continue
        d = magnus_depth(w, p, Caps(magnus_degree=6))
        image = apply_endo(phi, w)
        d_img = magnus_depth(image, p)
        # endomorphisms cannot decrease depth below the original
        assert d_img is None or d_img >= d


def test_lyndon_words_rank2():
    words = lyndon_words(2, 3)
    assert (1,) in words and (2,) in words
    assert (1, 2) in words and (2, 1) not in words
    assert (1, 1, 2) in words and (1, 2, 2) in words
    assert (1, 2, 1) not in words


def test_standard_factorization():
    assert standard_factorization((1, 2)) == ((1,), (2,))
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))


def test_witt_dimensions():
    assert [witt_dimension(2, i) for i in range(1, 5)] == [2, 1, 2, 3]
    assert [witt_dimension(3, i) for i in range(1, 5)] == [3, 3, 8, 18]
    assert witt_dimension(6, 4) == 315
    for n in range(1, 5):
        for i in range(1, 5):
            assert witt_dimension(n, i) == len(lie_layer_basis(n, i))


def test_layer_one_is_abelianization():
    beta = artin_endo(beta_braid())
    m = lie_layer_matrix(beta, 1, 3)
    ab = abelianization_matrix(beta)
    assert m.entries == tuple(
        tuple(x % 3 for x in row) for row in ab.entries
    )
    # 3-cycle permutation matrix
    assert sorted(sum(row) for row in m.entries) == [1, 1, 1]


def test_layer_two_rank2_is_determinant():
    rng = random.Random(53)
    for _ in range(10):
        phi = _random_rank2_automorphism(rng)
        layer2 = lie_layer_matrix(phi, 2, None)
        assert layer2.entries == ((det_exact(abelianization_matrix(phi)),),)
    swap = FreeEndo(
        2,
        (parse_word("x2", 2), parse_word("x1", 2)),
        (parse_word("x2", 2), parse_word("x1", 2)),
    )
    assert lie_layer_matrix(swap, 2, None).entries == ((-1,),)


def _random_rank2_automorphism(rng):
    phi = FreeEndo.identity(2)
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            i, j = rng.sample([1, 2], 2)
            step = nielsen_transvection(2, i, j)
        else:
            step = inner_automorphism(_random_word(rng, 2, 3))
        phi = compose_endos(step, phi)
    return phi


def test_identity_layer_matrices():
    ident = FreeEndo.identity(3)
    for i in (1, 2, 3):
        m = lie_layer_matrix(ident, i, None)
        assert m.entries == tuple(
            tuple(1 if a == b else 0 for b in range(m.n)) for a in range(m.n)
        )


def test_layer_functoriality():
    rng = random.Random(59)
    for _ in range(10):
        phi = _random_rank2_automorphism(rng)
        rho = _random_rank2_automorphism(rng)
        comp = compose_endos(phi, rho)
        for i in (2, 3):
            lhs = lie_layer_matrix(comp, i, None)
            rhs = lie_layer_matrix(phi, i, None) * lie_layer_matrix(rho, i, None)
            assert lhs.entries == rhs.entries


def test_unipotence_on_layers_beta():
    beta = artin_endo(beta_braid())
    assert unipotent_on_layers(beta, 3, 3)
    assert not unipotent_on_layers(beta, 2, 1)


def test_unipotent_over_Z_fixtures():
    assert unipotent_over_Z(FreeEndo.identity(2), 3)
    assert unipotent_over_Z(nielsen_transvection(2, 1, 2), 4)
    assert not unipotent_over_Z(artin_endo(beta_braid()), 1)


def test_layers_by_theorem_match_the_lyndon_oracle():
    """Unipotence on layers 1..c, read off H_1, against the layer matrices
    the oracle builds in the Lyndon basis.  The oracle stops at the first
    layer that is not unipotent, so the unipotent cases carry the check."""
    rng = random.Random(1601)
    unipotent = 0
    for trial in range(180):
        rank, top = ((2, 4), (3, 3))[trial % 2]
        phi = random_certified_automorphism(rng, rank)
        for p in (2, 3, 5):
            expected = all(
                is_unipotent_mod(lie_layer_matrix(phi, i, p), p) for i in range(1, top + 1)
            )
            assert unipotent_on_layers(phi, p, top) == expected
            unipotent += expected
        layers = (lie_layer_matrix(phi, i) for i in range(1, 4))
        expected = all(charpoly_exact(m) == poly_pow_x_minus_one(m.n) for m in layers)
        assert unipotent_over_Z(phi, 3) == expected
    assert unipotent >= 100


def test_layers_by_theorem_edge_cases():
    beta = artin_endo(beta_braid())
    assert unipotent_on_layers(beta, 2, 0) and unipotent_over_Z(beta, 0)
    # rank 7 and layer 12 are past every cap, and no cap applies
    x = [FreeWord.generator(7, i) for i in range(1, 8)]
    rotate = FreeEndo(7, tuple(x[1:] + x[:1]), tuple(x[-1:] + x[:-1]))
    assert unipotent_on_layers(rotate, 7, 12)  # x^7 - 1 = (x - 1)^7 mod 7
    assert not unipotent_on_layers(rotate, 2, 12)
    assert not unipotent_over_Z(rotate, 12)
    uncertified = FreeEndo(2, (parse_word("x1 x2", 2), parse_word("x2", 2)))
    with pytest.raises(InvalidSpec, match="certified"):
        unipotent_on_layers(uncertified, 3, 1)
    with pytest.raises(InvalidSpec, match="certified"):
        unipotent_over_Z(uncertified, 1)
    with pytest.raises(InvalidSpec, match="4 is not prime"):
        unipotent_on_layers(FreeEndo.identity(2), 4, 2)


def test_layer_matrices_are_no_longer_library_api():
    import resip
    from resip import magnus

    moved = (
        "LieLayerMatrix",
        "lie_layer_basis",
        "lie_layer_matrix",
        "lyndon_words",
        "standard_factorization",
        "witt_dimension",
    )
    for name in moved:
        assert not hasattr(resip, name)
        assert name not in resip.__all__
        assert not hasattr(magnus, name)


def test_substitution_matches_endo_application():
    rng = random.Random(61)
    beta = artin_endo(beta_braid())
    sub = SeriesSubstitution(beta, 4, 3)
    for _ in range(20):
        w = _random_word(rng, 3, rng.randint(1, 6))
        lhs = sub(magnus_embed(w, 4, 3))
        rhs = magnus_embed(apply_endo(beta, w), 4, 3)
        assert lhs == rhs


def test_series_ring_arithmetic():
    # generator_term is the group-element image 1 + X_i
    gx = TruncatedSeries.generator_term(2, 3, 1, None)
    gy = TruncatedSeries.generator_term(2, 3, 2, None)
    prod = gx * gy
    assert prod.coefficient(()) == 1
    assert prod.coefficient((1, 2)) == 1
    assert prod.coefficient((2, 1)) == 0
    # truncation at the degree bound: (1+X)^4 keeps C(4,k) only for k <= 3
    quad = gx * gx * gx * gx
    assert quad.coefficient((1, 1, 1)) == 4
    assert all(len(m) <= 3 for m in quad.table)
    one = TruncatedSeries.one(2, 3, None)
    assert (gx - gx.scale(1)).table == {}
    assert (one.scale(3) - one - one - one).table == {}
