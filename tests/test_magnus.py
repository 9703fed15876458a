"""Truncated Magnus expansion; lower-central layers held against the Lyndon-basis oracle."""

import random
from itertools import product
from math import comb

import pytest

from oracles import (
    commutator,
    compose_endos,
    decoded,
    embed_by_products,
    encoded,
    generator,
    identity_endo,
    inner_automorphism,
    lie_layer_basis,
    lie_layer_matrix,
    lyndon_words,
    nielsen_transvection,
    random_certified_automorphism,
    standard_factorization,
    table_product,
    table_reduced,
    unit_inverse,
    witt_dimension,
    word_inverse,
    word_product,
)
from resip.braid import artin_endo, beta_braid
from resip.caps import Caps
from resip.errors import CapExceeded, InvalidSpec
from resip.freegrp import (
    FreeEndo,
    FreeWord,
    abelianization_matrix,
    apply_endo,
    parse_word,
)
from resip.intlin import charpoly_exact, det_exact, is_unipotent_mod, poly_pow_x_minus_one
from resip.magnus import (
    SeriesSubstitution,
    TruncatedSeries,
    code_range,
    magnus_depth,
    magnus_embed,
    monomial_code,
    monomial_of,
)


def _random_word(rng, rank, length):
    letters = [rng.choice([-1, 1]) * rng.randint(1, rank) for _ in range(length)]
    return FreeWord.from_letters(rank, letters)


# ---------------------------------------------------------------------------
# Oracles: the straightforward kernels, on plain coefficient dicts
# (table_reduced, table_product and embed_by_products in oracles.py).


def _oracle_substitute(phi, s_table, d, modulus):
    """Rebuild the image of every monomial from scratch and add them up."""
    images = [
        {m: c for m, c in embed_by_products(w, d, modulus).items() if m}
        for w in phi.images
    ]
    acc = {}
    for m, c in s_table.items():
        term = {(): c}
        for idx in m:
            term = table_product(term, images[idx - 1], d, modulus)
        for n, v in term.items():
            acc[n] = acc.get(n, 0) + v
    return table_reduced(acc, modulus)


# 2^127 - 1 stands in for Z: the coefficients of these words stay far
# below it, so only the signs of negative ones are reduced
MODULI = (2, 3, 5, 9, 2 ** 127 - 1)


def _oracle_words(rng, rank):
    """Empty, random, long and cancelling words: conjugates, commutators
    and p-th powers, whose series cancel in low degrees."""
    u = _random_word(rng, rank, rng.randint(1, 6))
    v = _random_word(rng, rank, rng.randint(1, 6))
    x = generator(rank, rng.randint(1, rank))
    return [
        FreeWord.identity(rank),
        _random_word(rng, rank, rng.randint(1, 12)),
        _random_word(rng, rank, 60),
        word_product(u, v, word_inverse(u)),
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
    return table_reduced(table, modulus)


def test_monomial_codes_number_each_degree_in_lexicographic_order():
    """The theorem of monomial_code, for every monomial of rank <= 4 and
    degree <= 5 (rank 1 included): the codes decode back, the degree-k
    codes fill [S_k, S_(k+1)) in lexicographic order, and concatenation
    is m1 r^|m2| + m2."""
    for rank in range(1, 5):
        start = 0  # S_k
        by_degree = []
        for k in range(6):
            monomials = list(product(range(1, rank + 1), repeat=k))  # lexicographic
            codes = [monomial_code(m, rank) for m in monomials]
            assert [monomial_of(c, rank) for c in codes] == monomials
            assert codes == list(range(start, start + rank ** k))
            assert code_range(rank, k) == range(start, start + rank ** k)
            start += rank ** k
            by_degree.append(monomials)
        for k1, k2 in product(range(6), repeat=2):
            if k1 + k2 > 5:
                continue
            for m1 in by_degree[k1]:
                for m2 in by_degree[k2]:
                    expected = monomial_code(m1, rank) * rank ** k2 + monomial_code(m2, rank)
                    assert monomial_code(m1 + m2, rank) == expected


@pytest.mark.parametrize("m", [(0,), (3,), (-1,), (1, 3)])
def test_a_letter_outside_the_rank_has_no_code_and_no_coefficient(m):
    with pytest.raises(InvalidSpec, match="out of range 1..2"):
        monomial_code(m, 2)
    s = magnus_embed(parse_word("x1 x1 x2 x2 x1 x2 X1 X2", 2), 2, 2)
    assert s.coefficient(m) == 0


def test_a_monomial_past_the_degree_has_coefficient_zero():
    s = magnus_embed(parse_word("x1 x2", 2), 2, 3)
    assert s.coefficient((1, 2)) == 1 and s.coefficient((1, 2, 1)) == 0


def test_embed_matches_oracle():
    rng = random.Random(71)
    for rank in range(1, 5):
        for d in range(1, 7):
            for modulus in MODULI:
                for w in _oracle_words(rng, rank):
                    assert decoded(magnus_embed(w, d, modulus)) == embed_by_products(w, d, modulus)


def _generator_power(i, e, d, modulus):
    """(1 + X_i)^e truncated at d, from the binomial series alone:
    C(e, j) X_i^j for e >= 0, and (-1)^j C(-e + j - 1, j) X_i^j for e < 0."""
    table = {}
    for j in range(d + 1):
        c = (comb(e, j) if e >= 0 else (-1) ** j * comb(-e + j - 1, j)) % modulus
        if c:
            table[(i,) * j] = c
    return table


def test_embed_of_generator_powers_matches_closed_forms():
    """x_i^e for |e| <= 12: the descending pass of a letter and the
    ascending pass of an inverse letter, against formulas that share no
    code with the kernel or the oracle."""
    for rank in range(1, 4):
        for i in range(1, rank + 1):
            for e in range(-12, 13):
                w = FreeWord.from_letters(rank, [i if e > 0 else -i] * abs(e))
                for d in range(1, 7):
                    for modulus in MODULI:
                        expected = _generator_power(i, e, d, modulus)
                        assert decoded(magnus_embed(w, d, modulus)) == expected, (i, e, d, modulus)


def test_embed_of_runs_matches_oracle():
    """Words of runs x_a^e, |e| <= 4: mod 2, 3 and 9 terms cancel to zero
    in the middle of a pass and are written again later.  No stored
    coefficient is 0 and no monomial has degree above d."""
    rng = random.Random(73)
    for rank in range(1, 5):
        for d in range(1, 7):
            for modulus in (2, 3, 9):
                for _ in range(6):
                    letters = []
                    for _ in range(rng.randint(1, 6)):
                        a = rng.randint(1, rank)
                        letters += [rng.choice((a, -a))] * rng.randint(1, 4)
                    w = FreeWord.from_letters(rank, letters)
                    table = decoded(magnus_embed(w, d, modulus))
                    assert table == embed_by_products(w, d, modulus)
                    assert 0 not in table.values()
                    assert all(len(m) <= d for m in table)


@pytest.mark.parametrize("modulus", [0, 1, -3, None])
def test_modulus_below_two_is_refused(modulus):
    # None asked for a series over Z, which no caller embeds in
    w = parse_word("x1 X2 x1", 2)
    phi = FreeEndo(2, (w, generator(2, 2)))
    builds = (
        lambda: magnus_embed(w, 3, modulus),
        lambda: magnus_embed(FreeWord.identity(2), 3, modulus),
        lambda: SeriesSubstitution(phi, 3, modulus),
        lambda: TruncatedSeries(2, 3, modulus, {0: 1}),
        lambda: TruncatedSeries.generator_term(2, 3, 1, modulus),
    )
    for build in builds:
        with pytest.raises(InvalidSpec, match="modulus must be >= 2"):
            build()


def test_product_matches_oracle():
    rng = random.Random(73)
    for rank in range(1, 5):
        for d in range(1, 7):
            for modulus in MODULI:
                a = _random_table(rng, rank, d, modulus)
                b = _random_table(rng, rank, d, modulus)
                ta, tb = (TruncatedSeries(rank, d, modulus, encoded(t, rank)) for t in (a, b))
                assert decoded(ta * tb) == table_product(a, b, d, modulus)


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
                    out = sub(TruncatedSeries(rank, d, modulus, encoded(s, rank)))
                    assert decoded(out) == _oracle_substitute(phi, s, d, modulus)
                for w in _oracle_words(rng, rank)[:2]:
                    s = magnus_embed(w, d, modulus)
                    assert decoded(sub(s)) == _oracle_substitute(phi, decoded(s), d, modulus)


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
    one = magnus_embed(FreeWord.identity(2), 3, 5)
    assert one.is_one()
    g = magnus_embed(generator(2, 1), 3, 5)
    assert g.coefficient(()) == 1
    assert g.coefficient((1,)) == 1
    assert g.coefficient((2,)) == 0


def test_embed_commutator_degree_two():
    w = commutator(generator(2, 1), generator(2, 2))
    p = 7
    s = magnus_embed(w, 2, p)
    assert s.coefficient(()) == 1
    assert s.coefficient((1, 2)) == 1
    assert s.coefficient((2, 1)) == p - 1  # -1 mod p
    assert s.coefficient((1,)) == 0 and s.coefficient((2,)) == 0


def test_embed_pth_power_vanishes_at_degree_one():
    for p in (2, 3, 5):
        w = FreeWord.from_letters(1, [1] * p)
        assert magnus_embed(w, 1, p).is_one()
        # but not mod p^2, where p X_1 is no zero
        assert not magnus_embed(w, 1, p * p).is_one()


def test_embed_multiplicative_random_pairs():
    rng = random.Random(41)
    for _ in range(200):
        rank = rng.randint(1, 3)
        d = rng.randint(1, 5)
        mod = rng.choice([2, 3, 5, 2 ** 61 - 1])
        u = _random_word(rng, rank, rng.randint(0, 8))
        v = _random_word(rng, rank, rng.randint(0, 8))
        lhs = magnus_embed(word_product(u, v), d, mod)
        rhs = magnus_embed(u, d, mod) * magnus_embed(v, d, mod)
        assert lhs == rhs


def test_embed_inverse_is_unit_inverse():
    rng = random.Random(43)
    for _ in range(40):
        u = _random_word(rng, 2, rng.randint(1, 8))
        s = magnus_embed(u, 4, 7)
        assert (s * unit_inverse(s)).is_one()


def test_depth_fixtures():
    x1 = generator(2, 1)
    x2 = generator(2, 2)
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
    phi = identity_endo(2)
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            i, j = rng.sample([1, 2], 2)
            step = nielsen_transvection(2, i, j)
        else:
            step = inner_automorphism(_random_word(rng, 2, 3))
        phi = compose_endos(step, phi)
    return phi


def test_identity_layer_matrices():
    ident = identity_endo(3)
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
    # by the theorem of the magnus module docstring, the H_1 action
    # decides every layer: unipotent mod 3, not mod 2
    beta = artin_endo(beta_braid())
    m = abelianization_matrix(beta)
    assert is_unipotent_mod(m, 3)
    assert all(is_unipotent_mod(lie_layer_matrix(beta, i, 3), 3) for i in (1, 2, 3))
    assert not is_unipotent_mod(m, 2)
    assert not is_unipotent_mod(lie_layer_matrix(beta, 1, 2), 2)


def test_unipotent_over_Z_fixtures():
    # unipotent over Z on every layer iff charpoly(M) = (x - 1)^n
    cases = (
        (identity_endo(2), True),
        (nielsen_transvection(2, 1, 2), True),
        (artin_endo(beta_braid()), False),
    )
    for phi, expected in cases:
        m = abelianization_matrix(phi)
        assert (charpoly_exact(m) == poly_pow_x_minus_one(phi.rank)) == expected
        layers = (lie_layer_matrix(phi, i) for i in (1, 2, 3))
        assert all(charpoly_exact(a) == poly_pow_x_minus_one(a.n) for a in layers) == expected


def test_layers_by_theorem_match_the_lyndon_oracle():
    """Unipotence on layers 1..c, read off H_1 as the magnus module
    docstring proves, against the layer matrices the oracle builds in the
    Lyndon basis.  The oracle stops at the first layer that is not
    unipotent, so the unipotent cases carry the check."""
    rng = random.Random(1601)
    unipotent = 0
    for trial in range(180):
        rank, top = ((2, 4), (3, 3))[trial % 2]
        phi = random_certified_automorphism(rng, rank)
        m = abelianization_matrix(phi)
        for p in (2, 3, 5):
            expected = all(
                is_unipotent_mod(lie_layer_matrix(phi, i, p), p) for i in range(1, top + 1)
            )
            assert bool(is_unipotent_mod(m, p)) == expected
            unipotent += expected
        layers = (lie_layer_matrix(phi, i) for i in range(1, 4))
        expected = all(charpoly_exact(a) == poly_pow_x_minus_one(a.n) for a in layers)
        assert (charpoly_exact(m) == poly_pow_x_minus_one(rank)) == expected
    assert unipotent >= 100


def test_layers_by_theorem_edge_cases():
    # rank 7 and layer 12 are past every cap, and the theorem needs none:
    # the H_1 action decides every layer
    x = [generator(7, i) for i in range(1, 8)]
    rotate = abelianization_matrix(FreeEndo(7, tuple(x[1:] + x[:1]), tuple(x[-1:] + x[:-1])))
    assert is_unipotent_mod(rotate, 7)  # x^7 - 1 = (x - 1)^7 mod 7
    assert not is_unipotent_mod(rotate, 2)
    assert charpoly_exact(rotate) != poly_pow_x_minus_one(7)
    with pytest.raises(InvalidSpec, match="4 is not prime"):
        is_unipotent_mod(abelianization_matrix(identity_endo(2)), 4)


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
    gx = TruncatedSeries.generator_term(2, 3, 1, 5)
    gy = TruncatedSeries.generator_term(2, 3, 2, 5)
    prod = gx * gy
    assert prod.coefficient(()) == 1
    assert prod.coefficient((1, 2)) == 1
    assert prod.coefficient((2, 1)) == 0
    # truncation at the degree bound: (1+X)^4 keeps C(4,k) only for k <= 3
    quad = gx * gx * gx * gx
    assert quad.coefficient((1, 1, 1)) == 4
    assert all(len(m) <= 3 for m in decoded(quad))
