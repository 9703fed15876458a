"""Artin action, braid permutations, cyclic covers, induced homology."""

import random

import pytest

from oracles import artin_endo_by_composition
from resip import braid as braid_module
from resip import (
    BraidWord,
    CoverGraph,
    FreeEndo,
    FreeWord,
    InvalidSpec,
    NotInvariant,
    NotTransitive,
    abelianization_matrix,
    apply_endo,
    artin_endo,
    beta_braid,
    braid_permutation,
    charpoly_exact,
    compose_endos,
    cover_from_finite_quotient,
    det_exact,
    endo_preserves_cover,
    endo_power,
    format_braid,
    format_word,
    induced_cover_homology,
    is_cyclotomic_product,
    parse_braid,
    parse_word,
    permutation_order,
    poly_divmod,
)


def test_parse_format_round_trip():
    b = parse_braid("s1 S2", 3)
    assert b.letters == (1, -2)
    assert format_braid(b) == "s1 S2"
    assert parse_braid("1", 4).letters == ()
    with pytest.raises(InvalidSpec):
        parse_braid("s3", 3)
    with pytest.raises(InvalidSpec):
        parse_braid("t1", 3)


@pytest.mark.parametrize("text", ["s\u0662", "S\uff11", "t1", "x1"])
def test_braid_tokens_are_s_or_S_and_ascii_digits(text):
    with pytest.raises(InvalidSpec, match="bad braid token"):
        parse_braid(text, 3)


def test_braid_index_beyond_int_conversion_is_invalid_spec():
    # int() converts at most 4300 digits; a longer index is out of range
    with pytest.raises(InvalidSpec, match="out of range"):
        parse_braid("s" + "1" * 5000, 3)


def test_beta_images():
    beta = artin_endo(beta_braid())
    assert format_word(beta.images[0]) == "x1 x3 X1"
    assert format_word(beta.images[1]) == "x1"
    assert format_word(beta.images[2]) == "X3 x2 x3"
    assert beta.is_certified


def test_beta_permutation_and_purity():
    perm, pure = braid_permutation(beta_braid())
    assert perm == (3, 1, 2)
    assert not pure
    assert permutation_order(perm) == 3
    perm3, pure3 = braid_permutation(beta_braid() ** 3)
    assert pure3 and perm3 == (1, 2, 3)


def test_beta_abelianization_is_three_cycle():
    m = abelianization_matrix(artin_endo(beta_braid()))
    assert m.entries == ((0, 1, 0), (0, 0, 1), (1, 0, 0))


def test_braid_relations_as_automorphisms():
    # adjacent: s1 s2 s1 = s2 s1 s2 in B_3
    lhs = artin_endo(BraidWord(3, (1, 2, 1)))
    rhs = artin_endo(BraidWord(3, (2, 1, 2)))
    assert lhs.images == rhs.images
    # distant generators commute in B_4
    lhs = artin_endo(BraidWord(4, (1, 3)))
    rhs = artin_endo(BraidWord(4, (3, 1)))
    assert lhs.images == rhs.images
    # inverse braid gives inverse automorphism
    b = BraidWord(4, (2, -3, 1, 1))
    assert artin_endo(b.inverse()).images == artin_endo(b).certified_inverse


def test_artin_action_fixes_boundary_word():
    rng = random.Random(83)
    for strands in (2, 3, 4):
        boundary = FreeWord.from_letters(strands, range(1, strands + 1))
        for _ in range(10):
            letters = tuple(
                rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 8))
            )
            phi = artin_endo(BraidWord(strands, letters))
            assert apply_endo(phi, boundary) == boundary


def test_artin_endo_word_concatenation():
    rng = random.Random(89)
    for _ in range(10):
        letters1 = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(4))
        letters2 = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(4))
        b1 = BraidWord(3, letters1)
        b2 = BraidWord(3, letters2)
        # leftmost letter acts first
        combined = artin_endo(b1 * b2)
        expected = compose_endos(artin_endo(b2), artin_endo(b1))
        assert combined.images == expected.images


def test_artin_endo_matches_letter_by_letter_composition():
    rng = random.Random(2024)
    for _ in range(60):
        strands = rng.randint(2, 5)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 10))
        )
        b = BraidWord(strands, letters)
        endo, expected = artin_endo(b), artin_endo_by_composition(b)
        assert endo.images == expected.images
        assert endo.certified_inverse == expected.certified_inverse


def _trusted_endo(rank, images, inverse):
    """A FreeEndo whose claimed inverse was never checked."""
    endo = object.__new__(FreeEndo)
    for name, value in (("rank", rank), ("images", images), ("certified_inverse", inverse)):
        object.__setattr__(endo, name, value)
    return endo


@pytest.mark.parametrize("text", ["s1", "s1 S2 s1", "S2 S1 s2 s2"])
def test_artin_endo_checks_the_composed_inverse(monkeypatch, text):
    genuine = braid_module._elementary_endo

    def corrupted(strands, letter):
        endo = genuine(strands, letter)
        inverse = (FreeWord.from_letters(strands, (1, 1)),) + endo.certified_inverse[1:]
        return _trusted_endo(strands, endo.images, inverse)

    monkeypatch.setattr(braid_module, "_elementary_endo", corrupted)
    with pytest.raises(InvalidSpec):
        artin_endo(parse_braid(text, 3))


def test_cover_graph_shapes():
    cover = cover_from_finite_quotient(3, (1, 1, 1), 2)
    assert cover.subgroup_rank == 5
    assert len(cover.schreier_basis_words()) == 5
    with pytest.raises(NotTransitive):
        cover_from_finite_quotient(2, (0, 2), 4)


def test_schreier_basis_words_lie_in_kernel():
    cover = cover_from_finite_quotient(3, (1, 2, 1), 3)
    for w in cover.schreier_basis_words():
        chi = sum(
            (1 if a > 0 else -1) * cover.assignments[abs(a) - 1] for a in w.letters
        )
        assert chi % 3 == 0


def test_cover_invariance_gate():
    cover = cover_from_finite_quotient(3, (1, 1, 1), 2)
    beta = artin_endo(beta_braid())
    assert endo_preserves_cover(beta, cover)
    # x1 -> x1 x2 does not preserve the all-ones mod-2 assignment
    from resip import nielsen_transvection

    assert not endo_preserves_cover(nielsen_transvection(3, 1, 2), cover)
    with pytest.raises(NotInvariant):
        induced_cover_homology(nielsen_transvection(3, 1, 2), cover)


def test_double_cover_homology_fixture():
    cover = cover_from_finite_quotient(3, (1, 1, 1), 2)
    beta = artin_endo(beta_braid())
    m = induced_cover_homology(beta, cover)
    cp = charpoly_exact(m)
    assert cp == (1, -3, 1, -1, 3, -1)
    assert det_exact(m) == 1
    quot, rem = poly_divmod(cp, (1, -3, 1))
    assert all(c == 0 for c in rem)
    # residual factor x^3 - 1 is a product of cyclotomics
    assert quot == (1, 0, 0, -1)
    assert is_cyclotomic_product(quot)


def test_cube_homology_is_cube_of_homology():
    cover = cover_from_finite_quotient(3, (1, 1, 1), 2)
    beta = artin_endo(beta_braid())
    m = induced_cover_homology(beta, cover)
    m3 = induced_cover_homology(endo_power(beta, 3), cover)
    assert m3.entries == (m ** 3).entries
    cp3 = charpoly_exact(m3)
    _, rem = poly_divmod(cp3, (1, -18, 1))
    assert all(c == 0 for c in rem)


def test_homology_functoriality_random():
    rng = random.Random(97)
    cover = cover_from_finite_quotient(3, (1, 1, 1), 2)
    pool = [b for b in _random_braids(rng, 10)]
    for b1 in pool[:5]:
        for b2 in pool[5:]:
            phi, rho = artin_endo(b1), artin_endo(b2)
            if not (endo_preserves_cover(phi, cover) and endo_preserves_cover(rho, cover)):
                continue
            lhs = induced_cover_homology(compose_endos(phi, rho), cover)
            rhs = induced_cover_homology(phi, cover) * induced_cover_homology(rho, cover)
            assert lhs.entries == rhs.entries


def _random_braids(rng, count):
    out = []
    for _ in range(count):
        letters = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 6)))
        out.append(BraidWord(3, letters))
    return out


def test_cyclotomic_product_detection():
    assert is_cyclotomic_product((1, 0, 0, -1))  # x^3 - 1
    assert is_cyclotomic_product((1, 1))  # x + 1
    assert is_cyclotomic_product((1, 1, 1))  # x^2 + x + 1
    assert not is_cyclotomic_product((1, -3, 1))
    assert not is_cyclotomic_product((1, 0))  # x itself is not cyclotomic
    assert not is_cyclotomic_product((1, -2))


def test_schreier_data_are_copies_of_one_computation():
    cover = cover_from_finite_quotient(3, (1, 2, 0), 4)
    edges, basis = cover.schreier_edges(), cover.schreier_basis_words()
    edges.clear()
    basis.clear()
    assert len(cover.schreier_edges()) == len(cover.schreier_basis_words()) == cover.subgroup_rank
    assert cover.schreier_basis_words()[0] is cover.schreier_basis_words()[0]


def test_trace_loop_requires_closure():
    cover = cover_from_finite_quotient(2, (1, 0), 2)
    assert cover.trace_loop(parse_word("x1 x1", 2))  # closes at the base
    with pytest.raises(NotInvariant):
        cover.trace_loop(parse_word("x1", 2))


def test_trace_loop_rewrites_basis_words_to_single_letters():
    cover = cover_from_finite_quotient(3, (1, 1, 1), 2)
    for i, w in enumerate(cover.schreier_basis_words(), start=1):
        assert cover.trace_loop(w) == (i,)


def test_cover_graph_validation():
    from resip import RankMismatch

    with pytest.raises(InvalidSpec):
        CoverGraph(2, 2, (1, 3))  # assignment not reduced mod m
    with pytest.raises(RankMismatch):
        cover_from_finite_quotient(2, (1,), 2)


def _cyclotomic_brute_force(coeffs) -> bool:
    """Every irreducible factor is some Phi_k, trying every k <= 2 deg^2 + 1."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(coeffs), x)
    for factor, _ in poly.factor_list()[1]:
        deg = factor.degree()
        if not any(
            factor == sympy.Poly(sympy.cyclotomic_poly(k, x), x)
            for k in range(1, 2 * deg * deg + 2)
        ):
            return False
    return True


def test_cyclotomic_product_matches_brute_force():
    import sympy

    from resip.braid import _totients

    assert _totients(300)[1:] == [int(sympy.totient(k)) for k in range(1, 301)]
    x = sympy.Symbol("x")
    others = [x**2 - 3 * x + 1, x**4 + x + 1, x, x - 2, x**3 - x - 1, x**6 + x**2 + 1]
    rng = random.Random(3011)
    for trial in range(40):
        poly = sympy.Integer(1)
        for k in rng.sample(range(1, 31), rng.randint(1, 3)):
            poly *= sympy.cyclotomic_poly(k, x)
        if trial % 2:
            poly *= rng.choice(others)
        coeffs = tuple(int(c) for c in sympy.Poly(poly, x).all_coeffs())
        assert is_cyclotomic_product(coeffs) == _cyclotomic_brute_force(coeffs)
        assert is_cyclotomic_product(coeffs) == (trial % 2 == 0)


def test_cyclotomic_division_matches_brute_force_on_edge_cases():
    import sympy

    from resip.braid import _cyclotomic

    x = sympy.Symbol("x")
    for k in range(1, 106):
        assert list(_cyclotomic(k)) == sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()
    others = [x, x**2, x - 2, 2 * x + 1, x**2 - 3 * x + 1, -1, 2, -3]
    fixed = [(1,), (5,), (0,), (1, 0), (1, 1, 0), (-1, 1), (2, 2), (2, 1), (0, 0, 1, -1)]
    rng = random.Random(3019)
    cases = list(fixed)
    for trial in range(40):
        poly = sympy.Integer(1)
        for k in rng.sample(range(1, 25), rng.randint(0, 2)):
            poly *= sympy.cyclotomic_poly(k, x) ** rng.randint(1, 3)
        if trial % 2:
            poly *= rng.choice(others)
        cases.append(tuple(int(c) for c in sympy.Poly(poly, x).all_coeffs()))
    for coeffs in cases:
        assert is_cyclotomic_product(coeffs) == _cyclotomic_brute_force(coeffs), coeffs
