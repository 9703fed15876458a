"""Free group words and certified automorphisms."""

import random

import pytest

from oracles import (
    endo_power_by_composition,
    inverse_holds_both_ways,
    parse_word_by_regex,
    random_certified_automorphism,
    substitute_then_reduce,
)
from resip.errors import InvalidSpec
from resip.freegrp import (
    FreeEndo,
    FreeWord,
    MappingTorusSpec,
    abelianization_matrix,
    apply_endo,
    commutator,
    compose_endos,
    conjugate,
    endo_power,
    format_word,
    inner_automorphism,
    is_mod_p_torelli,
    nielsen_transvection,
    parse_word,
    word_inverse,
    word_multiply,
)
from resip.freegrp import image_table, substitute


def _random_word(rng, rank, length):
    letters = [rng.choice([-1, 1]) * rng.randint(1, rank) for _ in range(length)]
    return FreeWord.from_letters(rank, letters)


def test_free_reduction():
    w = FreeWord.from_letters(2, [1, 2, -2, -1, 1])
    assert w.letters == (1,)
    assert FreeWord.from_letters(2, [1, -1]).is_identity()


def test_parse_and_format_round_trip():
    w = parse_word("x1 X2 x1", 3)
    assert w.letters == (1, -2, 1)
    assert format_word(w) == "x1 X2 x1"
    assert parse_word("1", 2).is_identity()
    assert format_word(FreeWord.identity(2)) == "1"
    with pytest.raises(InvalidSpec):
        parse_word("x0", 2)
    with pytest.raises(InvalidSpec):
        parse_word("x3", 2)
    with pytest.raises(InvalidSpec):
        parse_word("y1z", 2)


@pytest.mark.parametrize("text", ["y1 Q2", "a1", "x\u0662", "X\uff11"])
def test_word_tokens_are_x_or_X_and_ascii_digits(text):
    # other letters and non-ASCII digits once parsed as x and as digits
    with pytest.raises(InvalidSpec, match="bad word token"):
        parse_word(text, 2)


def test_generator_index_beyond_int_conversion_is_invalid_spec():
    # int() converts at most 4300 digits; a longer index is out of range
    with pytest.raises(InvalidSpec, match="generator index of 5000 digits"):
        parse_word("x" + "1" * 5000, 2)


def _parsed(parse, text, rank):
    """The word parse gives, or the type and message of its refusal."""
    try:
        return parse(text, rank)
    except InvalidSpec as exc:
        return ("InvalidSpec", str(exc))


def test_parser_matches_the_regex_oracle():
    rng = random.Random(29)
    corpus = [
        "", "1", " 1 ", "1 1", "x1 1", "x0", "x", "X", "xx1", "x+1", "x-1", "x1_0",
        "x1.0", "x\u00b2", "x\u0661", "X\uff11", "\uff581", "\u0445", "x01 X002",
        "x1\u2003X2", "x1\u00a0x2", "x1\u3000X1", "\u2028x2\x1cx1\x85", "x1\tX2\n",
        "x" + "1" * 5000, "X" + "9" * 4300, "x3", "X12", "x1 x1 X1", "x2 X2",
    ]
    for _ in range(200):
        rank = rng.randint(1, 5)
        corpus.append(format_word(_random_word(rng, rank, rng.randint(0, 12))))
    for text in corpus:
        for rank in (0, 1, 2, 3, 5):
            assert _parsed(parse_word, text, rank) == _parsed(parse_word_by_regex, text, rank)


def test_word_group_axioms_random():
    rng = random.Random(3)
    for _ in range(80):
        u = _random_word(rng, 3, rng.randint(0, 12))
        v = _random_word(rng, 3, rng.randint(0, 12))
        w = _random_word(rng, 3, rng.randint(0, 12))
        assert word_multiply(word_multiply(u, v), w) == word_multiply(
            u, word_multiply(v, w)
        )
        assert word_multiply(u, word_inverse(u)).is_identity()
        assert word_inverse(word_inverse(u)) == u


def test_conjugate_and_commutator_shapes():
    x1 = FreeWord.generator(2, 1)
    x2 = FreeWord.generator(2, 2)
    assert conjugate(x1, x2).letters == (2, 1, -2)
    assert commutator(x1, x2).letters == (1, 2, -1, -2)
    assert commutator(x1, x1).is_identity()


def test_rank_mismatch_rejected():
    with pytest.raises(InvalidSpec, match="ranks 2 and 3"):
        word_multiply(FreeWord.generator(2, 1), FreeWord.generator(3, 1))


def test_endo_inverse_certificate_is_verified():
    good = FreeEndo(
        2,
        (parse_word("x1 x2", 2), parse_word("x2", 2)),
        (parse_word("x1 X2", 2), parse_word("x2", 2)),
    )
    assert good.is_certified
    with pytest.raises(InvalidSpec):
        FreeEndo(
            2,
            (parse_word("x1 x2", 2), parse_word("x2", 2)),
            (parse_word("x1", 2), parse_word("x2", 2)),
        )


def _change_one_letter(rng, rank, words):
    """The letter tuples with one letter of one nonempty tuple replaced by
    another letter, then freely reduced."""
    words = [list(w) for w in words]
    word = rng.choice([w for w in words if w])
    j = rng.randrange(len(word))
    word[j] = rng.choice([a for a in range(-rank, rank + 1) if a not in (0, word[j])])
    return [FreeWord.from_letters(rank, w).letters for w in words]


def test_one_composition_decides_as_the_two_sided_oracle():
    # FreeEndo checks psi(phi(x_i)) = x_i alone; by the Hopfian argument in
    # its docstring, that accepts exactly when both compositions fix every
    # generator
    rng = random.Random(23)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        rank = rng.randint(2, 4)
        phi = random_certified_automorphism(rng, rank)
        images = [w.letters for w in phi.images]
        inverse = [w.letters for w in phi.certified_inverse]
        other = [w.letters for w in random_certified_automorphism(rng, rank).images]
        candidates = [
            (images, inverse),
            (images, _change_one_letter(rng, rank, inverse)),
            (_change_one_letter(rng, rank, images), inverse),
            (images, other),
            (other, inverse),
        ]
        for imgs, inv in candidates:
            expected = inverse_holds_both_ways(imgs, inv)
            try:
                FreeEndo.from_letters(rank, imgs, inv)
            except InvalidSpec as exc:
                assert str(exc).endswith("(left)")
                accepted = False
            else:
                accepted = True
            assert accepted == expected, (imgs, inv)
            verdicts[accepted] += 1
    assert verdicts[True] >= 300 and verdicts[False] >= 600


def test_substitute_matches_writing_out_then_reducing():
    rng = random.Random(41)
    for _ in range(3000):
        rank = rng.randint(1, 4)
        images = tuple(_random_word(rng, rank, rng.randint(0, 6)).letters for _ in range(rank))
        letters = [rng.choice([-1, 1]) * rng.randint(1, rank) for _ in range(rng.randint(0, 12))]
        assert substitute(image_table(images), letters) == substitute_then_reduce(images, letters)
    # an automorphism's inverse cancels the images back to single letters
    for _ in range(100):
        phi = random_certified_automorphism(rng, 3)
        inverse = tuple(w.letters for w in phi.certified_inverse)
        for i, w in enumerate(phi.images, start=1):
            assert substitute(image_table(inverse), w.letters) == (i,)
            assert substitute_then_reduce(inverse, w.letters) == (i,)


def test_endo_application_is_homomorphic():
    rng = random.Random(5)
    phi = nielsen_transvection(3, 1, 2)
    for _ in range(50):
        u = _random_word(rng, 3, rng.randint(0, 10))
        v = _random_word(rng, 3, rng.randint(0, 10))
        assert apply_endo(phi, word_multiply(u, v)) == word_multiply(
            apply_endo(phi, u), apply_endo(phi, v)
        )
        assert apply_endo(phi, word_inverse(u)) == word_inverse(apply_endo(phi, u))


def test_composition_convention_rho_first():
    # phi: x1 -> x1 x2; rho: x1 -> x2, x2 -> x1 (swap)
    phi = nielsen_transvection(2, 1, 2)
    rho = FreeEndo(
        2,
        (parse_word("x2", 2), parse_word("x1", 2)),
        (parse_word("x2", 2), parse_word("x1", 2)),
    )
    comp = compose_endos(phi, rho)
    # (phi after rho)(x1) = phi(x2) = x2
    assert comp.images[0] == parse_word("x2", 2)
    assert comp.images[1] == parse_word("x1 x2", 2)
    # composed certified inverses stay certified
    assert comp.is_certified


def test_composition_matches_pointwise_application():
    rng = random.Random(9)
    phi = inner_automorphism(parse_word("x1 x2", 3))
    rho = nielsen_transvection(3, 2, 3)
    comp = compose_endos(phi, rho)
    for _ in range(30):
        w = _random_word(rng, 3, rng.randint(0, 8))
        assert apply_endo(comp, w) == apply_endo(phi, apply_endo(rho, w))


def test_endo_power_matches_repeated_composition():
    rng = random.Random(31)
    for _ in range(20):
        rank = rng.randint(2, 4)
        i, j = rng.sample(range(1, rank + 1), 2)
        u = _random_word(rng, rank, rng.randint(0, 4))
        phi = compose_endos(inner_automorphism(u), nielsen_transvection(rank, i, j))
        for k in range(5):
            power, expected = endo_power(phi, k), endo_power_by_composition(phi, k)
            assert power.images == expected.images
            assert power.certified_inverse == expected.certified_inverse
        assert endo_power(phi, -2).images == endo_power_by_composition(phi.inverse_endo(), 2).images
    uncertified = FreeEndo(2, nielsen_transvection(2, 1, 2).images)
    assert endo_power(uncertified, 3).certified_inverse is None
    assert endo_power(uncertified, 0).is_certified


def test_endo_power_checks_the_composed_inverse():
    genuine = nielsen_transvection(3, 1, 2)
    corrupted = object.__new__(FreeEndo)
    inverse = (parse_word("x1 x2", 3),) + genuine.certified_inverse[1:]
    for name, value in (("rank", 3), ("images", genuine.images), ("certified_inverse", inverse)):
        object.__setattr__(corrupted, name, value)
    for k in (1, 2, 3):
        with pytest.raises(InvalidSpec):
            endo_power(corrupted, k)


def test_endo_power_and_negative_power():
    phi = nielsen_transvection(2, 1, 2)
    sq = endo_power(phi, 2)
    assert sq.images[0] == parse_word("x1 x2 x2", 2)
    inv = endo_power(phi, -1)
    assert compose_endos(phi, inv).images == FreeEndo.identity(2).images


def test_abelianization_matrix_columns_are_images():
    phi = FreeEndo(
        2,
        (parse_word("x1 x2 x1", 2), parse_word("X2", 2)),
        None,
    )
    m = abelianization_matrix(phi)
    assert m.entries == ((2, 0), (1, -1))


def test_abelianization_is_functorial():
    rng = random.Random(12)
    for _ in range(20):
        phi = _random_automorphism(rng, 3)
        rho = _random_automorphism(rng, 3)
        lhs = abelianization_matrix(compose_endos(phi, rho))
        rhs = abelianization_matrix(phi) * abelianization_matrix(rho)
        assert lhs.entries == rhs.entries


def _random_automorphism(rng, rank):
    """Random product of transvections and inner automorphisms."""
    phi = FreeEndo.identity(rank)
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            i, j = rng.sample(range(1, rank + 1), 2)
            step = nielsen_transvection(rank, i, j)
        else:
            u = FreeWord.from_letters(
                rank,
                [rng.choice([-1, 1]) * rng.randint(1, rank) for _ in range(3)],
            )
            step = inner_automorphism(u)
        phi = compose_endos(step, phi)
    return phi


def test_inner_automorphisms_are_mod_p_torelli():
    rng = random.Random(15)
    for _ in range(20):
        u = _random_word(rng, 3, rng.randint(1, 6))
        inner = inner_automorphism(u)
        for p in (2, 3, 5):
            assert is_mod_p_torelli(inner, p)
    # a transvection is not Torelli at any p
    assert not is_mod_p_torelli(nielsen_transvection(2, 1, 2), 3)
    # but its cube is Torelli mod 3
    assert is_mod_p_torelli(endo_power(nielsen_transvection(2, 1, 2), 3), 3)


def test_mapping_torus_spec_requires_certified_inverse():
    phi = FreeEndo(2, (parse_word("x1 x1", 2), parse_word("x2", 2)), None)
    with pytest.raises(InvalidSpec):
        MappingTorusSpec(phi)
    MappingTorusSpec(nielsen_transvection(2, 1, 2))  # certified, accepted


def test_derived_words_skip_checks_but_public_input_is_still_checked():
    rng = random.Random(17)
    phi = nielsen_transvection(3, 1, 2)
    for _ in range(50):
        u, v = _random_word(rng, 3, 8), _random_word(rng, 3, 8)
        for w in (word_multiply(u, v), word_inverse(u), apply_endo(phi, u)):
            # a derived word equals the checked construction of its letters
            assert w == FreeWord(w.rank, w.letters)
            assert hash(w) == hash(FreeWord(w.rank, w.letters))
    for rank, letters in ((2, (3,)), (2, (0,)), (2, (1, -1)), (0, ())):
        with pytest.raises(InvalidSpec):
            FreeWord(rank, letters)
    with pytest.raises(InvalidSpec):
        FreeWord.from_letters(2, [1, 3])
    for text in ("x3", "y0", "x1 X4"):
        with pytest.raises(InvalidSpec):
            parse_word(text, 2)
