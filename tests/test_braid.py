"""Artin action, braid permutations, cyclic covers, induced homology."""

import json
import math
import random
import time
import tracemalloc

import pytest

from oracles import (
    artin_endo_by_composition,
    cyclotomic,
    endo_preserves_cover_by_rewriting,
    induced_cover_homology_by_rewriting,
    is_cyclotomic_product_by_division,
    random_certified_automorphism,
    totients,
    trace_loop,
)
from resip import braid as braid_module
from resip import cli
from resip.braid import (
    BraidWord,
    CoverGraph,
    artin_endo,
    beta_braid,
    braid_cover_homology,
    braid_permutation,
    cover_from_finite_quotient,
    endo_preserves_cover,
    format_braid,
    induced_cover_homology,
    is_cyclotomic_product,
    parse_braid,
    permutation_order,
)
from resip.errors import InvalidSpec
from resip.freegrp import (
    FreeEndo,
    FreeWord,
    abelianization_matrix,
    apply_endo,
    compose_endos,
    endo_power,
    format_word,
    nielsen_transvection,
    parse_word,
)
from resip.intlin import IntMatrix, charpoly_exact, det_exact, poly_divmod


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


def test_artin_endo_holds_no_unreduced_word():
    # substitute reduces as it writes, so composing (s1 S2)^7 and checking
    # its inverse stays small; written out whole before reducing, the
    # check's words took 19 MB
    b = parse_braid(" ".join(["s1 S2"] * 7), 3)
    artin_endo(parse_braid("s1 S2", 3))  # the letters' automorphisms are cached
    tracemalloc.start()
    try:
        artin_endo(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6


def test_cover_graph_shapes():
    cover = cover_from_finite_quotient(3, (1, 1, 1), 2)
    assert cover.subgroup_rank == 5
    assert len(cover.schreier_basis_words()) == 5
    with pytest.raises(InvalidSpec, match=r"assignments \(0, 2\) do not generate Z/4"):
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
    from resip.freegrp import nielsen_transvection

    assert not endo_preserves_cover(nielsen_transvection(3, 1, 2), cover)
    with pytest.raises(InvalidSpec, match="endomorphism does not preserve the cover subgroup"):
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
    assert trace_loop(cover, parse_word("x1 x1", 2))  # closes at the base
    with pytest.raises(InvalidSpec, match="word is not a loop at the base vertex"):
        trace_loop(cover, parse_word("x1", 2))


def test_trace_loop_rewrites_basis_words_to_single_letters():
    cover = cover_from_finite_quotient(3, (1, 1, 1), 2)
    for i, w in enumerate(cover.schreier_basis_words(), start=1):
        assert trace_loop(cover, w) == (i,)


def _random_cover(rng, rank, mixed):
    """A cover of F_rank of index at most 7; constant assignments (a unit)
    unless mixed, so every braid preserves it."""
    m = rng.randint(1, 7)
    if not mixed:
        unit = rng.choice([a for a in range(m) if math.gcd(a, m) == 1])
        return cover_from_finite_quotient(rank, [unit] * rank, m)
    while True:
        assignments = [rng.randrange(m) for _ in range(rank)]
        if math.gcd(m, *assignments) == 1:
            return cover_from_finite_quotient(rank, assignments, m)


def _homology_or_refusal(route, *args):
    try:
        return route(*args).entries
    except InvalidSpec as exc:
        if "does not preserve the cover subgroup" not in str(exc):
            raise
        return "NotInvariant"


def test_braid_cover_homology_matches_schreier_rewriting():
    # the Fox-Jacobian kernel against apply_endo on the basis loops and
    # trace_loop, refusals included
    rng = random.Random(4111)
    outcomes = {"matrix": 0, "NotInvariant": 0}
    for _ in range(1200):
        strands = rng.randint(2, 5)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 12))
        )
        b = BraidWord(strands, letters)
        cover = _random_cover(rng, strands, mixed=rng.random() < 0.4)
        expected = _homology_or_refusal(induced_cover_homology_by_rewriting, artin_endo(b), cover)
        assert _homology_or_refusal(braid_cover_homology, b, cover) == expected, (b, cover)
        outcomes["NotInvariant" if expected == "NotInvariant" else "matrix"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_induced_cover_homology_matches_schreier_rewriting():
    beta = artin_endo(beta_braid())
    cases = [(endo_power(beta, k), cover_from_finite_quotient(3, (1, 1, 1), m)) for k in (1, 3) for m in (2, 3, 5)]
    cases += [
        (nielsen_transvection(rank, i, j), cover_from_finite_quotient(rank, assignments, m))
        for rank, i, j, assignments, m in [
            (3, 1, 2, (1, 1, 1), 2),  # x1 -> x1 x2 moves chi(x1) from 1 to 0: refused
            (3, 1, 2, (1, 0, 1), 2),
            (3, 2, 3, (1, 2, 0), 4),
            (2, 1, 2, (1, 0), 5),
            (2, 2, 1, (3, 0), 4),
            (4, 4, 1, (2, 1, 3, 0), 6),
        ]
    ]
    refused = 0
    for phi, cover in cases:
        expected = _homology_or_refusal(induced_cover_homology_by_rewriting, phi, cover)
        assert _homology_or_refusal(induced_cover_homology, phi, cover) == expected
        refused += expected == "NotInvariant"
    assert 0 < refused < len(cases)


def _random_endo(rng, rank):
    """A certified automorphism (rank >= 2), or an endo with random images."""
    if rank >= 2 and rng.random() < 0.5:
        return random_certified_automorphism(rng, rank)
    images = [
        FreeWord.from_letters(rank, [rng.choice([-1, 1]) * rng.randint(1, rank) for _ in range(rng.randint(0, 6))])
        for _ in range(rank)
    ]
    return FreeEndo(rank, tuple(images))


def test_endo_preserves_cover_closed_form_matches_rewriting():
    rng = random.Random(4127)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        rank = rng.randint(1, 4)
        phi = _random_endo(rng, rank)
        cover = _random_cover(rng, rank, mixed=True)
        preserved = endo_preserves_cover(phi, cover)
        assert preserved == endo_preserves_cover_by_rewriting(phi, cover), (phi, cover)
        homology = _homology_or_refusal(induced_cover_homology, phi, cover)
        assert homology == _homology_or_refusal(induced_cover_homology_by_rewriting, phi, cover)
        assert (homology == "NotInvariant") == (not preserved)
        outcomes[preserved] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_long_braid_cover_answers_quickly(capsys):
    start = time.perf_counter()
    argv = ["braid-cover", "--strands", "3", "--braid", "s1 S2 " * 20, "--modulus", "5",
            "--assignments", "1,1,1", "--format", "json"]
    assert cli.main(argv) == 0
    assert time.perf_counter() - start < 5.0
    assert '"status": "ok"' in capsys.readouterr().out


def test_singular_cover_homology_is_one_error_entry(tmp_path, capsys, monkeypatch):
    # det = +-1 is checked by an explicit raise, so it also runs under -O
    genuine = cli.braid_cover_homology

    def singular(b, cover):
        if b.letters == (1,):
            return IntMatrix.from_rows([[0] * cover.subgroup_rank] * cover.subgroup_rank)
        return genuine(b, cover)

    monkeypatch.setattr(cli, "braid_cover_homology", singular)
    cover = {"kind": "braid-cover", "strands": 3, "modulus": 2, "assignments": [1, 1, 1]}
    tasks = [dict(cover, id="ok-before", braid="s1 S2"), dict(cover, id="singular", braid="s1"),
             dict(cover, id="ok-after", braid="S2")]
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": tasks}))
    assert cli.main(["run", "--tasks", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [e["status"] for e in report["entries"]] == ["ok", "error", "ok"]
    assert report["entries"][1]["error"]["type"] == "InternalInvariant"
    assert [e["result"]["det"] for e in report["entries"][::2]] == [1, -1]


def test_cover_graph_validation():
    with pytest.raises(InvalidSpec):
        CoverGraph(2, 2, (1, 3))  # assignment not reduced mod m
    with pytest.raises(InvalidSpec, match="one assignment per generator required"):
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

    assert totients(300)[1:] == [int(sympy.totient(k)) for k in range(1, 301)]
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

    x = sympy.Symbol("x")
    for k in range(1, 106):
        assert list(cyclotomic(k)) == sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()
    others = [x, x**2, x - 2, 2 * x + 1, x**2 - 3 * x + 1, -1, 2, -3]
    fixed = [(1,), (5,), (0,), (), (0, 0), (1, 0), (1, 1, 0), (-1, 1), (2, 2), (2, 1), (0, 0, 1, -1)]
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
        assert is_cyclotomic_product(coeffs) == is_cyclotomic_product_by_division(coeffs), coeffs


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# Lehmer's polynomial: Mahler measure 1.176..., the least known above 1, so
# its roots are close to the unit circle without all being on it
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def _cyclotomic_cases(rng, count):
    """(coefficients, cofactor) pairs: a product of up to six Phi_k with
    k <= 64, repeats allowed, times a cofactor that is 1, Lehmer's
    polynomial or one of a pool of random small polynomials (monic or not,
    some with root 0), times a content of either sign; degree <= 69."""
    pool = [(1,), LEHMER, (1, 0), (2, 1), (3, 0, -1), (1, 0, 0)]
    pool += [(1,) + tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 8))) for _ in range(40)]
    cases = []
    for _ in range(count):
        cofactor = (1,) if rng.random() < 0.5 else rng.choice([LEHMER] * 10 + pool)
        cap = rng.randint(len(cofactor) - 1, 69)
        poly = list(cofactor)
        for _ in range(rng.randint(0, 6)):
            phi = cyclotomic(rng.randint(1, 64))
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                if len(poly) + len(phi) - 2 <= cap:
                    poly = _poly_mul(poly, phi)
        content = rng.choice((1, 1, 1, -1, 2, -3, 6))
        cases.append((tuple(c * content for c in poly), cofactor))
    return cases


def test_graeffe_test_matches_division_and_sympy():
    # the root-squaring test against the Phi_k division route it replaced,
    # and against sympy's factorisation: a product of Phi_k times a cofactor
    # is a product of cyclotomics iff every irreducible factor of the
    # cofactor is one
    import sympy

    x = sympy.Symbol("x")

    def by_sympy(coeffs):
        poly = sympy.Poly(list(coeffs), x)
        return poly.degree() <= 0 or all(f.is_cyclotomic for f, _ in poly.factor_list()[1])

    verdicts = {}
    answers = []
    for i, (coeffs, cofactor) in enumerate(_cyclotomic_cases(random.Random(3023), 2000)):
        answer = is_cyclotomic_product(coeffs)
        assert answer == is_cyclotomic_product_by_division(coeffs), coeffs
        if cofactor not in verdicts:
            verdicts[cofactor] = by_sympy(cofactor)
        assert answer == verdicts[cofactor], coeffs
        if i % 40 == 0:  # the whole polynomial, on a sample: sympy is slow at degree 69
            assert answer == by_sympy(coeffs), coeffs
        answers.append((answer, len(coeffs) - 1))
    assert 600 <= sum(a for a, _ in answers) <= 1400
    assert min(max(d for a, d in answers if a), max(d for a, d in answers if not a)) >= 64
    assert verdicts[LEHMER] is False and verdicts[(1,)] is True


def test_graeffe_test_on_the_tight_two_adic_cyclotomics():
    # Phi_(2^v) has degree d = 2^(v-1), so v_2(2^v) = v = d.bit_length() = S:
    # it takes all S steps to reach Phi_1^d, and one more to see the fixed
    # point, so a test that stopped a step early would answer False
    for v in range(1, 7):
        # Phi_(2^v) alone, and Phi_(2^v) Phi_(2^(v-1)) ... Phi_2 = (x^(2^v) - 1) / (x - 1)
        for ks in ((2**v,), tuple(2**w for w in range(v, 0, -1))):
            f = [1]
            for k in ks:
                f = _poly_mul(f, cyclotomic(k))
            assert (len(f) - 1).bit_length() == v
            assert is_cyclotomic_product(tuple(f))
            assert is_cyclotomic_product(tuple(-3 * c for c in f))
            g = f
            for _ in range(v - 1):
                g = braid_module._graeffe(g)
            assert braid_module._graeffe(g) != g
    # (x + 1)^32 meets every coefficient bound C(32, i) with equality
    assert is_cyclotomic_product(tuple(math.comb(32, i) for i in range(33)))


def test_graeffe_steps_are_at_most_bit_length_plus_one(monkeypatch):
    calls = []
    graeffe = braid_module._graeffe
    monkeypatch.setattr(braid_module, "_graeffe", lambda f: calls.append(1) or graeffe(f))
    seen = set()
    for coeffs, _ in _cyclotomic_cases(random.Random(3037), 400):
        calls.clear()
        answer = is_cyclotomic_product(coeffs)
        d = len(coeffs) - 1
        assert len(calls) <= d.bit_length() + 1, coeffs
        seen.add(answer)
    assert seen == {True, False}
    calls.clear()
    assert is_cyclotomic_product(cyclotomic(64))
    assert len(calls) == 7  # S = 6 steps to Phi_1^32, one more to see it fixed
