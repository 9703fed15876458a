"""The oracles against textbook fixtures and against brute force."""

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen  # noqa: E402
import oracles as o  # noqa: E402


def test_prime_set_fixtures():
    assert o.prime_set([[2, 1], [1, 1]]) == (False, [], 1)  # Anosov: no prime
    assert o.prime_set([[13, 8], [8, 5]]) == (False, [2], 16)  # its cube: {2}
    assert o.prime_set([[1, 1], [0, 1]]) == (True, [], 0)  # unipotent over Z


def test_unipotence_from_exponent_sums():
    transvection = o.abelianization([(1, 2), (2,)])  # x1 -> x1 x2
    assert transvection == [[1, 0], [1, 1]]
    assert all(o.unipotent_mod(transvection, p) for p in (2, 3, 5, 7))
    cube = [[13, 8], [8, 5]]
    assert [p for p in (2, 3, 5, 7, 11) if o.unipotent_mod(cube, p)] == [2]
    inversion = o.abelianization([(-1,), (-2,)])
    assert o.unipotent_mod(inversion, 2) and not o.unipotent_mod(inversion, 3)


def test_bs_fixtures():
    assert o.bs_expect(10) == (False, [3], 9, True)
    assert o.bs_expect(7) == (False, [2, 3], 6, True)
    assert o.bs_expect(2) == (False, [], 1, False)  # BS(1,2) is not omega-nilpotent
    assert o.bs_expect(1) == (True, [], 0, True)  # Z^2


def test_sl2_least_k_matches_lucas_numbers():
    # [[2,1],[1,1]] = Q^2 for the Fibonacci matrix Q, so
    # det(A^k - I) = 2 - L_{2k}: -1, -5, -16, -45, -121, ...
    a = [[2, 1], [1, 1]]
    assert {p: o.sl2_least_k(a, p) for p in (2, 3, 5, 11)} == {2: 3, 3: 4, 5: 2, 11: 5}


def test_fitting_criterion_fixtures():
    minus = [[-1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert not o.fitting_qualifies(minus, 101)
    assert o.fitting_qualifies([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert not o.fitting_qualifies([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], 3)
    assert o.fitting_qualifies([[1, 1], [0, 1]], 5)  # unipotent: W = 0 qualifies


def test_fitting_criterion_matches_subspace_enumeration():
    rng = random.Random(7)
    checked = 0
    while checked < 120:
        n, p = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if o.rank_mod(a, p) < n:
            continue
        assert o.fitting_qualifies(a, p) == o.brute_force_qualifies(a, p), (a, p)
        checked += 1


def test_magnus_coefficients():
    comm = (1, 2, -1, -2)  # [x1, x2] = 1 + X1X2 - X2X1 + ...
    assert o.magnus_coefficient(comm, (1,), 5) == 0
    assert o.magnus_coefficient(comm, (1, 2), 5) == 1
    assert o.magnus_coefficient(comm, (2, 1), 5) == 4
    assert o.magnus_depth(comm, 2, 5, 6) == 2
    assert o.magnus_coefficient((-1,), (1, 1), 7) == 1  # (1 + X)^-1 = 1 - X + X^2
    for p in (2, 3, 5):  # (1 + X)^p = 1 + X^p mod p
        assert o.magnus_depth((1,) * p, 1, p, p) == p


def test_left_nested_commutators_have_their_weight_as_depth():
    rng = random.Random(3)
    for _ in range(60):
        rank, weight, p = rng.randint(2, 3), rng.randint(2, 4), rng.choice((2, 3, 5, 7))
        w = gen.left_nested_commutator(rng, rank, weight)
        assert o.magnus_depth(w, rank, p, weight) == weight


def test_p_powers():
    assert o.is_p_power(1, 3) and o.is_p_power(27, 3)
    assert not o.is_p_power(6, 2) and not o.is_p_power(0, 2)


def test_cyclotomic_products():
    assert o.cyclotomic(1) == (1, -1)
    assert o.cyclotomic(6) == (1, -1, 1)
    assert o.cyclotomic(12) == (1, 0, -1, 0, 1)
    assert o.is_cyclotomic_product(o.poly_mul(o.cyclotomic(3), o.cyclotomic(4)))
    assert o.is_cyclotomic_product([1, -2, 1])  # (x - 1)^2
    assert not o.is_cyclotomic_product([1, -3, 1])  # the Anosov charpoly
    assert not o.is_cyclotomic_product([1, 0, 0])  # root 0


def test_braid_permutations():
    assert o.braid_permutation((1, -2), 3) == (3, 1, 2)
    assert o.permutation_order((3, 1, 2)) == 3
    assert o.braid_permutation((1, 1), 3) == (1, 2, 3)  # sigma_1^2 is pure


def test_p_group_closed_forms():
    for p in (3, 5, 7):
        ut = o.ut3_expect(p)
        assert len(ut["subgroup_orders"]) == p * p + 2 * p + 4
        assert ut["frattini_order"] == p
        assert len(o.elementary_abelian_expect(p)["subgroup_orders"]) == p + 3
    assert len(o.ut3_expect(3)["subgroup_orders"]) == 19
