"""Exact integer linear algebra: determinants, charpolys, unipotence,
orders mod p^k, and the stabilized lattice chain B^i(Z^n)."""

import random

import pytest
import sympy

from resip import intlin
from resip.errors import CapExceeded, InvalidSpec
from resip.intlin import (
    IntMatrix,
    LatticeChainInvariants,
    ModMatrix,
    charpoly_exact,
    det_exact,
    is_unipotent_mod,
    lattice_chain_invariants,
    poly_divmod,
    poly_pow_x_minus_one,
)
from oracles import (
    lattice_chain_by_normal_forms,
    matrix_order_mod,
    rank_exact,
    unipotence_by_powers,
    unipotent_order_by_iteration,
)

A_SOL = IntMatrix.from_rows([[2, 1], [1, 1]])
A_SOL_CUBED = IntMatrix.from_rows([[13, 8], [8, 5]])


def _random_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def test_matrix_construction_rejects_bad_shapes():
    with pytest.raises(Exception):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(Exception):
        IntMatrix.from_rows([])
    with pytest.raises(Exception):
        IntMatrix.from_rows([[1.5]])


class _Two:
    """An integer type other than int: it defines __index__."""

    def __index__(self):
        return 2


def test_from_rows_takes_only_exact_integers():
    from decimal import Decimal
    from fractions import Fraction

    from resip.errors import InvalidSpec

    m = IntMatrix.from_rows([[True, _Two()], [-3, 10 ** 30]])
    assert m.entries == ((1, 2), (-3, 10 ** 30))
    assert all(type(x) is int for row in m.entries for x in row)
    for bad in (1.0, 1.5, Fraction(3, 2), Fraction(2, 1), Decimal("1.9"), Decimal(2), "2"):
        with pytest.raises(InvalidSpec, match="exact integers"):
            IntMatrix.from_rows([[1, 0], [bad, 1]])


def test_matrix_power_and_fixture_cube():
    assert (A_SOL ** 3).entries == A_SOL_CUBED.entries
    assert (A_SOL ** 0).entries == IntMatrix.identity(2).entries
    rng = random.Random(31)  # the power operator against repeated products
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 3), -3, 3)
        product = IntMatrix.identity(m.n)
        for k in range(9):
            assert m ** k == product
            product = product * m


def test_det_fixtures():
    assert det_exact(A_SOL.minus_identity()) == -1
    assert det_exact(IntMatrix.from_rows([[12, 8], [8, 4]])) == -16
    assert det_exact(IntMatrix.identity(4)) == 1


def test_det_multiplicative_random():
    rng = random.Random(7)
    for _ in range(100):
        m = _random_matrix(rng, 3)
        n = _random_matrix(rng, 3)
        assert det_exact(m * n) == det_exact(m) * det_exact(n)


def test_charpoly_fixtures():
    assert charpoly_exact(A_SOL) == (1, -3, 1)
    assert charpoly_exact(A_SOL_CUBED) == (1, -18, 1)
    assert charpoly_exact(IntMatrix.identity(2)) == (1, -2, 1)


def test_charpoly_matches_sympy_on_random_matrices():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n)
        ours = charpoly_exact(m)
        theirs = sympy.Matrix(m.rows()).charpoly().all_coeffs()
        assert list(ours) == [int(c) for c in theirs]


def test_charpoly_constant_term_is_signed_det():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n)
        cp = charpoly_exact(m)
        assert cp[-1] == (-1) ** n * det_exact(m)


def test_unipotence_fixtures():
    assert is_unipotent_mod(A_SOL_CUBED, 2)
    assert not is_unipotent_mod(A_SOL, 2)
    res = is_unipotent_mod(IntMatrix.identity(3), 7)
    assert res and res.index == 1


def test_unipotence_agrees_with_direct_power():
    rng = random.Random(17)
    for _ in range(250):
        n = rng.randint(1, 4)
        p = rng.choice([2, 3, 5, 7])
        m = _random_matrix(rng, n, -6, 6)
        b = m.minus_identity()
        direct = all(
            x % p == 0 for row in (b ** n).entries for x in row
        )
        assert bool(is_unipotent_mod(m, p)) == direct


def test_unipotence_index_stops_at_the_nth_power():
    # the chain holds one d_j per power of N = M - I formed, so N^j costs
    # j - 1 products, and none is formed past N^n
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 5)
        p = rng.choice([2, 3, 5, 7])
        m = _random_unipotent(rng, n, p) if rng.random() < 0.5 else _random_matrix(rng, n, -4, 4)
        res = is_unipotent_mod(m, p)
        b = m.minus_identity()
        zero = [j for j in range(1, n + 1) if all(x % p == 0 for row in (b ** j).entries for x in row)]
        assert res.index == (zero[0] if zero else None)
        assert len(intlin._power_chain(m, p)) == (res.index if res else n)


def test_unipotence_matches_the_power_loop_at_every_index():
    # the power chain against the ModMatrix power loop it replaced, on
    # random matrices and on g (I + N) g^-1 mod p with N a strictly upper
    # triangular matrix of every nilpotency index
    rng = random.Random(31)
    indices = {}
    for trial in range(2400):
        n = rng.randint(1, 4)
        p = rng.choice([2, 3, 5, 7])
        if trial % 2:
            m = _random_matrix(rng, n, -6, 6)
        else:
            m = _conjugated_unipotent(rng, n, p, rng.randint(1, n))
        res, oracle = is_unipotent_mod(m, p), unipotence_by_powers(m, p)
        assert (res.unipotent, res.index) == (oracle.unipotent, oracle.index)
        if trial % 2 == 0:
            assert res
            indices.setdefault(n, set()).add(res.index)
    assert all(indices[n] == set(range(1, n + 1)) for n in range(1, 5))


def _conjugated_unipotent(rng, n: int, p: int, index: int) -> IntMatrix:
    """g (I + N) g^-1 + p K, with g a product of random elementary matrices
    over Z, K random, and N strictly upper triangular of nilpotency index
    ``index`` over every field: ones on the first index - 1 places of the
    superdiagonal and random entries above them in those rows."""
    nil = [[0] * n for _ in range(n)]
    for i in range(index - 1):
        nil[i][i + 1] = 1
        for j in range(i + 2, index):
            nil[i][j] = rng.randint(-3, 3)
    m = (IntMatrix.identity(n) + IntMatrix.from_rows(nil)).rows()
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        # conjugate by E = I + c e_ij: row i += c row j, then column j -= c column i
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return IntMatrix.from_rows([[x + p * rng.randint(-1, 1) for x in row] for row in m])


def _random_unipotent(rng, n: int, p: int) -> IntMatrix:
    """I + a strictly upper triangular matrix with entries in [0, p),
    conjugated by a random coordinate permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    upper = [[int(i == j) + (rng.randrange(p) if j > i else 0) for j in range(n)] for i in range(n)]
    return IntMatrix.from_rows([[upper[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def test_unipotent_order_is_the_least_p_power_above_the_index():
    # the closed form against the p-th-power iteration it replaced
    rng = random.Random(29)
    orders = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        p = rng.choice([2, 3, 5, 7, 11])
        m = _random_unipotent(rng, n, p)
        unip = is_unipotent_mod(m, p)
        assert unip
        order = p ** intlin.least_p_power_exponent(unip.index, p)
        assert order == unipotent_order_by_iteration(m, p)
        orders.add(intlin.p_power_exponent(order, p))
    assert orders >= {0, 1, 2}


def test_least_p_power_exponent_matches_a_loop():
    for p in (2, 3, 5, 7, 11, 13):
        s, q = 0, 1
        for n in range(-2, 10 ** 4 + 1):
            while q < n:
                s, q = s + 1, q * p
            assert intlin.least_p_power_exponent(n, p) == s, (n, p)


def test_unipotence_charpoly_characterization():
    # unipotent mod p iff charpoly = (x-1)^n mod p
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 4)
        p = rng.choice([2, 3, 5])
        m = _random_matrix(rng, n, -5, 5)
        gap = [
            (c - t) % p
            for c, t in zip(charpoly_exact(m), poly_pow_x_minus_one(n))
        ]
        assert bool(is_unipotent_mod(m, p)) == all(g == 0 for g in gap)


def test_matrix_order_fixtures():
    assert matrix_order_mod(A_SOL, 2, 1, 100) == 3
    assert matrix_order_mod(IntMatrix.identity(2), 5, 2, 10) == 1
    cycle = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert matrix_order_mod(cycle, 2, 1, 10) == 3


def test_matrix_order_errors():
    with pytest.raises(InvalidSpec, match="det divisible by 2"):
        matrix_order_mod(IntMatrix.from_rows([[2, 0], [0, 1]]), 2, 1, 10)
    with pytest.raises(CapExceeded):
        matrix_order_mod(A_SOL, 5, 3, 2)


def test_matrix_order_is_the_least_period():
    rng = random.Random(23)
    found = 0
    while found < 30:
        m = _random_matrix(rng, 2, -4, 4)
        p, k = rng.choice([(2, 1), (3, 1), (3, 2), (5, 1)])
        if det_exact(m) % p == 0:
            continue
        found += 1
        order = matrix_order_mod(m, p, k, 10 ** 6)
        mod = p ** k
        power = m ** order
        assert all(
            power.entries[i][j] % mod == (1 if i == j else 0) % mod
            for i in range(2)
            for j in range(2)
        )
        for j in range(1, order):
            pj = m ** j
            assert any(
                pj.entries[r][c] % mod != (1 if r == c else 0) % mod
                for r in range(2)
                for c in range(2)
            )


def test_matrix_order_is_no_longer_library_api():
    import resip

    assert not hasattr(resip, "matrix_order_mod")
    assert "matrix_order_mod" not in resip.__all__
    assert not hasattr(intlin, "matrix_order_mod")


def test_p_power_exponent():
    for p in (2, 3, 7, 101):
        for s in range(6):
            assert intlin.p_power_exponent(p ** s, p) == s
            assert intlin.p_power_exponent(p ** s * (p + 1), p) is None
    assert intlin.p_power_exponent(3 ** 500, 3) == 500
    for n in (0, -1, -8, 6, 12):
        assert intlin.p_power_exponent(n, 2) is None


def test_poly_divmod_exact():
    # (x^2-3x+1)(x^3-1) = x^5-3x^4+x^3-x^2+3x-1
    num = (1, -3, 1, -1, 3, -1)
    q, r = poly_divmod(num, (1, -3, 1))
    assert q == (1, 0, 0, -1) and all(c == 0 for c in r)
    q, r = poly_divmod((1, 0, 1), (1, 1))
    assert q == (1, -1) and r == (2,)


def test_lattice_chain_fixtures():
    fib = lattice_chain_invariants(IntMatrix.from_rows([[1, 1], [1, 0]]))
    assert (fib.stable_rank, fib.stable_index) == (2, 1)
    assert not fib.intersection_trivial

    bs4 = lattice_chain_invariants(IntMatrix.from_rows([[3]]))
    assert (bs4.stable_rank, bs4.stable_index) == (1, 3)
    assert bs4.intersection_trivial

    nil = lattice_chain_invariants(IntMatrix.from_rows([[0, 1], [0, 0]]))
    assert nil.stable_rank == 0 and nil.intersection_trivial


def test_lattice_chain_mixed_block_regression():
    """Companion blocks of x^2-x-1 and x^2+3x+3 glued diagonally.

    Both factors have constant term of absolute value 1 and are != x, so
    the chain intersection is all ofZ^4 in the first block's span even
    though the stable index d = 3 is >= 2.  Guards against reading d >= 2
    alone as triviality.
    """
    b = IntMatrix.from_rows(
        [
            [0, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 0, -3],
            [0, 0, 1, -3],
        ]
    )
    inv = lattice_chain_invariants(b)
    assert inv.stable_rank == 4
    assert inv.stable_index == 3
    assert not inv.intersection_trivial
    # the glued matrix is A - I for a genuine automorphism of Z^4
    a = b + IntMatrix.identity(4)
    assert det_exact(a) in (1, -1)


def test_lattice_chain_conjugation_invariance():
    rng = random.Random(29)
    b = IntMatrix.from_rows([[2, 1], [0, 3]])
    base = lattice_chain_invariants(b)
    for _ in range(10):
        # random GL_2(Z) conjugator from elementary moves
        u = IntMatrix.identity(2)
        for _ in range(6):
            e = IntMatrix.identity(2).rows()
            i, j = rng.sample([0, 1], 2)
            e[i][j] = rng.choice([-1, 1])
            u = u * IntMatrix.from_rows(e)
        uinv = _integer_inverse(u)
        conj = lattice_chain_invariants(u * b * uinv)
        assert (conj.stable_rank, conj.stable_index) == (
            base.stable_rank,
            base.stable_index,
        )
        assert conj.intersection_trivial == base.intersection_trivial


def _integer_inverse(u: IntMatrix) -> IntMatrix:
    d = det_exact(u)
    assert d in (1, -1)
    (a, b), (c, e) = u.entries
    return IntMatrix.from_rows([[e * d, -b * d], [-c * d, a * d]])


def test_stable_rank_matches_rank_exact():
    # deg of the charpoly stripped of x, against Fraction elimination of B^n
    rng = random.Random(37)
    ranks = set()
    for i in range(240):
        n = rng.randint(1, 6)
        if i % 3 == 0:  # nilpotent, or nilpotent plus a small block
            b = _random_unipotent(rng, n, 4).minus_identity()
            if i % 2:
                b = b + IntMatrix.from_rows(
                    [[rng.randint(-2, 2) if j == k == n - 1 else 0 for k in range(n)] for j in range(n)]
                )
        else:
            b = _random_matrix(rng, n, -3, 3)
        r = rank_exact(b ** n)
        assert lattice_chain_invariants(b).stable_rank == r, b.entries
        ranks.add((r == 0, r == n))
    assert ranks == {(True, False), (False, True), (False, False)}


def test_rank_exact_is_no_longer_library_api():
    import resip

    assert not hasattr(resip, "rank_exact")
    assert "rank_exact" not in resip.__all__
    assert not hasattr(intlin, "rank_exact")


def test_rank_and_smith_basics():
    assert rank_exact(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank_exact(IntMatrix.identity(3)) == 3
    assert intlin.smith_normal_form([[2, 0], [0, 3]]) == [[1, 0], [0, 6]]


def test_rank_agrees_with_sympy():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, -5, 5)
        assert rank_exact(m) == sympy.Matrix(m.rows()).rank()


MIXED_BLOCKS = IntMatrix.from_rows(  # companion blocks of x^2-x-1 and x^2+3x+3
    [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -3], [0, 0, 1, -3]]
)


def test_lattice_chain_invariants_match_the_normal_form_oracle():
    # rank, index |g(0)| and intersection against Hermite and Smith forms
    # of the lattices B^n Z^n and B^(n+1) Z^n, on singular and regular B
    rng = random.Random(59)
    mats = [MIXED_BLOCKS, IntMatrix.from_rows([[0, 1], [0, 0]]), IntMatrix.from_rows([[3]])]
    for i in range(200):
        n = rng.randint(1, 5)
        if i % 4 == 0:  # nilpotent plus a corner, so often singular
            b = _random_unipotent(rng, n, 3).minus_identity()
            b = b + IntMatrix.from_rows(
                [[rng.randint(-2, 2) if j == k == 0 else 0 for k in range(n)] for j in range(n)]
            )
        else:
            b = IntMatrix.from_rows(_random_rows(rng, n, -3, 3, rank_deficient=i % 4 == 1))
        mats.append(b)
    kinds = set()
    for b in mats:
        ours = lattice_chain_invariants(b)
        assert ours == lattice_chain_by_normal_forms(b), b.entries
        kinds.add((ours.stable_rank == 0, ours.stable_rank == b.n, ours.intersection_trivial))
    assert lattice_chain_by_normal_forms(MIXED_BLOCKS) == LatticeChainInvariants(4, 3, False)
    # the draw holds rank 0, full and partial rank, and both intersections
    assert {(True, False, True), (False, True, True), (False, True, False)} <= kinds
    assert any(not zero and not full for zero, full, _ in kinds)


def test_mod_matrix_factors_each_modulus_once(monkeypatch):
    from resip import intlin
    from resip.errors import InvalidSpec
    from resip.intlin import ModMatrix

    calls = []
    prime_factors = intlin.prime_factors
    monkeypatch.setattr(intlin, "prime_factors", lambda m: calls.append(m) or prime_factors(m))
    intlin._is_prime_power.cache_clear()
    a = ModMatrix.reduce(IntMatrix.from_rows([[2, 1], [1, 1]]), 101)
    for _ in range(50):  # each identity is a reduction that checks its modulus
        assert ModMatrix.identity(2, 101) * a == a
    assert calls == [101]
    for _ in range(2):  # a rejected modulus stays rejected
        with pytest.raises(InvalidSpec):
            ModMatrix(12, ((1, 0), (0, 1)))
    assert calls == [101, 12]



def test_arithmetic_results_are_built_without_revalidation(monkeypatch):
    from resip.errors import InvalidSpec

    a = IntMatrix.from_rows([[2, 1], [1, 1]])
    b = IntMatrix.from_rows([[0, -1], [1, 3]])
    m = ModMatrix.reduce(a, 7)
    built = []
    monkeypatch.setattr(IntMatrix, "__init__", lambda self, *args: built.append(args))
    monkeypatch.setattr(ModMatrix, "__init__", lambda self, *args: built.append(args))
    results = [a + b, a - b, a * b, a.minus_identity(), ModMatrix.reduce(b, 7), m * m]
    assert built == []
    monkeypatch.undo()
    # each result is the matrix the validating constructors build
    assert results == [
        IntMatrix.from_rows([[2, 0], [2, 4]]),
        IntMatrix.from_rows([[2, 2], [0, -2]]),
        IntMatrix.from_rows([[1, 1], [1, 2]]),
        IntMatrix.from_rows([[1, 1], [1, 0]]),
        ModMatrix(7, ((0, 6), (1, 3))),
        ModMatrix(7, ((5, 3), (3, 2))),
    ]
    with pytest.raises(InvalidSpec):  # a reduction still checks its modulus
        ModMatrix.reduce(a, 12)


# The in-tree integer arithmetic against sympy as the oracle.

STRONG_PSEUDOPRIMES = (
    3215031751,  # to the bases 2, 3, 5 and 7
    3825123056546413051,  # to the first nine prime bases
    318665857834031151167461,  # to the first twelve prime bases
)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801)
CHERNICK_K = (14000240, 14000461, 14000720, 1000000001121, 1000000008310)


def test_is_prime_matches_sympy():
    assert [n for n in range(-5, 100_001) if intlin.is_prime(n)] == list(
        sympy.primerange(2, 100_001)
    )
    for n in STRONG_PSEUDOPRIMES + CARMICHAEL:
        assert not sympy.isprime(n) and not intlin.is_prime(n)
    rng = random.Random(41)
    near = [2**61 - 1, 2**64 - 59, 2**64 + 13, 2**89 - 1, 10**18 + 9, 10**24 + 7]
    near += [sympy.nextprime(10**9) * sympy.nextprime(10**9 + 100)]
    near += [rng.randrange(10**6, 10**25) | 1 for _ in range(300)]
    near += [int(sympy.prevprime(intlin._MR_BOUND)), intlin._MR_BOUND]
    # above the bound, where the strong Lucas test joins Miller-Rabin
    near += [m + d for e in (89, 107, 127, 521) for m in (2**e - 1,) for d in (-2, 0, 2, 4)]
    near += [m + d for e in (89, 127) for m in (2**e + 1,) for d in (-2, 0)]
    near += [
        int(sympy.nextprime(rng.randrange(10**12, 10**15)))
        * int(sympy.nextprime(rng.randrange(10**12, 10**15)))
        for _ in range(50)
    ]
    near += [rng.randrange(intlin._MR_BOUND, 10**60) | 1 for _ in range(300)]
    near += [int(sympy.nextprime(rng.randrange(intlin._MR_BOUND, 10**60))) for _ in range(20)]
    # Chernick's Carmichael numbers (6k + 1)(12k + 1)(18k + 1), k making
    # all three factors prime, above the bound
    chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in CHERNICK_K]
    assert all(n > intlin._MR_BOUND and pow(2, n - 1, n) == 1 for n in chernick)
    near += chernick
    for n in near:
        assert intlin.is_prime(n) == sympy.isprime(n), n


def test_strong_lucas_test_matches_sympy_on_small_odd_numbers():
    from sympy.ntheory.primetest import is_strong_lucas_prp

    passed = [n for n in range(1, 200_000, 2) if intlin._is_strong_lucas_prp(n)]
    assert passed == [n for n in range(1, 200_000, 2) if is_strong_lucas_prp(n)]
    # the strong Lucas pseudoprimes below 2 * 10^5 start so (OEIS A217255)
    assert [n for n in passed if not sympy.isprime(n)][:5] == [5459, 5777, 10877, 16109, 18971]


def test_the_lucas_test_rejects_the_bound_which_passes_miller_rabin():
    """3.317 * 10^24 is a strong pseudoprime to all 13 bases: below the
    bound Miller-Rabin alone is exact, and at it the Lucas test is what
    rejects it."""
    n = intlin._MR_BOUND
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in intlin._MR_BASES:
        x = pow(a, d, n)
        assert x in (1, n - 1) or n - 1 in [pow(x, 2**r, n) for r in range(1, s)]
    assert not intlin._is_strong_lucas_prp(n)
    assert not intlin.is_prime(n)


def test_sieve_matches_primerange():
    for bound in (-1, 0, 1, 2, 3, 4, 10, 97, 1000, 7919, 20_000):
        assert intlin.primes_up_to(bound) == list(sympy.primerange(2, bound + 1))


def test_prime_factors_match_factorint():
    rng = random.Random(43)
    p, q = int(sympy.nextprime(10**9)), int(sympy.prevprime(10**9))
    cases = [1, -1, 2, -12, 1024, 997 * 991, 1009**2, 1009**3, 1_000_003**2]
    cases += [p * q, p * p * q, -p * q * 6, 2**64 + 1, 2**64 - 1, 3 * (2**89 - 1)]
    cases += [int(sympy.nextprime(2**40)) * int(sympy.nextprime(2**41)) * 1009]
    cases += [rng.randrange(2, 10**12) for _ in range(300)]
    cases += [rng.randrange(2, 10**6) * rng.randrange(2, 10**6) * 10007 for _ in range(50)]
    cases += list(STRONG_PSEUDOPRIMES + CARMICHAEL)
    for n in cases:
        assert intlin.prime_factors(n) == tuple(sorted(sympy.factorint(abs(n)))), n
    with pytest.raises(ValueError):
        intlin.prime_factors(0)


def _random_rows(rng, n, lo, hi, rank_deficient):
    rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    if rank_deficient and n > 1:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows[rng.randrange(n)] = [a * x + b * y for x, y in zip(rows[0], rows[-1])]
    return rows


def test_normal_forms_match_sympy():
    from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

    rng = random.Random(47)
    for trial in range(300):
        n = rng.randint(1, 5)
        bound = rng.choice((1, 4, 30))
        rows = _random_rows(rng, n, -bound, bound, trial % 3 == 0)
        if trial % 10 == 0:
            rows[rng.randrange(n)] = [0] * n
        h = hermite_normal_form(sympy.Matrix(rows))
        ours = intlin.hermite_normal_form(rows)
        assert [len(r) for r in ours] == [h.cols] * n
        assert ours == [[int(h[i, j]) for j in range(h.cols)] for i in range(n)], rows
        s = smith_normal_form(sympy.Matrix(rows))
        assert intlin.smith_normal_form(rows) == [[int(x) for x in r] for r in s.tolist()], rows


def test_lattice_index_is_the_charpoly_constant_without_x_powers():
    """|g(0)| for g = charpoly(B) stripped of its x factors is the product
    of |c_0|^mult over the irreducible factors with c_0 != 0."""
    rng = random.Random(53)
    x = sympy.Symbol("x")
    for _ in range(60):
        b = _random_matrix(rng, rng.randint(1, 4), -3, 3)
        if rank_exact(b ** b.n) == 0:
            continue
        index = 1
        for f, mult in sympy.Poly(list(charpoly_exact(b)), x).factor_list()[1]:
            if f.TC() != 0:
                index *= abs(int(f.TC())) ** mult
        assert lattice_chain_invariants(b).stable_index == index
