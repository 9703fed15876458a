"""The Fitting-rank obstruction against the exhaustive subspace search.

The exhaustive search that classify once ran lives here as an oracle: it
enumerates every M-invariant subspace of F_p^n (cyclic subspaces closed
under joins) and tests each quotient for unipotence.  It is exponential in
n, so it only runs for p^n <= 10^4.  The quotient matrices it tests, and
the order iteration the witness's order is held against, are the oracles
``quotient_matrix`` and ``unipotent_order_by_iteration``.
"""

import random
import time

import pytest

from resip.classify import NOT_RESIDUALLY_P, fibered_verdicts, p_power_order_quotient_exists
from resip.errors import NotInvertibleMod, RankTooSmall
from resip.freegrp import FreeEndo, MappingTorusSpec, parse_word
from resip.intlin import IntMatrix, ModMatrix, is_unipotent_mod, rref_mod
from oracles import quotient_matrix, unipotent_order_by_iteration


# ---------------------------------------------------------------------------
# oracle: exhaustive enumeration of invariant subspaces


def _apply(m: ModMatrix, v) -> tuple[int, ...]:
    p = m.modulus
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in m.entries)


def _span_contains(basis, v, p: int) -> bool:
    reduced = list(v)
    for row in basis:
        col = next(i for i, x in enumerate(row) if x)  # pivot of RREF row
        f = reduced[col] % p
        if f:
            reduced = [(x - f * y) % p for x, y in zip(reduced, row)]
    return not any(x % p for x in reduced)


def _cyclic_subspace(m: ModMatrix, v):
    key = rref_mod([list(v)], m.modulus)[0]
    while True:
        grew = False
        for row in key:
            image = _apply(m, row)
            if not _span_contains(key, image, m.modulus):
                key = rref_mod([list(r) for r in key] + [list(image)], m.modulus)[0]
                grew = True
        if not grew:
            return key


def _projective_vectors(n: int, p: int):
    """One representative per line: first nonzero coordinate is 1."""
    v = [0] * n
    while True:
        i = n - 1
        while i >= 0 and v[i] == p - 1:
            v[i] = 0
            i -= 1
        if i < 0:
            return
        v[i] += 1
        if next(x for x in v if x) == 1:
            yield tuple(v)


def invariant_subspaces(m: ModMatrix) -> set:
    """Every M-invariant subspace, as RREF keys.  Each one is a sum of
    cyclic subspaces, so adding one cyclic subspace at a time to the
    subspaces found so far reaches all of them."""
    p = m.modulus
    seeds = {_cyclic_subspace(m, v) for v in _projective_vectors(m.n, p)}
    family = {()}
    frontier = [()]
    while frontier:
        new = []
        for a in frontier:
            for b in seeds:
                if all(_span_contains(a, v, p) for v in b):
                    continue
                joined = rref_mod([list(r) for r in a + b], p)[0]
                if joined not in family:
                    family.add(joined)
                    new.append(joined)
        frontier = new
    return family


def oracle_max_quotient_dim(m: ModMatrix):
    """Largest dim V/W >= 2 over invariant W with a unipotent quotient
    action, or None when there is none."""
    n, p = m.n, m.modulus
    best = None
    for key in invariant_subspaces(m):
        d = n - len(key)
        if d >= 2 and (best is None or d > best):
            if is_unipotent_mod(quotient_matrix(m, key), p):
                best = d
    return best


# ---------------------------------------------------------------------------
# independent linear algebra over F_p for the property checks


def _rank_mod(rows, p: int) -> int:
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] * inv % p
            mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _mat_mul(a, b, p: int):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _mat_pow(a, k: int, p: int):
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = _mat_mul(out, a, p)
    return out


def _random_invertible(rng, n: int, p: int):
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _rank_mod(rows, p) == n:
            return rows


def _inverse_mod(a, p: int):
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _structured_matrix(rng, n: int, p: int, blocks: int) -> ModMatrix:
    """P B P^-1 over F_p, where B is block diagonal with up to `blocks`
    blocks: unipotent Jordan blocks, scalar blocks and random invertible
    blocks, so that verdicts with and without a qualifying quotient both
    come up.  Few blocks keep the lattice of invariant subspaces small."""
    b = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        size = n - i if blocks == 1 else rng.randint(1, n - i)
        blocks -= 1
        kind = rng.choice(("jordan", "scalar", "random"))
        if kind == "scalar":  # a scalar block's subspaces are all invariant
            size = 1 if p ** n > 100 else min(size, 2)
        if kind == "random":
            block = _random_invertible(rng, size, p)
        elif kind == "jordan":
            block = [[int(c in (r, r + 1)) for c in range(size)] for r in range(size)]
        else:
            lam = rng.randrange(1, p)
            block = [[lam * int(c == r) for c in range(size)] for r in range(size)]
        for r in range(size):
            for c in range(size):
                b[i + r][i + c] = block[r][c]
        i += size
    conj = _random_invertible(rng, n, p)
    rows = _mat_mul(_mat_mul(conj, b, p), _inverse_mod(conj, p), p)
    return ModMatrix(p, tuple(tuple(row) for row in rows))


# (n, p) with p^n <= 10^4; the enumeration costs about p^n cyclic-subspace
# closures, plus the lattice of invariant subspaces
SHAPES = (
    [(2, p) for p in (2, 3, 5, 7, 11, 13, 31, 97)]
    + [(3, p) for p in (2, 3, 5, 7, 11, 19)]
    + [(4, p) for p in (2, 3, 5, 7)]
    + [(5, 2), (5, 3), (6, 2), (6, 3), (8, 2)]
)


def test_fitting_rank_matches_exhaustive_search():
    rng = random.Random(20090)
    decided = {True: 0, False: 0}
    for n, p in SHAPES:
        assert p ** n <= 10 ** 4
        small = p ** n <= 100
        for _ in range(6 if small else 2):
            m = _structured_matrix(rng, n, p, 3 if small else 2)
            res = p_power_order_quotient_exists(m, p)
            want = oracle_max_quotient_dim(m)
            assert res.exists == (want is not None), (n, p, m.entries)
            assert res.examined == 1
            if res.exists:
                assert res.witness["quotient_dim"] == want, (n, p, m.entries)
            decided[res.exists] += 1
    # the sample must exercise both answers
    assert decided[True] >= 10 and decided[False] >= 10, decided


def test_generic_matrices_match_exhaustive_search():
    rng = random.Random(4455)
    for _ in range(60):
        n = rng.randint(2, 4)
        p = rng.choice([2, 3, 5, 7])
        m = ModMatrix(p, tuple(map(tuple, _random_invertible(rng, n, p))))
        res = p_power_order_quotient_exists(m, p)
        want = oracle_max_quotient_dim(m)
        assert res.exists == (want is not None)
        if res.exists:
            assert res.witness["quotient_dim"] == want


def _check_witness(m: ModMatrix, p: int) -> None:
    n = m.n
    rows = [list(r) for r in m.entries]
    nil = _mat_pow([[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)], n, p)
    kernel_dim = n - _rank_mod(nil, p)
    res = p_power_order_quotient_exists(m, p)
    assert res.examined == 1
    assert res.exists == (kernel_dim >= 2)
    if not res.exists:
        assert res.witness is None
        return
    w = res.witness["subspace"]
    dim_w = _rank_mod(w, p) if w else 0
    assert dim_w == len(w)  # the stored basis is independent
    assert n - dim_w == res.witness["quotient_dim"] == kernel_dim
    # W is M-invariant: adding M w to W's basis never raises the rank
    for vec in w:
        image = [sum(a * b for a, b in zip(row, vec)) % p for row in rows]
        assert _rank_mod(w + [image], p) == dim_w
    # the quotient action is unipotent, of exactly the stored order
    q = quotient_matrix(m, tuple(tuple(r) for r in w))
    assert is_unipotent_mod(q, p)
    order = res.witness["order"]
    s = 0
    while p ** s < order:
        s += 1
    assert p ** s == order
    ident = [[int(i == j) for j in range(q.n)] for i in range(q.n)]
    assert _mat_pow(q.rows(), order, p) == ident
    if order > 1:
        assert _mat_pow(q.rows(), order // p, p) != ident


def test_witness_properties():
    rng = random.Random(811)
    for _ in range(80):
        n = rng.randint(2, 6)
        p = rng.choice([2, 3, 5, 7, 11, 101])
        _check_witness(_structured_matrix(rng, n, p, n), p)


def test_witness_order_is_exact_on_jordan_blocks():
    # a unipotent Jordan block of size d over F_p has order p^s, with s
    # the least integer such that p^s >= d
    for p in (2, 3, 5):
        for d in range(2, 7):
            rows = [[int(c == r) + int(c == r + 1) for c in range(d)] for r in range(d)]
            m = ModMatrix(p, tuple(map(tuple, rows)))
            res = p_power_order_quotient_exists(m, p)
            s = 0
            while p ** s < d:
                s += 1
            assert res.witness == {"subspace": [], "quotient_dim": d, "order": p ** s}
            _check_witness(m, p)


def _jordan_beside_a_fixed_point_free_block(rng, k: int, m: int, p: int) -> ModMatrix:
    """P (J_k(1) + B) P^-1 over F_p, with B of size m and B - I invertible,
    so W = im (M - I)^n is the conjugated B-part and nu_W = k."""
    while True:
        block = _random_invertible(rng, m, p)
        if _rank_mod([[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(block)], p) == m:
            break
    n = k + m
    b = [[int(c in (r, r + 1)) if r < k and c < k else 0 for c in range(n)] for r in range(n)]
    for r in range(m):
        b[k + r][k:] = block[r]
    conj = _random_invertible(rng, n, p)
    rows = _mat_mul(_mat_mul(conj, b, p), _inverse_mod(conj, p), p)
    return ModMatrix(p, tuple(tuple(row) for row in rows))


def test_closed_form_order_matches_the_iterated_quotient_order():
    # the order is read off the ranks of (M - I)^j; the oracle builds the
    # quotient matrix on V/W and takes p-th powers until the identity
    rng = random.Random(1010)
    seen = {"unipotent": 0, "proper": 0, "none": 0, "above p": 0}
    for i in range(500):
        n, p = rng.randint(2, 5), rng.choice((2, 3, 5, 7, 11))
        if i % 5 == 0:
            k = rng.randint(2, 3)  # F_2 has no 1x1 block without the eigenvalue 1
            m = _jordan_beside_a_fixed_point_free_block(rng, k, rng.randint(2, 5 - k), p)
        elif i % 2:
            m = _structured_matrix(rng, n, p, rng.randint(1, n))
        else:
            m = ModMatrix(p, tuple(map(tuple, _random_invertible(rng, n, p))))
        n = m.n
        res = p_power_order_quotient_exists(m, p)
        nil = [[x - int(r == c) for c, x in enumerate(row)] for r, row in enumerate(m.entries)]
        kernel_dim = n - _rank_mod(_mat_pow(nil, n, p), p)
        if not res.exists:
            assert kernel_dim < 2
            seen["none"] += 1
            continue
        w = tuple(tuple(r) for r in res.witness["subspace"])
        assert res.witness["quotient_dim"] == kernel_dim
        assert res.witness["order"] == unipotent_order_by_iteration(quotient_matrix(m, w), p), (p, m.entries)
        seen["proper" if w else "unipotent"] += 1
        seen["above p"] += bool(w) and res.witness["order"] > p
    assert min(seen.values()) >= 10, seen


def _inversion(rank: int) -> FreeEndo:
    images = tuple(parse_word(f"X{i}", rank) for i in range(1, rank + 1))
    return FreeEndo(rank, images, images)


@pytest.mark.parametrize("rank,p", [(3, 101), (4, 37)])
def test_inversion_beyond_the_old_search_is_decided(rank, p):
    # x_i -> x_i^-1 acts as -I on H_1; (M - I)^n = (-2)^n I is invertible
    # mod odd p, so no quotient qualifies.  The exhaustive search refused
    # these inputs (p^n > 10^6) and answered Undecided.
    start = time.perf_counter()
    v = fibered_verdicts(MappingTorusSpec(_inversion(rank)), [p])[0]
    elapsed = time.perf_counter() - start
    assert v.outcome == NOT_RESIDUALLY_P
    assert v.obstruction["examined_subspaces"] == 1
    assert elapsed < 1.0


def test_preconditions_kept():
    with pytest.raises(ValueError):
        p_power_order_quotient_exists(ModMatrix.identity(2, 5), 3)
    with pytest.raises(RankTooSmall):
        p_power_order_quotient_exists(ModMatrix.identity(1, 5), 5)
    singular = ModMatrix.reduce(IntMatrix.from_rows([[1, 2], [2, 4]]), 5)
    with pytest.raises(NotInvertibleMod):
        p_power_order_quotient_exists(singular, 5)
