"""Verdict logic: torus bundles, BS(1,q), and free-fiber mapping tori."""

import math
import pathlib
import random

import pytest
import sympy

from resip.braid import artin_endo, beta_braid
from resip.classify import (
    BSSpec,
    NOT_RESIDUALLY_P,
    RESIDUALLY_P,
    UNDECIDED,
    bs_classify,
    fibered_verdicts,
    p_power_order_quotient_exists,
    residually_p_prime_set,
    sl2_power_divisibility,
    torus_residually_nilpotent,
    torus_residually_p,
    torus_verdicts,
)
from resip.errors import InvalidSpec
from resip.freegrp import (
    FreeEndo,
    MappingTorusSpec,
    abelianization_matrix,
    nielsen_transvection,
    parse_word,
)
from resip.intlin import (
    IntMatrix,
    ModMatrix,
    det_exact,
    is_unipotent_mod,
    lattice_chain_invariants,
    primes_up_to,
)
from resip.magnus import unipotent_over_Z
from oracles import (
    bs_classify_by_matrix,
    fibered_verdicts_per_prime,
    matrix_order_mod,
    random_certified_automorphism,
    sl2_power_by_search,
    torus_verdicts_per_prime,
)

A_SOL = IntMatrix.from_rows([[2, 1], [1, 1]])
A_SOL_CUBED = IntMatrix.from_rows([[13, 8], [8, 5]])


def test_sol_fixture_never_residually_p():
    for p in primes_up_to(100):
        v = torus_residually_p(A_SOL, p)
        assert v.outcome == NOT_RESIDUALLY_P
        assert v.obstruction is not None
    assert not torus_residually_nilpotent(A_SOL)


def test_cube_of_sol_matrix_residually_2():
    v = torus_residually_p(A_SOL_CUBED, 2)
    assert v.outcome == RESIDUALLY_P
    assert v.certificate["criterion"] == "unipotent_mod_p"
    assert torus_residually_p(A_SOL_CUBED, 3).outcome == NOT_RESIDUALLY_P


def test_identity_torus_residually_p_everywhere():
    for p in (2, 3, 5, 97):
        assert torus_residually_p(IntMatrix.identity(3), p).outcome == RESIDUALLY_P
    assert torus_residually_nilpotent(IntMatrix.identity(3))


def test_non_automorphism_rejected():
    with pytest.raises(InvalidSpec, match=r"matrix is not in GL_n\(Z\)"):
        torus_residually_p(IntMatrix.from_rows([[2, 0], [0, 1]]), 3)
    with pytest.raises(InvalidSpec, match=r"matrix is not in GL_n\(Z\)"):
        residually_p_prime_set(IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_prime_set_fixtures():
    s = residually_p_prime_set(A_SOL_CUBED)
    assert not s.all_primes and s.primes == (2,)
    assert s.gcd_value == 16

    empty = residually_p_prime_set(A_SOL)
    assert not empty.all_primes and empty.primes == ()

    univ = residually_p_prime_set(IntMatrix.identity(2))
    assert univ.all_primes
    assert univ.contains(2) and univ.contains(101)


def test_prime_set_matches_per_prime_sweep():
    rng = random.Random(67)
    for _ in range(60):
        a = _random_glnz(rng, rng.randint(1, 3))
        s = residually_p_prime_set(a)
        for p in primes_up_to(40):
            per_prime = torus_residually_p(a, p).outcome == RESIDUALLY_P
            assert per_prime == s.contains(p)


def _random_glnz(rng, n):
    """Random GL_n(Z) matrix as a short product of elementary matrices."""
    m = IntMatrix.identity(n)
    for _ in range(rng.randint(1, 8)):
        e = IntMatrix.identity(n).rows()
        if n == 1:
            e[0][0] = rng.choice([-1, 1])
        elif rng.random() < 0.8:
            i, j = rng.sample(range(n), 2)
            e[i][j] = rng.randint(-3, 3)
        else:
            e[0][0] = -1
        m = m * IntMatrix.from_rows(e)
    return m


def test_residual_nilpotence_fixtures():
    assert not torus_residually_nilpotent(A_SOL)
    assert torus_residually_nilpotent(IntMatrix.identity(2))
    assert torus_residually_nilpotent(IntMatrix.from_rows([[1, 1], [0, 1]]))


def test_residually_p_somewhere_implies_residually_nilpotent():
    rng = random.Random(71)
    for _ in range(60):
        a = _random_glnz(rng, rng.randint(1, 3))
        s = residually_p_prime_set(a)
        if s.all_primes or s.primes:
            assert torus_residually_nilpotent(a)


def test_endo_omega_nilpotence_fixtures():
    # Z x|_[q] Z is omega-nilpotent iff the lattice chain of [q] - I meets in 0
    for q, expected in ((2, False), (4, True), (1, True)):
        a = IntMatrix.from_rows([[q]])
        assert lattice_chain_invariants(a.minus_identity()).intersection_trivial is expected


def test_bs_fixtures():
    r4 = bs_classify(BSSpec(4))
    assert r4.residually_p_primes.primes == (3,) and r4.omega_nilpotent

    r2 = bs_classify(BSSpec(2))
    assert r2.residually_p_primes.primes == () and not r2.omega_nilpotent

    r1 = bs_classify(BSSpec(1))
    assert r1.residually_p_primes.all_primes and r1.omega_nilpotent
    assert r1.trivial_case

    with pytest.raises(InvalidSpec, match="q must be >= 1, got 0"):
        BSSpec(0)


def test_bs_sweep_divisor_law():
    for q in range(1, 51):
        report = bs_classify(BSSpec(q))
        if q == 1:
            assert report.residually_p_primes.all_primes
        else:
            expected = tuple(sorted(sympy.factorint(q - 1))) if q > 2 else ()
            if q == 2:
                assert report.residually_p_primes.primes == ()
            else:
                assert report.residually_p_primes.primes == expected
        assert report.omega_nilpotent == (q != 2)


def test_obstruction_three_cycle():
    cyc = ModMatrix.reduce(
        IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), 2
    )
    res = p_power_order_quotient_exists(cyc, 2)
    assert not res.exists
    assert res.examined >= 1

    cyc3 = ModMatrix.reduce(
        IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), 3
    )
    res3 = p_power_order_quotient_exists(cyc3, 3)
    assert res3.exists
    assert res3.witness["quotient_dim"] == 3

    ident = ModMatrix.identity(2, 5)
    assert p_power_order_quotient_exists(ident, 5).exists


def test_obstruction_consistent_with_unipotence():
    rng = random.Random(73)
    for _ in range(40):
        p = rng.choice([2, 3])
        n = rng.randint(2, 3)
        a = _random_glnz(rng, n)
        if det_exact(a) % p == 0:
            continue
        if is_unipotent_mod(a, p):
            m = ModMatrix.reduce(a, p)
            assert p_power_order_quotient_exists(m, p).exists


def test_beta_verdicts_exactly_at_three():
    beta = MappingTorusSpec(artin_endo(beta_braid()))
    v3 = fibered_verdicts(beta, [3])[0]
    assert v3.outcome == RESIDUALLY_P
    assert v3.certificate["criterion"] == "unipotent_on_H1_mod_p"
    for p in (2, 5, 7, 11, 13):
        v = fibered_verdicts(beta, [p])[0]
        assert v.outcome == NOT_RESIDUALLY_P, p
        assert v.obstruction["examined_subspaces"] >= 1


def test_alpha_fixture_not_residually_p():
    # automorphism of F_2 with abelianization [[2,1],[1,1]]
    alpha = FreeEndo(
        2,
        (parse_word("x1 x1 x2", 2), parse_word("x1 x2", 2)),
        (parse_word("x1 X2", 2), parse_word("x2 X1 x2", 2)),
    )
    spec = MappingTorusSpec(alpha)
    for p in (2, 3, 5, 7):
        assert fibered_verdicts(spec, [p])[0].outcome == NOT_RESIDUALLY_P


def test_free_fiber_rank_one_rejected():
    phi = FreeEndo(1, (parse_word("x1", 1),), (parse_word("x1", 1),))
    with pytest.raises(InvalidSpec, match="rank-1 fibers are torus/BS territory"):
        fibered_verdicts(MappingTorusSpec(phi), [2])


def test_free_fiber_undecided_is_possible():
    # x1 -> x1, x2 -> x2, x3 -> X3 acts on H_1 with f = (x - 1)^2 (x + 1):
    # f(1) = f'(1) = 0, so an invariant quotient of dimension 2 with p-power
    # order exists at every p, while the gap gcd is 2
    phi = FreeEndo(
        3,
        (parse_word("x1", 3), parse_word("x2", 3), parse_word("X3", 3)),
        (parse_word("x1", 3), parse_word("x2", 3), parse_word("X3", 3)),
    )
    outcomes = [v.outcome for v in fibered_verdicts(MappingTorusSpec(phi), [2, 3, 5, 7])]
    assert outcomes == [RESIDUALLY_P, UNDECIDED, UNDECIDED, UNDECIDED]
    # the rotation [[0,-1],[1,0]] has f = x^2 + 1 and h = gcd(2, 2) = 2: no
    # qualifying quotient at an odd p
    rot = FreeEndo(
        2,
        (parse_word("X2", 2), parse_word("x1", 2)),
        (parse_word("x2", 2), parse_word("X1", 2)),
    )
    assert fibered_verdicts(MappingTorusSpec(rot), [3])[0].outcome == NOT_RESIDUALLY_P


def test_certified_monodromies_act_on_h1_with_determinant_plus_or_minus_one():
    """Why fibered_verdicts has no branch for an H_1 action that is
    singular mod p: a certified inverse puts M in GL_n(Z)."""
    from resip.cli import _build_endo, parse_task_file

    rng = random.Random(1603)
    endos = [random_certified_automorphism(rng, rng.randint(2, 4)) for _ in range(100)]
    tasks = pathlib.Path(__file__).resolve().parent.parent / "tasks"
    fibered = [
        _build_endo(task.payload)
        for path in sorted(tasks.glob("*.json"))
        for task in parse_task_file(path.read_text()).tasks
        if task.kind == "fibered"
    ]
    assert fibered
    for phi in endos + fibered:
        assert det_exact(abelianization_matrix(phi)) in (1, -1)


def test_sl2_power_fixtures():
    assert sl2_power_divisibility(A_SOL, 2) == 3
    assert sl2_power_divisibility(A_SOL, 5) == 2
    assert sl2_power_divisibility(IntMatrix.identity(2), 7) == 1


def test_sl2_power_brute_force_agreement():
    rng = random.Random(79)
    mats = [_random_sl2(rng) for _ in range(20)]
    for a in mats:
        for p in (2, 3, 5, 7):
            k = sl2_power_divisibility(a, p)
            assert k <= p * (p * p - 1)
            assert det_exact((a ** k).minus_identity()) % p == 0
            for j in range(1, k):
                assert det_exact((a ** j).minus_identity()) % p != 0


def test_sl2_power_matches_the_search_oracle():
    rng = random.Random(404)
    mats = [A_SOL, IntMatrix.identity(2), IntMatrix.from_rows([[-1, 0], [0, -1]])]
    mats += [_random_sl2(rng) for _ in range(250)]
    for p in primes_up_to(101):
        for a in mats:
            assert sl2_power_divisibility(a, p) == sl2_power_by_search(a, p), (a, p)


def test_sl2_power_is_the_prime_to_p_part_of_the_order():
    rng = random.Random(5)
    for _ in range(40):
        a = _random_sl2(rng)
        for p in (2, 3, 5, 7, 11):
            order = matrix_order_mod(a, p, 1)
            while order % p == 0:
                order //= p
            assert sl2_power_divisibility(a, p) == order


def test_sl2_power_at_large_primes():
    assert sl2_power_divisibility(A_SOL, 1000003) == 1000004
    p = 10 ** 12 + 39
    for a in (A_SOL, IntMatrix.from_rows([[5, 7], [2, 3]])):
        k = sl2_power_divisibility(a, p)
        assert (p * p - 1) % k == 0

        def trace_of_power(e):
            power = ModMatrix.reduce(a, p) ** e
            return (power.entries[0][0] + power.entries[1][1]) % p

        assert trace_of_power(k) == 2
        for q in sympy.factorint(k):
            assert trace_of_power(k // q) != 2


def _random_sl2(rng):
    s = IntMatrix.from_rows([[0, -1], [1, 0]])
    t = IntMatrix.from_rows([[1, 1], [0, 1]])
    m = IntMatrix.identity(2)
    for _ in range(rng.randint(1, 20)):
        m = m * rng.choice([s, t])
    return m


def test_rtfn_sufficiency():
    ident = FreeEndo.identity(2)
    assert unipotent_over_Z(MappingTorusSpec(ident).fiber, 3)
    assert unipotent_over_Z(MappingTorusSpec(nielsen_transvection(2, 1, 2)).fiber, 4)
    assert not unipotent_over_Z(MappingTorusSpec(artin_endo(beta_braid())).fiber, 1)


def test_verdict_serialization_shape():
    v = torus_residually_p(A_SOL_CUBED, 2)
    d = v.to_dict()
    assert d["p"] == 2 and d["outcome"] == RESIDUALLY_P
    assert "certificate" in d and "obstruction" not in d


_BROKEN_UNIPOTENCE = """
import sys
from resip import classify
from resip.errors import InternalInvariant
from resip.intlin import IntMatrix

assert sys.flags.optimize == 1
# make the power route disagree with the charpoly route: no power of
# A - I is zero mod any prime
classify._power_chain = lambda a, modulus: [1] * a.n
try:
    classify.torus_residually_p(IntMatrix.from_rows([[1, 1], [0, 1]]), 3)
except InternalInvariant as exc:
    print("raised:", exc)
"""


_BROKEN_FRATTINI = """
import sys
from resip import pgrouplab
from resip.errors import InternalInvariant

assert sys.flags.optimize == 1
# a "normal closure" of two elements of UT(3,3): its index is no power of 3
pgrouplab.FinitePGroup._normal_closure = lambda self, gens: 0b11
for call in (pgrouplab.frattini_data, pgrouplab.minimal_generating_size):
    try:
        call(pgrouplab.ut3_group(3))
    except InternalInvariant as exc:
        print(call.__name__, "raised:", exc)
"""


def _run_optimized(script: str) -> str:
    """Standard output of a script run under python -O with this resip."""
    import os
    import pathlib
    import subprocess
    import sys

    import resip

    src = str(pathlib.Path(resip.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


_BROKEN_FIBERED_ROUTES = """
import sys
from resip import classify
from resip.errors import InternalInvariant
from resip.freegrp import FreeEndo, MappingTorusSpec, parse_word

assert sys.flags.optimize == 1
alpha = FreeEndo(
    2,
    (parse_word("x1 x1 x2", 2), parse_word("x1 x2", 2)),
    (parse_word("x1 X2", 2), parse_word("x2 X1 x2", 2)),
)
for label, attr, fake, phi in (
    # the powers deny a unipotence the gap gcd gives
    ("powers", "_power_chain", lambda a, modulus: [1] * a.n, FreeEndo.identity(2)),
    # the gap gcd claims a unipotence the powers deny
    ("charpoly", "charpoly_exact", lambda a: classify.poly_pow_x_minus_one(a.n), alpha),
):
    saved = getattr(classify, attr)
    setattr(classify, attr, fake)
    try:
        classify.fibered_verdicts(MappingTorusSpec(phi), [3])
    except InternalInvariant as exc:
        print(label, "raised:", exc)
    setattr(classify, attr, saved)
"""


def test_cross_checks_run_under_python_O():
    out = _run_optimized(_BROKEN_UNIPOTENCE)
    assert out.startswith("raised: unipotence by charpoly and by powers of A - I disagree")


def test_fibered_cross_checks_run_under_python_O():
    message = "raised: unipotence by charpoly and by powers of A - I disagree"
    assert _run_optimized(_BROKEN_FIBERED_ROUTES).splitlines() == [
        f"powers {message}",
        f"charpoly {message}",
    ]


def test_pgrouplab_cross_check_runs_under_python_O():
    message = "raised: Frattini quotient order is not a power of p"
    assert _run_optimized(_BROKEN_FRATTINI).splitlines() == [
        f"frattini_data {message}",
        f"minimal_generating_size {message}",
    ]


def test_bs_classify_matches_the_one_by_one_matrix_route():
    # read off q - 1, against the charpoly gap and lattice chain of [q]
    for q in range(1, 501):
        assert bs_classify(BSSpec(q)) == bs_classify_by_matrix(q), q


def test_quotient_matrix_rejects_a_non_invariant_subspace():
    # the quotient matrix is a test oracle now; the library reads the
    # obstruction's order off ranks and builds no quotient
    from oracles import quotient_matrix
    from resip.errors import InternalInvariant

    # the 3-cycle moves the line spanned by e1
    cyc = ModMatrix.reduce(IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), 5)
    with pytest.raises(InternalInvariant):
        quotient_matrix(cyc, ((1, 0, 0),))


def test_sl2_power_rejects_non_prime():
    from resip.errors import InvalidSpec

    with pytest.raises(InvalidSpec):
        sl2_power_divisibility(A_SOL, 4)


def test_sl2_det_door_is_the_gap_gcd():
    # on SL_2 the gap gcd of charpoly(A) - (x - 1)^2 is |det(A - I)|, so
    # the det(A - I) criterion is the charpoly one (torus_verdicts_per_prime
    # compares the two at every prime)
    from resip.classify import _charpoly_gap

    rng = random.Random(2017)
    for a in [A_SOL, IntMatrix.identity(2)] + [_random_sl2(rng) for _ in range(300)]:
        assert _charpoly_gap(a)[2] == abs(det_exact(a.minus_identity())), a.entries


def test_torus_verdicts_match_the_per_prime_oracle():
    # gap gcd g = 0 (every prime unipotent) for I and the transvections,
    # g = 4 for -I in dimension 2, the rest drawn at random
    fixed = [IntMatrix.identity(n) for n in (2, 3, 4)] + [
        IntMatrix.from_rows([[1, 1], [0, 1]]),
        IntMatrix.from_rows([[1, 2, 0], [0, 1, 5], [0, 0, 1]]),
        IntMatrix.from_rows([[-1, 0], [0, -1]]),
        A_SOL,
    ]
    rng = random.Random(2011)
    mats = fixed + [_random_glnz(rng, rng.randint(2, 4)) for _ in range(300)]
    primes = primes_up_to(200)
    for a in mats:
        assert [v.to_dict() for v in torus_verdicts(a, primes)] == torus_verdicts_per_prime(a, primes)
    assert torus_residually_p(A_SOL, 5).to_dict() == torus_verdicts_per_prime(A_SOL, [5])[0]


def test_torus_verdicts_run_the_power_route_only_where_the_gap_is_divisible(monkeypatch):
    from resip import classify

    # one chain per matrix, modulo the product of the listed primes
    # dividing g, and none when no listed prime divides g
    seen = []
    chain = classify._power_chain
    monkeypatch.setattr(classify, "_power_chain", lambda a, modulus: seen.append(modulus) or chain(a, modulus))
    primes = primes_up_to(50)
    torus_verdicts(A_SOL, primes)  # g = |2 - tr A| = 1
    assert seen == []
    torus_verdicts(IntMatrix.from_rows([[-1, 0], [0, -1]]), primes)  # g = 4
    assert seen == [2]
    seen.clear()
    torus_verdicts(IntMatrix.from_rows([[1, 1], [0, 1]]), primes + primes)  # g = 0
    assert seen == [math.prod(primes)]


def test_torus_verdicts_raise_when_the_power_route_disagrees(monkeypatch):
    from resip import classify
    from resip.errors import InternalInvariant

    # no power of A - I is zero mod any prime
    monkeypatch.setattr(classify, "_power_chain", lambda a, modulus: [1] * a.n)
    with pytest.raises(InternalInvariant, match="by charpoly and by powers"):
        torus_verdicts(IntMatrix.identity(3), [2, 3])
    # on SL_2 too: the det(A - I) criterion is the charpoly one
    with pytest.raises(InternalInvariant, match="by charpoly and by powers"):
        torus_verdicts(IntMatrix.from_rows([[1, 1], [0, 1]]), [3])


def test_torus_verdicts_reject_a_non_prime_before_any_verdict():
    from resip.errors import InvalidSpec

    with pytest.raises(InvalidSpec, match="4 is not prime"):
        torus_verdicts(A_SOL, [2, 3, 4])
    with pytest.raises(InvalidSpec, match=r"matrix is not in GL_n\(Z\)"):
        torus_verdicts(IntMatrix.from_rows([[2, 0], [0, 1]]), [4])


def _alpha_spec() -> MappingTorusSpec:
    # an automorphism of F_2 acting on H_1 by [[2,1],[1,1]]: g = 1, h = 1
    return MappingTorusSpec(
        FreeEndo(
            2,
            (parse_word("x1 x1 x2", 2), parse_word("x1 x2", 2)),
            (parse_word("x1 X2", 2), parse_word("x2 X1 x2", 2)),
        )
    )


def test_fibered_verdicts_match_the_per_prime_oracle():
    from collections import Counter

    rng = random.Random(1701)
    primes = primes_up_to(31)
    outcomes = Counter()
    for _ in range(300):
        spec = MappingTorusSpec(random_certified_automorphism(rng, rng.randint(2, 4)))
        verdicts = [v.to_dict() for v in fibered_verdicts(spec, primes)]
        assert verdicts == fibered_verdicts_per_prime(spec, primes)
        outcomes.update(v["outcome"] for v in verdicts)
    assert min(outcomes[o] for o in (RESIDUALLY_P, NOT_RESIDUALLY_P, UNDECIDED)) >= 100, outcomes
    spec = _alpha_spec()
    assert fibered_verdicts(spec, [5])[0].to_dict() == fibered_verdicts_per_prime(spec, [5])[0]


def _fibered_task_specs():
    from resip.cli import _build_endo, _task_primes, parse_task_file

    tasks = pathlib.Path(__file__).resolve().parent.parent / "tasks"
    return [
        (MappingTorusSpec(_build_endo(task.payload)), _task_primes(task.payload))
        for path in sorted(tasks.glob("*.json"))
        for task in parse_task_file(path.read_text()).tasks
        if task.kind == "fibered"
    ]


def test_fibered_verdicts_match_the_oracle_on_every_shipped_task():
    specs = _fibered_task_specs()
    assert specs
    for spec, primes in specs:
        assert [v.to_dict() for v in fibered_verdicts(spec, primes)] == fibered_verdicts_per_prime(spec, primes)


def test_torus_verdicts_match_the_oracle_at_g_0_with_wide_entries():
    # unipotent over Z, so g = 0, with entries of 10^6 and more; the
    # factors 2, 6 and 30 make the index at 2, 3 and 5 differ from the rest
    from resip.classify import _charpoly_gap

    rng = random.Random(2013)
    primes = primes_up_to(200)
    for n in (2, 3, 4):
        for _ in range(6):
            u = IntMatrix.from_rows(
                [
                    [int(i == j) if i >= j else rng.choice((1, 2, 6, 30)) * rng.randint(10**6, 10**9) for j in range(n)]
                    for i in range(n)
                ]
            )
            c = rng.randint(10**6, 10**9)
            e, e_inv = IntMatrix.identity(n).rows(), IntMatrix.identity(n).rows()
            e[n - 1][0], e_inv[n - 1][0] = c, -c
            a = IntMatrix.from_rows(e) * u * IntMatrix.from_rows(e_inv)
            assert _charpoly_gap(a)[2] == 0
            assert max(abs(x) for row in a.entries for x in row) >= 10**6
            assert [v.to_dict() for v in torus_verdicts(a, primes)] == torus_verdicts_per_prime(a, primes)


def _gap_30_automorphism() -> FreeEndo:
    """An automorphism of F_4 acting on H_1 by
    [[31, 30, 0, 0], [1, 1, 1, 0], [0, 0, 1, 3], [0, 0, 0, 1]]: g = 30,
    and the nilpotency index of M - I is 3 mod 2 and mod 5, 2 mod 3."""
    def inv(w):
        return tuple(-a for a in reversed(w))

    images = [(1,) * 31 + (2,), (1,) * 30 + (2,), (2, 3), (3, 3, 3, 4)]
    w1 = (1, -2)
    w2 = (2, -1) * 30 + (2,)
    w3 = inv(w2) + (3,)
    w4 = inv(w3) * 3 + (4,)
    return FreeEndo.from_letters(4, images, [w1, w2, w3, w4])


def test_verdicts_match_the_oracle_where_g_has_several_listed_primes():
    from resip.classify import _charpoly_gap

    primes = primes_up_to(200)
    b = IntMatrix.from_rows([[31, 30], [1, 1]])  # g = |2 - tr A| = 30
    flip = IntMatrix.from_rows([[0, 1], [1, 0]])
    block = IntMatrix.from_rows([[31, 30, 0], [1, 1, 7], [0, 0, 1]])
    for a in (b, flip * b * flip, block):
        assert _charpoly_gap(a)[2] == 30
        verdicts = [v.to_dict() for v in torus_verdicts(a, primes)]
        assert verdicts == torus_verdicts_per_prime(a, primes)
        assert [v["p"] for v in verdicts if v["outcome"] == RESIDUALLY_P] == [2, 3, 5]
    # the same H_1 action as a free-group monodromy: x1 -> x1^31 x2, x2 -> x1^30 x2
    spec = MappingTorusSpec(
        FreeEndo.from_letters(2, [(1,) * 31 + (2,), (1,) * 30 + (2,)], [(1, -2), (2, -1) * 30 + (2,)])
    )
    assert abelianization_matrix(spec.fiber) == b
    assert [v.to_dict() for v in fibered_verdicts(spec, primes)] == fibered_verdicts_per_prime(spec, primes)


def test_fibered_verdicts_match_the_oracle_where_the_index_differs_between_primes():
    spec = MappingTorusSpec(_gap_30_automorphism())
    primes = primes_up_to(200)
    verdicts = [v.to_dict() for v in fibered_verdicts(spec, primes)]
    assert verdicts == fibered_verdicts_per_prime(spec, primes)
    index = {v["p"]: v["certificate"]["nilpotency_index"] for v in verdicts if v["outcome"] == RESIDUALLY_P}
    assert index == {2: 3, 3: 2, 5: 3}


def test_undecided_is_exactly_a_qualifying_quotient_where_the_gap_is_prime_to_p():
    from resip.classify import _charpoly_gap

    rng = random.Random(1702)
    primes = primes_up_to(31)
    specs = [MappingTorusSpec(random_certified_automorphism(rng, rng.randint(2, 4))) for _ in range(150)]
    checked = 0
    for spec in specs + [s for s, _ in _fibered_task_specs()]:
        m = abelianization_matrix(spec.fiber)
        g = _charpoly_gap(m)[2]
        for v in fibered_verdicts(spec, primes):
            if g % v.p:
                exists = p_power_order_quotient_exists(ModMatrix.reduce(m, v.p), v.p).exists
                assert (v.outcome == UNDECIDED) == exists, (m.entries, v.p)
                checked += 1
    assert checked >= 1000


def test_fibered_verdicts_run_the_power_route_only_where_the_gap_is_divisible(monkeypatch):
    from resip import classify

    seen = []
    chain = classify._power_chain
    monkeypatch.setattr(classify, "_power_chain", lambda a, modulus: seen.append(modulus) or chain(a, modulus))
    primes = primes_up_to(50)
    fibered_verdicts(_alpha_spec(), primes)  # g = 1
    assert seen == []
    fibered_verdicts(MappingTorusSpec(FreeEndo.identity(3)), primes + primes)  # g = 0
    assert seen == [math.prod(primes)]


def test_fibered_verdicts_raise_when_the_power_route_disagrees(monkeypatch):
    from resip import classify
    from resip.errors import InternalInvariant

    # the powers deny a unipotence the gap gcd gives
    with monkeypatch.context() as m:
        m.setattr(classify, "_power_chain", lambda a, modulus: [1] * a.n)
        with pytest.raises(InternalInvariant, match="by charpoly and by powers"):
            fibered_verdicts(MappingTorusSpec(FreeEndo.identity(2)), [2, 3])
    # the gap gcd claims a unipotence the powers deny
    monkeypatch.setattr(classify, "charpoly_exact", lambda a: classify.poly_pow_x_minus_one(a.n))
    with pytest.raises(InternalInvariant, match="by charpoly and by powers"):
        fibered_verdicts(_alpha_spec(), [3])


def test_fibered_verdicts_reject_a_non_prime_before_any_matrix(monkeypatch):
    from resip import classify
    from resip.errors import InvalidSpec

    def refuse(*args):
        raise AssertionError("a matrix was built before the primes were checked")

    monkeypatch.setattr(classify, "_power_chain", refuse)
    monkeypatch.setattr(classify, "abelianization_matrix", refuse)
    with pytest.raises(InvalidSpec, match="4 is not prime"):
        fibered_verdicts(MappingTorusSpec(FreeEndo.identity(2)), [2, 4])
    with pytest.raises(InvalidSpec, match="rank-1 fibers are torus/BS territory"):
        fibered_verdicts(MappingTorusSpec(FreeEndo.identity(1)), [4])


def test_obstruction_rejects_a_prime_power_modulus():
    from resip.errors import InvalidSpec

    for rows in ([[1, 1], [0, 1]], [[1, 2], [0, 1]]):
        with pytest.raises(InvalidSpec, match="4 is not prime"):
            p_power_order_quotient_exists(ModMatrix.reduce(IntMatrix.from_rows(rows), 4), 4)
