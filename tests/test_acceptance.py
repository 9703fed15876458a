"""Release checklist.

Each test function is one checklist item, so `pytest -v` prints exactly one
pass/fail line per item. Items 1-8 pin published fixture values, items 9-13
are zero-tolerance property sweeps, item 14 exercises the CLI contract end
to end on the task files shipped under tasks/.
"""

import itertools
import json
import pathlib
import random

import sympy

from oracles import (
    braid_power,
    commutator,
    compose_endos,
    endo_power,
    identity_endo,
    inner_automorphism,
    lie_layer_basis,
    nielsen_transvection,
    witt_dimension,
    word_product,
)
from resip.braid import (
    artin_endo,
    beta_braid,
    braid_permutation,
    cover_from_finite_quotient,
    induced_cover_homology,
    is_cyclotomic_product,
    permutation_order,
)
from resip.caps import Caps
from resip.cli import emit_report, main, parse_task_file, run_tasks
from resip.classify import (
    BSSpec,
    NOT_RESIDUALLY_P,
    RESIDUALLY_P,
    bs_classify,
    fibered_verdicts,
    residually_p_prime_set,
    sl2_power_divisibility,
    torus_residually_nilpotent,
    torus_residually_p,
)
from resip.extension import (
    CircleBundleSpec,
    circle_bundle_central_witness,
    heisenberg_checks,
)
from resip.freegrp import (
    FreeEndo,
    MappingTorusElement,
    MappingTorusSpec,
    abelianization_matrix,
    is_mod_p_torelli,
    parse_word,
)
from resip.intlin import (
    IntMatrix,
    charpoly_exact,
    det_exact,
    is_unipotent_mod,
    lattice_chain_invariants,
    p_power_exponent,
    poly_divmod,
    primes_up_to,
)
from resip.magnus import magnus_embed
from resip.pgrouplab import check_cyclic_abelianization, frattini_data, ut3_group
from resip.witness import combine_witnesses, find_p_quotient_witness, verify_witness

TASK_DIR = pathlib.Path(__file__).resolve().parent.parent / "tasks"

A_SOL = IntMatrix.from_rows([[2, 1], [1, 1]])
SL2_S = IntMatrix.from_rows([[0, -1], [1, 0]])
SL2_T = IntMatrix.from_rows([[1, 1], [0, 1]])

BETA_ENDO = artin_endo(beta_braid())

ALPHA_ENDO = FreeEndo(
    2,
    (parse_word("x1 x1 x2", 2), parse_word("x1 x2", 2)),
    (parse_word("x1 X2", 2), parse_word("x2 X1 x2", 2)),
)


def _random_sl2(rng, max_len=20):
    m = IntMatrix.identity(2)
    for _ in range(rng.randint(1, max_len)):
        m = m * (SL2_S if rng.random() < 0.5 else SL2_T)
    return m


def _random_word(rng, rank, max_len=8):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        g = rng.randint(1, rank)
        letters.append(g if rng.random() < 0.5 else -g)
    return parse_word(
        " ".join(("x" if g > 0 else "X") + str(abs(g)) for g in letters) or "1",
        rank,
    )


def test_c01_sol_torus_bundle_fails_every_prime():
    for p in primes_up_to(100):
        assert torus_residually_p(A_SOL, p).outcome == NOT_RESIDUALLY_P
    assert torus_residually_nilpotent(A_SOL) is False


def test_c02_cubed_sol_monodromy_prime_set_is_two():
    ps = residually_p_prime_set(IntMatrix.from_rows([[13, 8], [8, 5]]))
    assert not ps.all_primes
    assert ps.primes == (2,)


def test_c03_determinant_test_matches_unipotence_on_500_matrices():
    rng = random.Random(5020)
    primes = primes_up_to(50)
    for _ in range(500):
        a = _random_sl2(rng)
        d = det_exact(a.minus_identity())
        for p in primes:
            assert (d % p == 0) == (is_unipotent_mod(a, p) is not None)


def test_c04_bs_sweep_matches_prime_divisors_of_q_minus_one():
    for q in range(1, 51):
        report = bs_classify(BSSpec(q))
        if q == 1:
            assert report.residually_p_primes.all_primes
        else:
            expected = tuple(sorted(sympy.factorint(q - 1)))
            assert report.residually_p_primes.primes == expected
        assert report.omega_nilpotent == (q != 2)
        # the ascending HNN extension of Z by multiplication-by-q is the
        # 1x1 case of the semidirect-product criterion
        chain_meets_in_zero = lattice_chain_invariants(IntMatrix.from_rows([[q]]).minus_identity())
        assert report.omega_nilpotent == chain_meets_in_zero


def test_c05_power_determinant_divisibility_within_group_order():
    assert sl2_power_divisibility(A_SOL, 2) == 3
    assert sl2_power_divisibility(A_SOL, 5) == 2
    rng = random.Random(5050)
    for _ in range(20):
        a = _random_sl2(rng)
        for p in (2, 3, 5, 7):
            k = sl2_power_divisibility(a, p)
            assert 1 <= k <= p * (p * p - 1)
            assert det_exact((a ** k).minus_identity()) % p == 0


def test_c06_beta_fibered_verdicts_exactly_at_three():
    perm, pure = braid_permutation(beta_braid())
    assert not pure
    assert permutation_order(perm) == 3
    beta = beta_braid()
    _, pure3 = braid_permutation(braid_power(beta, 3))
    assert pure3
    spec = MappingTorusSpec(BETA_ENDO)
    assert fibered_verdicts(spec, [3])[0].outcome == RESIDUALLY_P
    for p in (2, 5, 7, 11, 13):
        assert fibered_verdicts(spec, [p])[0].outcome == NOT_RESIDUALLY_P


def test_c07_double_cover_homology_and_cyclotomic_residual():
    cover = cover_from_finite_quotient(3, (1, 1, 1), 2)
    assert cover.subgroup_rank == 5
    m = induced_cover_homology(BETA_ENDO, cover)
    quot, rem = poly_divmod(charpoly_exact(m), (1, -3, 1))
    assert all(c == 0 for c in rem)
    assert is_cyclotomic_product(quot)
    m3 = induced_cover_homology(endo_power(BETA_ENDO, 3), cover)
    assert m ** 3 == m3
    _, rem3 = poly_divmod(charpoly_exact(m3), (1, -18, 1))
    assert all(c == 0 for c in rem3)


def test_c08_alpha_fails_via_invariant_quotient_obstruction():
    from resip.freegrp import abelianization_matrix

    assert abelianization_matrix(ALPHA_ENDO).entries == ((2, 1), (1, 1))
    spec = MappingTorusSpec(ALPHA_ENDO)
    for p in (2, 3, 5, 7):
        v = fibered_verdicts(spec, [p])[0]
        assert v.outcome == NOT_RESIDUALLY_P
        assert v.obstruction["criterion"] == "no_p_power_invariant_quotient"
        assert v.obstruction["examined_subspaces"] >= 1


def test_c09_series_engine_multiplicativity_witt_and_propagation():
    rng = random.Random(5090)
    for _ in range(200):
        d = rng.randint(1, 5)
        mod = rng.choice((2, 3, 5, 2 ** 61 - 1))
        u = _random_word(rng, 3)
        v = _random_word(rng, 3)
        lhs = magnus_embed(word_product(u, v), d, mod)
        assert lhs == magnus_embed(u, d, mod) * magnus_embed(v, d, mod)
    for n in range(1, 5):
        for i in range(1, 5):
            assert witt_dimension(n, i) == len(lie_layer_basis(n, i))
    upper = nielsen_transvection(2, 1, 2)
    lower_inverse = endo_power(upper, -1)
    rng = random.Random(5091)
    for trial in range(50):
        endo = identity_endo(2)
        for _ in range(rng.randint(1, 4)):
            pick = rng.random()
            if pick < 0.4:
                endo = compose_endos(endo, upper)
            elif pick < 0.6:
                endo = compose_endos(endo, lower_inverse)
            else:
                endo = compose_endos(endo, inner_automorphism(_random_word(rng, 2, 4)))
        p = (2, 3, 5)[trial % 3]
        # unipotent on every layer, by the theorem of the magnus module docstring
        assert is_unipotent_mod(abelianization_matrix(endo), p)


def test_c10_witness_certificates_reverify_and_combine():
    beta_spec = MappingTorusSpec(BETA_ENDO)
    beta_elements = [
        MappingTorusElement(0, parse_word("x1 X2", 3)),
        MappingTorusElement(0, parse_word("x2 X3", 3)),
        MappingTorusElement(0, commutator(parse_word("x1", 3), parse_word("x2", 3))),
        MappingTorusElement(1, parse_word("1", 3)),
        MappingTorusElement(4, parse_word("1", 3)),
    ]
    beta_certs = []
    for el in beta_elements:
        out = find_p_quotient_witness(beta_spec, el, 3)
        assert out.status == "certificate"
        assert verify_witness(out.certificate).ok
        beta_certs.append(out.certificate)

    ident = MappingTorusSpec(identity_endo(2))
    x1, x2 = parse_word("x1", 2), parse_word("x2", 2)
    ident_certs = []
    for p in (2, 3):
        for w in (x1, commutator(x1, x2), commutator(x1, commutator(x1, x2))):
            out = find_p_quotient_witness(ident, MappingTorusElement(0, w), p)
            assert out.status == "certificate"
            assert verify_witness(out.certificate).ok
            ident_certs.append(out.certificate)

    combined = combine_witnesses(beta_certs)
    assert verify_witness(combined).ok
    bound = 1
    for cert in beta_certs:
        bound *= cert.data.get("total_order_bound", cert.data.get("quotient_order"))
    assert combined.data["total_order_bound"] == bound
    assert combined.data["count"] == len(beta_certs)


def test_c11_unitriangular_groups_frattini_and_subgroup_lemmas():
    for p in (2, 3, 5):
        group = ut3_group(p)
        assert group.order == p ** 3
        data = frattini_data(group)
        assert data["rank"] == 2
        assert data["frattini_order"] == p
        assert data["elementary_abelian_quotient"]
    assert check_cyclic_abelianization(ut3_group(2))
    assert check_cyclic_abelianization(ut3_group(3))
    group = ut3_group(3)
    normals = [h for h in group.all_subgroups() if group.is_normal(h)]
    for k1, k2 in itertools.combinations(normals, 2):  # the tower lemma
        assert p_power_exponent(group.order // len(k1 & k2), 3) is not None


def test_c12_central_extensions_heisenberg_and_circle_bundles():
    report = heisenberg_checks()
    assert report.ok, report.to_dict()
    for g in (1, 2, 3):
        for e in (1, 2, 3):
            assert circle_bundle_central_witness(CircleBundleSpec(g, e)).ok


def test_c13_verdict_stable_under_mod_three_torelli_twists():
    baseline = fibered_verdicts(MappingTorusSpec(BETA_ENDO), [3])[0].outcome
    assert baseline == RESIDUALLY_P
    cubes = [
        endo_power(nielsen_transvection(3, i, j), 3)
        for i in range(1, 4)
        for j in range(1, 4)
        if i != j
    ]
    rng = random.Random(5130)
    for _ in range(20):
        tau = identity_endo(3)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                tau = compose_endos(tau, rng.choice(cubes))
            else:
                tau = compose_endos(tau, inner_automorphism(_random_word(rng, 3, 4)))
        assert is_mod_p_torelli(tau, 3)
        twisted = MappingTorusSpec(compose_endos(BETA_ENDO, tau))
        assert fibered_verdicts(twisted, [3])[0].outcome == baseline


def test_c14_cli_contract_on_shipped_task_files(tmp_path, capsys):
    results = {}
    for path in sorted(TASK_DIR.glob("*.json")):
        taskfile = parse_task_file(path.read_text())
        entries = run_tasks(taskfile)
        assert emit_report(entries, "json") == emit_report(run_tasks(taskfile), "json")
        for entry in entries:
            assert entry.status == "ok", (path.name, entry.id, entry.error)
            results[entry.id] = entry.result

    sol = results["sol-anosov"]
    assert all(v["outcome"] == "NotResiduallyP" for v in sol["verdicts"])
    assert sol["residually_nilpotent"] is False
    assert results["sol-anosov-cubed-primes"]["prime_set"]["primes"] == [2]
    assert all(
        v["outcome"] == "ResiduallyP" for v in results["unipotent-shear"]["verdicts"]
    )
    assert results["power-divisibility-p2"]["k"] == 3
    assert results["power-divisibility-p5"]["k"] == 2

    for q in range(1, 51):
        rp = results[f"bs-{q}"]["residually_p_primes"]
        if q == 1:
            assert rp["all_primes"]
        else:
            assert rp["primes"] == sorted(sympy.factorint(q - 1))
        assert results[f"bs-{q}"]["omega_nilpotent"] == (q != 2)

    beta = {v["p"]: v["outcome"] for v in results["beta-verdicts"]["verdicts"]}
    assert beta == {
        2: "NotResiduallyP",
        3: "ResiduallyP",
        5: "NotResiduallyP",
        7: "NotResiduallyP",
        11: "NotResiduallyP",
        13: "NotResiduallyP",
    }
    cover = results["beta-double-cover"]
    assert cover["cover_rank"] == 5
    assert cover["divisors"][0]["divides"]
    assert cover["divisors"][0]["quotient_cyclotomic_product"]
    cubed = results["beta-cubed-double-cover"]
    assert cubed["divisors"][0]["divides"]
    m = IntMatrix.from_rows(cover["matrix"])
    assert (m ** 3).rows() == cubed["matrix"]
    assert all(
        v["outcome"] == "NotResiduallyP" for v in results["alpha-verdicts"]["verdicts"]
    )
    wit = results["beta-witness-p3"]
    assert wit["status"] == "certificate"
    assert wit["verification"]["ok"]

    assert main(["run", "--tasks", str(TASK_DIR / "beta-braid.json")]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "tasks": [{"kind": "mystery"}]}))
    assert main(["run", "--tasks", str(bad)]) == 2
    assert "schema error" in capsys.readouterr().err
    assert (
        main(
            [
                "run",
                "--tasks",
                str(TASK_DIR / "beta-braid.json"),
                "--caps",
                "max_rank=2",
            ]
        )
        == 3
    )
    capsys.readouterr()
