"""Central extensions by explicit 2-cocycles: Heisenberg, circle bundles."""

import inspect
import random

import pytest

from resip.errors import InvalidSpec
from resip.extension import (
    BilinearCocycle,
    CircleBundleSpec,
    CocycleCheck,
    ExtensionElement,
    TableCocycle,
    circle_bundle_central_witness,
    circle_bundle_cocycle,
    ext_commutator,
    ext_identity,
    ext_inverse,
    ext_multiply,
    ext_power,
    heisenberg_checks,
    heisenberg_cocycle,
    pullback_equality_check,
    verify_cocycle,
)
from oracles import (
    class_two_and_torsion_free_by_sampling,
    cocycle_by_sampling,
    gamma2_by_grid,
    torsion_free_by_grid,
)
from resip import extension
from resip.extension import commutator_pairing, standard_pairing


def test_heisenberg_full_report():
    report = heisenberg_checks()
    assert report.ok
    names = [name for name, _ in report.checks]
    assert "commutator_xy_is_z" in names
    assert "gamma2_central_with_det_pairing" in names
    assert "torsion_free" in names


def test_heisenberg_group_law():
    f = heisenberg_cocycle()
    x = ExtensionElement(0, (1, 0))
    y = ExtensionElement(0, (0, 1))
    ident = ext_identity(f)
    assert ext_multiply(x, ext_inverse(x, f), f) == ident
    # x and y do not commute; their commutator is the central generator
    assert ext_multiply(x, y, f) != ext_multiply(y, x, f)
    assert ext_commutator(x, y, f) == ExtensionElement(1, (0, 0))
    # powers move along the base, never into the center, for base elements
    assert ext_power(x, 5, f) == ExtensionElement(0, (5, 0))


def test_extension_associativity_needs_cocycle_identity():
    f = heisenberg_cocycle()
    elems = [
        ExtensionElement(a, (u, v))
        for a in (-1, 0, 2)
        for u in (-1, 0, 1)
        for v in (0, 1)
    ]
    for x in elems:
        for y in elems:
            for z in elems:
                lhs = ext_multiply(ext_multiply(x, y, f), z, f)
                rhs = ext_multiply(x, ext_multiply(y, z, f), f)
                assert lhs == rhs


def test_bilinear_cocycle_verifies():
    assert verify_cocycle(heisenberg_cocycle()).ok
    assert verify_cocycle(circle_bundle_cocycle(CircleBundleSpec(2, -3))).ok


def test_bilinear_verdict_agrees_with_sampling():
    # the theorem decides a bilinear form; the sampled check it replaced
    # must agree on every integer form, with and without a modulus
    rng = random.Random(41)
    for i in range(120):
        r = rng.randint(1, 4)
        form = tuple(tuple(rng.randint(-9, 9) for _ in range(r)) for _ in range(r))
        f = BilinearCocycle(form, rng.randint(2, 12) if i % 2 else None)
        assert verify_cocycle(f) == cocycle_by_sampling(f, samples=50, seed=i) == CocycleCheck(True)


def test_bilinear_cocycle_has_no_sampling_knobs():
    assert list(inspect.signature(verify_cocycle).parameters) == ["f"]


@pytest.mark.parametrize("form", [((0.1, 0.7), (0.3, 0.2)), ((0, 1.0), (0, 0)), ((0, "1"), (0, 0))])
def test_bilinear_form_entries_must_be_integers(form):
    # 0.1 and friends made the sampled check report a rounding error as a
    # violation; the theorem holds over Z, so such forms are refused
    with pytest.raises(InvalidSpec):
        BilinearCocycle(form)


def test_table_cocycle_with_negative_control():
    # carry cocycle for Z/9 as an extension of Z/3 by Z/3
    elements = (0, 1, 2)
    table = {
        (g, h): (g + h) // 3 for g in elements for h in elements
    }
    add = {(g, h): (g + h) % 3 for g in elements for h in elements}
    neg = {g: (-g) % 3 for g in elements}
    carry = TableCocycle(
        elements=elements, add=add, neg=neg, zero=0, table=table, coeff_modulus=3
    )
    assert verify_cocycle(carry).ok

    bad_table = dict(table)
    bad_table[(2, 2)] = (bad_table[(2, 2)] + 1) % 3
    corrupted = TableCocycle(
        elements=elements, add=add, neg=neg, zero=0, table=bad_table, coeff_modulus=3
    )
    res = verify_cocycle(corrupted)
    assert not res.ok
    assert res.violation is not None


def test_circle_bundle_witness_grid():
    for g in (1, 2, 3):
        for e in (1, 2, 3):
            report = circle_bundle_central_witness(CircleBundleSpec(g, e))
            assert report.ok, (g, e, report.checks)
    # negative Euler numbers work the same way
    assert circle_bundle_central_witness(CircleBundleSpec(1, -2)).ok


def test_circle_bundle_spec_validation():
    with pytest.raises(InvalidSpec):
        CircleBundleSpec(0, 1)
    with pytest.raises(InvalidSpec):
        CircleBundleSpec(1, 0)


def test_heisenberg_as_genus_one_euler_one():
    # genus 1, e = 1 is exactly the Heisenberg cocycle
    k = circle_bundle_cocycle(CircleBundleSpec(1, 1))
    assert k.form == ((0, 1), (0, 0))


def test_pullback_equality_bilinear():
    heis = heisenberg_cocycle()
    scaled = circle_bundle_cocycle(CircleBundleSpec(1, 4))
    # phi = 2*I pulls the Heisenberg form back to 4x the form
    assert pullback_equality_check(scaled, heis, [[2, 0], [0, 2]])
    assert not pullback_equality_check(heis, heis, [[2, 0], [0, 2]])
    with pytest.raises(InvalidSpec, match="matrix shape does not match the two bases"):
        pullback_equality_check(heis, scaled, [[1, 0, 0], [0, 1, 0]])


def test_pullback_table_homomorphism_gate():
    elements = (0, 1)
    flat = {
        (g, h): 0 for g in elements for h in elements
    }
    add = {(g, h): (g + h) % 2 for g in elements for h in elements}
    neg = {g: (-g) % 2 for g in elements}
    f = TableCocycle(
        elements=elements, add=add, neg=neg, zero=0, table=flat, coeff_modulus=2
    )
    assert pullback_equality_check(f, f, {0: 0, 1: 1})
    with pytest.raises(InvalidSpec, match="phi breaks addition"):
        pullback_equality_check(f, f, {0: 1, 1: 0})


def test_mixed_cocycle_kinds_rejected():
    elements = (0, 1)
    flat = {(g, h): 0 for g in elements for h in elements}
    add = {(g, h): (g + h) % 2 for g in elements for h in elements}
    neg = {g: (-g) % 2 for g in elements}
    table = TableCocycle(
        elements=elements, add=add, neg=neg, zero=0, table=flat, coeff_modulus=2
    )
    with pytest.raises(InvalidSpec):
        pullback_equality_check(heisenberg_cocycle(), table, [[1]])


def test_bilinear_with_modulus():
    f = BilinearCocycle(((0, 2), (0, 0)), coeff_modulus=4)
    assert verify_cocycle(f).ok
    x = ExtensionElement(0, (1, 0))
    y = ExtensionElement(0, (0, 1))
    # central coordinate lives in Z/4
    assert ext_commutator(x, y, f).central == 2
    assert ext_power(ext_commutator(x, y, f), 2, f) == ext_identity(f)


def _random_form(rng, r):
    return tuple(tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(r))


def _nudged(pairing, rng):
    """The pairing with one entry moved by +-1."""
    rows = [list(row) for row in pairing]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows[i][j] += rng.choice((-1, 1))
    return tuple(tuple(row) for row in rows)


def test_commutator_pairing_agrees_with_sampling():
    # [u, v] = (u^T (F - F^T) v, 0) and torsion-freeness over Z, against
    # the sampled checks they replaced, for the true pairing and a wrong one
    rng = random.Random(43)
    for i in range(120):
        f = BilinearCocycle(_random_form(rng, rng.randint(1, 4)))
        true = commutator_pairing(f)
        pairing = _nudged(true, rng) if i % 2 else true
        class_two, torsion_free = class_two_and_torsion_free_by_sampling(f, pairing)
        assert class_two == (pairing == true) and torsion_free


def test_rank_two_grids_agree_with_the_exact_checks():
    rng = random.Random(47)
    for i in range(8):
        modulus = rng.randint(2, 12) if i % 2 else None
        f = BilinearCocycle(_random_form(rng, 2), modulus)
        if modulus is None:
            true = commutator_pairing(f)
            assert gamma2_by_grid(f, true)
            assert not gamma2_by_grid(f, _nudged(true, rng))
        # (1, 0) has order m over Z/m; over Z nothing has finite order
        assert torsion_free_by_grid(f) == (modulus is None)


def test_heisenberg_pairing_is_the_determinant():
    assert commutator_pairing(heisenberg_cocycle()) == standard_pairing(1, 1) == ((0, 1), (-1, 0))
    assert gamma2_by_grid(heisenberg_cocycle(), standard_pairing(1, 1))


def _failed(report):
    return [name for name, passed in report.checks if not passed]


def test_a_wrong_expected_pairing_fails_the_extension_checks(monkeypatch):
    monkeypatch.setattr(extension, "standard_pairing", lambda g, e: standard_pairing(g, e + 1))
    assert _failed(heisenberg_checks()) == ["gamma2_central_with_det_pairing"]
    assert _failed(circle_bundle_central_witness(CircleBundleSpec(2, 3))) == ["class_two"]


def test_a_form_with_a_coefficient_modulus_fails_the_extension_checks(monkeypatch):
    monkeypatch.setattr(
        extension, "heisenberg_cocycle", lambda: BilinearCocycle(((0, 1), (0, 0)), coeff_modulus=5)
    )
    assert _failed(heisenberg_checks()) == ["gamma2_central_with_det_pairing", "torsion_free"]
    circle = extension.circle_bundle_cocycle
    monkeypatch.setattr(
        extension, "circle_bundle_cocycle", lambda spec: BilinearCocycle(circle(spec).form, coeff_modulus=7)
    )
    assert _failed(circle_bundle_central_witness(CircleBundleSpec(1, 2))) == [
        "z_image_infinite_order",
        "class_two",
        "torsion_free",
    ]


def test_ext_power_matches_the_power_formula():
    # (a, u)^m = (m a + C(m, 2) B(u, u), m u), for every integer m, since
    # C(m, 2) = m (m - 1) / 2 also gives the powers of the inverse
    rng = random.Random(19)
    for _ in range(200):
        r = rng.randint(1, 4)
        modulus = rng.choice((None, rng.randint(2, 30)))
        f = BilinearCocycle(
            tuple(tuple(rng.randint(-5, 5) for _ in range(r)) for _ in range(r)), modulus
        )
        x = ExtensionElement(rng.randint(-9, 9), tuple(rng.randint(-4, 4) for _ in range(r)))
        for m in list(range(-12, 13)) + [rng.randint(-10**15, 10**15) for _ in range(3)]:
            central = m * x.central + m * (m - 1) // 2 * f(x.base, x.base)
            expected = ExtensionElement(
                central % modulus if modulus else central, tuple(m * c for c in x.base)
            )
            assert ext_power(x, m, f) == expected


def test_circle_bundle_at_euler_ten_to_the_twelve_takes_few_products(monkeypatch):
    calls = []
    genuine = extension.ext_multiply

    def counted(*args):
        calls.append(1)
        return genuine(*args)

    monkeypatch.setattr(extension, "ext_multiply", counted)
    for e in (10**12, -10**12):
        del calls[:]
        assert circle_bundle_central_witness(CircleBundleSpec(2, e)).ok
        assert len(calls) < 200


def test_form_value_is_the_dense_double_sum():
    # the form is evaluated by the nonzero coordinates of u, one row
    # against v at a time; the integer is the full sum of u_i F_ij v_j
    rng = random.Random(43)
    for _ in range(300):
        r = rng.randint(1, 6)
        modulus = rng.choice((None, rng.randint(2, 30)))
        form = tuple(
            tuple(rng.choice((0, 0, rng.randint(-10**20, 10**20))) for _ in range(r))
            for _ in range(r)
        )
        u = tuple(rng.choice((0, rng.randint(-9, 9))) for _ in range(r))
        v = tuple(rng.randint(-10**12, 10**12) for _ in range(r))
        total = sum(u[i] * form[i][j] * v[j] for i in range(r) for j in range(r))
        assert BilinearCocycle(form, modulus)(u, v) == (total % modulus if modulus else total)


def test_circle_bundle_form_is_evaluated_by_its_nonzero_coordinates(monkeypatch):
    # each product reads the rows of the nonzero coordinates of u only, so
    # the witness takes far fewer entry products than (2g)^2 per value
    g = 40
    values, products = [], []
    genuine_call = BilinearCocycle.__call__

    def counted_call(self, u, v):
        values.append(1)
        return genuine_call(self, u, v)

    def counted_mul(a, b):
        products.append(1)
        return a * b

    monkeypatch.setattr(BilinearCocycle, "__call__", counted_call)
    monkeypatch.setattr(extension, "mul", counted_mul)
    assert circle_bundle_central_witness(CircleBundleSpec(g, 3)).ok
    assert values and len(products) < len(values) * (2 * g) ** 2 // 10
