"""Central extensions by explicit 2-cocycles: Heisenberg, circle bundles."""

import json
import random

import pytest

from resip.cli import main
from resip.errors import InvalidSpec
from resip.extension import (
    BilinearCocycle,
    CircleBundleSpec,
    ExtensionElement,
    circle_bundle_central_witness,
    circle_bundle_cocycle,
    ext_commutator,
    ext_identity,
    ext_inverse,
    ext_multiply,
    ext_power,
    heisenberg_checks,
    heisenberg_cocycle,
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


def test_bilinear_verdict_agrees_with_sampling():
    # the theorem makes every integer form a cocycle over Z and over every
    # Z/m; the sampled check must find no violation, with values over Z or
    # read mod m
    rng = random.Random(41)
    for i in range(120):
        r = rng.randint(1, 4)
        form = tuple(tuple(rng.randint(-9, 9) for _ in range(r)) for _ in range(r))
        modulus = rng.randint(2, 12) if i % 2 else None
        f = BilinearCocycle(form)
        assert cocycle_by_sampling(f, samples=50, seed=i, modulus=modulus) is None


@pytest.mark.parametrize("modulus", [0, 1, -3, True])
def test_coefficient_modulus_below_two_is_refused(modulus, tmp_path, capsys):
    # the task reader refuses it (exit 2), before any form is built: 0
    # would name Z, 1 kills every central coordinate, -3 gives residues
    # outside [0, 3), and True is a bool
    task = {"kind": "extension", "check": "cocycle", "form": [[0, 1], [0, 0]], "coeff_modulus": modulus}
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": [task]}))
    assert main(["run", "--tasks", str(path)]) == 2
    assert capsys.readouterr().err.startswith("schema error at $.tasks[0].coeff_modulus: ")


@pytest.mark.parametrize("form", [((0.1, 0.7), (0.3, 0.2)), ((0, 1.0), (0, 0)), ((0, "1"), (0, 0))])
def test_bilinear_form_entries_must_be_integers(form):
    # 0.1 and friends made the sampled check report a rounding error as a
    # violation; the theorem holds over Z, so such forms are refused
    with pytest.raises(InvalidSpec):
        BilinearCocycle(form)


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
    for _ in range(8):
        f = BilinearCocycle(_random_form(rng, 2))
        true = commutator_pairing(f)
        assert gamma2_by_grid(f, true)
        assert not gamma2_by_grid(f, _nudged(true, rng))
        # over Z nothing but the identity has finite order
        assert torsion_free_by_grid(f)


def test_heisenberg_pairing_is_the_determinant():
    assert commutator_pairing(heisenberg_cocycle()) == standard_pairing(1, 1) == ((0, 1), (-1, 0))
    assert gamma2_by_grid(heisenberg_cocycle(), standard_pairing(1, 1))


def _failed(report):
    return [name for name, passed in report.checks if not passed]


def test_a_wrong_expected_pairing_fails_the_extension_checks(monkeypatch):
    monkeypatch.setattr(extension, "standard_pairing", lambda g, e: standard_pairing(g, e + 1))
    assert _failed(heisenberg_checks()) == ["gamma2_central_with_det_pairing"]
    assert _failed(circle_bundle_central_witness(CircleBundleSpec(2, 3))) == ["class_two"]


def test_ext_power_matches_the_power_formula():
    # (a, u)^m = (m a + C(m, 2) B(u, u), m u), for every integer m, since
    # C(m, 2) = m (m - 1) / 2 also gives the powers of the inverse
    rng = random.Random(19)
    for _ in range(200):
        r = rng.randint(1, 4)
        f = BilinearCocycle(tuple(tuple(rng.randint(-5, 5) for _ in range(r)) for _ in range(r)))
        x = ExtensionElement(rng.randint(-9, 9), tuple(rng.randint(-4, 4) for _ in range(r)))
        for m in list(range(-12, 13)) + [rng.randint(-10**15, 10**15) for _ in range(3)]:
            central = m * x.central + m * (m - 1) // 2 * f(x.base, x.base)
            expected = ExtensionElement(central, tuple(m * c for c in x.base))
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
        form = tuple(
            tuple(rng.choice((0, 0, rng.randint(-10**20, 10**20))) for _ in range(r))
            for _ in range(r)
        )
        u = tuple(rng.choice((0, rng.randint(-9, 9))) for _ in range(r))
        v = tuple(rng.randint(-10**12, 10**12) for _ in range(r))
        total = sum(u[i] * form[i][j] * v[j] for i in range(r) for j in range(r))
        assert BilinearCocycle(form)(u, v) == total


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
