"""Concrete finite p-groups: closure, Frattini data, subgroup lemmas."""

import collections
import itertools
import random
import time

import pytest

from resip import pgrouplab
from resip.caps import Caps
from resip.errors import CapExceeded, InvalidSpec
from resip.intlin import p_power_exponent
from resip.pgrouplab import (
    FinitePGroup,
    check_cyclic_abelianization,
    cyclic_group_p2,
    elementary_abelian_p2,
    frattini_data,
    generate_group,
    inner_automorphism_orders,
    minimal_generating_size,
    ut3_group,
)

from oracles import subgroup_lattice_by_joins


def test_ut3_orders():
    for p in (2, 3, 5):
        assert ut3_group(p).order == p ** 3


def test_ut3_is_nonabelian_class_two():
    g = ut3_group(3)
    assert len(g.center()) == 3
    assert len(g.derived_subgroup()) == 3
    assert g.derived_subgroup() == g.center()


def test_cyclic_and_elementary_abelian_shapes():
    for p in (2, 3):
        cyc = cyclic_group_p2(p)
        assert cyc.order == p * p
        assert max(cyc.element_order(g) for g in cyc.elements) == p * p

        ea = elementary_abelian_p2(p)
        assert ea.order == p * p
        assert all(ea.element_order(g) in (1, p) for g in ea.elements)


def test_generate_group_rejects_non_p_power_order():
    # the full symmetric group on 3 points has order 6
    perm1 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    perm2 = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    with pytest.raises(InvalidSpec, match="order 6 is not a power of 5"):
        generate_group([perm1, perm2], 5)


def test_generate_group_rejects_singular_generator():
    with pytest.raises(InvalidSpec):
        generate_group([((0, 0), (0, 0))], 3)


def test_direct_construction_rejects_singular_generator():
    # the zero matrix mod 2 closes to a monoid of order 2, whose inverses
    # were once searched for without end
    with pytest.raises(InvalidSpec):
        FinitePGroup(2, [((0, 0), (0, 0))], Caps(group_order=100))


def test_generators_of_different_dimensions_are_rejected(monkeypatch):
    def refuse(*args):
        raise AssertionError("a row product was formed")

    monkeypatch.setattr(pgrouplab, "_row_times", refuse)
    identity3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(InvalidSpec, match="dimensions 2 and 3"):
        generate_group([((1, 1), (0, 1)), identity3], 2)
    with pytest.raises(InvalidSpec, match="dimensions 3 and 2"):
        FinitePGroup(2, [identity3, ((1, 1), (0, 1))])


def test_group_order_cap():
    with pytest.raises(CapExceeded):
        ut3_group(5, Caps(group_order=100))


def test_each_lattice_cap_is_read_from_the_group_caps():
    count = len(ut3_group(3).all_subgroups())
    assert len(ut3_group(3, Caps(subgroup_count=count)).all_subgroups()) == count
    group = ut3_group(3, Caps(subgroup_count=count - 1))
    for call in (group.all_subgroups, group.maximal_subgroups,
                 lambda: check_cyclic_abelianization(group)):
        with pytest.raises(CapExceeded, match=f"subgroup_count: cap {count - 1} exceeded"):
            call()
    # minimal_generating_size reads no cap and searches no subsets:
    # (Z/2)^5, as I + E_1j for j = 2..6, has rank 5
    assert minimal_generating_size(generate_group(_e1j_generators(6), 2)) == 5


def test_frattini_fixture():
    for p in (2, 3, 5):
        data = frattini_data(ut3_group(p))
        assert data["frattini_order"] == p
        assert data["rank"] == 2
        assert data["elementary_abelian_quotient"]


def test_frattini_of_cyclic_and_elementary_abelian():
    assert frattini_data(cyclic_group_p2(3)) == {
        "frattini_order": 3,
        "rank": 1,
        "elementary_abelian_quotient": True,
    }
    assert frattini_data(elementary_abelian_p2(3)) == {
        "frattini_order": 1,
        "rank": 2,
        "elementary_abelian_quotient": True,
    }


def test_subgroup_lattice_counts():
    # UT(3,2) is dihedral of order 8: 10 subgroups in total
    assert len(ut3_group(2).all_subgroups()) == 10
    # C_9 has subgroup chain 1 < C_3 < C_9
    assert len(cyclic_group_p2(3).all_subgroups()) == 3


def test_maximal_subgroups_have_index_p():
    for group in (ut3_group(2), ut3_group(3), cyclic_group_p2(5)):
        for m in group.maximal_subgroups():
            assert group.order // len(m) == group.p
            assert group.is_normal(m)


def test_cyclic_abelianization_lemma_exhaustive():
    assert check_cyclic_abelianization(ut3_group(2))
    assert check_cyclic_abelianization(ut3_group(3))
    assert check_cyclic_abelianization(cyclic_group_p2(2))
    assert check_cyclic_abelianization(elementary_abelian_p2(3))


def test_tower_lemma_on_all_normal_pairs():
    # K1 n K2 has p-power index for normal K1, K2: automatic in a p-group
    group = ut3_group(3)
    normals = [h for h in group.all_subgroups() if group.is_normal(h)]
    for k1, k2 in itertools.combinations(normals, 2):
        assert p_power_exponent(group.order // len(k1 & k2), 3) is not None


def test_inner_automorphism_orders():
    group = ut3_group(3)
    orders = inner_automorphism_orders(group)
    assert set(orders) == {1, 3}
    assert orders.count(1) == len(group.center())


def test_minimal_generating_sizes():
    assert minimal_generating_size(ut3_group(2)) == 2
    assert minimal_generating_size(ut3_group(3)) == 2
    assert minimal_generating_size(cyclic_group_p2(3)) == 1
    assert minimal_generating_size(elementary_abelian_p2(2)) == 2


def test_minimal_generating_size_matches_frattini_rank():
    # Burnside basis theorem, instance-checked
    for group in (ut3_group(2), ut3_group(3), cyclic_group_p2(2),
                  cyclic_group_p2(3), elementary_abelian_p2(2)):
        assert minimal_generating_size(group) == frattini_data(group)["rank"]


def test_element_order_and_inverse():
    group = ut3_group(3)
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(group.dim))
        for i in range(group.dim)
    )
    for g in group.elements:
        assert group.mul(g, group.inv(g)) == ident
        o = group.element_order(g)
        assert o in (1, 3, 9)
        power = ident
        for _ in range(o):
            power = group.mul(power, g)
        assert power == ident


# ---------------------------------------------------------------------------
# oracle: the matrix-level closure, lattice, commutators and Frattini checks
# the lab once ran, one matrix product per group operation


def _mmul(a, b, mod):
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % mod for col in cols)
        for row in a
    )


class MatrixOracle:
    def __init__(self, generators, modulus, p):
        self.modulus, self.p = modulus, p
        self.generators = tuple(generators)
        dim = len(generators[0])
        self.ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        self.elements = self._bfs(self.generators)
        self._inverses = {}
        self._subgroups = None

    def mul(self, a, b):
        return _mmul(a, b, self.modulus)

    def _bfs(self, gens):
        seen = {self.ident: None}
        queue = collections.deque([self.ident])
        while queue:
            g = queue.popleft()
            for s in gens:
                h = self.mul(g, s)
                if h not in seen:
                    seen[h] = None
                    queue.append(h)
        return tuple(seen)

    def closure(self, gens):
        return frozenset(self._bfs(tuple(gens)))

    def power(self, g, k):
        out = self.ident
        for _ in range(k):
            out = self.mul(out, g)
        return out

    def element_order(self, g):
        power, order = g, 1
        while power != self.ident:
            power, order = self.mul(power, g), order + 1
        return order

    def inv(self, g):
        if g not in self._inverses:
            self._inverses[g] = self.power(g, self.element_order(g) - 1)
        return self._inverses[g]

    def commutator(self, a, b):
        return self.mul(self.mul(a, b), self.mul(self.inv(a), self.inv(b)))

    def center(self):
        return frozenset(
            z for z in self.elements
            if all(self.mul(z, s) == self.mul(s, z) for s in self.generators)
        )

    def derived(self, h):
        return self.closure({self.commutator(a, b) for a in h for b in h})

    def subgroups(self):
        if self._subgroups is not None:
            return self._subgroups
        found = {frozenset({self.ident}): ()}
        queue = collections.deque(found)
        while queue:
            h = queue.popleft()
            for g in self.elements:
                if g not in h:
                    k = self.closure(found[h] + (g,))
                    if k not in found:
                        found[k] = found[h] + (g,)
                        queue.append(k)
        self._subgroups = tuple(sorted(found, key=lambda s: (len(s), sorted(s))))
        return self._subgroups

    def is_normal(self, h):
        return all(
            self.mul(self.mul(s, k), self.inv(s)) in h
            for s in self.generators for k in h
        )

    def frattini(self):
        maximals = [h for h in self.subgroups() if len(h) * self.p == len(self.elements)]
        phi = frozenset.intersection(*maximals) if maximals else frozenset(self.elements)
        powers = {self.power(g, self.p) for g in self.elements}
        assert phi == self.closure(powers | self.derived(self.elements))
        quotient, rank = len(self.elements) // len(phi), 0
        while quotient > 1:
            quotient, rank = quotient // self.p, rank + 1
        elementary = powers <= phi and all(
            self.commutator(a, b) in phi for a in self.elements for b in self.elements
        )
        return {"frattini_order": len(phi), "rank": rank,
                "elementary_abelian_quotient": elementary}

    def inner_orders(self):
        center = self.center()
        out = []
        for g in self.elements:
            m = 1
            while self.power(g, m) not in center:
                m += 1
            out.append(m)
        return out

    def minimal_generating_size(self):
        candidates = self.elements[1:]
        for size in range(0, 5):
            for subset in itertools.combinations(candidates, size):
                if len(self.closure(subset)) == len(self.elements):
                    return size

    def cyclic_abelianization_holds(self):
        for h in self.subgroups():
            d = self.derived(h)
            index = len(h) // len(d)
            quotient_cyclic = index == 1 or any(
                next(m for m in itertools.count(1) if self.power(g, m) in d) == index
                for g in h
            )
            if quotient_cyclic and not any(self.element_order(g) == len(h) for g in h):
                return False
        return True


def _unitriangular(a, b, c):
    return ((1, a, c), (0, 1, b), (0, 0, 1))


def _ut_generators(n):
    """I + E_{i,i+1} for i < n: the standard generators of UT(n, p)."""
    return [
        tuple(tuple(int(r == c or (r, c) == (i, i + 1)) for c in range(n)) for r in range(n))
        for i in range(n - 1)
    ]


def _e1j_generators(n):
    """I + E_1j for 1 < j <= n: commuting generators of (Z/p)^(n-1)."""
    return [
        tuple(tuple(int(r == c or (r, c) == (0, j)) for c in range(n)) for r in range(n))
        for j in range(1, n)
    ]


def _oracle_groups():
    """(name, generators, modulus, p): the standard generating sets, for
    each seed a random one of each kind, and for seed 0 a redundant one
    that repeats a generator and includes the identity."""
    specs = []
    for p in (2, 3):
        specs.append((f"ut3-{p}", [_unitriangular(1, 0, 0), _unitriangular(0, 1, 0)], p, p))
    for p in (2, 3, 5):
        specs.append((f"ea-{p}", [_unitriangular(1, 0, 0), _unitriangular(0, 0, 1)], p, p))
        specs.append((f"cyc-{p}", [((1, 1), (0, 1))], p * p, p))
    # non-abelian over Z/p^2 in dimension 3: I + E12 of order p^2 with
    # diag(1, 1 + p, 1), which conjugates it to its (1 + p)^-1-th power
    # (order p^3), and with I + pE23 over Z/4 (order 16)
    for p in (2, 3):
        specs.append((f"zp2-{p}", [_unitriangular(1, 0, 0), ((1, 0, 0), (0, 1 + p, 0), (0, 0, 1))],
                      p * p, p))
    specs.append(("zp2-2-ut", [_unitriangular(1, 0, 0), _unitriangular(0, 2, 0)], 4, 2))
    for seed in range(3):
        rng = random.Random(seed)
        for p in (2, 3, 5):
            while True:
                a1, b1, a2, b2 = (rng.randrange(p) for _ in range(4))
                if (a1 * b2 - a2 * b1) % p:
                    break
            if p <= 3:
                pair = [_unitriangular(a1, b1, rng.randrange(p)),
                        _unitriangular(a2, b2, rng.randrange(p))]
                specs.append((f"ut3-{p}-seed{seed}", pair, p, p))
                if seed == 0:
                    specs.append((f"ut3-{p}-seed{seed}-redundant",
                                  [pair[1], _unitriangular(0, 0, 0), pair[0], pair[1]], p, p))
            specs.append((f"ea-{p}-seed{seed}",
                          [_unitriangular(a1, 0, b1), _unitriangular(a2, 0, b2)], p, p))
            u = rng.choice([u for u in range(1, p * p) if u % p])
            specs.append((f"cyc-{p}-seed{seed}", [((1, u), (0, 1))], p * p, p))
    return specs


@pytest.mark.parametrize("name,generators,modulus,p", _oracle_groups(),
                         ids=[s[0] for s in _oracle_groups()])
def test_table_kernels_match_the_matrix_oracle(name, generators, modulus, p):
    group = generate_group(generators, modulus)
    oracle = MatrixOracle(generators, modulus, p)
    els = oracle.elements
    assert group.elements == els
    assert group.center() == oracle.center()
    assert [group.inv(g) for g in els] == [oracle.inv(g) for g in els]
    assert [group.element_order(g) for g in els] == [oracle.element_order(g) for g in els]
    assert [group.commutator(a, b) for a in els for b in els] == [
        oracle.commutator(a, b) for a in els for b in els
    ]
    assert group.derived_subgroup() == oracle.derived(els)
    for i in range(len(els)):
        subset = els[i:i + 2]
        assert group.closure(subset) == oracle.closure(subset)
    subgroups = oracle.subgroups()
    assert group.all_subgroups() == subgroups
    assert [group.is_normal(h) for h in subgroups] == [oracle.is_normal(h) for h in subgroups]
    assert frattini_data(group) == oracle.frattini()
    assert inner_automorphism_orders(group) == oracle.inner_orders()
    assert minimal_generating_size(group) == oracle.minimal_generating_size()
    assert check_cyclic_abelianization(group) == oracle.cyclic_abelianization_holds()


def test_derived_subgroup_of_a_class_three_group():
    """UT(4,2): the commutators of the generators I+E12, I+E23, I+E34
    generate a subgroup that is not normal, so [G, G] is reached only
    through the normal closure."""
    gens = _ut_generators(4)
    group = generate_group(gens, 2)
    oracle = MatrixOracle(gens, 2, 2)
    els = oracle.elements
    assert group.elements == els
    assert group.center() == oracle.center()
    assert [group.inv(g) for g in els] == [oracle.inv(g) for g in els]
    derived = oracle.derived(els)
    assert group.derived_subgroup() == derived
    assert len(oracle.closure({oracle.commutator(a, b) for a in gens for b in gens})) < len(derived)
    assert frattini_data(group) == {
        "frattini_order": 8,
        "rank": 3,
        "elementary_abelian_quotient": True,
    }
    # Phi(G) is reached only through the normal closure as well
    assert minimal_generating_size(group) == 3


@pytest.mark.parametrize(
    "name,generators,modulus,p",
    _oracle_groups() + [("ut4-2", _ut_generators(4), 2, 2)],
    ids=[s[0] for s in _oracle_groups()] + ["ut4-2"],
)
def test_lattice_generators_give_each_derived_subgroup(name, generators, modulus, p):
    """[H, H] from the commutators [s, h], s in H's recorded generators,
    equals the oracle's closure of all |H|^2 commutators."""
    group = generate_group(generators, modulus)
    oracle = MatrixOracle(generators, modulus, p)
    lattice = group._subgroup_lattice()
    assert [group._as_set(mask) for mask, _ in lattice] == list(group.all_subgroups())
    for mask, gens in lattice:
        assert group._closure(gens) == mask
        h = group._as_set(mask)
        derived = pgrouplab._derived_of(group, gens, pgrouplab._bits(mask))
        assert group._as_set(derived) == oracle.derived(h)


# (name, generators, modulus, subgroup count): past the reach of
# MatrixOracle's subgroup search
_LARGER_GROUPS = [
    ("ut4-2", _ut_generators(4), 2, 225),
    ("ut3-7", _ut_generators(3), 7, 67),
    ("ea-2^5", _e1j_generators(6), 2, 374),
    ("ea-3^4", _e1j_generators(5), 3, 212),
    ("cyc-125", [((1, 1), (0, 1))], 125, 4),
]


@pytest.mark.parametrize("name,generators,modulus,count", _LARGER_GROUPS)
def test_lattice_by_index_p_steps_matches_dimino_joins(name, generators, modulus, count):
    """On groups past the reach of MatrixOracle's subgroup search, the
    index-p search gives the masks of Dimino's joins in the same order,
    and each recorded generator tuple closes to its subgroup."""
    group = generate_group(generators, modulus)
    lattice = group._subgroup_lattice()
    assert [mask for mask, _ in lattice] == [mask for mask, _ in subgroup_lattice_by_joins(group)]
    assert len(lattice) == count
    for mask, gens in lattice:
        assert group._closure(gens) == mask


@pytest.mark.parametrize("name,generators,modulus,count", _LARGER_GROUPS)
def test_frattini_closure_matches_both_definitions(name, generators, modulus, count):
    """Phi(P) from one normal closure has the order of the intersection of
    the maximal subgroups and of the subgroup generated by every g^p and
    [P, P]."""
    group = generate_group(generators, modulus)
    data = frattini_data(group)
    intersection = frozenset.intersection(*group.maximal_subgroups())
    powers = set()
    for g in group.elements:
        power = g
        for _ in range(group.p - 1):
            power = group.mul(power, g)
        powers.add(power)
    generated = group.closure(powers | group.derived_subgroup())
    assert data["frattini_order"] == len(intersection) == len(generated)


def test_frattini_of_ut5_3_needs_no_lattice():
    """UT(5,3), order 3^10: its subgroup lattice is out of reach, and Phi
    is the normal closure alone."""
    group = generate_group(_ut_generators(5), 3)
    assert group.order == 3 ** 10
    assert frattini_data(group) == {
        "frattini_order": 729,
        "rank": 4,
        "elementary_abelian_quotient": True,
    }
    assert minimal_generating_size(group) == 4
    assert group._lattice is None


def test_closure_forms_each_row_product_once(monkeypatch):
    """UT(4,3), order 3^6: each distinct row meets each generator in at
    most one row product, not once per (element, generator) pair."""
    products = []
    row_times = pgrouplab._row_times

    def counted(row, cols, mod):
        products.append((row, cols))
        return row_times(row, cols, mod)

    monkeypatch.setattr(pgrouplab, "_row_times", counted)
    gens = _ut_generators(4)
    group = generate_group(gens, 3)
    assert group.order == 3 ** 6
    rows = {row for g in group.elements for row in g}
    assert len(set(products)) == len(products) <= len(rows) * len(gens)
    assert group.elements == MatrixOracle(gens, 3, 3).elements


def test_is_normal_on_sets_that_are_not_subgroups():
    group = ut3_group(3)
    oracle = MatrixOracle(group.generators, 3, 3)
    rng = random.Random(5)
    for _ in range(50):
        subset = frozenset(rng.sample(group.elements, rng.randrange(1, 10)))
        assert group.is_normal(subset) == oracle.is_normal(subset)


def test_non_elements_are_rejected():
    group = ut3_group(3)
    outside = ((1, 0, 0), (0, 2, 0), (0, 0, 1))
    for call in (group.inv, group.element_order, lambda g: group.closure([g]),
                 lambda g: group.is_normal(frozenset({g}))):
        with pytest.raises(InvalidSpec):
            call(outside)


def test_frattini_of_ut3_5_is_fast():
    start = time.perf_counter()
    data = frattini_data(ut3_group(5))
    assert time.perf_counter() - start < 1.0
    assert data == {"frattini_order": 5, "rank": 2, "elementary_abelian_quotient": True}
    assert len(ut3_group(5).all_subgroups()) == 1 + 31 + 6 + 1


def test_rows_are_built_on_first_use():
    group = ut3_group(3)
    assert all(row is None for row in group._rows)
    group.center()
    built = sum(row is not None for row in group._rows)
    assert built == len(group.generators)


def test_group_building_calls_no_sympy(monkeypatch):
    import sympy

    def refuse(*args, **kwargs):
        raise AssertionError("sympy called while building a group")

    monkeypatch.setattr(sympy, "factorint", refuse)
    monkeypatch.setattr(sympy.Matrix, "det", refuse)
    assert ut3_group(5).order == 125
    assert cyclic_group_p2(7).order == 49
    with pytest.raises(InvalidSpec):
        generate_group([((1, 1), (0, 1))], 12)
    with pytest.raises(InvalidSpec):
        generate_group([((3, 0), (0, 1))], 9)
