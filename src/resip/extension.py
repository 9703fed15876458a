"""Central extensions from 2-cocycles (factor functions).

Group law on A x Q: (a, g)(b, h) = (a + b + f(g, h), g + h), with f a
normalized 2-cocycle Q x Q -> A.  Two cocycle representations are
supported: a bilinear integer form on Q = Z^r (enough for the Heisenberg
group and all circle-bundle witnesses) and an explicit table on a small
finite group.  A bilinear form is a cocycle by a theorem (see
``BilinearCocycle``); a table is checked exhaustively.  Everything is
abelian-base here, written additively.

Central extensions by a bilinear form.  Let B(u, v) = u^T F v with F an
integer matrix, and G = Z x Z^r with (a, u)(b, v) = (a + b + B(u, v),
u + v).  The identity is (0, 0), and (a, u)^-1 = (-a + B(u, u), -u).

* Commutators.  (a, u)(b, v) and (b, v)(a, u) have the same base u + v
  and central parts differing by B(u, v) - B(v, u), and an element
  (c, 0) commutes with everything, since B(0, v) = B(v, 0) = 0.  So
  [(a, u), (b, v)] = (B(u, v) - B(v, u), 0) = (u^T (F - F^T) v, 0): every
  commutator is central, G has class <= 2, and its commutator pairing is
  the matrix F - F^T.  The class is exactly 2 iff F - F^T != 0.
* Powers.  By induction on m >= 0, (a, u)^m = (m a + C(m, 2) B(u, u), m u):
  the step multiplies by (a, u) and adds B(m u, u) = m B(u, u), and
  C(m, 2) + m = C(m + 1, 2).  If (a, u)^m = (0, 0) with m >= 1, then
  m u = 0 gives u = 0, and then m a = 0 gives a = 0.  So G is
  torsion-free, and an element (c, 0) with c != 0 has infinite order.

Both hold over Z.  With coefficients in Z/m (``coeff_modulus``), (1, 0)
has order m, so the checks that rest on them require integer
coefficients.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

from .errors import InvalidSpec
from .intlin import IntMatrix
from .record import Record


class BilinearCocycle(Record):
    """f(u, v) = u^T F v on Z^r, values in Z or Z/m.

    Every such f is a normalized 2-cocycle, whatever the integer form F:

    * f(0, v) = f(u, 0) = 0, since one factor of the product is 0.
    * Bilinearity makes the cocycle identity automatic: both sides of
      f(g,h) + f(g+h,k) = f(h,k) + f(g,h+k) expand to
      f(g,h) + f(g,k) + f(h,k), an equality of integers, so it holds
      after reduction mod m too.

    The proof holds over Z, so the entries of F must be integers: with
    floats, rounding alone can break the identity.
    """

    __slots__ = ("form", "coeff_modulus")

    def __init__(self, form: tuple[tuple[int, ...], ...], coeff_modulus: int | None = None):
        r = len(form)
        if r == 0 or any(len(row) != r for row in form):
            raise InvalidSpec("bilinear form must be square and nonempty")
        if any(not isinstance(x, int) for row in form for x in row):
            raise InvalidSpec("bilinear form entries must be exact integers")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "coeff_modulus", coeff_modulus)

    @property
    def r(self) -> int:
        return len(self.form)

    def __call__(self, u: Sequence[int], v: Sequence[int]) -> int:
        if len(u) != self.r or len(v) != self.r:
            raise InvalidSpec("argument length differs from base rank")
        # by the nonzero coordinates of u, each row taken against v at once
        total = sum(a * sum(map(mul, row, v)) for a, row in zip(u, self.form) if a)
        return total % self.coeff_modulus if self.coeff_modulus else total

    def base_add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def base_neg(self, u):
        return tuple(-a for a in u)

    def base_zero(self):
        return (0,) * self.r


class TableCocycle(Record):
    """Explicit cocycle on a small additive group given by element list.

    elements: hashable labels; add/neg give the group structure; table maps
    (g, h) to the coefficient value.
    """

    __slots__ = ("elements", "add", "neg", "zero", "table", "coeff_modulus")

    def __init__(
        self,
        elements: tuple,
        add: dict,
        neg: dict,
        zero: object,
        table: dict,
        coeff_modulus: int | None = None,
    ):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "neg", neg)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "coeff_modulus", coeff_modulus)

    def __call__(self, g, h):
        v = self.table[(g, h)]
        return v % self.coeff_modulus if self.coeff_modulus else v

    def base_add(self, g, h):
        return self.add[(g, h)]

    def base_neg(self, g):
        return self.neg[g]

    def base_zero(self):
        return self.zero


class CocycleCheck(Record):
    __slots__ = ("ok", "violation")

    # violation: (g, h, k) with the identity broken
    def __init__(self, ok: bool, violation: tuple | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "violation", violation)


def verify_cocycle(f) -> CocycleCheck:
    """Check normalization and the cocycle identity.

    A bilinear form is a normalized 2-cocycle by the theorem in the
    ``BilinearCocycle`` docstring, so it is ok without a check.  A table
    is checked exhaustively, on every element and every triple.
    """
    if isinstance(f, BilinearCocycle):
        return CocycleCheck(True)
    zero = f.base_zero()
    for g in f.elements:
        if f(zero, g) != 0 or f(g, zero) != 0:
            return CocycleCheck(False, (zero, g, zero))
    for g in f.elements:
        for h in f.elements:
            for k in f.elements:
                lhs = f(g, h) + f(f.base_add(g, h), k)
                rhs = f(h, k) + f(g, f.base_add(h, k))
                if f.coeff_modulus:
                    lhs %= f.coeff_modulus
                    rhs %= f.coeff_modulus
                if lhs != rhs:
                    return CocycleCheck(False, (g, h, k))
    return CocycleCheck(True)


class ExtensionElement(Record):
    __slots__ = ("central", "base")

    def __init__(self, central: int, base: tuple):
        object.__setattr__(self, "central", central)
        object.__setattr__(self, "base", base)


def _central_red(f, a: int) -> int:
    return a % f.coeff_modulus if f.coeff_modulus else a


def ext_identity(f) -> ExtensionElement:
    return ExtensionElement(0, f.base_zero())


def ext_multiply(x: ExtensionElement, y: ExtensionElement, f) -> ExtensionElement:
    a = _central_red(f, x.central + y.central + f(x.base, y.base))
    return ExtensionElement(a, f.base_add(x.base, y.base))


def ext_inverse(x: ExtensionElement, f) -> ExtensionElement:
    nb = f.base_neg(x.base)
    a = _central_red(f, -x.central - f(x.base, nb))
    return ExtensionElement(a, nb)


def ext_commutator(x: ExtensionElement, y: ExtensionElement, f) -> ExtensionElement:
    xy = ext_multiply(x, y, f)
    return ext_multiply(xy, ext_inverse(ext_multiply(y, x, f), f), f)


def ext_power(x: ExtensionElement, m: int, f) -> ExtensionElement:
    """x^m by repeated squaring, in about 2 log2 |m| products.  The law is
    associative because f is a cocycle, so the grouping of the factors
    does not matter."""
    if m < 0:
        return ext_power(ext_inverse(x, f), -m, f)
    acc = ext_identity(f)
    while m:
        if m & 1:
            acc = ext_multiply(acc, x, f)
        x = ext_multiply(x, x, f)
        m >>= 1
    return acc


def heisenberg_cocycle() -> BilinearCocycle:
    """f((a,b),(c,d)) = a*d; the extension of Z^2 by Z it defines is the
    integral Heisenberg group."""
    return BilinearCocycle(((0, 1), (0, 0)))


class CheckReport(Record):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[tuple[str, bool], ...]):
        object.__setattr__(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [list(c) for c in self.checks]}


def commutator_pairing(f: BilinearCocycle) -> tuple[tuple[int, ...], ...]:
    """F - F^T: [(a, u), (b, v)] = (u^T (F - F^T) v, 0) in the extension
    by f (module docstring)."""
    r = f.r
    return tuple(
        tuple(f.form[i][j] - f.form[j][i] for j in range(r)) for i in range(r)
    )


def standard_pairing(genus: int, e: int) -> tuple[tuple[int, ...], ...]:
    """e times the standard symplectic form on Z^(2 genus):
    u^T P v = e * sum_i (u_(2i-1) v_(2i) - u_(2i) v_(2i-1))."""
    r = 2 * genus
    rows = [[0] * r for _ in range(r)]
    for i in range(genus):
        rows[2 * i][2 * i + 1] = e
        rows[2 * i + 1][2 * i] = -e
    return tuple(tuple(row) for row in rows)


def _integral(f) -> bool:
    """A bilinear form with coefficients in Z, as the theorems of the module
    docstring need."""
    return isinstance(f, BilinearCocycle) and f.coeff_modulus is None


def _pairing_is(f, pairing) -> bool:
    """Is the extension by f of class <= 2 with commutator pairing
    ``pairing`` over Z (module docstring)?"""
    return _integral(f) and commutator_pairing(f) == pairing


def heisenberg_checks() -> CheckReport:
    """Verify the presentation [x,y] = z, [x,z] = [y,z] = 1, nilpotency
    class exactly 2, and torsion-freeness.

    The last two hold for every element by the theorems of the module
    docstring: commutators are (u^T (F - F^T) v, 0), which is the
    determinant pairing a d - b c when F - F^T = [[0, 1], [-1, 0]], and an
    extension with integer coefficients is torsion-free.
    """
    f = heisenberg_cocycle()
    x = ExtensionElement(0, (1, 0))
    y = ExtensionElement(0, (0, 1))
    z = ExtensionElement(1, (0, 0))
    ident = ext_identity(f)
    checks = []
    checks.append(("cocycle_verified", verify_cocycle(f).ok))
    checks.append(("commutator_xy_is_z", ext_commutator(x, y, f) == z))
    checks.append(("z_commutes_with_x", ext_commutator(x, z, f) == ident))
    checks.append(("z_commutes_with_y", ext_commutator(y, z, f) == ident))
    checks.append(
        ("class_two_xyx", ext_commutator(ext_commutator(x, y, f), x, f) == ident)
    )
    checks.append(
        ("class_two_xyy", ext_commutator(ext_commutator(x, y, f), y, f) == ident)
    )
    checks.append(
        ("gamma2_central_with_det_pairing", _pairing_is(f, standard_pairing(1, 1)))
    )
    checks.append(("torsion_free", _integral(f)))
    return CheckReport(tuple(checks))


def pullback_equality_check(f, k, phi) -> bool:
    """Does f equal the pullback of k along phi?

    Bilinear case: phi is an integer matrix (rows x cols = rank of k's base
    x rank of f's base); pullback form is phi^T K phi and the comparison is
    exact matrix equality.  Table case: phi is a dict, verified to be a
    homomorphism, and pointwise equality is checked on all pairs.
    """
    if isinstance(f, BilinearCocycle) and isinstance(k, BilinearCocycle):
        # phi maps f's base into k's base, so it is k.r x f.r and may be
        # rectangular; IntMatrix (square-only) is deliberately not used
        rows = [list(r) for r in (phi.entries if isinstance(phi, IntMatrix) else phi)]
        if len(rows) != k.r or any(len(r) != f.r for r in rows):
            raise InvalidSpec("matrix shape does not match the two bases")
        pulled = [
            [
                sum(
                    rows[i][a] * k.form[i][j] * rows[j][b]
                    for i in range(k.r)
                    for j in range(k.r)
                )
                for b in range(f.r)
            ]
            for a in range(f.r)
        ]
        if f.coeff_modulus:
            pulled = [[x % f.coeff_modulus for x in row] for row in pulled]
            target = [[x % f.coeff_modulus for x in row] for row in f.form]
            return pulled == target
        return pulled == [list(r) for r in f.form]
    if isinstance(f, TableCocycle) and isinstance(k, TableCocycle):
        for g in f.elements:
            for h in f.elements:
                if phi[f.base_add(g, h)] != k.base_add(phi[g], phi[h]):
                    raise InvalidSpec(f"phi breaks addition at ({g}, {h})")
        return all(
            f(g, h) == k(phi[g], phi[h]) for g in f.elements for h in f.elements
        )
    raise InvalidSpec("mixed cocycle representations")


class CircleBundleSpec(Record):
    """Unit circle bundle over a genus-g surface with Euler number e."""

    __slots__ = ("genus", "euler")

    def __init__(self, genus: int, euler: int):
        if genus < 1:
            raise InvalidSpec("genus must be >= 1")
        if euler == 0:
            raise InvalidSpec("Euler number must be nonzero")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "euler", euler)


def circle_bundle_cocycle(spec: CircleBundleSpec) -> BilinearCocycle:
    """k(u, v) = e * sum_i u_{a_i} v_{b_i} on Z^{2g}, pairing coordinate
    2i-1 with coordinate 2i."""
    r = 2 * spec.genus
    form = [[0] * r for _ in range(r)]
    for i in range(spec.genus):
        form[2 * i][2 * i + 1] = spec.euler
    return BilinearCocycle(tuple(tuple(row) for row in form))


def circle_bundle_central_witness(spec: CircleBundleSpec) -> CheckReport:
    """Central quotient witness for the surface-bundle presentation
    <a_1, b_1, .., a_g, b_g, z | prod [a_i, b_i] = z^e, z central>.

    The target is the extension Q of Z^{2g} by Z with the scaled cocycle
    above; a_i, b_i map to the standard base generators and z to (g, 0).
    Each [a_i, b_i] must land on (e, 0), the relator on (ge, 0) = image of
    z^e, and the z-image must have infinite order.  Q is nilpotent of
    class exactly 2, with commutator pairing e times the standard
    symplectic form, and torsion-free: both are read off the form by the
    theorems of the module docstring, exactly like the Heisenberg checks.
    """
    g, e = spec.genus, spec.euler
    f = circle_bundle_cocycle(spec)
    r = 2 * g
    ident = ext_identity(f)

    def basis(i: int) -> ExtensionElement:
        return ExtensionElement(0, tuple(1 if j == i else 0 for j in range(r)))

    a = [basis(2 * i) for i in range(g)]
    b = [basis(2 * i + 1) for i in range(g)]
    z = ExtensionElement(g, (0,) * r)
    checks = [("cocycle_verified", verify_cocycle(f).ok)]
    for i in range(g):
        checks.append(
            (
                f"commutator_a{i + 1}_b{i + 1}_is_(e,0)",
                ext_commutator(a[i], b[i], f) == ExtensionElement(e, (0,) * r),
            )
        )
    relator = ident
    for i in range(g):
        relator = ext_multiply(relator, ext_commutator(a[i], b[i], f), f)
    z_to_e = ext_power(z, e, f)
    checks.append(("relator_equals_z_power_e", relator == z_to_e))
    checks.append(
        ("relator_is_(ge,0)", relator == ExtensionElement(g * e, (0,) * r))
    )
    z_central = all(
        ext_commutator(z, basis(i), f) == ident for i in range(r)
    )
    checks.append(("z_central", z_central))
    # Q is torsion-free, so every element but the identity has infinite order
    checks.append(("z_image_infinite_order", _integral(f) and z != ident))
    checks.append(("class_two", _pairing_is(f, standard_pairing(g, e))))
    checks.append(("torsion_free", _integral(f)))
    return CheckReport(tuple(checks))
