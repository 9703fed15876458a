"""Positive certificates: finite p-group quotients where an element survives.

Two quotient routes, following the two shapes of a nontrivial element
t^m w of a mapping torus:

* m != 0: kill the fiber, map t to Z/p^j with p^j > |m|.  The element
  survives as the residue m.
* m = 0, w != 1: quotient the fiber by the mod-p dimension subgroup at
  the Magnus depth d of w (the least truncation degree where w is visible
  over F_p).  The kernel is fully invariant, so the monodromy descends;
  its induced order is a p-power exactly when it is unipotent on H_1
  mod p (proved below).
  The mapping torus then surjects onto (fiber quotient) x| Z/p^s, a
  finite p-group, and w survives by choice of d.

The induced order.  Let U be the substitution X_i -> embed(phi(x_i)) - 1
on F_p<X_1..X_r>/(deg > d), and M = I + N the action of phi on H_1 mod p.
* If N^nu1 = 0, (U - I)^nu = 0 with nu = 1 + d + (nu1 - 1) d (d + 1) / 2.
  Proof: U keeps F_k = (deg >= k), and on F_k / F_(k+1) it is 1 for
  k = 0 and prod_j (I + N_j) for k >= 1, N_j being N on the j-th tensor
  factor.  The N_j commute, so (prod_j (I + N_j) - I)^e sums monomials of
  degree >= e in k of them, each with a factor N_j^nu1 = 0 once
  e = e_k = k (nu1 - 1) + 1.  So (U - I)^(e_k) maps F_k into F_(k+1),
  and (U - I)^nu = 0 for nu = e_0 + ... + e_d.
* The order is the least p^s >= l, where l is the length of the longest
  chain X_i, (U - I) X_i, (U - I)^2 X_i, ... before it vanishes.  Proof:
  U and I commute, and p divides binom(p^s, k) for 0 < k < p^s, so over
  F_p, U^(p^s) - I = (U - I)^(p^s).  U^(p^s) is a ring map, so it is the
  identity iff it fixes every X_i, that is iff (U - I)^(p^s) X_i = 0 for
  every i, that is iff p^s >= l.  And U has p-power order, since
  U^(p^S) - I = (U - I)^(p^S) = 0 once p^S >= nu.
* l <= e_1 + ... + e_d = nu - 1, since X_i lies in F_1.  A chain that
  outlives nu - 1 is InternalInvariant.  If p >= nu, then l < p, so the
  order is 1 or p, and one application of U decides.
* If M is not unipotent mod p, no level has a p-power order.  Proof: U
  acts on F_1 / F_2 as M, so ord(M mod p) divides ord(U), and it is no
  p-power, since M^(p^s) = I would give (M - I)^(p^s) = 0.

Kernel invariance.  The level-(p, d) kernel K_d is the set of words w
with embed(w) = 1 in F_p<X_1..X_r>/(deg > d), and U is the substitution
above.  Each embed(phi(x_i)) - 1 has no constant term, so U keeps
(deg > d) and is a ring endomorphism of the truncated ring.
* phi(K_d) <= K_d.  U(1 + X_i) = embed(phi(x_i)), and a ring map carries
  inverses to inverses, so U(embed(w)) = embed(phi(w)) for every word w,
  letter by letter.  Then embed(w) = 1 gives embed(phi(w)) = U(1) = 1.
* phi^-1(K_d) <= K_d.  U(embed(phi^-1(x_i))) = embed(x_i) = 1 + X_i, so
  the image of U holds every X_i and U is onto; a map of a finite set
  onto itself is one-to-one.  For w in K_d, U(embed(phi^-1(w))) =
  embed(w) = 1 = U(1), so embed(phi^-1(w)) = 1.
So phi(K_d) = K_d.  The verifier checks the identities this rests on with
the certificate's own data: U(embed(w)) = embed(phi(w)) for the survivor
w, and U(embed(phi^-1(x_i))) = 1 + X_i for each i.

Depth from one embedding.  magnus_depth(w) is the least d with
embed(w, d) != 1 over F_p.  For k < d, truncation to degree k (dropping
the terms of degree > k) is a ring map of F_p<X_1..X_r>/(deg > d) onto
F_p<X_1..X_r>/(deg > k).  It fixes each 1 + X_i, hence each inverse
(1 + X_i)^-1, so it commutes with the embedding: embed(w, k) is the
degree-<= k part of embed(w, d).  The constant term of an embedding is 1,
so embed(w, k) = 1 for every k < d iff embed(w, d) has no nonconstant
term of degree < d, and embed(w, d) != 1 iff it has one at all.  Hence
magnus_depth(w) = d iff the least degree of a nonconstant term of
embed(w, d) is d.  The verifier checks a stored depth from that one
embedding, which the survival check reads too; the search alone climbs
the degrees.

Certificates embed the monodromy and element, so they re-verify from the
stored JSON alone.  Their format is the table CERTIFICATE_FIELDS, with
the DATA_FIELDS of each kind; the verifier checks every stored field.
"""

from __future__ import annotations

from .caps import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InternalInvariant, InvalidSpec, SchemaError
from .extension import CheckReport
from .fields import bigint, brief, fields, integer, list_of, max_str_digits, one_of, require, string
from .freegrp import (
    FreeEndo,
    MappingTorusElement,
    MappingTorusSpec,
    abelianization_matrix,
    apply_endo,
    format_word,
    parse_endo,
    parse_word,
)
from .intlin import _require_prime, is_unipotent_mod, least_p_power_exponent, p_power_exponent
from .magnus import (
    SeriesSubstitution,
    TruncatedSeries,
    _depth_and_embedding,
    code_range,
    magnus_embed,
    monomial_of,
)
from .record import Record


class PGroupQuotient(Record):
    """A certified finite p-group quotient with a surviving element; its
    fields are those of CERTIFICATE_FIELDS, its data that of DATA_FIELDS."""

    __slots__ = (
        "p", "kind", "rank", "monodromy_images", "monodromy_inverse",
        "survivor_t", "survivor_word", "data", "components",
    )

    def __init__(
        self,
        p: int,
        kind: str,
        rank: int,
        monodromy_images: tuple[str, ...],
        monodromy_inverse: tuple[str, ...],
        survivor_t: int,
        survivor_word: str,
        data: dict,
        components: tuple["PGroupQuotient", ...] = (),
    ):
        if kind not in DATA_FIELDS:
            raise InvalidSpec(f"unknown certificate kind {kind}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "monodromy_images", monodromy_images)
        object.__setattr__(self, "monodromy_inverse", monodromy_inverse)
        object.__setattr__(self, "survivor_t", survivor_t)
        object.__setattr__(self, "survivor_word", survivor_word)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "components", components)

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "kind": self.kind,
            "rank": self.rank,
            "monodromy_images": list(self.monodromy_images),
            "monodromy_inverse": list(self.monodromy_inverse),
            "survivor_t": self.survivor_t,
            "survivor_word": self.survivor_word,
            "data": dict(self.data),
        }
        if self.components:
            out["components"] = [c.to_dict() for c in self.components]
        return out

    @staticmethod
    def from_dict(d, path: str = "$") -> "PGroupQuotient":
        """The certificate ``to_dict`` wrote, checked against
        CERTIFICATE_FIELDS and the DATA_FIELDS of its kind; the first
        violation is a SchemaError carrying its JSON path."""
        cert = fields(CERTIFICATE_FIELDS, d, path)
        require(cert, _REQUIRED, path)
        kind = cert["kind"]
        if kind != "product" and "components" in cert:
            raise SchemaError(f"a {kind} certificate has no components", path + ".components")
        data = cert["data"] = fields(DATA_FIELDS[kind], cert["data"], path + ".data")
        require(data, DATA_FIELDS[kind], path + ".data")
        for key in ("monodromy_images", "monodromy_inverse", "components"):
            cert[key] = tuple(cert.get(key, ()))
        return PGroupQuotient(**cert)

    def monodromy(self) -> FreeEndo:
        return parse_endo(self.rank, self.monodromy_images, self.monodromy_inverse)


def _precision(value, path: str) -> int:
    if bigint(value, path) != 1:
        raise SchemaError(f"{brief(value)} is not 1: the series are taken mod p", path)
    return 1


# The certificate format.  Every key of a certificate and of its data is
# required, except components, which only a product has and a product of
# no parts leaves out.  The integer rule is the task files' (resip.fields).
DATA_FIELDS = {
    "stable_letter": {"j": bigint, "quotient_order": bigint, "residue": bigint},
    "magnus": {
        "degree": bigint,
        "precision": _precision,
        "order_exponent": bigint,
        "induced_order": bigint,
        "evidence_monomial": list_of(integer()),
        "evidence_coefficient": bigint,
        "fiber_order_bound": bigint,
        "total_order_bound": bigint,
    },
    "product": {"total_order_bound": bigint, "count": bigint},
}
CERTIFICATE_FIELDS = {
    "p": bigint,
    "kind": one_of(tuple(DATA_FIELDS)),
    "rank": bigint,
    "monodromy_images": list_of(string),
    "monodromy_inverse": list_of(string),
    "survivor_t": bigint,
    "survivor_word": string,
    "data": lambda value, path: value,  # checked against the DATA_FIELDS of its kind
    "components": list_of(PGroupQuotient.from_dict),
}
_REQUIRED = tuple(key for key in CERTIFICATE_FIELDS if key != "components")


class WitnessOutcome(Record):
    __slots__ = ("status", "certificate", "reason")

    # status: "certificate" | "undecided"
    def __init__(
        self,
        status: str,
        certificate: PGroupQuotient | None = None,
        reason: str | None = None,
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "reason", reason)

    def to_dict(self) -> dict:
        out = {"status": self.status}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _nilpotency_bound(d: int, nu1: int) -> int:
    """nu of the module docstring, for (M - I)^nu1 = 0 on H_1 mod p: the
    order's chains vanish within nu - 1 steps; d >= 1 makes nu >= 2."""
    return 1 + d + (nu1 - 1) * d * (d + 1) // 2


def _raw_induced_order(sub: SeriesSubstitution, p: int, nu: int) -> int:
    """Order of the substitution on its level-(p, d) Magnus quotient: the
    least p^s >= l, l the longest (U - I)-chain of an X_i, given
    (U - I)^nu = 0 (proof in the module docstring).  The chains run on
    raw tables, by SeriesSubstitution.chain_step."""
    step = sub.chain_step
    gens = [{i: 1} for i in range(1, sub.rank + 1)]  # the code of X_i is i
    if p >= nu:  # l < p: the order is 1 or p
        return p if any(step(x) for x in gens) else 1
    longest = 1
    for term in gens:
        length = 1
        while term := step(term):
            length += 1
            if length >= nu:
                raise InternalInvariant(
                    f"a (U - I)-chain outlives its bound nu - 1 = {nu - 1}"
                )
        longest = max(longest, length)
    return p ** least_p_power_exponent(longest, p)


def _unipotent_order(phi: FreeEndo, p: int, d: int, nu1: int, caps: Caps) -> int:
    """Order of phi on the level-(p, d) quotient, given (M - I)^nu1 = 0 on
    H_1 mod p, nu1 the index is_unipotent_mod returns."""
    sub = SeriesSubstitution(phi, d, p, caps)
    return _raw_induced_order(sub, p, _nilpotency_bound(d, nu1))


def induced_automorphism_order(
    spec: MappingTorusSpec, p: int, d: int, caps: Caps = DEFAULT_CAPS
) -> int:
    """Order p^s of the monodromy on the level-(p, d) quotient.  A
    non-unipotent H_1 action mod p has none at any level: InvalidSpec,
    raised before any substitution is built."""
    nu1 = is_unipotent_mod(abelianization_matrix(spec.fiber), p)
    if nu1 is None:
        raise InvalidSpec(f"H_1 action not unipotent mod {p}")
    return _unipotent_order(spec.fiber, p, d, nu1, caps)


def _stable_letter_exponent(p: int, m: int) -> int:
    """Least j >= 1 with p^j > |m|, that is p^j >= |m| + 1: the smallest
    Z/p^j where t^m survives."""
    return max(1, least_p_power_exponent(abs(m) + 1, p))


def _monomial_count(rank: int, d: int) -> int:
    return sum(rank ** i for i in range(1, d + 1))


def _too_wide(p: int, e: int) -> bool:
    """Has p^e more decimal digits than int-to-str conversion allows?
    Such a value can be neither written into a report nor read back by
    ``fields.bigint``.  With b the bit length of p, 2^(e (b - 1)) <= p^e
    < 2^(e b), and 2^(3 limit) < 10^limit < 2^(4 limit), so the bit
    lengths decide all but a narrow band, where p^e has at most 8 limit
    bits and is built."""
    limit = max_str_digits()
    b = p.bit_length()
    if not limit or e * b <= 3 * limit:
        return False
    if e * (b - 1) >= 4 * limit:
        return True
    return p ** e >= 10 ** limit


def _too_wide_outcome(name: str, p: int, e: int) -> WitnessOutcome:
    return WitnessOutcome(
        "undecided",
        reason=(
            f"{name} {p}^{e} has more than {max_str_digits()} digits, "
            "the limit of sys.get_int_max_str_digits(), so no certificate could be "
            "written or read back"
        ),
    )


def _least_nonzero_evidence(series: TruncatedSeries, d: int) -> tuple[tuple[int, ...], int]:
    """The least monomial of the series past its constant term, and its
    coefficient: the least nonzero code, decoded.  At Magnus depth d it
    has degree d, and it is the lexicographically least monomial there
    (the theorem of ``monomial_code``).  The caller has found depth d, so
    a least code of another degree is an internal fault."""
    least = min((m for m in series.table if m), default=0)
    if least not in code_range(series.rank, d):
        raise InternalInvariant(f"the series at Magnus depth {d} has no least term of degree {d}")
    return monomial_of(least, series.rank), series.table[least]


def find_p_quotient_witness(
    spec: MappingTorusSpec,
    g: MappingTorusElement,
    p: int,
    caps: Caps = DEFAULT_CAPS,
) -> WitnessOutcome:
    """Search for a finite p-group quotient of the mapping torus where g
    survives.

    The stable-letter route kills the fiber and needs nothing more.  The
    Magnus route needs the H_1 action unipotent mod p: without it no level
    has a p-power induced order, and the outcome is undecided.  With it,
    the nilpotency index of that one unipotence test bounds the chains of
    the induced order.
    """
    _require_prime(p)
    if g.is_identity():
        raise InvalidSpec("the surviving element must be nontrivial")
    phi = spec.fiber
    base = dict(
        p=p,
        rank=spec.rank,
        monodromy_images=tuple(format_word(w) for w in phi.images),
        monodromy_inverse=tuple(format_word(w) for w in phi.certified_inverse),
        survivor_t=g.t_exponent,
        survivor_word=format_word(g.fiber_word),
    )
    m = g.t_exponent
    if m != 0:
        j = _stable_letter_exponent(p, m)
        if _too_wide(p, j):
            return _too_wide_outcome("quotient_order", p, j)
        cert = PGroupQuotient(
            kind="stable_letter",
            data={
                "j": j,
                "quotient_order": p ** j,
                "residue": m % p ** j,
            },
            **base,
        )
        return WitnessOutcome("certificate", certificate=cert)
    nu1 = is_unipotent_mod(abelianization_matrix(phi), p)
    if nu1 is None:
        return WitnessOutcome(
            "undecided",
            reason=f"H_1 action not unipotent mod {p}; the certificate route requires it",
        )
    w = g.fiber_word
    d, series = _depth_and_embedding(w, p, caps)
    evidence_mon, evidence_coeff = _least_nonzero_evidence(series, d)
    order = _unipotent_order(phi, p, d, nu1, caps)
    count, s = _monomial_count(spec.rank, d), p_power_exponent(order, p)
    if _too_wide(p, count + s):  # the total is the wider of the two bounds
        return _too_wide_outcome("total_order_bound", p, count + s)
    fiber_bound = p ** count
    cert = PGroupQuotient(
        kind="magnus",
        data={
            "degree": d,
            "precision": 1,
            "order_exponent": s,
            "induced_order": order,
            "evidence_monomial": list(evidence_mon),
            "evidence_coefficient": evidence_coeff,
            "fiber_order_bound": fiber_bound,
            "total_order_bound": fiber_bound * order,
        },
        **base,
    )
    return WitnessOutcome("certificate", certificate=cert)


def combine_witnesses(witnesses: list[PGroupQuotient]) -> PGroupQuotient:
    """Direct-product certificate: all listed elements survive, the order
    bound multiplies.  Nothing is searched, and verifying the product costs
    the sum of its parts, so no cap limits the count."""
    if not witnesses:
        raise InvalidSpec("nothing to combine")
    if len(witnesses) == 1:
        return witnesses[0]
    p = witnesses[0].p
    if any(w.p != p for w in witnesses):
        raise InvalidSpec("all witnesses must share the prime")
    first = witnesses[0]
    if not all(_same_torus(w, first) for w in witnesses):
        raise InvalidSpec("witnesses belong to different mapping tori")
    bound = 1
    for w in witnesses:
        bound *= _order_bound(w)
    return PGroupQuotient(
        p=p,
        kind="product",
        rank=first.rank,
        monodromy_images=first.monodromy_images,
        monodromy_inverse=first.monodromy_inverse,
        survivor_t=0,
        survivor_word="1",
        data={"total_order_bound": bound, "count": len(witnesses)},
        components=tuple(witnesses),
    )


def _same_torus(a: PGroupQuotient, b: PGroupQuotient) -> bool:
    return (a.rank, a.monodromy_images, a.monodromy_inverse) == (
        b.rank,
        b.monodromy_images,
        b.monodromy_inverse,
    )


def _order_bound(w: PGroupQuotient) -> int:
    if w.kind == "stable_letter":
        return w.data["quotient_order"]
    return w.data["total_order_bound"]


def verify_witness(cert: PGroupQuotient, caps: Caps = DEFAULT_CAPS) -> CheckReport:
    """Re-check a stored certificate from its own data.

    Survival, p-power order, and monodromy-invariance of the kernel are
    all recomputed; nothing is trusted from the original run.  The depth
    is checked on the one embedding at the stored degree (module
    docstring); a stored degree above caps.magnus_degree is CapExceeded
    before anything is embedded.  Kernel
    invariance is the theorem of the module docstring: its check is
    U(embed(w)) = embed(phi(w)) on the survivor w and
    U(embed(phi^-1(x_i))) = 1 + X_i for each i.  A p that is
    not prime is InvalidSpec, for a product's components too."""
    _require_prime(cert.p)
    checks: list[tuple[str, bool]] = []
    if cert.kind == "product":
        checks.append(("same_prime", all(c.p == cert.p for c in cert.components)))
        # its own survivor is none, as combine_witnesses writes it
        checks.append(
            (
                "same_mapping_torus",
                bool(cert.components)
                and all(_same_torus(c, cert) for c in cert.components)
                and (cert.survivor_t, cert.survivor_word) == (0, "1"),
            )
        )
        bound = 1
        for i, c in enumerate(cert.components):
            sub = verify_witness(c, caps)
            checks.append((f"component_{i}", sub.ok))
            bound *= _order_bound(c)
        count_ok = cert.data["count"] == len(cert.components)
        checks.append(("order_bound_product", bound == cert.data["total_order_bound"] and count_ok))
        return CheckReport(tuple(checks))
    phi = cert.monodromy()  # certified-inverse check happens on reconstruction
    checks.append(("monodromy_reconstructed", True))
    p = cert.p
    if cert.kind == "stable_letter":
        # p ** j is taken only for the j derived from the survivor: nothing
        # bounds the stored j, so one that differs fails every check
        parse_word(cert.survivor_word, cert.rank)  # any fiber word: the quotient kills it
        m = cert.survivor_t
        j = _stable_letter_exponent(p, m)
        stored = cert.data["j"] == j
        q = p ** j
        checks.append(("modulus_beats_exponent", stored and q > abs(m) and m != 0))
        checks.append(("residue_nonzero", stored and m % q != 0))
        checks.append(("residue_stored", stored and cert.data["residue"] == m % q))
        checks.append(("quotient_order", stored and cert.data["quotient_order"] == q))
        return CheckReport(tuple(checks))
    # magnus kind
    d = cert.data["degree"]
    w = parse_word(cert.survivor_word, cert.rank)
    checks.append(("element_in_fiber", cert.survivor_t == 0 and not w.is_identity()))
    if d > caps.magnus_degree:  # beyond any depth the search could find
        raise CapExceeded("magnus_degree", caps.magnus_degree)
    series = magnus_embed(w, d, p, caps)
    # the depth is d iff the least degree of a nonconstant term is d
    # (module docstring), the degree of the least nonzero code
    least = min((m for m in series.table if m), default=0)
    checks.append(("depth_minimal", least in code_range(cert.rank, d)))
    mon = tuple(cert.data["evidence_monomial"])
    checks.append(
        (
            "survival_coefficient",
            len(mon) == d and series.coefficient(mon) == cert.data["evidence_coefficient"] != 0,
        )
    )
    nu1 = is_unipotent_mod(abelianization_matrix(phi), p)
    checks.append(("h1_unipotent_mod_p", nu1 is not None))
    sub = SeriesSubstitution(phi, d, p, caps)
    order = 0  # no level has a p-power order: nothing to compute
    if nu1 is not None:
        order = _raw_induced_order(sub, p, _nilpotency_bound(d, nu1))
    checks.append(("induced_order_matches", nu1 is not None and order == cert.data["induced_order"]))
    checks.append(("induced_order_p_power", p_power_exponent(order, p) is not None))
    # the stored order's exponent is compared, so no p ** exponent is built
    # from an unbounded stored value
    checks.append(
        (
            "order_exponent",
            p_power_exponent(cert.data["induced_order"], p)
            == cert.data["order_exponent"],
        )
    )
    checks.append(
        (
            "kernel_invariance",
            sub(series) == magnus_embed(apply_endo(phi, w), d, p, caps)
            and all(
                sub(magnus_embed(v, d, p, caps))
                == TruncatedSeries.generator_term(cert.rank, d, i, p)
                for i, v in enumerate(phi.certified_inverse, start=1)
            ),
        )
    )
    fiber = cert.data["fiber_order_bound"]
    total_ok = cert.data["total_order_bound"] == fiber * cert.data["induced_order"]
    # as for order_exponent, the stored bound's exponent is compared, so
    # no p ** count is built before any size is checked
    count = _monomial_count(cert.rank, d)
    checks.append(("fiber_order_bound", p_power_exponent(fiber, p) == count and total_ok))
    return CheckReport(tuple(checks))
