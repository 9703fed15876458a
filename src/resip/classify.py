"""Verdict logic for residual properties of mapping-torus groups.

Torus bundles G_A = Z^n x| Z: A is unipotent mod p iff p divides g, the
gcd of the coefficients of charpoly(A) - (x-1)^n (g = 0: every p), and
unipotence mod p makes G_A residually p.  On SL_2(Z) the converse holds
too, since there g = |2 - tr A| = |det(A - I)| (proved in
``torus_verdicts``, which reads a whole sweep of primes off that one gcd).
Beyond SL_2(Z) it can fail: A = [[3, 1], [1, 0]] is not unipotent mod 3,
yet G_A is residually 3, so its NotResiduallyP verdict at p = 3 is wrong
(ROADMAP item 14).

Free fibers (rank >= 2): unipotence of the H_1 action M mod p is
sufficient.  For necessity we use the finite-quotient obstruction: a
residually-p mapping torus must admit an M-invariant subspace W of F_p^n
with dim(F_p^n / W) >= 2 on which the induced action has p-power order
(equivalently, is unipotent).  Such a W exists iff 1 is a root of
f = charpoly(M) mod p of multiplicity >= 2, that is iff p divides both
f(1) and f'(1) (proved in ``fibered_verdicts``, which reads a whole sweep
of primes off f, as ``torus_verdicts`` does).  No qualifying quotient =
NotResiduallyP; a qualifying quotient without unipotence on the full
space = Undecided.  ``p_power_order_quotient_exists`` builds the largest
witness, W = im (M - I)^n, and its order from the ranks of the powers of
M - I: one rank computation per power, no enumeration.

Residual nilpotence for semidirect products with Z^n fiber reduces to
triviality of the intersection of the chain B^i(Z^n), B = A - I.  That
intersection is trivial iff B has no unimodular piece: no irreducible
factor of charpoly(B) other than x may have constant term of absolute
value 1 (proved in ``lattice_chain_invariants``).  The index
[B^n Z^n : B^(n+1) Z^n] does not decide it: companion blocks of x^2-x-1
and x^2+3x+3 give index 3 and a nontrivial intersection.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import InternalInvariant, InvalidSpec
from .freegrp import MappingTorusSpec, abelianization_matrix
from .intlin import (
    IntMatrix,
    ModMatrix,
    _power_chain,
    _require_prime,
    charpoly_exact,
    det_exact,
    is_unipotent_mod,  # noqa: F401  perfbench's tracing tests wrap and restore this binding
    lattice_chain_invariants,
    least_p_power_exponent,
    poly_pow_x_minus_one,
    prime_factors,
    rref_mod,
)
from .record import Record

RESIDUALLY_P = "ResiduallyP"
NOT_RESIDUALLY_P = "NotResiduallyP"
UNDECIDED = "Undecided"


class Verdict(Record):
    """Per-prime classification with a re-checkable payload."""

    __slots__ = ("p", "outcome", "certificate", "obstruction", "reason")

    def __init__(
        self,
        p: int,
        outcome: str,
        certificate: dict | None = None,
        obstruction: dict | None = None,
        reason: str | None = None,
    ):
        if outcome not in (RESIDUALLY_P, NOT_RESIDUALLY_P, UNDECIDED):
            raise ValueError(f"unknown outcome {outcome}")
        populated = [certificate is not None, obstruction is not None, reason is not None]
        if sum(populated) != 1:
            raise ValueError("exactly one payload must be set")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "obstruction", obstruction)
        object.__setattr__(self, "reason", reason)

    def to_dict(self) -> dict:
        out = {"p": self.p, "outcome": self.outcome}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _require_automorphism(a: IntMatrix) -> None:
    """Refuse A unless det A = +-1."""
    if det_exact(a) not in (1, -1):
        raise InvalidSpec("matrix is not in GL_n(Z)")


def torus_verdicts(a: IntMatrix, primes: Sequence[int]) -> list[Verdict]:
    """Is the torus bundle group Z^n x|_A Z residually p?  One verdict per
    prime, in the order given, from one characteristic polynomial.

    Theorem: with g the gcd of the coefficients of charpoly(A) - (x - 1)^n,
    A is unipotent mod p iff p | g (g = 0: at every p).  Proof: if
    charpoly(A) = (x - 1)^n mod p, then (A - I)^n = 0 mod p by
    Cayley-Hamilton.  Conversely, if (A - I)^n = 0 mod p, every eigenvalue
    of A over the algebraic closure of F_p is 1, so charpoly(A) mod p, monic
    of degree n, is (x - 1)^n.  And if A is unipotent mod p, the group is
    residually p: A then lies in the preimage in GL_n(Z/p^j) of a unipotent
    subgroup of GL_n(F_p), a p-group, so (Z/p^j)^n x|_A Z/p^s is a finite
    p-group once p^s is a multiple of A's order there, and a nonidentity
    element survives in it for j and s large enough.  The converse is
    proved only on SL_2 (below): beyond it,
    A = [[3, 1], [1, 0]] at p = 3 is residually 3 but not unipotent, and
    gets NotResiduallyP (ROADMAP item 14).

    So charpoly(A) and g are computed once for all primes.  The primes
    dividing g share one chain of powers of A - I (``_nilpotency_indices``),
    which gives the nilpotency index each certificate reports and must
    agree (InternalInvariant otherwise).  Elsewhere the obstruction is
    charpoly(A) mod p, which differs from (x - 1)^n.

    On SL_2 this is the det(A - I) criterion: charpoly(A) = x^2 - t x + 1
    with t = tr A, so the gap is (2 - t) x and
    g = |2 - t| = |charpoly(A)(1)| = |det(A - I)|.  There the converse
    holds: if p does not divide det(A - I), A - I is invertible on
    (Z/p^k)^2 for every k.  In a finite p-quotient, A acts on the image U of
    Z^2, a finite abelian p-group, by an automorphism of p-power order,
    which is unipotent; so U = (A - I)U forces U = 0, and Z^2 dies in every
    finite p-quotient.
    """
    _require_automorphism(a)
    for p in primes:
        _require_prime(p)
    charpoly, target, g = _charpoly_gap(a)
    index = _nilpotency_indices(a, primes, g)
    verdicts = []
    for p in primes:
        if g % p == 0:
            certificate = {"criterion": "unipotent_mod_p", "nilpotency_index": index[p]}
            verdicts.append(Verdict(p, RESIDUALLY_P, certificate=certificate))
        else:
            obstruction = {
                "criterion": "not_unipotent_mod_p",
                "charpoly_mod_p": [c % p for c in charpoly],
                "target": [c % p for c in target],
            }
            verdicts.append(Verdict(p, NOT_RESIDUALLY_P, obstruction=obstruction))
    return verdicts


def _nilpotency_indices(a: IntMatrix, primes: Sequence[int], g: int) -> dict[int, int]:
    """The nilpotency index of A - I mod p at each listed p dividing the
    gap gcd g, from one chain of powers for all of them.

    Let N = A - I, P the product of the distinct listed primes dividing g,
    and d_j the gcd of P and the entries of N^j mod P (``_power_chain``).
    For p | P, reduction mod p factors through Z/P, so N^j = 0 mod p iff p
    divides every entry of N^j mod P, iff p | d_j.  The index at p is the
    least such j.  As p | g, (N mod p)^n = 0 (``torus_verdicts``), so that
    j is at most n; if no j qualifies, the two routes disagree.  The chain
    may stop at the first d_j = P: every later power is N^j times a matrix,
    so no prime meets its index after it.
    """
    unipotent = {p for p in primes if g % p == 0}
    if not unipotent:
        return {}
    chain = _power_chain(a, math.prod(unipotent))
    index = {}
    for p in unipotent:
        j = next((j for j, d in enumerate(chain, 1) if d % p == 0), None)
        if j is None:
            raise InternalInvariant(
                "unipotence by charpoly and by powers of A - I disagree"
            )
        index[p] = j
    return index


def torus_residually_p(a: IntMatrix, p: int) -> Verdict:
    """The verdict of ``torus_verdicts`` at the one prime p."""
    return torus_verdicts(a, [p])[0]


class PrimeSet(Record):
    """Either all primes, or the finite set listed."""

    __slots__ = ("all_primes", "primes", "gcd_value")

    def __init__(self, all_primes: bool, primes: tuple[int, ...], gcd_value: int):
        object.__setattr__(self, "all_primes", all_primes)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "gcd_value", gcd_value)

    @staticmethod
    def dividing(g: int) -> "PrimeSet":
        """The primes dividing g: all of them when g = 0."""
        if g == 0:
            return PrimeSet(True, (), 0)
        return PrimeSet(False, prime_factors(g), g)

    def to_dict(self) -> dict:
        return {
            "all_primes": self.all_primes,
            "primes": list(self.primes),
            "gcd": self.gcd_value,
        }


def _charpoly_gap(a: IntMatrix) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """charpoly(A), (x - 1)^n, and the gcd g of the coefficients of their
    difference: A is unipotent mod p iff p | g (see ``torus_verdicts``)."""
    charpoly = charpoly_exact(a)
    target = poly_pow_x_minus_one(a.n)
    return charpoly, target, math.gcd(*(c - t for c, t in zip(charpoly, target)))


def residually_p_prime_set(a: IntMatrix) -> PrimeSet:
    """The primes p at which A is unipotent mod p, each of which makes
    Z^n x|_A Z residually p.

    A is unipotent mod p iff charpoly(A) = (x-1)^n mod p, so these are the
    common prime divisors of the coefficient gap.  On SL_2(Z) they are all
    the primes at which the group is residually p (``torus_verdicts``);
    beyond it the set can miss some: A = [[3, 1], [1, 0]] is residually 3
    and 3 is not in it (ROADMAP item 14).
    """
    _require_automorphism(a)
    return PrimeSet.dividing(_charpoly_gap(a)[2])


def torus_residually_nilpotent(a: IntMatrix) -> bool:
    """Is Z^n x|_A Z residually nilpotent (= omega-nilpotent here)?"""
    _require_automorphism(a)
    return lattice_chain_invariants(a.minus_identity())


class BSSpec(Record):
    """Baumslag-Solitar group BS(1,q) = <s,t | s t s^-1 = t^q>."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if q <= 0:
            raise InvalidSpec(f"q must be >= 1, got {q}")
        object.__setattr__(self, "q", q)


class BSReport(Record):
    __slots__ = ("q", "residually_p_primes", "omega_nilpotent", "trivial_case")

    # trivial_case: q = 1 is Z^2, flagged but still computed
    def __init__(
        self, q: int, residually_p_primes: PrimeSet, omega_nilpotent: bool, trivial_case: bool
    ):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "residually_p_primes", residually_p_primes)
        object.__setattr__(self, "omega_nilpotent", omega_nilpotent)
        object.__setattr__(self, "trivial_case", trivial_case)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "residually_p_primes": self.residually_p_primes.to_dict(),
            "omega_nilpotent": self.omega_nilpotent,
            "trivial_case": self.trivial_case,
        }


def bs_classify(spec: BSSpec) -> BSReport:
    """BS(1,q): residually p exactly at the primes dividing q - 1 (every
    prime at q = 1); omega-nilpotent iff q != 2.

    Proof.  BS(1,q) = Z[1/q] x| Z, t acting by multiplication by q.  As
    [t, a] = (q - 1) a, gamma_(k+1) = (q - 1)^k Z[1/q] for k >= 1.
    * omega: at q = 1 the group is Z^2, and at q = 2 every gamma_k is
      Z[1/2].  Otherwise a prime l | q - 1 does not divide q, so the l-adic
      valuation is defined on Z[1/q]; it is >= k on gamma_(k+1), so the
      gamma_k meet in 0.
    * p, q >= 2: a finite p-group is nilpotent, so a map onto one kills
      some gamma_(k+1), whose quotient of the fiber is Z/(q - 1)^k (q is 1
      mod q - 1).  If p does not divide q - 1, that has no element of
      p-power order, so the fiber dies in every p-group quotient.  If
      p | q - 1, reduction mod p^k maps G onto Z/p^k x| Z/p^j for p^j a
      multiple of the order of q mod p^k, a power of p as q = 1 mod p.  A
      fiber element a != 0 survives there once k > v_p(a), and t^m a with
      m != 0 survives in Z/p^j once p^j > |m|.

    These are the matrix routes' answers on the 1x1 matrix A = [q]: the
    gap gcd of charpoly(A) - (x - 1) is q - 1, and the lattice chain of
    A - I = [q - 1] has a unimodular factor exactly at q = 2.
    """
    q = spec.q
    return BSReport(q, PrimeSet.dividing(q - 1), q != 2, trivial_case=q == 1)


# ---------------------------------------------------------------------------
# Invariant-subspace obstruction for free fibers


class ObstructionResult(Record):
    __slots__ = ("exists", "witness", "examined")

    # witness: {"subspace": rows, "quotient_dim": d, "order": p^s}
    def __init__(self, exists: bool, witness: dict | None, examined: int):
        object.__setattr__(self, "exists", exists)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "examined", examined)


def p_power_order_quotient_exists(m: ModMatrix, p: int) -> ObstructionResult:
    """Is there an M-invariant subspace W of F_p^n with quotient dimension
    >= 2 on which the induced action has p-power order?

    In GL_d(F_p) having p-power order is the same as being unipotent.  Let
    N = (M - I)^n.  The answer is yes iff dim ker N >= 2, and
    W = im N is then a witness of the largest quotient dimension:

    * im N is M-invariant, because N commutes with M.
    * Every invariant W with V/W unipotent contains im N.  M - I acts
      nilpotently on V/W, a space of dimension <= n, so (M - I)^n maps V
      into W.
    * V/im N is unipotent, because (M - I)^n is zero on it.

    So the qualifying subspaces are exactly the invariant W containing
    im N.  The largest quotient among them is V/im N, of dimension
    n - rank N = dim ker N.  One rank computation decides the question;
    ``examined`` counts that one canonical candidate, and no cap applies.
    A unipotent M is the case W = 0.

    The order of M on V/W, without building the quotient.  With
    N1 = M - I, the images im N1^j shrink as j grows and are all
    M-invariant.  Once rank N1^j = rank N1^(j+1), N1 maps im N1^j onto
    itself, so every later image is im N1^j; before that the rank drops at
    each step.  So the least j with rank N1^j = rank N1^(j+1) has
    im N1^j = im N = W, and it is nu_W, the nilpotency index of N1 on V/W:
    N1^i V lies in W iff it equals W (it contains W for i <= n), iff
    rank N1^i = rank N.  The order of M on V/W is p^s for the least
    p^s >= nu_W (``least_p_power_exponent``).  The powers stop at
    nu_W + 1, and never pass N.
    """
    _require_prime(p)
    if m.modulus != p:
        raise ValueError("matrix must be over F_p")
    n = m.n
    if n < 2:
        raise InvalidSpec("obstruction needs dimension >= 2")
    a = IntMatrix.from_rows([list(r) for r in m.entries])
    if det_exact(a) % p == 0:
        raise InvalidSpec("matrix not invertible mod p")
    nil = ModMatrix.reduce(a.minus_identity(), p)
    power, image, nu = nil, _column_space(nil), 1
    while nu < n:
        power = power * nil
        next_image = _column_space(power)
        if len(next_image) == len(image):
            break
        image, nu = next_image, nu + 1
    quotient_dim = n - len(image)
    if quotient_dim < 2:
        return ObstructionResult(False, None, examined=1)
    return ObstructionResult(
        True,
        {
            "subspace": [list(r) for r in image],
            "quotient_dim": quotient_dim,
            "order": p ** least_p_power_exponent(nu, p),
        },
        examined=1,
    )


def _column_space(m: ModMatrix) -> tuple[tuple[int, ...], ...]:
    return rref_mod(list(zip(*m.entries)), m.modulus)[0]


def fibered_verdicts(spec: MappingTorusSpec, primes: Sequence[int]) -> list[Verdict]:
    """Is the mapping torus F_n x|_phi Z, n >= 2, residually p?  One
    three-valued verdict per prime, in the order given, from one
    characteristic polynomial f of the action M of phi on H_1.

    The verdict reads only the abelianization mod p, which is what makes
    it invariant under composition with mod-p Torelli automorphisms.
    Unipotence of M mod p is sufficient; for necessity the obstruction is
    the one of ``p_power_order_quotient_exists``: a residually-p mapping
    torus needs an M-invariant W in F_p^n with dim(F_p^n / W) >= 2 on which
    M acts with p-power order.  With g the gap gcd of ``torus_verdicts``
    and h = gcd(f(1), f'(1)):

    * p | g: M is unipotent mod p (proved in ``torus_verdicts``), so
      ResiduallyP.  These primes share one chain of powers of M - I
      (``_nilpotency_indices``), for the nilpotency index each certificate
      reports, and it must agree.
    * p does not divide g, p | h: a qualifying quotient exists but M is not
      unipotent, so Undecided.
    * otherwise no qualifying quotient exists, so NotResiduallyP.

    Proof that a qualifying quotient exists iff p | h.  The spec carries
    a certified inverse psi, and FreeEndo checks psi o phi = id, which
    makes phi an automorphism with inverse psi (a free group of finite
    rank is Hopfian; proof in ``FreeEndo``).  So M lies in GL_n(Z),
    det M = +-1, and M is invertible mod every p.  Such a
    quotient exists iff dim ker (M - I)^n >= 2 over F_p
    (``p_power_order_quotient_exists``).  ker (M - I)^n is the generalised
    eigenspace of the eigenvalue 1, whose dimension is the multiplicity of
    1 as a root of fbar = f mod p.  That multiplicity is >= 2 iff
    fbar(1) = fbar'(1) = 0: if fbar = (x - 1) q, then
    fbar' = q + (x - 1) q' and fbar'(1) = q(1).  Reduction mod p commutes
    with evaluation at 1 and with the derivative, so this is p | f(1) and
    p | f'(1), that is p | h.  A NotResiduallyP verdict reports the one
    canonical candidate W = im (M - I)^n as ``examined_subspaces``.
    """
    if spec.rank < 2:
        raise InvalidSpec("rank-1 fibers are torus/BS territory")
    for p in primes:
        _require_prime(p)
    a = abelianization_matrix(spec.fiber)
    charpoly, _, g = _charpoly_gap(a)
    h = math.gcd(sum(charpoly), sum(c * (a.n - k) for k, c in enumerate(charpoly)))
    index = _nilpotency_indices(a, primes, g)
    verdicts = []
    for p in primes:
        if g % p == 0:
            certificate = {
                "criterion": "unipotent_on_H1_mod_p",
                "nilpotency_index": index[p],
                "abelianization": [list(r) for r in a.entries],
            }
            verdicts.append(Verdict(p, RESIDUALLY_P, certificate=certificate))
        elif h % p == 0:
            reason = (
                "not unipotent mod p, but an invariant quotient with p-power "
                "order exists; no criterion applies"
            )
            verdicts.append(Verdict(p, UNDECIDED, reason=reason))
        else:
            obstruction = {
                "criterion": "no_p_power_invariant_quotient",
                "examined_subspaces": 1,
                "abelianization": [list(r) for r in a.entries],
            }
            verdicts.append(Verdict(p, NOT_RESIDUALLY_P, obstruction=obstruction))
    return verdicts


def _lucas_v(t: int, m: int, p: int) -> int:
    """V_m(t) mod p, where V_0 = 2, V_1 = t, V_(j+1) = t V_j - V_(j-1):
    the trace of A^m for any A in SL_2 with trace t.  Binary ladder on
    (V_j, V_(j+1)) with V_2j = V_j^2 - 2 and V_(2j+1) = V_j V_(j+1) - t."""
    v, w = 2 % p, t % p
    for bit in bin(m)[2:]:
        if bit == "1":
            v, w = (v * w - t) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - t) % p
    return v


def sl2_power_divisibility(a: IntMatrix, p: int) -> int:
    """Least k >= 1 with p | det(A^k - I), for A in SL_2(Z).

    This is the index that makes <Z^2, t^k> in Z^2 x|_A Z residually p.
    Closed form, with t = tr A and Abar = A mod p:

    * det(B - I) = 2 - tr B for B in SL_2, its characteristic polynomial
      x^2 - (tr B) x + 1 taken at 1.  So p | det(A^k - I) iff
      tr A^k = 2 mod p, iff Abar^k has characteristic polynomial (x - 1)^2,
      iff Abar^k is unipotent (Cayley-Hamilton).
    * Let Abar = S U be the Jordan decomposition over F_p: S semisimple,
      U unipotent, S U = U S.  Then Abar^k = S^k U^k is the Jordan
      decomposition of Abar^k, and by its uniqueness Abar^k is unipotent
      iff S^k = I.  So the k that qualify are exactly the multiples of
      e = ord S, and the answer is e.
    * The eigenvalues of S are the roots l, 1/l of x^2 - t x + 1, which
      lie in F_(p^2)*, and S diagonalises over F_(p^2).  So e = ord l
      divides p^2 - 1.
    * Start at k = p^2 - 1, a multiple of e.  For each prime q | p^2 - 1,
      divide k by q while q | k and k/q is still a multiple of e, that is
      tr A^(k/q) = 2 mod p.  This stops with the q-adic valuation of k
      equal to that of e, so the last k is e.
    * tr A^m = l^m + l^-m is the Lucas value V_m(t), computed mod p by
      doubling (``_lucas_v``) with O(log m) products of plain ints.

    The primes of p^2 - 1 are those of p - 1 and p + 1, factored apart so
    the cofactors stay half the size.
    """
    _require_prime(p)
    if a.n != 2 or det_exact(a) != 1:
        raise InvalidSpec("need a 2x2 integer matrix of determinant 1")
    t = a.trace() % p
    two = 2 % p
    k = p * p - 1
    if _lucas_v(t, k, p) != two:
        raise InternalInvariant("tr A^(p^2 - 1) is not 2 mod p")
    for q in set(prime_factors(p - 1) + prime_factors(p + 1)):
        while k % q == 0 and _lucas_v(t, k // q, p) == two:
            k //= q
    return k

