"""Finite p-group quotient certificates: search, combination, re-verification."""

import json
import random
import sys
import time

import pytest

from oracles import (
    chain_lengths,
    depth_minimal_by_ladder,
    encoded,
    induced_order_by_iteration,
    kernel_invariance_by_sampling,
)
from resip import cli, witness
from resip.braid import artin_endo, beta_braid
from resip.errors import CapExceeded, InternalInvariant, InvalidSpec
from resip.freegrp import (
    FreeEndo,
    FreeWord,
    MappingTorusElement,
    MappingTorusSpec,
    abelianization_matrix,
    commutator,
    compose_endos,
    endo_power,
    inner_automorphism,
    nielsen_transvection,
    parse_word,
)
from resip.intlin import is_unipotent_mod, least_p_power_exponent
from resip.magnus import SeriesSubstitution, TruncatedSeries
from resip.witness import (
    PGroupQuotient,
    _nilpotency_bound,
    combine_witnesses,
    find_p_quotient_witness,
    induced_automorphism_order,
    verify_witness,
)


def _beta_spec():
    return MappingTorusSpec(artin_endo(beta_braid()))


def _identity_spec(rank=2):
    return MappingTorusSpec(FreeEndo.identity(rank))


def _elem(t, w_text, rank=3):
    return MappingTorusElement(t, parse_word(w_text, rank))


# the swap x1 <-> x2 has order 2 on H_1, so no level has an odd p-power order
_SWAP = FreeEndo(
    2,
    (parse_word("x2", 2), parse_word("x1", 2)),
    (parse_word("x2", 2), parse_word("x1", 2)),
)


def test_stable_letter_certificate():
    out = find_p_quotient_witness(_beta_spec(), _elem(1, "1"), 5)
    assert out.status == "certificate"
    cert = out.certificate
    assert cert.kind == "stable_letter"
    assert cert.data["quotient_order"] == 5
    assert cert.data["residue"] == 1
    assert verify_witness(cert).ok


def test_stable_letter_beats_large_exponents():
    out = find_p_quotient_witness(_beta_spec(), _elem(9, "1"), 3)
    cert = out.certificate
    # need 3^j > 9, so j = 3
    assert cert.data["j"] == 3
    assert cert.data["residue"] == 9
    assert verify_witness(cert).ok


def test_stable_letter_exponent_is_derived_not_trusted():
    cert = find_p_quotient_witness(_beta_spec(), _elem(9, "1"), 3).certificate
    names = [name for name, _ in verify_witness(cert).checks]
    for j in (2, 4, 10 ** 6):
        forged = PGroupQuotient.from_dict(
            dict(cert.to_dict(), data=dict(cert.data, j=j))
        )
        start = time.perf_counter()
        report = verify_witness(forged)
        elapsed = time.perf_counter() - start
        assert not report.ok
        # same check names as a valid certificate; every stable-letter check fails
        assert [name for name, _ in report.checks] == names
        assert [passed for _, passed in report.checks] == [True, False, False, False, False]
        assert elapsed < 0.05


def test_stable_letter_route_ignores_unipotence():
    # beta's H_1 action is not unipotent mod 5, but t survives anyway:
    # the quotient kills the whole fiber
    out = find_p_quotient_witness(_beta_spec(), _elem(2, "x1 X2"), 5)
    assert out.status == "certificate"
    assert out.certificate.kind == "stable_letter"


def test_identity_element_rejected():
    with pytest.raises(InvalidSpec):
        find_p_quotient_witness(_beta_spec(), _elem(0, "1"), 3)


def test_magnus_certificate_identity_monodromy():
    out = find_p_quotient_witness(
        _identity_spec(), MappingTorusElement(0, parse_word("x1 x2 X1 X2", 2)), 2
    )
    assert out.status == "certificate"
    cert = out.certificate
    assert cert.kind == "magnus"
    assert cert.data["degree"] == 2
    assert cert.data["induced_order"] == 1
    assert cert.data["order_exponent"] == 0
    # fiber bound 2^(2 + 4) for rank 2, degree 2
    assert cert.data["fiber_order_bound"] == 2 ** 6
    assert verify_witness(cert).ok


def test_magnus_certificate_beta_at_three():
    out = find_p_quotient_witness(_beta_spec(), _elem(0, "x1 X2"), 3)
    assert out.status == "certificate"
    cert = out.certificate
    assert cert.kind == "magnus"
    assert cert.data["degree"] == 1
    assert cert.data["induced_order"] == 3
    report = verify_witness(cert)
    assert report.ok, report.checks


def test_order_exponent_is_derived_not_raised_to():
    cert = find_p_quotient_witness(_beta_spec(), _elem(0, "x1 X2"), 3).certificate
    assert cert.data["order_exponent"] == 1
    for s in (0, 2, 10 ** 8):
        forged = PGroupQuotient.from_dict(
            dict(cert.to_dict(), data=dict(cert.data, order_exponent=s))
        )
        start = time.perf_counter()
        report = verify_witness(forged)
        elapsed = time.perf_counter() - start
        assert [name for name, passed in report.checks if not passed] == ["order_exponent"]
        assert elapsed < 0.05


def test_magnus_route_blocked_without_unipotence():
    out = find_p_quotient_witness(_beta_spec(), _elem(0, "x1 X2"), 5)
    assert out.status == "undecided"
    assert "not unipotent" in out.reason


def test_non_unipotent_magnus_route_is_undecided():
    # no level has a 3-power order, so the outcome is undecided, and no
    # mode searches regardless
    element = MappingTorusElement(0, parse_word("x1", 2))
    out = find_p_quotient_witness(MappingTorusSpec(_SWAP), element, 3)
    assert out.status == "undecided"
    assert out.reason == "H_1 action not unipotent mod 3; the certificate route requires it"
    with pytest.raises(TypeError):
        find_p_quotient_witness(MappingTorusSpec(_SWAP), element, 3, exploratory=True)


def test_induced_order_fixture():
    # transvection is unipotent over Z; induced order on depth-3 quotient
    # at p = 2 divides 2^k and is exactly 4 here
    spec = MappingTorusSpec(nielsen_transvection(2, 1, 2))
    assert induced_automorphism_order(spec, 2, 3) == 4
    with pytest.raises(InvalidSpec, match="H_1 action not unipotent mod 3"):
        induced_automorphism_order(MappingTorusSpec(_SWAP), 3, 2)


def test_non_unipotent_order_builds_no_substitution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a series substitution was built")

    monkeypatch.setattr(witness, "SeriesSubstitution", refuse)
    with pytest.raises(InvalidSpec, match="not unipotent mod 3"):
        induced_automorphism_order(MappingTorusSpec(_SWAP), 3, 4)
    with pytest.raises(InvalidSpec, match="not unipotent mod 5"):
        induced_automorphism_order(_beta_spec(), 5, 2)


def _random_unipotent(rng, rank, p):
    """A product of steps that are each unipotent on H_1 mod p: transvections
    x_i -> x_i x_j with i < j (triangular), p-th powers of any transvection
    (the identity mod p) and inner automorphisms (the identity)."""
    phi = FreeEndo.identity(rank)
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            step = nielsen_transvection(rank, *sorted(rng.sample(range(1, rank + 1), 2)))
        elif kind == 1:
            step = endo_power(nielsen_transvection(rank, *rng.sample(range(1, rank + 1), 2)), p)
        else:
            letters = [rng.choice([-1, 1]) * rng.randint(1, rank) for _ in range(2)]
            step = inner_automorphism(FreeWord.from_letters(rank, letters))
        phi = compose_endos(step, phi)
    return phi


def test_induced_order_matches_iteration_and_divides_the_bound():
    rng = random.Random(919)
    cases = []
    for _ in range(200):
        rank, p, d = rng.randint(2, 4), rng.choice((2, 3, 5, 7)), rng.randint(1, 4)
        cases.append((_random_unipotent(rng, rank, p), p, d))
    # random draws seldom reach (M - I)^2 != 0; a chain of transvections
    # x_i -> x_i x_(i+1) has nilpotency index equal to its rank
    for rank in (3, 4):
        chain = FreeEndo.identity(rank)
        for i in range(1, rank):
            chain = compose_endos(nielsen_transvection(rank, i, i + 1), chain)
        assert is_unipotent_mod(abelianization_matrix(chain), 2).index == rank
        cases += [(chain, p, d) for p in (2, 3, 5, 7) for d in range(1, 5)]
    orders = set()
    for phi, p, d in cases:
        unip = is_unipotent_mod(abelianization_matrix(phi), p)
        assert unip
        order = induced_automorphism_order(MappingTorusSpec(phi), p, d)
        assert order == induced_order_by_iteration(SeriesSubstitution(phi, d, p))
        nu = _nilpotency_bound(d, unip.index)
        assert p ** least_p_power_exponent(nu, p) % order == 0
        # the chains of the X_i vanish within nu - 1 steps, and the order
        # is the least p-power reaching the longest
        longest = max(chain_lengths(SeriesSubstitution(phi, d, p)))
        assert longest <= nu - 1
        assert order == p ** least_p_power_exponent(longest, p)
        orders.add((order > 1, order > p))
    # the draw reaches orders 1, p and above p
    assert orders == {(False, False), (True, False), (True, True)}


def _count_calls(monkeypatch, method, compute) -> tuple[int, object]:
    """Calls of the SeriesSubstitution method while compute runs, and its
    result."""
    calls = []
    real = getattr(SeriesSubstitution, method)

    def counted(self, arg):
        calls.append(1)
        return real(self, arg)

    with monkeypatch.context() as m:
        m.setattr(SeriesSubstitution, method, counted)
        result = compute()
    return len(calls), result


@pytest.mark.parametrize(
    "phi, p, d, order",
    [
        (artin_endo(beta_braid()), 3, 4, 9),
        (nielsen_transvection(2, 1, 2), 5, 5, 25),
    ],
)
def test_induced_order_follows_the_chains_not_the_powers(monkeypatch, phi, p, d, order):
    spec = MappingTorusSpec(phi)
    steps, found = _count_calls(
        monkeypatch, "chain_step", lambda: induced_automorphism_order(spec, p, d)
    )
    assert found == order
    longest = max(chain_lengths(SeriesSubstitution(phi, d, p)))
    # each chain costs one step per link, at most rank * l in all, and
    # builds no series: the substitution is never called
    assert steps <= phi.rank * longest
    calls, _ = _count_calls(monkeypatch, "__call__", lambda: induced_automorphism_order(spec, p, d))
    assert calls == 0
    iterated, by_iteration = _count_calls(
        monkeypatch, "__call__", lambda: induced_order_by_iteration(SeriesSubstitution(phi, d, p))
    )
    assert by_iteration == order
    assert steps < iterated
    # the bound is sharp: a chain of length l passes nu = l + 1 and fails
    # nu = l (both above p, so the chains are followed)
    sub = SeriesSubstitution(phi, d, p)
    assert witness._raw_induced_order(sub, p, longest + 1) == order
    with pytest.raises(InternalInvariant, match=f"outlives its bound nu - 1 = {longest - 1}"):
        witness._raw_induced_order(sub, p, longest)


def test_chain_steps_are_u_minus_i_and_give_the_oracle_chains():
    rng = random.Random(4077)
    for _ in range(80):
        rank, p, d = rng.randint(2, 3), rng.choice((2, 3, 5, 7)), rng.randint(1, 4)
        phi = _random_unipotent(rng, rank, p)
        sub = SeriesSubstitution(phi, d, p)
        # a step on any table, constant term included, is U(t) - t
        monomials = [()] + [
            tuple(rng.randint(1, rank) for _ in range(rng.randint(1, d))) for _ in range(6)
        ]
        t = TruncatedSeries(rank, d, p, encoded({m: rng.randint(1, p - 1) for m in monomials}, rank))
        table = dict(t.table)
        assert sub.chain_step(table) == (sub(t) - t).table
        assert table == t.table  # the step leaves its argument alone
        lengths = []
        for i in range(1, rank + 1):
            term, length = {i: 1}, 0  # the code of X_i is i
            while term:
                term = sub.chain_step(term)
                length += 1
            lengths.append(length)
        assert lengths == chain_lengths(SeriesSubstitution(phi, d, p))
        unip = is_unipotent_mod(abelianization_matrix(phi), p)
        order = witness._raw_induced_order(sub, p, _nilpotency_bound(d, unip.index))
        assert order == p ** least_p_power_exponent(max(lengths), p)


_CHAIN_OUTLIVES_ITS_BOUND = """
import json, os, sys, tempfile
from resip import cli, witness
from resip.magnus import TruncatedSeries

assert sys.flags.optimize == 1


class Doubled(witness.SeriesSubstitution):
    # X_1 -> embed(phi(x_1)) - 1 + X_1: a ring map acting on H_1 as M + E_11,
    # which is not unipotent, so U - I is not nilpotent and a chain
    # outlives nu - 1
    def __init__(self, phi, d, modulus, caps):
        super().__init__(phi, d, modulus, caps)
        self.images[0] = self.images[0] + TruncatedSeries(self.rank, d, modulus, {1: 1})  # X_1


witness.SeriesSubstitution = Doubled
beta = {
    "rank": 3,
    "images": ["x1 x3 X1", "x1", "X3 x2 x3"],
    "inverse": ["x2", "X2 x1 x2 x3 X2 X1 x2", "X2 x1 x2"],
}
doc = {
    "version": 1,
    "tasks": [
        dict(beta, id="witness", kind="witness", p=3, element={"t": 0, "w": "x1 X2"}),
        dict(beta, id="stable", kind="witness", p=3, element={"t": 1, "w": "1"}),
    ],
}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "tasks.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    status = cli.main(["run", "--tasks", path, "--format", "json"])
print("exit", status)
"""


def test_a_chain_past_its_bound_raises_under_python_O():
    # x1 X2 has depth 1, and beta at p = 3 and depth 1 has nu = 4 > p, so
    # the chains are followed
    from test_classify import _run_optimized

    out = _run_optimized(_CHAIN_OUTLIVES_ITS_BOUND)
    report, status = out.rsplit("\n", 2)[:2]
    assert status == "exit 0"
    entries = json.loads(report)["entries"]
    errors = [e for e in entries if e["status"] == "error"]
    assert [(e["id"], e["error"]["type"]) for e in errors] == [("witness", "InternalInvariant")]
    assert errors[0]["error"]["message"] == "a (U - I)-chain outlives its bound nu - 1 = 3"
    assert [e["status"] for e in entries] == ["error", "ok"]


@pytest.mark.parametrize("p", [7919, 1000003])
def test_large_prime_transvection_witness(p):
    # the bound is p, so one application of the substitution settles the order
    spec = MappingTorusSpec(nielsen_transvection(2, 1, 2))
    element = MappingTorusElement(0, parse_word("x1 x2 X1 X2", 2))
    cert = find_p_quotient_witness(spec, element, p).certificate
    assert (cert.kind, cert.data["induced_order"], cert.data["order_exponent"]) == ("magnus", p, 1)
    restored = PGroupQuotient.from_dict(json.loads(json.dumps(cert.to_dict())))
    assert verify_witness(restored).ok


def _alpha_swapped_certificate() -> PGroupQuotient:
    """A valid identity-monodromy certificate at p = 7993 with the Sol
    monodromy alpha swapped in; alpha is not unipotent mod 7993."""
    element = MappingTorusElement(0, parse_word("x1 x2 X1 X2", 2))
    cert = find_p_quotient_witness(_identity_spec(), element, 7993).certificate
    return PGroupQuotient.from_dict(
        dict(
            cert.to_dict(),
            monodromy_images=["x1 x1 x2", "x1 x2"],
            monodromy_inverse=["x1 X2", "x2 X1 x2"],
        )
    )


def test_non_unipotent_certificate_fails_without_iterating():
    forged = _alpha_swapped_certificate()
    start = time.perf_counter()
    report = verify_witness(forged)
    elapsed = time.perf_counter() - start
    assert [name for name, passed in report.checks if not passed] == [
        "h1_unipotent_mod_p",
        "induced_order_matches",
        "induced_order_p_power",
    ]
    assert elapsed < 0.05


def test_round_trip_through_json():
    out = find_p_quotient_witness(_beta_spec(), _elem(0, "x1 X2"), 3)
    blob = json.dumps(out.certificate.to_dict())
    restored = PGroupQuotient.from_dict(json.loads(blob))
    assert restored == out.certificate
    assert verify_witness(restored).ok


def test_tampered_certificate_fails_verification():
    out = find_p_quotient_witness(_beta_spec(), _elem(0, "x1 X2"), 3)
    d = out.certificate.to_dict()
    d["data"]["evidence_coefficient"] = 0
    assert not verify_witness(PGroupQuotient.from_dict(d)).ok
    d2 = out.certificate.to_dict()
    d2["data"]["degree"] = 2
    assert not verify_witness(PGroupQuotient.from_dict(d2)).ok
    d3 = out.certificate.to_dict()
    d3["data"]["induced_order"] = 9
    assert not verify_witness(PGroupQuotient.from_dict(d3)).ok


@pytest.mark.parametrize("forged", [(2, 0), (2, -1), (3, 3), (1, 3)],
                         ids=["letter-0", "negative-letter", "rank-plus-one", "aliases-x2x1"])
def test_a_monomial_outside_the_rank_fails_survival(tmp_path, capsys, forged):
    # x1^2 x2^2 [x1, x2] has depth 2 mod 2 and every degree-2 coefficient 1;
    # at rank 2 the codes of (2, 0), (2, -1) and (1, 3) are those of (1, 2),
    # (1, 1) and (2, 1), and (3, 3) has no code of degree 2
    cert = find_p_quotient_witness(_identity_spec(), _elem(0, "x1 x1 x2 x2 x1 x2 X1 X2", 2), 2).certificate
    assert (cert.data["degree"], cert.data["evidence_monomial"]) == (2, [1, 1])
    d = cert.to_dict()
    d["data"]["evidence_monomial"] = list(forged)
    report = verify_witness(PGroupQuotient.from_dict(d))
    assert [name for name, passed in report.checks if not passed] == ["survival_coefficient"]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(d))
    assert cli.main(["verify-witness", "--certificate", str(path)]) == 1
    capsys.readouterr()


def test_no_term_at_the_found_depth_is_an_internal_fault():
    series = TruncatedSeries(2, 3, 3, {0: 1, 7: 1})  # 1 + X1 X1 X1
    for d in (2, 1):
        with pytest.raises(InternalInvariant, match=f"no least term of degree {d}"):
            witness._least_nonzero_evidence(series, d)
    assert witness._least_nonzero_evidence(series, 3) == ((1, 1, 1), 1)
    with pytest.raises(InternalInvariant):
        witness._least_nonzero_evidence(TruncatedSeries.one(2, 3, 3), 3)


def test_combine_witnesses_product():
    w1 = find_p_quotient_witness(_beta_spec(), _elem(0, "x1 X2"), 3).certificate
    w2 = find_p_quotient_witness(_beta_spec(), _elem(1, "1"), 3).certificate
    product = combine_witnesses([w1, w2])
    assert product.kind == "product"
    assert product.data["count"] == 2
    assert (
        product.data["total_order_bound"]
        == w1.data["total_order_bound"] * w2.data["quotient_order"]
    )
    report = verify_witness(product)
    assert report.ok
    assert ("same_mapping_torus", True) in report.checks
    # singleton passthrough
    assert combine_witnesses([w1]) is w1


def test_product_checks_name_components_by_position():
    # t^1 and t^5 both have survivor word "1", which once named both checks
    t1 = find_p_quotient_witness(_beta_spec(), _elem(1, "1"), 3).certificate
    t5 = find_p_quotient_witness(_beta_spec(), _elem(5, "1"), 3).certificate
    product = combine_witnesses([t1, t5])
    names = [name for name, _ in verify_witness(product).checks]
    assert [n for n in names if n.startswith("component_")] == ["component_0", "component_1"]
    assert len(set(names)) == len(names)
    d = product.to_dict()
    d["components"][1]["data"]["residue"] += 1
    report = verify_witness(PGroupQuotient.from_dict(d))
    assert [name for name, passed in report.checks if not passed] == ["component_1"]


def test_product_of_many_parts_verifies_at_default_caps():
    # no cap counts a product's parts: its validity depends on them alone
    part = find_p_quotient_witness(_beta_spec(), _elem(1, "1"), 3).certificate
    product = combine_witnesses([part] * 17)
    assert product.data["count"] == 17
    assert verify_witness(product).ok


def test_combine_witnesses_guards():
    w1 = find_p_quotient_witness(_beta_spec(), _elem(0, "x1 X2"), 3).certificate
    w5 = find_p_quotient_witness(_beta_spec(), _elem(1, "1"), 5).certificate
    with pytest.raises(InvalidSpec, match="all witnesses must share the prime"):
        combine_witnesses([w1, w5])
    with pytest.raises(InvalidSpec):
        combine_witnesses([])
    other = find_p_quotient_witness(
        _identity_spec(3), MappingTorusElement(1, parse_word("1", 3)), 3
    ).certificate
    with pytest.raises(InvalidSpec):
        combine_witnesses([w1, other])


def test_product_of_other_mapping_tori_fails_verification():
    beta_part = find_p_quotient_witness(_beta_spec(), _elem(1, "1"), 3).certificate
    identity_part = find_p_quotient_witness(
        _identity_spec(3), _elem(0, "x1 X2"), 3
    ).certificate
    mixed = PGroupQuotient(
        p=3,
        kind="product",
        rank=3,
        monodromy_images=beta_part.monodromy_images,
        monodromy_inverse=beta_part.monodromy_inverse,
        survivor_t=0,
        survivor_word="1",
        data={
            "total_order_bound": beta_part.data["quotient_order"]
            * identity_part.data["total_order_bound"],
            "count": 2,
        },
        components=(beta_part, identity_part),
    )
    report = verify_witness(mixed)
    assert not report.ok
    # each part is a valid certificate on its own; only the torus differs
    assert [name for name, passed in report.checks if not passed] == ["same_mapping_torus"]
    empty = PGroupQuotient.from_dict(
        dict(mixed.to_dict(), components=[], data={"total_order_bound": 1, "count": 0})
    )
    assert dict(verify_witness(empty).checks)["same_mapping_torus"] is False


def test_non_prime_certificate_is_rejected():
    cert = PGroupQuotient(
        p=4,
        kind="stable_letter",
        rank=2,
        monodromy_images=("x1", "x2"),
        monodromy_inverse=("x1", "x2"),
        survivor_t=5,
        survivor_word="1",
        data={"j": 2, "quotient_order": 16, "residue": 5},
    )
    with pytest.raises(InvalidSpec, match="4 is not prime"):
        verify_witness(cert)
    good = find_p_quotient_witness(_beta_spec(), _elem(1, "1"), 3).certificate
    product = combine_witnesses([good, good]).to_dict()
    product["components"][1]["p"] = 9
    with pytest.raises(InvalidSpec, match="9 is not prime"):
        verify_witness(PGroupQuotient.from_dict(product))


def test_survival_is_monotone_in_depth():
    # deeper commutators survive at larger degrees, never shallower ones
    spec = _identity_spec()
    x1 = parse_word("x1", 2)
    x2 = parse_word("x2", 2)
    from resip.freegrp import commutator

    c2 = commutator(x1, x2)
    c3 = commutator(x1, c2)
    c4 = commutator(x2, c3)
    for w, d in ((c2, 2), (c3, 3), (c4, 4)):
        out = find_p_quotient_witness(spec, MappingTorusElement(0, w), 2)
        assert out.certificate.data["degree"] == d


def test_beta_cube_has_unipotent_h1_everywhere():
    beta3 = MappingTorusSpec(endo_power(artin_endo(beta_braid()), 3))
    out = find_p_quotient_witness(beta3, _elem(0, "x1 X2"), 5)
    assert out.status == "certificate"
    assert verify_witness(out.certificate).ok


def _left_nested(rng, rank, weight):
    """[[..[x_a, x_b], x_c].., x_z] of the given weight with a != b, whose
    Lie element is nonzero mod every p, so its Magnus depth is the weight."""
    a, b = rng.sample(range(1, rank + 1), 2)
    w = commutator(FreeWord.generator(rank, a), FreeWord.generator(rank, b))
    for _ in range(weight - 2):
        w = commutator(w, FreeWord.generator(rank, rng.randint(1, rank)))
    return w


def _magnus_certificates():
    """Seeded magnus certificates: random monodromies unipotent on H_1 mod
    p at ranks 2 and 3, and beta at p = 3 up to depth 4."""
    rng = random.Random(1201)
    cases = []
    for _ in range(24):
        rank, p = rng.randint(2, 3), rng.choice((2, 3, 5, 7))
        weight = rng.randint(2, 4 if rank == 2 else 3)
        cases.append((MappingTorusSpec(_random_unipotent(rng, rank, p)), p, _left_nested(rng, rank, weight)))
    cases += [(_beta_spec(), 3, _left_nested(rng, 3, weight)) for weight in (2, 3, 4, 4)]
    certs = []
    for spec, p, w in cases:
        cert = find_p_quotient_witness(spec, MappingTorusElement(0, w), p).certificate
        assert cert.kind == "magnus"
        certs.append(cert)
    return certs


def test_kernel_invariance_agrees_with_sampling():
    certs = _magnus_certificates()
    beta_images = _beta_spec().fiber.images
    assert any(
        c.p == 3 and c.data["degree"] == 4 and c.monodromy().images == beta_images
        for c in certs
    )
    for cert in certs:
        checks = dict(verify_witness(cert).checks)
        assert checks["kernel_invariance"] is kernel_invariance_by_sampling(cert) is True


def test_kernel_invariance_fails_for_a_substitution_off_embed_phi(monkeypatch):
    # the bound is p = 7 here, so the order check applies the substitution
    # once and cannot raise on a wrong one
    spec = MappingTorusSpec(nielsen_transvection(2, 1, 2))
    cert = find_p_quotient_witness(spec, _elem(0, "x1 x2 X1 X2", 2), 7).certificate
    assert dict(verify_witness(cert).checks)["kernel_invariance"] is True

    class Skewed(SeriesSubstitution):
        """X_1 -> embed(phi(x_1)) - 1 + X_1 X_1: still a ring map, but no
        longer U o embed = embed o phi."""

        def __init__(self, phi, d, modulus, caps):
            super().__init__(phi, d, modulus, caps)
            x1x1 = encoded({(1, 1): 1}, self.rank)
            self.images[0] = self.images[0] + TruncatedSeries(self.rank, d, modulus, x1x1)

    monkeypatch.setattr(witness, "SeriesSubstitution", Skewed)
    checks = dict(verify_witness(cert).checks)
    assert checks["kernel_invariance"] is False


def _with_degree(cert, degree, survivor_word=None):
    """A copy of a magnus certificate storing another degree, and
    optionally another survivor."""
    d = cert.to_dict()
    d["data"] = dict(d["data"], degree=degree)
    if survivor_word is not None:
        d["survivor_word"] = survivor_word
    return PGroupQuotient.from_dict(d)


def test_depth_from_one_embedding_agrees_with_the_ladder():
    certs = _magnus_certificates()
    # depth 1 words, and x1^p, whose series is 1 + X_1^p over F_p: depth p
    rng = random.Random(2203)
    for p in (2, 3, 5, 7):
        spec = MappingTorusSpec(_random_unipotent(rng, 2, p))
        for w in ("x1 X2 x1", "x2", " ".join(["x1"] * p)):
            certs.append(find_p_quotient_witness(spec, _elem(0, w, 2), p).certificate)
    degrees = set()
    for cert in certs:
        d = cert.data["degree"]
        degrees.add(d)
        w = parse_word(cert.survivor_word, cert.rank)
        for stored in (d - 1, d, d + 1):
            if stored < 1:
                continue
            checks = dict(verify_witness(_with_degree(cert, stored)).checks)
            assert checks["depth_minimal"] is depth_minimal_by_ladder(w, stored, cert.p)
            assert checks["depth_minimal"] is (stored == d)
        # the identity has no depth at any degree
        checks = dict(verify_witness(_with_degree(cert, d, survivor_word="1")).checks)
        one = FreeWord.identity(cert.rank)
        assert checks["depth_minimal"] is depth_minimal_by_ladder(one, d, cert.p) is False
    assert degrees == {1, 2, 3, 4, 5, 7}


def test_a_stored_degree_below_the_true_depth_fails_without_the_cap(monkeypatch):
    # x1^9 has depth 9 over F_3 (its series is 1 + X_1^9), beyond the
    # default cap of 8: a certificate claiming degree 4 fails depth_minimal,
    # where the ladder hits the cap
    cert = find_p_quotient_witness(
        MappingTorusSpec(nielsen_transvection(2, 1, 2)), _elem(0, "x1 x2 X1 X2", 2), 3
    ).certificate
    forged = _with_degree(cert, 4, survivor_word=" ".join(["x1"] * 9))
    report = verify_witness(forged)
    assert dict(report.checks)["depth_minimal"] is False and not report.ok
    with pytest.raises(CapExceeded, match="magnus_degree: cap 8 exceeded"):
        depth_minimal_by_ladder(parse_word(forged.survivor_word, 2), 4, 3)

    # a stored degree above the cap is refused before anything is embedded
    def refuse(*args):
        raise AssertionError("a word was embedded")

    monkeypatch.setattr(witness, "magnus_embed", refuse)
    with pytest.raises(CapExceeded, match="magnus_degree: cap 8 exceeded"):
        verify_witness(_with_degree(cert, 9))


@pytest.mark.parametrize("argv, reason", [
    # fiber_order_bound 2^87380 has 26,304 digits
    (["--images", "x1;x2;x3;x4", "--inverse", "x1;x2;x3;x4", "--p", "2", "--w", " ".join(["x1"] * 8)],
     "total_order_bound 2^87380 has more than 4300"),
    # quotient_order 2^14285 has 4,301 digits
    (["--images", "x1;x2", "--inverse", "x1;x2", "--p", "2", "--t", str(9 * 10 ** 4299)],
     "quotient_order 2^14285 has more than 4300"),
], ids=["magnus", "stable-letter"])
def test_a_certificate_too_wide_to_write_is_undecided(capsys, argv, reason):
    assert cli.main(["witness", *argv]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["entries"]
    assert entry["status"] == "ok" and entry["result"]["status"] == "undecided"
    assert entry["result"]["reason"].startswith(f"{reason} digits, the limit of sys.get_int_max_str_digits()")


def test_a_too_wide_witness_leaves_the_batch_running(tmp_path, capsys):
    identity = {"rank": 4, "images": ["x1", "x2", "x3", "x4"], "inverse": ["x1", "x2", "x3", "x4"]}
    tasks = [
        dict(identity, id="wide", kind="witness", p=2, element={"t": 0, "w": " ".join(["x1"] * 8)}),
        {"id": "torus", "kind": "torus", "matrix": [[2, 1], [1, 1]], "primes": [2, 3]},
    ]
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": tasks}))
    assert cli.main(["run", "--tasks", str(path)]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [(e["id"], e["status"]) for e in entries] == [("wide", "ok"), ("torus", "ok")]
    assert entries[0]["result"]["status"] == "undecided"
    assert len(entries[1]["result"]["verdicts"]) == 2


def test_too_wide_is_decided_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    # 2^14281 and 2^14284 have 4300 digits, 2^14285 has 4301
    for p in (2, 3, 7, 2 ** 61 - 1):
        e = least_p_power_exponent(10 ** limit, p)  # the least e with more than limit digits
        for k in (e - 2, e - 1, e, e + 1, 10 ** 12):
            assert witness._too_wide(p, k) is (k >= e), (p, k)
        assert len(str(p ** (e - 1))) <= limit
    # no limit: every value can be written
    sys.set_int_max_str_digits(0)
    try:
        assert witness._too_wide(2, 10 ** 12) is False
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_forged_bound_fails_without_raising_p_to_the_monomial_count():
    # p = 2^61 - 1, rank 6, degree 8: p ** (6 + 6^2 + ... + 6^8) would be
    # a 15 MB integer; the stored bound's exponent is compared instead
    ids = [f"x{i}" for i in range(1, 7)]
    forged = PGroupQuotient.from_dict({
        "p": 2 ** 61 - 1, "kind": "magnus", "rank": 6, "monodromy_images": ids,
        "monodromy_inverse": ids, "survivor_t": 0, "survivor_word": "x1",
        "data": {"degree": 8, "precision": 1, "order_exponent": 0, "induced_order": 1,
                 "evidence_monomial": [1] * 8, "evidence_coefficient": 1,
                 "fiber_order_bound": 2, "total_order_bound": 2},
    })
    start = time.perf_counter()
    report = verify_witness(forged)
    assert time.perf_counter() - start < 2.0
    assert not report.ok and dict(report.checks)["fiber_order_bound"] is False
