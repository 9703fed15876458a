"""Check every operation's output against the oracles.

check(workload, job, expect, output) returns one outcome per operation:
"ok", "failed" (the program gave no answer, or the known obstruction cap
fault gave Undecided where the Fitting criterion decides), or a message
saying what is wrong.  Nothing is compared with stored reports; every
expected value is computed here from the generated input.
"""

from __future__ import annotations

import json

import oracles as o

OK, FAILED = "ok", "failed"


def check(workload: str, job: dict, expect: dict, output: dict) -> dict[str, str]:
    if workload == "pgroup":
        return {op["id"]: _guard(_pgroup, op, output["results"].get(op["id"])) for op in job["ops"]}
    report = json.loads(output["report"])
    entries = {e["id"]: e for e in report["entries"]}
    if report.get("version") != "resip-report/1" or len(entries) != len(job["tasks"]):
        return {t["id"]: "report malformed" for t in job["tasks"]}
    out = {}
    for task in job["tasks"]:
        entry = entries.get(task["id"])
        if entry is None or entry["kind"] != task["kind"]:
            out[task["id"]] = "missing entry"
        elif entry["status"] != "ok":
            out[task["id"]] = FAILED
        else:
            out[task["id"]] = _guard(CHECKERS[task["kind"]], task, entry["result"], expect.get(task["id"], {}))
    return out


def _guard(fn, *args) -> str:
    try:
        problem = fn(*args)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    return problem or OK


def _words(texts) -> list[tuple[int, ...]]:
    return [o.parse_word(t) for t in texts]


# ---------------------------------------------------------------------------
# task kinds


def _torus(task, result, _expect):
    a = task["matrix"]
    if result["matrix"] != a:
        return "matrix echoed wrongly"
    primes = o.primes_up_to(task["primes_up_to"])
    if [v["p"] for v in result["verdicts"]] != primes:
        return "verdicts not one per prime up to the bound"
    for v in result["verdicts"]:
        want = "ResiduallyP" if o.unipotent_mod(a, v["p"]) else "NotResiduallyP"
        if v["outcome"] != want:
            return f"p={v['p']}: {v['outcome']}, oracle {want}"
        if want == "ResiduallyP":
            if v["certificate"]["nilpotency_index"] != o.nilpotency_index_mod(a, v["p"]):
                return f"p={v['p']}: wrong nilpotency index"
        elif v["obstruction"]["charpoly_mod_p"] != [c % v["p"] for c in o.charpoly(a)]:
            return f"p={v['p']}: wrong charpoly mod p"
    all_primes, good, _ = o.prime_set(a)
    if (all_primes or good) and result["residually_nilpotent"] is not True:
        return "residually p somewhere but reported not residually nilpotent"
    if abs(o.det(o.minus_identity(a))) == 1 and result["residually_nilpotent"] is not False:
        return "A - I unimodular but reported residually nilpotent"
    return None


def _primes(task, result, _expect):
    all_primes, primes, g = o.prime_set(task["matrix"])
    got = result["prime_set"]
    if (got["all_primes"], got["primes"], got["gcd"]) != (all_primes, primes, g):
        return f"prime set {got}, oracle {(all_primes, primes, g)}"
    return None


def _bs(task, result, _expect):
    all_primes, primes, g, omega = o.bs_expect(task["q"])
    got = result["residually_p_primes"]
    if (got["all_primes"], got["primes"], got["gcd"]) != (all_primes, primes, g):
        return f"BS prime set {got}, oracle {(all_primes, primes, g)}"
    if result["omega_nilpotent"] != omega:
        return "omega-nilpotence wrong"
    return None


def _sl2(task, result, _expect):
    k = o.sl2_least_k(task["matrix"], task["p"])
    return None if result["k"] == k else f"k={result['k']}, brute force {k}"


def _fibered(task, result, expect):
    a = o.abelianization(_words(task["images"]))
    for v in result["verdicts"]:
        p = v["p"]
        if o.unipotent_mod(a, p):
            want = "ResiduallyP"
        elif o.fitting_qualifies(a, p):
            want = "Undecided"
        else:
            want = "NotResiduallyP"
        got = v["outcome"]
        if got != want:
            if expect.get("cap_fault") and got == "Undecided" and "too large" in v["reason"]:
                return FAILED
            return f"p={p}: {got}, oracle {want}"
        if want == "ResiduallyP":
            if v["certificate"]["nilpotency_index"] != o.nilpotency_index_mod(a, p):
                return f"p={p}: wrong nilpotency index"
        elif want == "NotResiduallyP":
            obs = v["obstruction"]
            if obs["abelianization"] != a or obs["examined_subspaces"] < 1:
                return f"p={p}: obstruction payload wrong"
    if [v["p"] for v in result["verdicts"]] != task["primes"]:
        return "verdicts not one per requested prime"
    return None


def _braid_cover(task, result, _expect):
    strands, m = task["strands"], task["modulus"]
    letters = [int(t[1:]) * (1 if t[0] == "s" else -1) for t in task["braid"].split()]
    perm = o.braid_permutation(letters, strands)
    if tuple(result["permutation"]) != perm or result["is_pure"] != (perm == tuple(range(1, strands + 1))):
        return "permutation wrong"
    if result["permutation_order"] != o.permutation_order(perm):
        return "permutation order wrong"
    rank = m * (strands - 1) + 1
    matrix = result["matrix"]
    if result["cover_rank"] != rank or len(matrix) != rank:
        return "cover rank is not m(n - 1) + 1"
    cp = o.charpoly(matrix)
    if result["charpoly"] != cp or result["det"] != o.det(matrix):
        return "charpoly or det disagrees with the reported matrix"
    if abs(result["det"]) != 1:
        return "induced action on H_1 of the cover is not invertible"
    for div, rep in zip(task["divisors"], result["divisors"]):
        quot, rem = o.poly_divmod_monic(cp, div)
        divides = rem == [0]
        if rep["divisor"] != div or rep["divides"] != divides:
            return f"divisibility by {div} wrong"
        if divides:
            if rep["quotient"] != quot:
                return f"quotient by {div} wrong"
            if rep["quotient_cyclotomic_product"] != o.is_cyclotomic_product(quot):
                return f"cyclotomic test of the quotient by {div} wrong"
    return None


def _extension(task, result, _expect):
    report = result["report"]
    if task["check"] == "cocycle":
        # u^T F v is bilinear, hence a 2-cocycle, for every form F
        return None if report["ok"] is True and report["violation"] is None else "bilinear form rejected"
    if report["ok"] is not True or not report["checks"] or not all(ok for _, ok in report["checks"]):
        return f"{task['check']} checks failed"
    if task["check"] == "circle-bundle":
        names = {name for name, _ in report["checks"]}
        want = {f"commutator_a{i}_b{i}_is_(e,0)" for i in range(1, task["genus"] + 1)}
        if not want <= names:
            return "circle-bundle commutator checks missing"
    return None


def _witness(task, result, expect):
    p, rank = task["p"], task["rank"]
    t, word = task["element"]["t"], o.parse_word(task["element"]["w"])
    if result.get("status") != "certificate":
        return f"no certificate: {result.get('reason')}"
    if result["verification"]["ok"] is not True:
        return "certificate failed re-verification"
    cert = result["certificate"]
    if (cert["p"], cert["rank"], cert["survivor_t"]) != (p, rank, t):
        return "certificate is for another element"
    if cert["monodromy_images"] != task["images"] or o.parse_word(cert["survivor_word"]) != word:
        return "certificate is for another mapping torus"
    data = cert["data"]
    if t != 0:
        if cert["kind"] != "stable_letter":
            return "t != 0 needs a stable-letter certificate"
        j = data["j"]
        if not (p ** j > abs(t) and (j == 1 or p ** (j - 1) <= abs(t))):
            return "stable-letter j is not the least with p^j > |t|"
        if data["quotient_order"] != p ** j or data["residue"] != t % p ** j or t % p ** j == 0:
            return "stable-letter quotient wrong"
        return None
    if cert["kind"] != "magnus":
        return "fiber element needs a Magnus certificate"
    depth = o.magnus_depth(word, rank, p, data["degree"])
    if depth != data["degree"] or depth != expect["depth"]:
        return f"Magnus depth {data['degree']}, oracle {depth}, generated {expect['depth']}"
    coeff = o.magnus_coefficient(word, tuple(data["evidence_monomial"]), p)
    if coeff == 0 or coeff != data["evidence_coefficient"]:
        return "surviving coefficient wrong"
    if not o.unipotent_mod(o.abelianization(_words(task["images"])), p):
        return "monodromy not unipotent mod p"
    order = data["induced_order"]
    if not o.is_p_power(order, p) or p ** data["order_exponent"] != order:
        return f"induced order {order} is not p^order_exponent"
    fiber = p ** sum(rank ** i for i in range(1, depth + 1))
    # integers of 2^53 and more arrive as decimal strings
    if int(data["fiber_order_bound"]) != fiber or int(data["total_order_bound"]) != fiber * order:
        return "order bounds wrong"
    return None


CHECKERS = {
    "torus": _torus,
    "primes": _primes,
    "bs": _bs,
    "sl2-power": _sl2,
    "fibered": _fibered,
    "braid-cover": _braid_cover,
    "extension": _extension,
    "witness": _witness,
}


# ---------------------------------------------------------------------------
# p-group lab


def _pgroup(op, got):
    if got is None:
        return "no result"
    p, kind, call, value = op["p"], op["group"], op["call"], got["value"]
    want = {
        "ut3": o.ut3_expect,
        "elementary": o.elementary_abelian_expect,
        "cyclic": o.cyclic_p2_expect,
    }[kind](p)
    if got["order"] != want["order"]:
        return f"group order {got['order']}, expected {want['order']}"
    if call == "frattini_data":
        if (value["frattini_order"], value["rank"], value["elementary_abelian_quotient"]) != (
            want["frattini_order"], want["rank"], True
        ):
            return f"Frattini data {value}"
    elif call == "minimal_generating_size":
        if value != want["rank"]:
            return "minimal generating size differs from the Frattini rank"
    elif call == "check_cyclic_abelianization":
        if value is not True:
            return "cyclic-abelianization lemma reported violated"
    elif call == "inner_automorphism_orders":
        central = value.count(1)
        if len(value) != want["order"] or central != want["center"]:
            return "inner automorphism orders: wrong number of central elements"
        if any(v != p for v in value if v != 1):
            return "inner automorphism of order other than 1 or p"
    elif call == "all_subgroups":
        if value != want["subgroup_orders"]:
            return f"{len(value)} subgroups with orders {value}"
    elif call == "derived_subgroup":
        ident = o.identity(3)
        corner = {g[0][2] for g in value}
        off_corner = all(
            g[i][j] == ident[i][j] for g in value for i in range(3) for j in range(3) if (i, j) != (0, 2)
        )
        if len(value) != want["center"] or not off_corner or corner != set(range(p)):
            return "derived subgroup of UT(3,p) is not the centre {I + cE13}"
    return None
