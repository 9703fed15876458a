"""The four workloads: what one round of each contains.

Every round of a workload has the same make-up (kinds, ranks, primes,
depths, operation counts, in a fixed slot list); the seed and the round
index only choose the matrices, automorphisms, words and braids that fill
the slots.  That keeps the cost of a round nearly independent of the seed,
so that medians over rounds and runs are steady.

build() returns (job, expect): the job is all the program receives (a task
file, or a list of p-group lab calls); expect holds what the generator
knows about each operation, keyed by operation id, for the checks.
"""

from __future__ import annotations

import random
from math import gcd

import gen
from oracles import abelianization, cyclotomic, mat_mul

WORKLOADS = ("batch", "obstruction", "witness", "pgroup")

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)

# (strands, modulus) of the batch's braid covers, two tasks each; the cover
# has rank modulus * (strands - 1) + 1.  is_cyclotomic_product tries every
# k up to 2 deg^2 + 1 for each non-cyclotomic factor, so its cost grows
# steeply with the rank; ranks up to 13 keep a round's cost close to
# independent of which factors the seed happens to produce.
BRAID_COVER_SLOTS = 2 * ((3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 2), (4, 3))

# x_i -> x_i^-1 beyond the subspace_vectors cap (10^6): p^n = 101^3 and 37^4.
# The exhaustive obstruction search refuses them and the verdict is
# Undecided, while dim ker((M - I)^n) = 0 proves NotResiduallyP.  These
# inputs do not depend on the seed, so they fail in every round.
CAP_FAULT_TASKS = ((3, 101), (4, 37))

# (rank, number of -1 entries in the sign pattern, p): the cost of the
# exhaustive search grows with the number of invariant subspaces of the
# pattern mod p, so the slots fix it and the seed varies only the words.
OBSTRUCTION_SLOTS = (
    (3, 1, 13), (3, 2, 11), (3, 2, 13), (3, 3, 3), (3, 3, 5), (3, 3, 7),
    (3, 3, 11), (4, 1, 3), (4, 1, 5), (4, 2, 5), (4, 2, 7), (4, 3, 3),
    (4, 3, 5), (4, 4, 3),
)
# A few generic matrices (squarefree charpoly mod p, so few invariant
# subspaces).  With them a round has 19 tasks: 8 cost under 40 ms, 8 over
# 100 ms, and the median falls inside the three slots of 60-75 ms,
# (3, 3, 5), (4, 1, 3) and (4, 3, 3), not on a gap between slots.
GENERIC_OBSTRUCTION = ((3, 13), (4, 5), (4, 11))

# (rank, p, Magnus depth) of the witness slots with random monodromies,
# two tasks each.  Random rank-3 monodromies stop at depth 3: at depth 4
# their cost ranges over 0.2-3.5 s with the induced order, which would make
# a round's time depend on the seed; the beta braid covers rank 3, depth 4.
WITNESS_SLOTS = 2 * tuple(
    [(2, p, d) for p in (2, 3, 5, 7) for d in (2, 3, 4)]
    + [(3, p, d) for p in (2, 3, 5, 7) for d in (2, 3)]
)
BETA_DEPTHS = (2, 3, 4, 4)  # the beta braid sigma_1 sigma_2^-1 at p = 3
STABLE_LETTER_TASKS = 3

PGROUP_CALLS = (
    "frattini_data",
    "check_cyclic_abelianization",
    "minimal_generating_size",
    "inner_automorphism_orders",
    "all_subgroups",
)
PGROUP_GROUPS = (("ut3", 3),) + tuple(
    (kind, p) for kind in ("elementary", "cyclic") for p in (2, 3, 5, 7)
)


def build(workload: str, seed: int, round_index: int):
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    make = {
        "batch": _batch,
        "obstruction": _obstruction,
        "witness": _witness,
        "pgroup": _pgroup,
    }[workload]
    return make(rng)


def _taskfile(tasks: list[dict]) -> dict:
    return {"version": 1, "tasks": tasks}


# ---------------------------------------------------------------------------
# batch: about a hundred small mixed tasks through the CLI path


def _batch(rng: random.Random):
    tasks: list[dict] = []

    def add(kind: str, **payload):
        tasks.append({"id": f"{kind}-{len(tasks)}", "kind": kind, **payload})

    for i in range(20):
        add("torus", matrix=gen.random_gl(rng, 2 + i % 3, 7), primes_up_to=(100, 150, 200)[i % 3])
    for i in range(12):
        m = gen.random_gl(rng, 2 + i % 3, 6)
        if i % 4 == 0:  # a cube has a richer prime set
            m = mat_mul(m, mat_mul(m, m))
        add("primes", matrix=m)
    for _ in range(12):
        add("bs", q=rng.randint(1, 500))
    for _ in range(12):
        add("sl2-power", matrix=gen.random_gl(rng, 2, 6, sl=True), p=rng.choice(SMALL_PRIMES))
    for i in range(16):
        auto = gen.unipotent_auto(rng, 2 + i % 3, rng.randint(3, 5))
        add("fibered", primes=sorted(rng.sample(SMALL_PRIMES[:10], 4)), **gen.auto_payload(auto))
    for strands, modulus in BRAID_COVER_SLOTS:
        unit = rng.choice([a for a in range(1, modulus) if gcd(a, modulus) == 1])
        add(
            "braid-cover",
            strands=strands,
            braid=gen.random_braid(rng, strands, rng.randint(4, 8)),
            modulus=modulus,
            assignments=[unit] * strands,  # constant, so every braid preserves the cover
            divisors=[[1, -1], list(cyclotomic(rng.randint(1, 6))), [1, rng.randint(-3, 3), 1]],
        )
    for _ in range(6):
        r = rng.randint(2, 4)
        form = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        extra = {"coeff_modulus": rng.randint(2, 9)} if rng.random() < 0.5 else {}
        add("extension", check="cocycle", form=form, **extra)
    for i in range(7):
        add("extension", check="circle-bundle", genus=1 + i % 3, euler=rng.choice([-1, 1]) * rng.randint(1, 5))
    add("extension", check="heisenberg")
    return _taskfile(tasks), {}


# ---------------------------------------------------------------------------
# obstruction: fibered verdicts that run the invariant-subspace search


def _obstruction(rng: random.Random):
    tasks: list[dict] = []
    expect: dict = {}
    for n, minus, p in OBSTRUCTION_SLOTS:
        signs = [-1] * minus + [1] * (n - minus)
        rng.shuffle(signs)
        psi = gen.random_nielsen(rng, n, 2)
        core = gen.compose(gen.sign_pattern(n, signs), gen.torelli_mod_p(rng, n, p, 2))
        auto = gen.compose(gen.compose(psi, core), (psi[1], psi[0]))
        tasks.append({"id": f"pattern-{n}-{minus}-p{p}-{len(tasks)}", "kind": "fibered",
                      "primes": [p], **gen.auto_payload(auto)})
    for n, p in GENERIC_OBSTRUCTION:
        while True:
            auto = gen.random_nielsen(rng, n, 5)
            if gen.charpoly_mod_squarefree(abelianization(auto[0]), p):
                break
        tasks.append({"id": f"generic-{n}-p{p}-{len(tasks)}", "kind": "fibered",
                      "primes": [p], **gen.auto_payload(auto)})
    for n, p in CAP_FAULT_TASKS:
        task_id = f"cap-fault-{n}-p{p}"
        inverse = tuple((-i,) for i in range(1, n + 1))
        tasks.append({"id": task_id, "kind": "fibered", "primes": [p],
                      **gen.auto_payload((inverse, inverse))})
        expect[task_id] = {"cap_fault": True}
    return _taskfile(tasks), expect


# ---------------------------------------------------------------------------
# witness: certificates found and re-verified


def _witness(rng: random.Random):
    tasks: list[dict] = []
    expect: dict = {}

    def add(auto, p: int, t: int, word, depth):
        task_id = f"witness-{len(tasks)}"
        tasks.append({"id": task_id, "kind": "witness", "p": p,
                      "element": {"t": t, "w": gen.format_word(word)}, **gen.auto_payload(auto)})
        expect[task_id] = {"depth": depth}

    for rank, p, depth in WITNESS_SLOTS:
        auto = gen.unipotent_auto(rng, rank, 4 if rank == 2 else 3)
        add(auto, p, 0, gen.left_nested_commutator(rng, rank, depth), depth)
    beta = gen.artin(3, (1, -2))
    for depth in BETA_DEPTHS:
        add(beta, 3, 0, gen.left_nested_commutator(rng, 3, depth), depth)
    for _ in range(STABLE_LETTER_TASKS):
        rank = rng.randint(2, 3)
        auto = gen.unipotent_auto(rng, rank, 3)
        t = rng.choice([-1, 1]) * rng.randint(1, 30)
        add(auto, rng.choice((2, 3, 5, 7)), t, gen.random_word(rng, rank, rng.randint(0, 4)), None)
    return _taskfile(tasks), expect


# ---------------------------------------------------------------------------
# pgroup: p-group lab calls on small groups with seeded generating sets


def _unitriangular(a: int, b: int, c: int):
    return [[1, a, c], [0, 1, b], [0, 0, 1]]


def _independent_pair(rng: random.Random, p: int):
    while True:
        (a1, b1), (a2, b2) = [(rng.randrange(p), rng.randrange(p)) for _ in range(2)]
        if (a1 * b2 - a2 * b1) % p:
            return (a1, b1), (a2, b2)


def group_generators(rng: random.Random, kind: str, p: int):
    """(generators, modulus) of a seeded generating set: two unitriangular
    matrices independent mod Phi for UT(3,p), I + aE12 + bE13 for (Z/p)^2,
    and [[1,u],[0,1]] mod p^2 with p not dividing u for Z/p^2."""
    if kind == "ut3":
        (a1, b1), (a2, b2) = _independent_pair(rng, p)
        return [_unitriangular(a1, b1, rng.randrange(p)), _unitriangular(a2, b2, rng.randrange(p))], p
    if kind == "elementary":
        (a1, b1), (a2, b2) = _independent_pair(rng, p)
        return [_unitriangular(a1, 0, b1), _unitriangular(a2, 0, b2)], p
    u = rng.choice([u for u in range(1, p * p) if u % p])
    return [[[1, u], [0, 1]]], p * p


def _pgroup(rng: random.Random):
    ops = []
    for kind, p in PGROUP_GROUPS:
        gens, modulus = group_generators(rng, kind, p)
        for call in PGROUP_CALLS:
            ops.append({"id": f"{call}-{kind}-{p}", "call": call, "group": kind, "p": p,
                        "generators": gens, "modulus": modulus})
    gens, modulus = group_generators(rng, "ut3", 5)
    ops.append({"id": "derived_subgroup-ut3-5", "call": "derived_subgroup", "group": "ut3", "p": 5,
                "generators": gens, "modulus": modulus})
    rng.shuffle(ops)
    return {"ops": ops}, {}
