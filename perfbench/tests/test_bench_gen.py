"""Generated inputs have the properties the workloads rely on."""

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen  # noqa: E402
import oracles as o  # noqa: E402
import workloads  # noqa: E402


def _is_identity(images):
    return all(w == (i,) for i, w in enumerate(images, start=1))


def test_certified_inverses_invert():
    rng = random.Random(1)
    for _ in range(40):
        rank = rng.randint(2, 4)
        for auto in (
            gen.random_nielsen(rng, rank, 5),
            gen.unipotent_auto(rng, rank, 4),
            gen.torelli_mod_p(rng, rank, rng.choice((3, 5, 7)), 3),
        ):
            images, inverse = auto
            assert _is_identity([gen.substitute(inverse, w) for w in images])
            assert _is_identity([gen.substitute(images, w) for w in inverse])


def test_matrix_generators():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 4)
        assert abs(o.det(gen.random_gl(rng, n, 7))) == 1
        assert o.det(gen.random_gl(rng, 2, 6, sl=True)) == 1


def test_h1_actions():
    rng = random.Random(3)
    for _ in range(30):
        rank, p = rng.randint(2, 4), rng.choice((3, 5, 7))
        unip = o.abelianization(gen.unipotent_auto(rng, rank, 5)[0])
        assert o.charpoly(unip) == o.x_minus_one_power(rank)
        torelli = o.abelianization(gen.torelli_mod_p(rng, rank, p, 3)[0])
        assert all((x - int(i == j)) % p == 0 for i, row in enumerate(torelli) for j, x in enumerate(row))


def test_beta_braid_artin_action():
    images, inverse = gen.artin(3, (1, -2))
    assert [gen.format_word(w) for w in images] == ["x1 x3 X1", "x1", "X3 x2 x3"]
    assert [gen.format_word(w) for w in inverse] == ["x2", "X2 x1 x2 x3 X2 X1 x2", "X2 x1 x2"]


def _operations(job: dict) -> list[dict]:
    return job["tasks"] if "tasks" in job else job["ops"]


def test_rounds_are_seeded_and_keep_their_make_up():
    for name in workloads.WORKLOADS:
        job, expect = workloads.build(name, 5, 2)
        assert (job, expect) == workloads.build(name, 5, 2)
        other = workloads.build(name, 6, 3)[0]
        assert other != job
        assert len(_operations(other)) == len(_operations(job))
