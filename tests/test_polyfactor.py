"""The in-tree Zassenhaus factoriser against sympy's Poly.factor_list."""

import random

import pytest
import sympy

from resip.polyfactor import factor_monic

X = sympy.Symbol("x")


def _sympy_factors(coeffs):
    factors = sympy.Poly(list(coeffs), X).factor_list()[1]
    return sorted(
        ((tuple(int(c) for c in f.all_coeffs()), m) for f, m in factors),
        key=lambda fm: (len(fm[0]), fm[0]),
    )


def _coeffs(poly):
    return [int(c) for c in sympy.Poly(poly, X).all_coeffs()]


def _random_monic(rng, degree, bound):
    return X**degree + sum(rng.randint(-bound, bound) * X**i for i in range(degree))


def test_fixtures():
    assert factor_monic([1]) == []
    assert factor_monic([1, 0, 0]) == [((1, 0), 2)]
    assert factor_monic([1, 2, 1]) == [((1, 1), 2)]
    assert factor_monic([1, -1, -1]) == [((1, -1, -1), 1)]
    # irreducible over Z, yet reducible mod every prime: recombination
    assert factor_monic([1, 0, -10, 0, 1]) == [((1, 0, -10, 0, 1), 1)]
    with pytest.raises(ValueError):
        factor_monic([2, 1])


def test_matches_sympy_on_random_products():
    rng = random.Random(59)
    for trial in range(80):
        poly = sympy.Integer(1)
        for _ in range(rng.randint(1, 4)):
            poly *= _random_monic(rng, rng.randint(1, 4), rng.choice((1, 5, 40))) ** rng.randint(1, 3)
        if trial % 3 == 0:
            poly *= X ** rng.randint(1, 3)
        if trial % 4 == 0:
            poly *= sympy.cyclotomic_poly(rng.randint(1, 40), X)
        coeffs = _coeffs(poly)
        assert factor_monic(coeffs) == _sympy_factors(coeffs), coeffs


def test_matches_sympy_on_many_modular_factors():
    # Swinnerton-Dyer-like and cyclotomic products split into many factors
    # mod small primes, so the recombination runs over larger subsets
    cases = [
        (X**4 - 10 * X**2 + 1) * (X**2 - 2),
        (X**4 - 10 * X**2 + 1) ** 2 * (X**3 - 3),
        sympy.expand(
            sympy.Mul(*[sympy.cyclotomic_poly(k, X) for k in (1, 3, 5, 8, 12, 15)])
        ),
        (X**8 - 40 * X**6 + 352 * X**4 - 960 * X**2 + 576),
    ]
    for poly in cases:
        coeffs = _coeffs(poly)
        assert factor_monic(coeffs) == _sympy_factors(coeffs), poly
