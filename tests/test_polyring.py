import json
import math
import random
from fractions import Fraction

import pytest

from birank.polyring import (
    Polynomial,
    det_poly,
    fraction_from_json,
    fraction_to_json,
    grlex_key,
    homogeneous_part,
    monomial_count,
    monomial_index_set,
    perm_poly,
    point,
    poly_from_json,
    poly_to_json,
    shift,
)
from clow_oracle import monomial_split
from perm_oracle import differentiate


def random_poly(rng, num_vars, max_degree, max_terms=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        exps = [0] * num_vars
        for _ in range(deg):
            exps[rng.randrange(num_vars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Polynomial(num_vars, terms)


def random_point(rng, num_vars):
    return point(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(num_vars))


def test_constructor_drops_zero_coefficients():
    p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}


def test_arithmetic_small():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (p - p).is_zero()
    assert (3 * x1).terms.get((1, 0)) == 3


def test_arithmetic_results_match_validated_construction():
    # Sums, products and negations skip re-validation; their terms, in
    # insertion order, must be those the validating constructor gives.
    rng = random.Random(3)
    for _ in range(40):
        p, q = random_poly(rng, 3, 3), random_poly(rng, 3, 3)
        scalar = rng.choice([0, 2, Fraction(-3, 4)])
        for result in (p + q, p - q, p * q, -p, p * scalar, scalar * p, p + scalar, p - p):
            checked = Polynomial(3, result.terms)
            assert list(result.terms.items()) == list(checked.terms.items())
            assert all(type(c) is Fraction and c for c in result.terms.values())


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0).eval(point([1, 2, 3]))


def test_perm_poly_small():
    p1 = perm_poly(1)
    assert p1.terms == {(1,): Fraction(1)}
    p2 = perm_poly(2)
    assert p2.terms == {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(1)}
    p3 = perm_poly(3)
    assert len(p3.terms) == 6
    assert all(c == 1 for c in p3.terms.values())


def test_det_poly_small():
    d2 = det_poly(2)
    assert d2.terms == {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(-1)}
    d3 = det_poly(3)
    assert len(d3.terms) == 6
    assert sum(d3.terms.values()) == 0
    identity = point([1, 0, 0, 0, 1, 0, 0, 0, 1])
    assert d3.eval(identity) == 1


def test_perm_eval_matches_expansion_by_minors():
    # Independent permanent via recursive expansion along the first row.
    def perm_value(rows):
        if not rows:
            return Fraction(1)
        total = Fraction(0)
        for j, entry in enumerate(rows[0]):
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += entry * perm_value(minor)
        return total

    rng = random.Random(7)
    for d in (2, 3, 4):
        p = perm_poly(d)
        for _ in range(5):
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
            flat = point(v for row in rows for v in row)
            assert p.eval(flat) == perm_value(rows)


def test_shift_univariate_binomial():
    x = Polynomial.variable(1, 0)
    q = shift(x * x, point([1]))
    assert q == x * x + 2 * x + Polynomial.constant(1, 1)


def test_shift_round_trip_random():
    rng = random.Random(0)
    for _ in range(25):
        num_vars = rng.randint(1, 4)
        p = random_poly(rng, num_vars, 4)
        x0 = random_point(rng, num_vars)
        back = shift(shift(p, x0), point(-a for a in x0))
        assert back == p


def test_shift_agrees_with_evaluation():
    rng = random.Random(1)
    for _ in range(25):
        num_vars = rng.randint(1, 3)
        p = random_poly(rng, num_vars, 4)
        x0 = random_point(rng, num_vars)
        q = shift(p, x0)
        t = random_point(rng, num_vars)
        assert q.eval(t) == p.eval(point(a + b for a, b in zip(t, x0)))


def test_homogeneous_parts_partition():
    rng = random.Random(2)
    for _ in range(20):
        p = random_poly(rng, 3, 5)
        total = Polynomial.zero(3)
        for k in range(p.degree() + 1):
            part = homogeneous_part(p, k)
            assert part.is_homogeneous()
            total = total + part
        assert total == p
        assert homogeneous_part(p, p.degree() + 1).is_zero()


def test_grlex_listing_order():
    assert monomial_index_set(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_index_set(4, 1) == [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ]
    listing = monomial_index_set(3, 3)
    assert listing == sorted(listing, key=grlex_key)
    assert len(set(listing)) == len(listing)


def test_monomial_count_matches_enumeration():
    assert len(monomial_index_set(9, 2)) == 45
    for num_vars in range(1, 7):
        for k in range(5):
            listing = monomial_index_set(num_vars, k)
            assert all(sum(e) == k for e in listing)
            assert len(listing) == monomial_count(num_vars, k)
            assert monomial_count(num_vars, k) == math.comb(num_vars + k - 1, k)


def test_monomial_split_examples():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    pairs = monomial_split(x1 * x2 + x1 * x1, 1)
    assert len(pairs) == 1
    assert pairs[0][0] == x1
    assert pairs[0][1] == x1 + x2

    pairs = monomial_split(x1 * x1 + x2 * x2, 1)
    assert len(pairs) == 2

    assert monomial_split(Polynomial.zero(2), 1) == []


def test_monomial_split_reassembles():
    rng = random.Random(3)
    for _ in range(30):
        num_vars = rng.randint(1, 4)
        deg = rng.randint(1, 4)
        exps_pool = monomial_index_set(num_vars, deg)
        terms = {}
        for exps in rng.sample(exps_pool, min(len(exps_pool), rng.randint(1, 5))):
            terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        p = Polynomial(num_vars, terms)
        if p.is_zero():
            continue
        for m in range(deg + 1):
            pairs = monomial_split(p, m)
            assert len(pairs) <= monomial_count(num_vars, m)
            total = Polynomial.zero(num_vars)
            for f, g in pairs:
                assert f.is_homogeneous() and f.degree() == m and len(f.terms) == 1
                total = total + f * g
            assert total == p


def test_differentiate():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    p = x1 * x1 * x2 + 2 * x2
    assert differentiate(p, 0) == 2 * x1 * x2
    assert differentiate(p, 1) == x1 * x1 + Polynomial.constant(2, 2)


def test_json_round_trip_and_canonical_order():
    rng = random.Random(4)
    for _ in range(20):
        p = random_poly(rng, rng.randint(1, 4), 4)
        obj = poly_to_json(p)
        assert poly_from_json(obj) == p
        exps = [tuple(t["exp"]) for t in obj["terms"]]
        assert exps == sorted(exps, key=grlex_key)
    s = json.dumps(poly_to_json(perm_poly(3)), sort_keys=True)
    assert s == json.dumps(poly_to_json(perm_poly(3)), sort_keys=True)


def test_fraction_json():
    f = Fraction(-3, 7)
    assert fraction_from_json(fraction_to_json(f)) == f
    with pytest.raises(ValueError):
        fraction_from_json({"num": "1"})
    # Fraction(1, 0) raises ZeroDivisionError, whose text names no field.
    with pytest.raises(ValueError, match="zero denominator"):
        fraction_from_json({"num": "1", "den": "-0"})
    with pytest.raises(ValueError, match="zero denominator"):
        poly_from_json({"num_vars": 1, "terms": [{"exp": [1], "num": "1", "den": 0}]})
