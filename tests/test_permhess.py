import itertools
import random
from fractions import Fraction

import pytest

from birank.exactla import (
    ExactMatrix,
    Signature,
    kron,
    rank_exact,
    signature_exact,
)
from birank.permhess import (
    HessianReport,
    hessian_blocks,
    hessian_report,
    hollow_ones,
    last_row_block,
    perm_zero_point,
    report_to_json,
    row_pair_block,
)
from birank.polyring import Polynomial, perm_poly, point
from perm_oracle import differentiate, hessian, hessian_perm_fast, permanent_exact


def hessian_by_differentiation(p, x0):
    # Oracle: differentiate twice symbolically, then evaluate.
    n = p.num_vars
    rows = []
    for a in range(n):
        da = differentiate(p, a)
        rows.append([differentiate(da, b).eval(x0) for b in range(n)])
    return ExactMatrix(rows)


def permanent_by_expansion(rows):
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += entry * permanent_by_expansion(minor)
    return total


def test_perm_zero_point_kills_permanent():
    for d in range(2, 7):
        pt = perm_zero_point(d)
        grid = [[pt[i * d + j] for j in range(d)] for i in range(d)]
        assert permanent_by_expansion(grid) == 0
    with pytest.raises(ValueError):
        perm_zero_point(1)


def test_permanent_exact_matches_expansion():
    rng = random.Random(0)
    assert permanent_exact(ExactMatrix([])) == 1
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        assert permanent_exact(ExactMatrix(rows)) == permanent_by_expansion(rows)


def test_hessian_matches_symbolic_differentiation():
    rng = random.Random(1)
    for _ in range(15):
        num_vars = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = [0] * num_vars
            for _ in range(rng.randint(0, 4)):
                exps[rng.randrange(num_vars)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = Polynomial(num_vars, terms)
        x0 = point(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(num_vars))
        assert hessian(p, x0) == hessian_by_differentiation(p, x0)


def test_hessian_quadratic_identity():
    # For the quadratic part q of the shift, x^T H x = 2 q(x).
    from birank.polyring import homogeneous_part, shift

    d = 3
    p = perm_poly(d)
    x0 = perm_zero_point(d)
    h = hessian(p, x0)
    q = homogeneous_part(shift(p, x0), 2)
    rng = random.Random(2)
    for _ in range(5):
        v = point(Fraction(rng.randint(-2, 2)) for _ in range(d * d))
        quad = sum(
            (v[i] * h[i, j] * v[j] for i in range(d * d) for j in range(d * d)),
            Fraction(0),
        )
        assert quad == 2 * q.eval(v)


def test_three_hessian_routes_agree():
    for d in (2, 3, 4, 5, 6):
        symbolic = hessian(perm_poly(d), perm_zero_point(d))
        fast = hessian_perm_fast(d)
        blocks = hessian_blocks(d)
        assert fast == symbolic
        assert blocks == symbolic


def test_block_values_d3():
    assert row_pair_block(3) == ExactMatrix([[0, -2, 1], [-2, 0, 1], [1, 1, 0]])
    assert last_row_block(3) == hollow_ones(3)


def test_hollow_ones_signature():
    for d in range(2, 9):
        assert signature_exact(hollow_ones(d)) == Signature(1, d - 1, 0)


def test_block_signatures_match_hollow_ones():
    # The two closed-form blocks are congruent to -hollow_ones and
    # +hollow_ones respectively.
    for d in range(3, 7):
        s = signature_exact(hollow_ones(d))
        assert signature_exact(row_pair_block(d)) == Signature(s.n_minus, s.n_plus, s.n_zero)
        assert signature_exact(last_row_block(d)) == s


def test_kron_hollow_row_pair_signature():
    for d in (3, 4, 5):
        k = kron(hollow_ones(d - 1), row_pair_block(d))
        sig = signature_exact(k)
        assert sig == Signature(2 * d - 3, (d - 2) * (d - 1) + 1, 0)


def test_hessian_report_small_d():
    for d in (2, 3, 4):
        rep = hessian_report(d)
        assert rep.rank == d * d
        assert rep.signature.n_minus == (d - 1) ** 2 + 1
        assert rep.signature.n_zero == 0
        assert rep.mr_bound == Fraction(d * d, 2)
        assert rep.new_bound == max(rep.signature.n_plus, rep.signature.n_minus)
        assert rep.new_bound >= rep.mr_bound
        if d >= 3:
            assert rep.block_identity == "row_pair"
        obj = report_to_json(rep)
        assert obj["d"] == d
        assert obj["signature"] == [rep.signature.n_plus, rep.signature.n_minus, 0]


def test_hessian_report_checks_the_theorem(monkeypatch):
    # Full rank, but an inertia whose bound is not (d-1)^2 + 1: the report
    # must refuse it rather than print a wrong bound.
    import birank.permhess as permhess

    monkeypatch.setattr(permhess, "signature_exact", lambda h: Signature(7, 9, 0))
    with pytest.raises(ArithmeticError, match="inertia bound 9, expected 10"):
        hessian_report(4)


def test_report_bound_strictly_improves_for_d3():
    rep = hessian_report(3)
    assert rep.new_bound == 5
    assert rep.mr_bound == Fraction(9, 2)
