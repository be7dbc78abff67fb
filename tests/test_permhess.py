import itertools
import math
import random
from fractions import Fraction

import pytest

from birank.exactla import (
    ExactMatrix,
    Signature,
    rank_exact,
    signature_exact,
)
from birank.permhess import (
    HessianReport,
    hessian_blocks,
    hessian_report,
    isotypic_blocks,
    perm_zero_point,
    report_to_json,
)
from birank.polyring import Polynomial, perm_poly, point
from matrix_oracle import kron
from perm_oracle import (
    differentiate,
    hessian,
    hessian_perm_fast,
    hollow_ones,
    permanent_exact,
    signature_by_elimination,
)


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


def block(d, a, b):
    # Block (a, b) of hessian_blocks(d), in units of (d-3)!: (0, 1) couples
    # two early rows, (0, d-1) an early row with the last.
    h = hessian_blocks(d)
    unit = math.factorial(d - 3)
    return ExactMatrix([[h[a * d + i, b * d + j] / unit for j in range(d)] for i in range(d)])


def test_block_values_d3():
    assert block(3, 0, 1) == ExactMatrix([[0, -2, 1], [-2, 0, 1], [1, 1, 0]])
    assert block(3, 0, 2) == hollow_ones(3)


def test_hollow_ones_signature():
    for d in range(2, 9):
        assert signature_exact(hollow_ones(d)) == Signature(1, d - 1, 0)


def test_block_signatures_match_hollow_ones():
    # The two closed-form blocks are congruent to -hollow_ones and
    # +hollow_ones respectively.
    for d in range(3, 7):
        s = signature_exact(hollow_ones(d))
        assert signature_exact(block(d, 0, 1)) == Signature(s.n_minus, s.n_plus, s.n_zero)
        assert signature_exact(block(d, 0, d - 1)) == s


def test_kron_hollow_row_pair_signature():
    for d in (3, 4, 5):
        k = kron(hollow_ones(d - 1), block(d, 0, 1))
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
        assert rep.block_identity == ("row_pair" if d >= 3 else None)
        obj = report_to_json(rep)
        assert obj["d"] == d
        assert obj["signature"] == [rep.signature.n_plus, rep.signature.n_minus, 0]


def test_hessian_report_checks_the_theorem(monkeypatch):
    # Full rank, but an inertia whose bound is not (d-1)^2 + 1: the report
    # must refuse it rather than print a wrong bound.  The trivial-type
    # block reads (1, 3, 0) instead of (2, 2, 0), so at d = 4 the total is
    # (5, 11, 0).
    import birank.permhess as permhess

    def wrong_block_inertia(block):
        return Signature(1, 3, 0) if block.rows == 4 else signature_exact(block)

    monkeypatch.setattr(permhess, "signature_exact", wrong_block_inertia)
    with pytest.raises(ArithmeticError, match="inertia bound 11, expected 10"):
        hessian_report(4)


def test_block_route_matches_full_elimination():
    for d in range(2, 17):
        assert hessian_report(d).signature == signature_by_elimination(d), d


def isotypic_vectors(d):
    """One vector per copy of each irreducible type of S_{d-1} x S_{d-1},
    as {variable index: coefficient}, in the order of isotypic_blocks."""
    m = d - 1

    def x(a, i):
        return a * d + i

    def diff(pos, neg):
        return {**{p: 1 for p in pos}, **{q: -1 for q in neg}}

    early = range(m)
    trivial = [
        {x(a, i): 1 for a in early for i in early},
        {x(m, i): 1 for i in early},
        {x(a, m): 1 for a in early},
        {x(m, m): 1},
    ]
    rows_standard = [diff([x(0, i) for i in early], [x(1, i) for i in early]), diff([x(0, m)], [x(1, m)])]
    cols_standard = [diff([x(i, 0) for i in early], [x(i, 1) for i in early]), diff([x(m, 0)], [x(m, 1)])]
    both_standard = [diff([x(0, 0), x(1, 1)], [x(0, 1), x(1, 0)])]
    return [trivial, rows_standard, cols_standard, both_standard]


def test_isotypic_blocks_are_projections_of_the_hessian():
    # Each closed-form block is U^T M U, M = H/(d-3)!, for its vectors U;
    # vectors of different types are H-orthogonal; and the blocks times
    # their multiplicities fill all d^2 dimensions.
    for d in range(3, 21):
        entries = hessian_blocks(d).entries
        assert all(v.denominator == 1 for row in entries for v in row)
        h = [[v.numerator for v in row] for row in entries]

        def form(u, v):
            return sum(cu * cv * h[p][q] for p, cu in u.items() for q, cv in v.items())

        types = isotypic_vectors(d)
        blocks = isotypic_blocks(d)
        assert len(blocks) == len(types)
        for (block, _), us in zip(blocks, types):
            projected = ExactMatrix([[form(u, v) for v in us] for u in us])
            assert block.scale(math.factorial(d - 3)) == projected, d
        for s, t in itertools.combinations(range(len(types)), 2):
            assert all(form(u, v) == 0 for u in types[s] for v in types[t]), (d, s, t)
        assert sum(block.rows * k for block, k in blocks) == d * d
    assert isotypic_blocks(2) == [(hessian_blocks(2), 1)]


def test_report_bound_strictly_improves_for_d3():
    rep = hessian_report(3)
    assert rep.new_bound == 5
    assert rep.mr_bound == Fraction(9, 2)
