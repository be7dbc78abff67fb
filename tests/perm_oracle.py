"""Symbolic and Ryser routes to the permanent's Hessian: test oracles for
the entry rule of `birank.permhess.hessian_blocks`.

`hessian` takes exact second partials of any polynomial and evaluates
them at a point; `hessian_perm_fast` reads each entry of the permanent's
Hessian at `perm_zero_point(d)` as a permanental minor, by Ryser's
inclusion-exclusion (`permanent_exact`), exponential in d.
`differentiate` is the partial derivative the tests differentiate twice
with, and `hollow_ones` the matrix the Hessian's off-diagonal blocks are
congruent to, up to sign.  `signature_by_elimination` is the full route
to the Hessian's inertia, one Bareiss elimination of the d^2 x d^2
`hessian_blocks(d)`; the block route of `hessian_report` is checked
against it.
"""

import functools
from fractions import Fraction

from birank.exactla import ExactMatrix, Signature, signature_exact
from birank.permhess import hessian_blocks, perm_zero_point
from birank.polyring import Point, Polynomial, point


def hollow_ones(d: int) -> ExactMatrix:
    """All-ones d x d matrix with a zero diagonal; signature (1, d-1, 0)."""
    if d < 1:
        raise ValueError("need d >= 1")
    return ExactMatrix([[0 if i == j else 1 for j in range(d)] for i in range(d)])


def differentiate(p: Polynomial, index: int) -> Polynomial:
    """Partial derivative of p with respect to x_index, 0-based."""
    if not 0 <= index < p.num_vars:
        raise ValueError(f"variable index {index} out of range")
    acc = {}
    for exps, coeff in p.terms.items():
        e = exps[index]
        if e:
            lowered = exps[:index] + (e - 1,) + exps[index + 1:]
            acc[lowered] = acc.get(lowered, Fraction(0)) + coeff * e
    return Polynomial(p.num_vars, acc)


def hessian(p: Polynomial, x0: Point) -> ExactMatrix:
    """Matrix of second partials of p evaluated at x0, exactly."""
    x0 = point(x0)
    n = p.num_vars
    if len(x0) != n:
        raise ValueError(f"point has {len(x0)} coordinates, expected {n}")
    h = [[Fraction(0)] * n for _ in range(n)]
    for exps, coeff in p.terms.items():
        support = [l for l, e in enumerate(exps) if e]
        for a in support:
            ea = exps[a]
            for b in support:
                # d^2/dx_a dx_b of x^exps, then evaluate.
                eb = exps[b] - (1 if b == a else 0)
                if eb == 0:
                    continue
                value = coeff * ea * eb
                for l in support:
                    e = exps[l] - (1 if l == a else 0) - (1 if l == b else 0)
                    if e:
                        value *= x0[l] ** e
                h[a][b] += value
    m = ExactMatrix(h)
    if not m.is_symmetric():
        raise ArithmeticError("hessian must be symmetric")
    return m


def permanent_exact(m: ExactMatrix) -> Fraction:
    """Permanent by Ryser's inclusion-exclusion; exponential, fine for d <= 10."""
    if not m.is_square():
        raise ValueError("permanent needs a square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for mask in range(1, 1 << n):
        row_sums = []
        for i in range(n):
            s = Fraction(0)
            for j in range(n):
                if mask >> j & 1:
                    s += m[i, j]
            row_sums.append(s)
        prod = Fraction(1)
        for s in row_sums:
            prod *= s
        bits = bin(mask).count("1")
        total += prod if (n - bits) % 2 == 0 else -prod
    return total


def hessian_perm_fast(d: int) -> ExactMatrix:
    """Hessian of the d x d permanent at perm_zero_point(d) via permanental
    minors: the ((i,j),(i',j')) entry is the permanent of the point matrix
    with rows {i,i'} and columns {j,j'} removed, zero when i = i' or j = j'."""
    if d < 2:
        raise ValueError("need d >= 2")
    pt = perm_zero_point(d)
    grid = [[pt[i * d + j] for j in range(d)] for i in range(d)]
    cache = {}

    def minor_perm(i, ip, j, jp):
        key = (frozenset((i, ip)), frozenset((j, jp)))
        if key not in cache:
            rows = [r for r in range(d) if r not in (i, ip)]
            cols = [c for c in range(d) if c not in (j, jp)]
            sub = ExactMatrix([[grid[r][c] for c in cols] for r in rows])
            cache[key] = permanent_exact(sub)
        return cache[key]

    n = d * d
    h = [[Fraction(0)] * n for _ in range(n)]
    for i in range(d):
        for j in range(d):
            for ip in range(d):
                for jp in range(d):
                    if i == ip or j == jp:
                        continue
                    h[i * d + j][ip * d + jp] = minor_perm(i, ip, j, jp)
    return ExactMatrix(h)


@functools.lru_cache(maxsize=None)
def signature_by_elimination(d: int) -> Signature:
    """Inertia of the full Hessian at perm_zero_point(d) by one Bareiss
    elimination.  Cached: the tests and the acceptance gate both sweep it
    up to d = 16, where one elimination takes seconds."""
    return signature_exact(hessian_blocks(d))
