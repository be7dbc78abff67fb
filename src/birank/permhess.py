"""Hessians of the permanent at its canonical singular point.

The point: the all-ones d x d matrix with the bottom-right entry replaced
by 1 - d.  Row sums of every (d-1) x (d-1) minor built from it force the
permanent to vanish there while the Hessian stays full rank, which is
what makes the point useful for rank-based lower bounds.

Three routes to the same d^2 x d^2 matrix are provided.  The closed-form
block assembly (hessian_blocks) is the production route: hessian_report
and the CLI use it.  Symbolic second derivatives of any polynomial
(hessian) and permanental minors by Ryser's exponential formula
(hessian_perm_fast, permanent_exact) are kept as oracles; tests and the
acceptance gate require all three to agree entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from birank.exactla import ExactMatrix, Signature, kron, signature_exact
from birank.polyring import Point, Polynomial, point


def perm_zero_point(d: int) -> Point:
    """Flattened all-ones d x d matrix with bottom-right entry 1 - d; the
    permanent vanishes there for every d >= 2."""
    if d < 2:
        raise ValueError("need d >= 2")
    values = [Fraction(1)] * (d * d)
    values[-1] = Fraction(1 - d)
    return tuple(values)


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


def hollow_ones(d: int) -> ExactMatrix:
    """All-ones d x d matrix with a zero diagonal; signature (1, d-1, 0)."""
    if d < 1:
        raise ValueError("need d >= 1")
    return ExactMatrix([[0 if i == j else 1 for j in range(d)] for i in range(d)])


def row_pair_block(d: int) -> ExactMatrix:
    """Block coupling two distinct rows, neither of them the last: zero
    diagonal, d-2 in the last row and column, -2 elsewhere."""
    if d < 2:
        raise ValueError("need d >= 2")
    b = [[Fraction(-2)] * d for _ in range(d)]
    for i in range(d):
        b[i][i] = Fraction(0)
        b[i][d - 1] = Fraction(d - 2)
        b[d - 1][i] = Fraction(d - 2)
    b[d - 1][d - 1] = Fraction(0)
    return ExactMatrix(b)


def last_row_block(d: int) -> ExactMatrix:
    """Block coupling an early row with the last row: (d-2) times the
    hollow all-ones matrix."""
    if d < 2:
        raise ValueError("need d >= 2")
    return hollow_ones(d).scale(d - 2)


def hessian_blocks(d: int) -> ExactMatrix:
    """Closed-form assembly of the permanent Hessian at perm_zero_point(d):
    (d-3)! times a d x d grid of d x d blocks, zero on the block diagonal,
    row_pair_block between distinct early rows, last_row_block where the
    last row is involved.  For d = 2 the (d-3)! factor is read as the
    reciprocal of (d-2)!, keeping every entry finite."""
    if d < 2:
        raise ValueError("need d >= 2")
    # (d-3)! for d >= 3; for d = 2 the blocks carry a matching (d-2) factor,
    # so scale by 1/(d-2)! consistently extended: (d-3)! = (d-2)!/(d-2).
    zero = ExactMatrix.zeros(d, d)
    bpair = row_pair_block(d)
    blast = last_row_block(d)
    if d == 2:
        # Entries (d-3)!*(d-2) must equal (d-2)!: both blocks carry a d-2
        # factor and every surviving entry of the d=2 Hessian equals 1.
        scale = Fraction(1)
        bpair = ExactMatrix([[0, 0], [0, 0]])
        blast = hollow_ones(2)
    else:
        scale = Fraction(math.factorial(d - 3))
    n = d * d
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a in range(d):
        for b in range(d):
            if a == b:
                block = zero
            elif a == d - 1 or b == d - 1:
                block = blast
            else:
                block = bpair
            for i in range(d):
                for j in range(d):
                    rows[a * d + i][b * d + j] = scale * block[i, j]
    return ExactMatrix(rows)


@dataclass(frozen=True)
class HessianReport:
    d: int
    rank: int
    signature: Signature
    mr_bound: Fraction
    new_bound: int
    block_identity: Optional[str]


def hessian_report(d: int) -> HessianReport:
    """Rank and signature of the permanent Hessian at perm_zero_point(d),
    with the two determinantal-complexity bounds they imply: rank/2 from
    the rank route and (d-1)^2 + 1 from the negative-inertia route.  Raises
    ArithmeticError unless the rank is d^2 and the inertia bound is
    (d-1)^2 + 1, as the paper's theorem states.

    Also records which closed-form block tiles the upper-left d(d-1)
    principal submatrix (sanity check on the block assembly)."""
    h = hessian_blocks(d)
    sig = signature_exact(h)
    rank = sig.rank
    if rank != d * d:
        raise ArithmeticError(f"permanent Hessian at d={d} has rank {rank}, expected {d * d}")
    new_bound = max(sig.n_plus, sig.n_minus)
    if new_bound != (d - 1) ** 2 + 1:
        raise ArithmeticError(
            f"permanent Hessian at d={d} gives the inertia bound {new_bound}, expected {(d - 1) ** 2 + 1}"
        )
    block_identity = None
    if d >= 3:
        m = d * (d - 1)
        sub = h.submatrix(range(m), range(m))
        scale = Fraction(math.factorial(d - 3))
        if sub == kron(hollow_ones(d - 1), row_pair_block(d)).scale(scale):
            block_identity = "row_pair"
        elif sub == kron(hollow_ones(d - 1), last_row_block(d)).scale(scale):
            block_identity = "last_row"
        else:
            block_identity = "neither"
    return HessianReport(
        d=d,
        rank=rank,
        signature=sig,
        mr_bound=Fraction(rank, 2),
        new_bound=new_bound,
        block_identity=block_identity,
    )


def report_to_json(rep: HessianReport) -> dict:
    from birank.polyring import fraction_to_json

    return {
        "d": rep.d,
        "rank": rep.rank,
        "signature": [rep.signature.n_plus, rep.signature.n_minus, rep.signature.n_zero],
        "mr_bound": fraction_to_json(rep.mr_bound),
        "new_bound": rep.new_bound,
        "block_identity": rep.block_identity,
    }
