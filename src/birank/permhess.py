"""Hessians of the permanent at its canonical singular point.

The point: the all-ones d x d matrix with the bottom-right entry replaced
by 1 - d.  Row sums of every (d-1) x (d-1) minor built from it force the
permanent to vanish there while the Hessian stays full rank, which is
what makes the point useful for rank-based lower bounds.

The d^2 x d^2 matrix is assembled from closed-form blocks
(hessian_blocks); hessian_report and the CLI use it.  Symbolic second
derivatives of any polynomial and permanental minors by Ryser's
exponential formula serve as oracles in tests/perm_oracle.py; tests and
the acceptance gate require all three routes to agree entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from birank.exactla import ExactMatrix, Signature, kron, signature_exact
from birank.polyring import Point


def perm_zero_point(d: int) -> Point:
    """Flattened all-ones d x d matrix with bottom-right entry 1 - d; the
    permanent vanishes there for every d >= 2."""
    if d < 2:
        raise ValueError("need d >= 2")
    values = [Fraction(1)] * (d * d)
    values[-1] = Fraction(1 - d)
    return tuple(values)


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
