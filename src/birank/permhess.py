"""Hessians of the permanent at its canonical singular point.

The point: the all-ones d x d matrix with the bottom-right entry replaced
by 1 - d.  Row sums of every (d-1) x (d-1) minor built from it force the
permanent to vanish there while the Hessian stays full rank, which is
what makes the point useful for rank-based lower bounds.

hessian_report reads the rank and the signature without building the
d^2 x d^2 matrix.  Permuting the first d-1 rows, and independently the
first d-1 columns, fixes the point, so the Hessian commutes with the
group S_{d-1} x S_{d-1} acting on the d^2 variables.  By Schur's lemma
(Serre, Linear Representations of Finite Groups, 1977, secs. 2.2 and
2.6; Gatermann and Parrilo, Symmetry groups, semidefinite programs, and
sums of squares, 2004) it is congruent to a direct sum of one block per
irreducible type, each repeated as often as that irreducible's
dimension.  Rows and columns each split into two trivial summands and
one standard one, so there are four types (isotypic_blocks), and the
inertia is the sum of their inertias times those multiplicities.

The full matrix is written from its entry rule (hessian_blocks) for
`hessian --include-matrix`.  Symbolic second derivatives of any
polynomial and permanental minors by Ryser's exponential formula serve
as oracles in tests/perm_oracle.py; tests and the acceptance gate
require all three routes to agree entrywise, and the Bareiss signature
of the full matrix to agree with the block route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from birank.exactla import ExactMatrix, Signature, signature_exact
from birank.polyring import Point


def perm_zero_point(d: int) -> Point:
    """Flattened all-ones d x d matrix with bottom-right entry 1 - d; the
    permanent vanishes there for every d >= 2."""
    if d < 2:
        raise ValueError("need d >= 2")
    values = [Fraction(1)] * (d * d)
    values[-1] = Fraction(1 - d)
    return tuple(values)


def hessian_blocks(d: int) -> ExactMatrix:
    """The permanent Hessian at perm_zero_point(d), entry by entry.  The
    entry at ((a, i), (b, j)), row a*d + i and column b*d + j, is the
    permanent of the point's minor without rows a, b and columns i, j: 0
    when a = b or i = j; (d-2)! when d-1 is among a, b, i, j, as the minor
    then loses the corner 1 - d; -2 (d-3)! otherwise."""
    if d < 2:
        raise ValueError("need d >= 2")
    m = d - 1
    # At d = 2 every nonzero entry meets the last row or column, so the
    # third value is never read; max keeps its factorial defined there.
    # ExactMatrix keeps Fraction entries as they are but converts ints.
    zero, edge, inner = Fraction(0), Fraction(math.factorial(d - 2)), Fraction(-2 * math.factorial(max(d - 3, 0)))
    return ExactMatrix([
        [zero if a == b or i == j else edge if m in (a, b, i, j) else inner for b in range(d) for j in range(d)]
        for a in range(d)
        for i in range(d)
    ])


def isotypic_blocks(d: int):
    """The Hessian at perm_zero_point(d) as (block, multiplicity) pairs: a
    congruent direct sum, so its inertia is the sum of each block's inertia
    times its multiplicity.

    For d >= 3, in units of M = H/(d-3)! with m = d-1, variable x_ai for
    row a and column i, and the first m rows and columns called early, the
    blocks are U^T M U for one vector per copy of each irreducible type:
      trivial x trivial: the sum of x_ai over early a and i, of the last
        row's early entries, of the last column's early entries, and the
        corner; multiplicity 1;
      standard x trivial: row 0 minus row 1, summed over the early
        columns, and at the last column; multiplicity d-2;
      trivial x standard: the transpose of the previous type, with the
        same block, since the point is a symmetric matrix; multiplicity d-2;
      standard x standard: (e_0 - e_1) x (e_0 - e_1); multiplicity (d-2)^2.
    For d = 2 the standard summands vanish and (d-3)! does not exist: the
    one block is the whole 4 x 4 Hessian."""
    if d < 2:
        raise ValueError("need d >= 2")
    if d == 2:
        return [(hessian_blocks(2), 1)]
    m = d - 1
    c = m - 1
    tt = ExactMatrix([[-2 * c, c, c, 1], [c, 0, 1, 0], [c, 1, 0, 0], [1, 0, 0, 0]]).scale(m * m * c)
    st = ExactMatrix([[2, -1], [-1, 0]]).scale(2 * m * c)
    return [(tt, 1), (st, d - 2), (st, d - 2), (ExactMatrix([[-8]]), (d - 2) ** 2)]


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

    The inertia is the sum over isotypic_blocks of multiplicity times
    signature_exact(block), by Schur's lemma for the S_{d-1} x S_{d-1}
    symmetry of the point (Serre 1977; Gatermann and Parrilo 2004).  No
    block exceeds 4 x 4, so the cost does not grow with d.
    block_identity names the block of hessian_blocks(d) that couples two
    distinct early rows (a, b < d-1): "row_pair" for d >= 3, and None for
    d = 2, which has one early row."""
    counts = [0, 0, 0]
    for block, multiplicity in isotypic_blocks(d):
        for k, count in enumerate(signature_exact(block)):
            counts[k] += multiplicity * count
    sig = Signature(*counts)
    rank = sig.rank
    if rank != d * d:
        raise ArithmeticError(f"permanent Hessian at d={d} has rank {rank}, expected {d * d}")
    new_bound = max(sig.n_plus, sig.n_minus)
    if new_bound != (d - 1) ** 2 + 1:
        raise ArithmeticError(
            f"permanent Hessian at d={d} gives the inertia bound {new_bound}, expected {(d - 1) ** 2 + 1}"
        )
    return HessianReport(
        d=d,
        rank=rank,
        signature=sig,
        mr_bound=Fraction(rank, 2),
        new_bound=new_bound,
        block_identity="row_pair" if d >= 3 else None,
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
