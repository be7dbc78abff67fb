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

The full matrix is assembled from closed-form blocks (hessian_blocks)
for `hessian --include-matrix`.  Symbolic second derivatives of any
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


def _tile(d: int, a: int, b: int) -> Optional[str]:
    """The closed-form block at block row a, block column b of the Hessian
    at perm_zero_point(d): None (zero) on the block diagonal, "last_row"
    where the last row is involved, "row_pair" between two early rows."""
    if a == b:
        return None
    return "last_row" if d - 1 in (a, b) else "row_pair"


def hessian_blocks(d: int) -> ExactMatrix:
    """Closed-form assembly of the permanent Hessian at perm_zero_point(d):
    (d-3)! times a d x d grid of d x d blocks laid out by _tile.  For d = 2
    the (d-3)! factor is read as the reciprocal of (d-2)!, keeping every
    entry finite."""
    if d < 2:
        raise ValueError("need d >= 2")
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
    tiles = {None: ExactMatrix.zeros(d, d), "row_pair": bpair, "last_row": blast}
    tiles = {name: block.scale(scale).entries for name, block in tiles.items()}
    layout = [[tiles[_tile(d, a, b)] for b in range(d)] for a in range(d)]
    return ExactMatrix([[v for tile in layout[a] for v in tile[i]] for a in range(d) for i in range(d)])


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
    block_identity is the _tile of every pair of distinct early rows,
    which with hollow_ones(d-1) tiles the upper-left d(d-1) principal
    submatrix; None for d = 2."""
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
        block_identity=_tile(d, 0, 1) if d >= 3 else None,
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
