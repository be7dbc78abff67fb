"""Exact-matrix helpers that only tests and oracles use: the Kronecker
product and the submatrix on given rows and columns.  No subcommand
needs either.
"""

from birank.exactla import ExactMatrix


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product, blocks a[i][j] * b."""
    rows = []
    for ra in a.entries:
        for rb in b.entries:
            rows.append([va * vb for va in ra for vb in rb])
    return ExactMatrix(rows)


def submatrix(m: ExactMatrix, row_idx, col_idx) -> ExactMatrix:
    """The entries of m on the given rows and columns, in their order."""
    return ExactMatrix([[m.entries[i][j] for j in col_idx] for i in row_idx])
