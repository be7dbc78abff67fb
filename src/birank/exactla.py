"""Exact rational matrices: ranks, determinants, inverses, signatures,
and affine normal forms.

Matrices are immutable tuples of Fraction rows.  Every elimination runs
on integers: denominators are cleared once per matrix, and one
fraction-free (Bareiss) step, whose divisions are exact, serves every
result.  Forward elimination gives the rank and the determinant;
clearing above the pivots too gives inverses; diagonal pivots give the
inertia of a symmetric matrix, with an all-zero trailing diagonal
repaired by adding one row and column to another.  No floating point
anywhere.

The module also hosts matrices whose entries are affine polynomials in
x1..xD (AffineMatrixPoly) and the normal form used to turn a
determinantal representation det(Q(x)) = p(x) into a linear matrix plus
a fixed constant part: at a singular point the constant part becomes a
0/1 diagonal with the ones trailing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from birank.polyring import (
    Point,
    as_fraction,
    fraction_from_json,
    fraction_to_json,
    int_from_json,
    point,
)


class ExactMatrix:
    __slots__ = ("entries",)

    def __init__(self, rows):
        cleaned = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        if cleaned and any(len(row) != len(cleaned[0]) for row in cleaned):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values) -> "ExactMatrix":
        values = [as_fraction(v) for v in values]
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_shape(other)
        return ExactMatrix([
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        ])

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_shape(other)
        return ExactMatrix([
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        ])

    def __neg__(self):
        return ExactMatrix([[-v for v in row] for row in self.entries])

    def scale(self, factor) -> "ExactMatrix":
        factor = as_fraction(factor)
        return ExactMatrix([[factor * v for v in row] for row in self.entries])

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other.entries)) if other.entries else []
        return ExactMatrix([
            [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
            for row in self.entries
        ])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.entries)) if self.entries else [])

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.entries == self.transpose().entries

    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_lists(self) -> list:
        return [list(row) for row in self.entries]

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def trailing_ones_matrix(n: int, r: int) -> ExactMatrix:
    """Diagonal n x n matrix with ones in the last r positions."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    return ExactMatrix.diagonal([0] * (n - r) + [1] * r)


def _integer_rows(rows):
    """Integer copies of rational rows, each scaled by the lcm of its
    denominators, and the product of those scales.  Row scaling keeps the
    rank, the pivots and the solutions of an augmented system, and
    multiplies the determinant by the returned product."""
    out = []
    scale = 1
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (den // v.denominator) for v in row])
        scale *= den
    return out, scale


def _integer_multiple(m: ExactMatrix):
    """The integer matrix c * m and c, for c the lcm of the denominators
    over the gcd of the numerators.  One positive scale for the whole
    matrix keeps the inertia of a symmetric matrix and turns each row
    transform into an integer one; dividing out the common factor keeps
    the eliminated entries short."""
    den = math.lcm(*(v.denominator for row in m.entries for v in row))
    g = math.gcd(*(v.numerator for row in m.entries for v in row)) or 1
    rows = [[v.numerator // g * (den // v.denominator) for v in row] for row in m.entries]
    return rows, Fraction(den, g)


def _bareiss_step(rows, r, col, prev, targets) -> int:
    """Eliminate column col from the target rows with pivot row r:
    row <- (pivot * row - row[col] * rows[r]) / prev, exact on integers
    (Bareiss 1968, Sylvester's identity).  Returns the pivot."""
    pivot_row = rows[r]
    pivot = pivot_row[col]
    for i in targets:
        row = rows[i]
        f = row[col]
        rows[i] = [(a * pivot - f * b) // prev for a, b in zip(row, pivot_row)]
    return pivot


def _eliminate(rows, width: int, jordan: bool = False):
    """Fraction-free elimination of integer rows, in place.

    Columns 0..width-1 are scanned in order; each takes as pivot the first
    row at or below the current one that is nonzero there, swapped into
    place.  Forward elimination clears below each pivot; the last pivot is
    then the determinant of the pivot rows, in their swapped order, and
    pivot columns.  With jordan, the rows
    above are cleared too, and each pivot row ends as the last pivot times
    its row of the reduced echelon form.  Returns the pivot columns, the
    sign of the row permutation and the last pivot (1 when there is none).
    """
    pivots = []
    sign = 1
    prev = 1
    n = len(rows)
    for col in range(width):
        r = len(pivots)
        if r == n:
            break
        found = next((i for i in range(r, n) if rows[i][col]), None)
        if found is None:
            continue
        if found != r:
            rows[r], rows[found] = rows[found], rows[r]
            sign = -sign
        targets = [i for i in range(n) if i != r] if jordan else range(r + 1, n)
        prev = _bareiss_step(rows, r, col, prev, targets)
        pivots.append(col)
    return pivots, sign, prev


def rank_integer(rows) -> int:
    """Rank of an integer matrix given as a list of row lists, which are
    eliminated in place by the fraction-free (Bareiss) kernel."""
    pivots, _, _ = _eliminate(rows, len(rows[0]) if rows else 0)
    return len(pivots)


def rank_exact(m: ExactMatrix) -> int:
    """Rank over the rationals: rank_integer of the row-scaled matrix."""
    return rank_integer(_integer_rows(m.entries)[0])


def det_integer(rows) -> int:
    """Determinant of a square integer matrix given as a list of row
    lists, which are eliminated in place: the last pivot times the sign of
    the row swaps, or 0 when a column has no pivot."""
    pivots, sign, last = _eliminate(rows, len(rows))
    return sign * last if len(pivots) == len(rows) else 0


def det_exact(m: ExactMatrix) -> Fraction:
    if not m.is_square():
        raise ValueError("determinant needs a square matrix")
    rows, scale = _integer_rows(m.entries)
    return Fraction(det_integer(rows), scale)


def inverse_exact(m: ExactMatrix) -> ExactMatrix:
    if not m.is_square():
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    rows, _ = _integer_rows(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.entries)]
    )
    pivots, _, last = _eliminate(rows, n, jordan=True)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return ExactMatrix([[Fraction(v, last) for v in row[n:]] for row in rows])


class Signature(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus


def signature_exact(m: ExactMatrix) -> Signature:
    """Inertia (n+, n-, n0) of a symmetric rational matrix.

    Symmetric fraction-free elimination with diagonal pivots: the k-th
    pivot over the previous one is the k-th entry of an LDL^T
    factorization, so its sign is sign(pivot_k * pivot_{k-1}).  A zero
    diagonal is repaired by a symmetric swap with a later nonzero diagonal
    entry; if the whole trailing diagonal vanishes, a nonzero entry
    w[q][j] is moved onto it by adding row and column j to row and column
    q, which makes the diagonal entry 2 * w[q][j].  Both moves are
    congruences, so Sylvester's law keeps the count.
    """
    if not m.is_symmetric():
        raise ValueError("signature needs a symmetric matrix")
    n = m.rows
    w, _ = _integer_multiple(m)
    n_plus = n_minus = 0
    prev = 1
    for p in range(n):
        q = next((q for q in range(p, n) if w[q][q]), None)
        if q is None:
            pair = next(((i, j) for i in range(p, n) for j in range(i + 1, n) if w[i][j]), None)
            if pair is None:
                break
            q, j = pair
            w[q] = [a + b for a, b in zip(w[q], w[j])]
            for row in w[p:]:
                row[q] += row[j]
        if q != p:
            w[p], w[q] = w[q], w[p]
            for row in w[p:]:
                row[p], row[q] = row[q], row[p]
        pivot = _bareiss_step(w, p, p, prev, range(p + 1, n))
        if (pivot > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        prev = pivot
    return Signature(n_plus, n_minus, n - n_plus - n_minus)


def signature_lower_bound(q: ExactMatrix) -> int:
    """max(n+, n-) of q + q^T, a rank lower bound for every matrix with the
    same symmetric part."""
    if not q.is_square():
        raise ValueError("needs a square matrix")
    sig = signature_exact(q + q.transpose())
    return max(sig.n_plus, sig.n_minus)


# ---------------------------------------------------------------------------
# Matrices of affine polynomials and determinantal normal forms.


class AffineMatrixPoly:
    """Square matrix whose entries are affine in x1..xD.

    Stored as a constant matrix plus one coefficient matrix per variable:
    M(x) = const + sum_l coeffs[l] * x_{l+1}.
    """

    __slots__ = ("n", "num_vars", "const", "coeffs")

    def __init__(self, const: ExactMatrix, coeffs):
        coeffs = tuple(coeffs)
        if not const.is_square():
            raise ValueError("constant part must be square")
        for c in coeffs:
            if c.rows != const.rows or c.cols != const.cols:
                raise ValueError("coefficient shape mismatch")
        object.__setattr__(self, "n", const.rows)
        object.__setattr__(self, "num_vars", len(coeffs))
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("AffineMatrixPoly is immutable")

    def evaluate(self, pt: Point) -> ExactMatrix:
        if len(pt) != self.num_vars:
            raise ValueError(f"point has {len(pt)} coordinates, expected {self.num_vars}")
        out = [list(row) for row in self.const.entries]
        for value, coeff in zip(pt, self.coeffs):
            if value:
                for i in range(self.n):
                    for j in range(self.n):
                        out[i][j] += value * coeff[i, j]
        return ExactMatrix(out)

    def is_linear(self) -> bool:
        return self.const == ExactMatrix.zeros(self.n, self.n)

    def __eq__(self, other):
        if not isinstance(other, AffineMatrixPoly):
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs


@dataclass(frozen=True)
class SingularNormalForm:
    """Transformation S, T with S*Q(x0)*T a trailing-ones diagonal of the
    given rank, det(S)*det(T) = 1, and the transformed linear part."""

    s: ExactMatrix
    t: ExactMatrix
    rank: int
    linear: AffineMatrixPoly


def _decompose_constant(m0: ExactMatrix):
    """(s, t, r) with s @ m0 @ t the 0/1 diagonal carrying r trailing ones.

    The pivots are those of a full-pivot search that takes, at step p, the
    first nonzero column of the trailing block and swaps it into place.
    s is the row transform read from the forward elimination of
    [c * m0 | I], c the scale of _integer_multiple: first the n - r
    combinations of m0's rows that vanish, then the pivot rows, each
    scaled to make its pivot 1.  t then clears right of each pivot: it is the inverse
    of s @ m0 with its zero rows replaced by the unit rows of the non-pivot
    columns, in the order the swaps left them.
    """
    n = m0.rows
    rows, scale = _integer_multiple(m0)
    for i, row in enumerate(rows):
        row.extend(int(i == j) for j in range(n))
    pivots, _, last = _eliminate(rows, n)
    r = len(pivots)
    # A zero row holds its own original row with coefficient last; pivot
    # row k times c / pivot_k is the normalized row.
    s = [[Fraction(v, last) for v in row[n:]] for row in rows[r:]]
    s += [[v * scale / row[c] for v in row[n:]] for row, c in zip(rows, pivots)]
    order = list(range(n))
    for p, c in enumerate(pivots):
        j = order.index(c)
        order[p], order[j] = order[j], order[p]
    z = [[int(j == order[k]) for j in range(n)] for k in range(r, n)]
    z += [[Fraction(v, row[c]) for v in row[:n]] for row, c in zip(rows, pivots)]
    return ExactMatrix(s), inverse_exact(ExactMatrix(z)), r


def singular_normal_form(q: AffineMatrixPoly, x0: Point) -> SingularNormalForm:
    """Normalize a representation around a point where its matrix is singular.

    Returns S, T such that S*Q(x0)*T = J is diagonal with ones exactly in
    the last r positions, together with the transformed linear part
    A(x) = S*(Q(x0 + x) - Q(x0))*T.  S and T are those of
    _decompose_constant, with the first row of S, a zero row of J, divided
    by det(S)*det(T).  At every size two exact checks run before the form
    is returned: det(S)*det(T) = 1 and S*Q(x0)*T = J.  As A(x) + J =
    S*Q(x0 + x)*T, they give det(A(x) + J) = det(Q(x0 + x)) by the
    multiplicativity of the determinant; ArithmeticError if either fails.
    """
    x0 = point(x0)
    m0 = q.evaluate(x0)
    n = q.n
    s, t, r = _decompose_constant(m0)
    if r == n:
        raise ValueError("Q(x0) is invertible; need a singular point")
    delta = det_exact(s) * det_exact(t)
    s = ExactMatrix([[v / delta for v in s.entries[0]], *s.entries[1:]])
    if det_exact(s) * det_exact(t) != 1:
        raise ArithmeticError("normal form transforms do not have det(S)*det(T) = 1")
    if s @ m0 @ t != trailing_ones_matrix(n, r):
        raise ArithmeticError("normal form construction failed")
    linear = AffineMatrixPoly(ExactMatrix.zeros(n, n), [s @ c @ t for c in q.coeffs])
    return SingularNormalForm(s=s, t=t, rank=r, linear=linear)


# ---------------------------------------------------------------------------
# JSON serialization.


def matrix_to_json(m: ExactMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[fraction_to_json(v) for v in row] for row in m.entries],
    }


def matrix_from_json(obj) -> ExactMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("matrix object needs 'entries'")
    entries = obj["entries"]
    if not (isinstance(entries, list) and all(isinstance(row, list) for row in entries)):
        raise ValueError("matrix field 'entries' must be a list of rows, each a list")
    m = ExactMatrix([[fraction_from_json(v) for v in row] for row in entries])
    if "rows" in obj and (m.rows != int_from_json(obj["rows"]) or m.cols != int_from_json(obj["cols"])):
        raise ValueError("matrix shape does not match declared size")
    return m


def affine_to_json(a: AffineMatrixPoly) -> dict:
    return {
        "n": a.n,
        "num_vars": a.num_vars,
        "const": matrix_to_json(a.const),
        "coeff": [matrix_to_json(c) for c in a.coeffs],
    }


def affine_from_json(obj) -> AffineMatrixPoly:
    if not isinstance(obj, dict) or "const" not in obj or "coeff" not in obj:
        raise ValueError("affine matrix object needs 'const' and 'coeff'")
    if not isinstance(obj["coeff"], list):
        raise ValueError("affine matrix field 'coeff' must be a list of matrix objects")
    a = AffineMatrixPoly(matrix_from_json(obj["const"]), [matrix_from_json(c) for c in obj["coeff"]])
    if "n" in obj and a.n != int_from_json(obj["n"]):
        raise ValueError("affine matrix size mismatch")
    if "num_vars" in obj and a.num_vars != int_from_json(obj["num_vars"]):
        raise ValueError("affine matrix variable count mismatch")
    return a
