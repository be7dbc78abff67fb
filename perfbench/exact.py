"""Exact arithmetic used as the benchmark's own reference.

Nothing here imports birank: the output checks compare the program's
results against these routines, so a defect in the program's kernels
cannot also hide in the reference.
"""

from fractions import Fraction


def det(rows):
    """Determinant of a square matrix of rationals, by Gaussian elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    n = len(work)
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            result = -result
        p = work[col][col]
        result *= p
        for i in range(col + 1, n):
            factor = work[i][col] / p
            if factor:
                for j in range(col, n):
                    work[i][j] -= factor * work[col][j]
    return result


def rank(rows):
    """Rank over the rationals of a (possibly non-square) matrix."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        p = work[r][col]
        for i in range(r + 1, len(work)):
            factor = work[i][col] / p
            if factor:
                for j in range(col, ncols):
                    work[i][j] -= factor * work[r][j]
        r += 1
    return r


def interpolate(ts, values):
    """Coefficients c_0..c_{m-1} of the polynomial of degree < m through
    the points (ts[i], values[i]), by Newton divided differences."""
    ts = [Fraction(t) for t in ts]
    coef = [Fraction(v) for v in values]
    m = len(ts)
    for level in range(1, m):
        for i in range(m - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (ts[i] - ts[i - level])
    # Expand the Newton form into the monomial basis.
    out = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        # out = out * (t - ts[i]) + coef[i]
        shifted = [Fraction(0)] + out[:-1]
        out = [s - ts[i] * o for s, o in zip(shifted, out)]
        out[0] += coef[i]
    return out


def fraction_from_json(obj):
    return Fraction(int(obj["num"]), int(obj["den"]))


def matrix_from_json(obj):
    return [[fraction_from_json(v) for v in row] for row in obj["entries"]]


def eval_poly_json(obj, point):
    """Value of a JSON polynomial ({"num_vars", "terms": [{"exp", "num",
    "den"}]}) at a rational point."""
    if len(point) != obj["num_vars"]:
        raise ValueError("point has the wrong number of coordinates")
    total = Fraction(0)
    for term in obj["terms"]:
        value = Fraction(int(term["num"]), int(term["den"]))
        for base, e in zip(point, term["exp"]):
            if e:
                value *= Fraction(base) ** e
        total += value
    return total


def affine_eval(const, coeffs, point):
    """const + sum_l point[l] * coeffs[l] for square rational matrices."""
    n = len(const)
    out = [list(row) for row in const]
    for value, coeff in zip(point, coeffs):
        if value:
            for i in range(n):
                for j in range(n):
                    out[i][j] += value * coeff[i][j]
    return out
