"""Seeded input generators.

Every generator takes a ``random.Random`` and returns plain JSON-ready
data, so the same seed always gives byte-identical input files.  The
program under test only ever sees the files written from these values.
"""

import json
import math
import random
from fractions import Fraction

import exact


def rng_for(seed, stream):
    """Independent generator per input, so adding one input never shifts
    another.  String seeds hash with SHA-512, independent of PYTHONHASHSEED."""
    return random.Random(f"birank-bench:{seed}:{stream}")


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _frac_json(v):
    v = Fraction(v)
    return {"num": str(v.numerator), "den": str(v.denominator)}


def _matrix_json(rows):
    return {
        "rows": len(rows),
        "cols": len(rows[0]),
        "entries": [[_frac_json(v) for v in row] for row in rows],
    }


# ---------------------------------------------------------------------------
# Determinantal representations with a controlled corank at x0.


def singular_constant(rng, n, corank, lo=-2, hi=2):
    """n x n integer matrix with entries in [lo, hi] and rank exactly
    n - corank: independent random rows, the rest signed copies of them,
    rows shuffled."""
    r = n - corank
    while True:
        base = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(r)]
        if exact.rank(base) == r:
            break
    rows = [list(row) for row in base]
    for _ in range(corank):
        src = rng.choice(base)
        sign = rng.choice((-1, 1))
        rows.append([sign * v for v in src])
    rng.shuffle(rows)
    return rows


def corank_representation(rng, n=7, num_vars=9, corank=1, lo=-2, hi=2):
    """Q(x) = C + sum_l (x_l - x0_l) M_l with rank C = n - corank, so Q is
    singular with exactly that corank at the nonzero integer point x0.

    Returns (affine JSON, x0, C, [M_l]).
    """
    c = singular_constant(rng, n, corank, lo, hi)
    ms = [[[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)] for _ in range(num_vars)]
    while True:
        x0 = [rng.randint(lo, hi) for _ in range(num_vars)]
        if any(x0):
            break
    const = [
        [c[i][j] - sum(x0[l] * ms[l][i][j] for l in range(num_vars)) for j in range(n)]
        for i in range(n)
    ]
    obj = {
        "n": n,
        "num_vars": num_vars,
        "const": _matrix_json(const),
        "coeff": [_matrix_json(m) for m in ms],
    }
    return obj, x0, c, ms


# ---------------------------------------------------------------------------
# Forms for the Gram systems.


def exponents(num_vars, degree):
    """All exponent tuples of the given total degree."""
    if num_vars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in exponents(num_vars - 1, degree - first):
            out.append((first,) + rest)
    return out


def integer_form(rng, num_vars=4, degree=4, lo=-3, hi=3):
    """Dense homogeneous form with nonzero integer coefficients in [lo, hi]."""
    terms = []
    for exps in exponents(num_vars, degree):
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(lo, hi)
        terms.append({"exp": list(exps), "num": str(coeff), "den": "1"})
    return {"num_vars": num_vars, "terms": terms}


# ---------------------------------------------------------------------------
# Symmetric matrices with a known spectrum.


def _reflect(a, u):
    """H a H for the Householder reflection H = I - 2 u u^T, u a unit vector
    and a symmetric: a - 2 u q^T - 2 q u^T with q = a u - (u^T a u) u."""
    n = len(a)
    p = [sum(a[i][j] * u[j] for j in range(n)) for i in range(n)]
    k = sum(u[i] * p[i] for i in range(n))
    q = [p[i] - k * u[i] for i in range(n)]
    return [[a[i][j] - 2.0 * (u[i] * q[j] + q[i] * u[j]) for j in range(n)] for i in range(n)]


def known_spectrum_matrix(rng, eigenvalues, reflections=6):
    """Q diag(eigenvalues) Q^T with Q a product of seeded Householder
    reflections; returned exactly symmetric as nested float lists."""
    n = len(eigenvalues)
    vals = list(eigenvalues)
    rng.shuffle(vals)
    a = [[float(vals[i]) if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(reflections):
        u = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(v * v for v in u))
        a = _reflect(a, [v / norm for v in u])
    for i in range(n):
        for j in range(i + 1, n):
            a[j][i] = a[i][j]
    return a


def positive_spectrum(m):
    """m distinct positive eigenvalues 1/8, 2/8, ..., m/8."""
    return [Fraction(k, 8) for k in range(1, m + 1)]


def indefinite_spectrum(m):
    """m distinct eigenvalues, about three quarters of them nonpositive."""
    shift = (3 * m) // 4
    return [Fraction(k - shift, 8) for k in range(1, m + 1)]
