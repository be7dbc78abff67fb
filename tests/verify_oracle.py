"""The earlier routes of the two verification halves of `birank.abpdec`,
kept as test oracles.

`det_lambda_part_by_subsets` evaluates the target slice as one integer
determinant per principal minor: C(r, need) Bareiss runs at every
simplex-lattice point, where `abpdec.det_lambda_part` shares one
elimination prefix among them.  `pair_sum_by_tuples` multiplies the pairs
out on exponent tuples, where `abpdec._pair_sum` adds packed int keys.
"""

import itertools
import math
from fractions import Fraction

from birank.exactla import det_integer
from birank.polyring import Polynomial, monomial_index_set


def lattice_matrices(a, m):
    """L and the integer matrices L*A(e) at the points of
    monomial_index_set(D, m), in that order, L the lcm of the denominators
    of A's coefficient matrices; each matrix is summed term by term."""
    n = a.n
    scale = math.lcm(*(v.denominator for c in a.coeffs for row in c.entries for v in row))
    ints = [
        [[v.numerator * (scale // v.denominator) for v in row] for row in c.entries]
        for c in a.coeffs
    ]
    matrices = []
    for e in monomial_index_set(a.num_vars, m):
        terms = [(w, ints[l]) for l, w in enumerate(e) if w]
        matrices.append([[sum(w * b[i][j] for w, b in terms) for j in range(n)] for i in range(n)])
    return scale, matrices


def slice_subsets(n, r, m):
    """The index lists of the principal m-minors that contain the first
    n - r rows, in lexicographic order; empty when there is none."""
    mandatory = list(range(n - r))
    need = m - len(mandatory)
    if need < 0 or need > r:
        return []
    return [mandatory + list(extra) for extra in itertools.combinations(range(n - r, n), need)]


def det_lambda_part_by_subsets(a, r, m):
    """det_lambda_part with every principal minor its own det_integer."""
    scale, matrices = lattice_matrices(a, m)
    subsets = slice_subsets(a.n, r, m)
    return [
        Fraction(sum(det_integer([[b[i][j] for j in idx] for i in idx]) for idx in subsets), scale ** m)
        for b in matrices
    ]


def _integer_terms(p):
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return [(e, c.numerator * (den // c.denominator)) for e, c in p.terms.items()], den


def pair_sum_by_tuples(pairs, num_vars):
    """sum(f * g) over the pairs on integers, one exponent tuple per term
    product."""
    scaled = []
    for f, g in pairs:
        (f_terms, f_den), (g_terms, g_den) = _integer_terms(f), _integer_terms(g)
        scaled.append((f_terms, g_terms, f_den * g_den))
    den = math.lcm(*(d for _, _, d in scaled))
    acc = {}
    for f_terms, g_terms, d in scaled:
        lift = den // d
        for e1, c1 in f_terms:
            c1 *= lift
            for e2, c2 in g_terms:
                key = tuple([a + b for a, b in zip(e1, e2)])
                acc[key] = acc.get(key, 0) + c1 * c2
    return Polynomial(num_vars, {e: Fraction(c, den) for e, c in acc.items() if c})
