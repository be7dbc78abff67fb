"""Gram constraint systems for writing a degree-2k form as v(x)^T Q v(x),
and certified rank intervals over their solution sets.

A form p of degree 2k in D variables equals v(x)^T Q v(x), with v the
vector of all degree-k monomials, exactly when Q satisfies one linear
equation per degree-2k monomial: the entries of Q along each anti-chain
{(I, J): I + J = H} must sum to the coefficient of x^H.  The minimum rank
of a solution is the bi-polynomial rank of p; the minimum over symmetric
solutions and over differences of two PSD matrices sandwich it.  This
module builds those systems (including a projected multilinear variant
tied to the shifted permanent), writes them as JSON, and computes sound
lower/upper bounds for the minimum rank over rational solutions.  Each
unknown enters only the equation of its anti-chain, so the solution set
is read off the equations in closed form, with no elimination.

A system stores its basis and each equation's monomial and rhs, and
equation_terms writes the terms by one anti-chain rule when they are
read: entry by entry, never folded into an upper triangle, with the int
coefficients 1 and -1 (-1 only on a pair's second block), which the
JSON writer passes through unchanged.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from birank.exactla import ExactMatrix, _eliminate, det_integer, rank_integer, signature_lower_bound
from birank.polyring import Exponent, Polynomial, fraction_to_json, monomial_index_set


@dataclass(frozen=True)
class ConstraintSystem:
    """equations holds one (H, rhs) pair per equation, the monomial H as
    its sorted variable indices (x0^2 x2 is (0, 0, 2)): the entries on the
    anti-chain of H, combined as equation_terms writes, sum to rhs."""

    size: int
    pair: bool
    symmetric: bool
    num_vars: int
    half_degree: int
    basis: Tuple[Exponent, ...]
    equations: Tuple[Tuple[Tuple[int, ...], Fraction], ...]
    scale: Optional[Fraction] = None

    @property
    def block_count(self) -> int:
        return 2 if self.pair else 1


def _variables(exps: Exponent) -> Tuple[int, ...]:
    # The monomial with exponents exps as its sorted variable indices.
    return tuple(v for v, e in enumerate(exps) for _ in range(e))


def equation_terms(cs: ConstraintSystem):
    """Each equation's terms (block, i, j, coef): for every entry (i, j)
    with basis[i] + basis[j] = H, in the order of i, (0, i, j, 1) and, on
    a pair, (1, i, j, -1) (Choi, Lam and Reznick 1995).

    combinations(H, k) lists the halves of H in basis order, and the
    complement of the l-th lies at the mirrored place, so zipping the list
    with its reverse pairs each half with its complement; the dict keeps a
    half repeated by a repeated variable once."""
    index = {_variables(b): i for i, b in enumerate(cs.basis)}
    k = cs.half_degree
    blocks = ((0, 1), (1, -1)) if cs.pair else ((0, 1),)
    for h, _ in cs.equations:
        halves = [index[half] for half in itertools.combinations(h, k)]
        yield tuple([(b, i, j, c) for i, j in dict(zip(halves, reversed(halves))).items() for b, c in blocks])


def _gram_system(p: Polynomial, pair: bool, symmetric: bool) -> ConstraintSystem:
    if p.is_zero():
        raise ValueError("cannot build a Gram system for the zero polynomial")
    if not p.is_homogeneous():
        raise ValueError("Gram systems need a homogeneous polynomial")
    deg = p.degree()
    if deg % 2 or deg == 0:
        raise ValueError(f"degree {deg} is not even and positive")
    k = deg // 2
    basis = tuple(monomial_index_set(p.num_vars, k))
    coefficients = {_variables(exps): c for exps, c in p.terms.items()}
    zero = Fraction(0)
    equations = tuple((h, coefficients.get(h, zero))
                      for h in itertools.combinations_with_replacement(range(p.num_vars), 2 * k))
    return ConstraintSystem(
        size=len(basis), pair=pair, symmetric=symmetric, num_vars=p.num_vars,
        half_degree=k, basis=basis, equations=equations,
    )


def build_affine_system(p: Polynomial) -> ConstraintSystem:
    """All matrices Q with v(x)^T Q v(x) = p: minimum rank over the
    solutions equals the bi-polynomial rank of p."""
    return _gram_system(p, pair=False, symmetric=False)


def build_sym_system(p: Polynomial) -> ConstraintSystem:
    """Same equations restricted to symmetric Q; half the minimum rank here
    lower-bounds the bi-polynomial rank."""
    return _gram_system(p, pair=False, symmetric=True)


def build_psd_pair_system(p: Polynomial) -> ConstraintSystem:
    """Pairs (Q_plus, Q_minus) of symmetric matrices with
    v^T (Q_plus - Q_minus) v = p; restricting both to PSD and minimizing
    rank(Q_plus) + rank(Q_minus) upper-bounds twice the bi-polynomial rank
    and lower-bounds it."""
    return _gram_system(p, pair=True, symmetric=True)


def multilinear_index_set(num_vars: int, k: int) -> list:
    """All 0/1 exponent tuples of weight k, in graded-lex order."""
    return [tuple(int(v in s) for v in range(num_vars)) for s in itertools.combinations(range(num_vars), k)]


def build_z2k(d: int, k: int) -> ConstraintSystem:
    """Projected multilinear pair system for the degree-2k slice of the
    permanent expanded at its singular point, over the (d-1) x (d-1)
    top-left matrix variables.

    One equation per multilinear degree-2k monomial H: the split entries
    of U - V sum to 1 when H reads as a partial permutation (all row and
    column sums at most one) and to 0 otherwise.  All coefficients are 0
    or +-1.  The scale field carries the projection factor
    -1/(2k * (d-2k-1)!) that maps solutions of the full system onto
    solutions of this one.  Requires d >= 2k + 1.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if d <= 2 * k:
        raise ValueError(f"need d >= {2 * k + 1} for the projected system")
    m = d - 1
    num_vars = m * m
    basis = tuple(multilinear_index_set(num_vars, k))
    one, zero = Fraction(1), Fraction(0)
    # A partial permutation uses distinct rows and distinct columns.
    equations = tuple((s, one if len({p // m for p in s}) == len({p % m for p in s}) == 2 * k else zero)
                      for s in itertools.combinations(range(num_vars), 2 * k))
    scale = Fraction(-1, 2 * k * math.factorial(d - 2 * k - 1))
    return ConstraintSystem(
        size=len(basis), pair=True, symmetric=True, num_vars=num_vars,
        half_degree=k, basis=basis, equations=equations, scale=scale,
    )


# ---------------------------------------------------------------------------
# The solution space in closed form.


def _variable_layout(cs: ConstraintSystem):
    # Column index of each matrix entry, as one n x n grid per block, and
    # the number of unknowns.  Symmetric systems share one unknown per
    # unordered pair, numbered along the upper triangle.
    n = cs.size
    grids = []
    count = 0
    for _ in range(cs.block_count):
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i if cs.symmetric else 0, n):
                grid[i][j] = count
                if cs.symmetric:
                    grid[j][i] = count
                count += 1
        grids.append(grid)
    return grids, count


def _matrices_from_vector(grids, vec) -> Tuple[ExactMatrix, ...]:
    return tuple(ExactMatrix([[vec[c] for c in row] for row in grid]) for grid in grids)


def _gram_chains(cs: ConstraintSystem, grids):
    """(chain, rhs) for each equation: the (column, summed coefficient)
    pairs of its terms on grids, in column order.  Entry (i, j) lies on
    the anti-chain of basis[i] + basis[j] only, so the chains are
    disjoint, and every coefficient is 1 or 2 on block 0, -1 or -2 on
    block 1 (2 where symmetric (i, j) and (j, i) share a column)."""
    chains = []
    for terms, (_, rhs) in zip(equation_terms(cs), cs.equations):
        coefs: Dict[int, int] = {}
        for block, i, j, coef in terms:
            c = grids[block][i][j]
            coefs[c] = coefs.get(c, 0) + coef
        chains.append((sorted(coefs.items()), rhs))
    return chains


def _chain_solution(count, chains):
    """(particular, directions) of disjoint chains, as Gauss-Jordan
    returns them: a chain's lowest column p is its pivot, particular[p] =
    rhs / coef_p, each other column c gives the direction e_c - (coef_c /
    coef_p) e_p, and a column in no chain gives e_c.  The directions come
    in free-column order, each as its (column, Fraction) nonzeros."""
    one = Fraction(1)
    particular = [Fraction(0)] * count
    directions = {c: [(c, one)] for c in range(count)}
    for ((pivot, coef), *rest), rhs in chains:
        particular[pivot] = Fraction(rhs, coef)
        del directions[pivot]
        for c, v in rest:
            directions[c] = [(pivot, Fraction(-v, coef)), (c, one)]
    return particular, list(directions.values())


# ---------------------------------------------------------------------------
# Rank interval over the rational solution set.


@dataclass(frozen=True)
class MinrankInterval:
    lower: int
    upper: int
    lower_method: str
    upper_method: str
    free_dimension: int


def _sample_values():
    values = {Fraction(0)}
    for den in range(1, 9):
        for num in range(-8, 9):
            values.add(Fraction(num, den))
    return sorted(values)


def _integer_solution(particular, directions):
    """vector_at(den, factors): the integer vector den*L*particular +
    sum_l factors[l]*(L*directions[l]), for L the lcm of all the
    denominators of particular and the nullspace directions, each given
    as its (column, Fraction) nonzeros.

    For a parameter t with den the lcm of its denominators and factors[l]
    = t_l*den, this is den*L times the solution particular + sum_l t_l *
    directions[l]: a positive multiple, so its blocks have the same ranks
    and its m-minors are (den*L)^m times the rational ones.
    """
    scale = math.lcm(*(v.denominator for v in particular), *(v.denominator for d in directions for _, v in d))
    base = [v.numerator * (scale // v.denominator) for v in particular]
    directions = [[(c, v.numerator * (scale // v.denominator)) for c, v in d] for d in directions]

    def vector_at(den, factors) -> list:
        vec = [den * v for v in base]
        for factor, direction in zip(factors, directions):
            if factor:
                for c, v in direction:
                    vec[c] += factor * v
        return vec

    return vector_at


def _sample_blocks(grids, vector_at, tvec) -> list:
    """The integer blocks, as row lists, of the solution at the rational
    parameter t: those of vector_at(den, t*den)."""
    den = math.lcm(*(t.denominator for t in tvec))
    vec = vector_at(den, [t.numerator * (den // t.denominator) for t in tvec])
    return [[[vec[c] for c in row] for row in grid] for grid in grids]


def _sample_ranker(grids, vector_at):
    """rank_at(t): the summed block ranks of the solution at the rational
    parameter t."""

    def rank_at(tvec) -> int:
        return sum(rank_integer(rows) for rows in _sample_blocks(grids, vector_at, tvec))

    return rank_at


def _pivots(rows) -> list:
    """Pivot columns of a square integer matrix, eliminated in place: its
    first linearly independent columns, as many as its rank."""
    return _eliminate(rows, len(rows))[0]


def _witness(blocks, symmetric: bool) -> list:
    """(rows R, columns C) for each integer block B, with B[R, C]
    nonsingular and |R| = |C| = rank(B).

    C are the pivot columns of B and R those of its transpose: r
    independent rows and r independent columns of a rank-r matrix always
    meet in a nonsingular minor.  A symmetric block's independent columns
    are independent rows too, so one elimination serves."""
    out = []
    for rows in blocks:
        transposed = None if symmetric else [list(col) for col in zip(*rows)]
        cols = _pivots(rows)
        out.append((cols if symmetric else _pivots(transposed), cols))
    return out


def _axis_polynomials(grids, vector_at, witness, hit_rows, axis, f) -> list:
    """For each block, the integer coefficients of s!*h(t) for h(t) the
    witness minor det(M(t)[R, C]) along M(t) = vector_at(1, t*e_axis).

    h has degree at most s, the number of rows of R that the axis
    direction touches (hit_rows of the block), since the determinant is
    linear in each row; its values at t = 0..s fix it (Newton)."""
    degrees = [len(hit.intersection(rows)) for hit, (rows, _) in zip(hit_rows, witness)]
    vecs = []
    for t in range(max(degrees) + 1):
        factors = [0] * f
        factors[axis] = t
        vecs.append(vector_at(1, factors))
    return [
        _newton_coefficients([det_integer([[vec[grid[i][j]] for j in cols] for i in rows])
                              for vec in vecs[:s + 1]])
        for grid, (rows, cols), s in zip(grids, witness, degrees)
    ]


def _witness_clears(polys, t) -> bool:
    """Whether every block's witness minor is nonsingular at the parameter
    t, so that the sample there has rank at least the witness size."""
    return not any(_vanishes_at(q, t) for q in polys)


def _newton_coefficients(values) -> list:
    """Integer coefficients, constant term first, of m!*p(t) for the
    polynomial p of degree <= m with p(t) = values[t] at t = 0..m.

    Newton's forward-difference form p(t) = sum_k D^k p(0) * C(t, k),
    times m!, turns each binomial into (m!/k!) * t(t-1)...(t-k+1), whose
    coefficients are integers.
    """
    m = len(values) - 1
    coeffs = [0] * (m + 1)
    falling = [1]  # t(t-1)...(t-k+1), constant term first
    diffs = list(values)
    for k in range(m + 1):
        weight = diffs[0] * (math.factorial(m) // math.factorial(k))
        for i, c in enumerate(falling):
            coeffs[i] += weight * c
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return coeffs


def _scaled_value(coeffs, t: Fraction) -> int:
    # den^deg * p(t) on integers, which has the sign of p(t).
    deg = len(coeffs) - 1
    return sum(c * t.numerator ** k * t.denominator ** (deg - k) for k, c in enumerate(coeffs))


def _vanishes_at(coeffs, t: Fraction) -> bool:
    return not _scaled_value(coeffs, t)


def _primitive(coeffs) -> list:
    """The primitive integer polynomial that is a positive rational
    multiple of coeffs (constant term first), with no trailing zero; []
    for the zero polynomial."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints) or 1
    return [c // g for c in ints]


def _divmod(a, b):
    """Quotient and remainder of a by b over the rationals, constant term
    first; b has a nonzero last coefficient."""
    a = [Fraction(c) for c in a]
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(quotient))):
        q = quotient[k] = a[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[k + i] -= q * c
    return quotient, a[:len(b) - 1]


def _gcd(a, b) -> list:
    """Primitive gcd over the rationals of two integer polynomials (Euclid)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_divmod(a, b)[1])
    return a


def _derivative(coeffs) -> list:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _rational_roots(coeffs) -> list:
    """Sorted rational roots of a nonzero integer polynomial, constant term
    first, found without factoring any coefficient.

    The real roots of its square-free part s are isolated by exact
    bisection on Sturm counts (the sign changes of the Sturm sequence fall
    by one at each root, so they count the roots in (lo, hi]), starting
    from Cauchy's bound, until each interval is narrower than 1/(2 N^2)
    for N = |lead(s)|.  A rational root has a denominator dividing N, and
    two fractions with denominators at most N lie at least 1/N^2 apart, so
    the closest such fraction to the interval's end is the root when the
    root is rational; a candidate is kept only if it lies in the interval
    and s vanishes there.
    """
    p = _primitive(coeffs)
    if len(p) < 2:
        return []
    s = _primitive(_divmod(p, _gcd(p, _derivative(p)))[0])
    sturm = [s, _primitive(_derivative(s))]
    while len(sturm[-1]) > 1:
        sturm.append(_primitive([-c for c in _divmod(sturm[-2], sturm[-1])[1]]))

    def sign_changes(x):
        signs = [v > 0 for v in (_scaled_value(q, x) for q in sturm) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    lead = abs(s[-1])
    bound = Fraction(2 + max(abs(c) for c in s[:-1]) // lead)
    goal = Fraction(1, 2 * lead * lead)
    roots = []
    stack = [(-bound, sign_changes(-bound), bound, sign_changes(bound))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 and hi - lo < goal:
            cand = hi.limit_denominator(lead)
            if lo < cand <= hi and _vanishes_at(s, cand):
                roots.append(cand)
            continue
        mid = (lo + hi) / 2
        v_mid = sign_changes(mid)
        stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return sorted(roots)


def _skew_directions(grid, directions) -> bool:
    """Whether every direction of an unshared one-block system is skew:
    e_c - r e_p is exactly when its chain is a transposed pair {(i, j),
    (j, i)} with equal coefficients (r = 1); a lone e_c never is."""
    mirror = {c: grid[j][i] for i, row in enumerate(grid) for j, c in enumerate(row)}
    return all(len(d) == 2 and d[0] == (mirror[d[1][0]], -1) for d in directions)


def minrank_interval(cs: ConstraintSystem, budget: int = 6, seed: int = 0) -> MinrankInterval:
    """Sound interval [lower, upper] for the minimum rank over rational
    solutions of the system (for pair systems, the minimum of the summed
    block ranks; PSD constraints are not imposed here).

    The solution set is read off the anti-chains in closed form.  Each
    equation's chain holds a nonzero coefficient in unknowns of its own,
    so it fixes one unknown, and the free dimension is the number of
    unknowns minus the number of equations.  Raises ValueError when that
    exceeds budget, which is checked before any chain is built.

    The upper bound is the smallest rank found by exact sampling of the
    solution space (origin, axis sweeps, a small grid in dimension two,
    and, in dimension two or more, seeded random points).  Samples are
    evaluated on integers: the solution is scaled once by L, the lcm of
    its denominators, each sample by den, the lcm of its own, and the
    integer blocks are ranked by the shared Bareiss kernel (Bareiss 1968);
    positive scales keep the rank.

    The axis sweep ranks only the values a witness cannot settle.  The
    witness is a pivot row set R and pivot column set C of each block of
    a sample M, so each M[R, C] is nonsingular and the sizes sum to the
    rank of M.  Along axis a the samples are M(t) = P + t * D_a, and D_a,
    one chain direction, has at most 4 nonzero entries (2 for xp), so
    h(t) = det(M(t)[R, C]) has degree s at most the number of rows of R
    that D_a touches, at most 4.  Its integer values at t = 0..s give its
    coefficients by Newton's forward differences.  Where every block's h
    is nonzero, the rank is at least the witness size, which is at least
    upper, so the sample is skipped; elsewhere it is ranked.  Each axis
    starts from the origin's witness, whose h is nonzero at t = 0, and a
    sample that lowers upper becomes the witness for the rest of its
    axis, nonzero there too; so no h vanishes identically, and an axis
    ranks at most 4 values, 4 more after each drop, for at most s + 1
    minors per block.  upper is the same as with every value ranked.

    The lower bound uses, in order of preference: uniqueness of the
    solution; the inertia of the symmetric part when every nullspace
    direction is skew-symmetric, read off the chains (then all solutions
    share one symmetric part, whose max inertia bounds every rank); a
    constant nonzero minor of the parametrized solution (which survives
    every parameter choice); and, with one free parameter, minor systems
    with no rational root.

    Minors (m = 2, 3, when the blocks total at most 6 rows) are taken on
    the same integer solution, at the C(f+m, m) points of the principal
    lattice {e in N^f : |e| <= m}, unisolvent for degree m (Chung and Yao
    1977).  A minor is a nonzero constant exactly when all its values are
    equal and nonzero; with f > 1 it stops at its first zero or differing
    value.  With f = 1 its values at t = 0..m give, by Newton's forward
    differences, the integer coefficients of m! * L^m times the minor.
    The common rational roots of those minors are the rational roots of
    their gcd, found by exact bisection without factoring a coefficient.
    """
    grids, count = _variable_layout(cs)
    f = count - len(cs.equations)
    if f > budget:
        raise ValueError(f"free dimension {f} exceeds budget {budget}")
    particular, directions = _chain_solution(count, _gram_chains(cs, grids))

    vector_at = _integer_solution(particular, directions)
    rank_at = _sample_ranker(grids, vector_at)
    origin_witness = _witness(_sample_blocks(grids, vector_at, [Fraction(0)] * f), cs.symmetric)
    upper = sum(len(cols) for _, cols in origin_witness)
    upper_method = "origin"
    if f == 0:
        return MinrankInterval(upper, upper, "unique-solution", "unique-solution", 0)

    values = _sample_values()

    def consider(tvec, method):
        nonlocal upper, upper_method
        r = rank_at(tvec)
        if r < upper:
            upper = r
            upper_method = method

    # A witness comes from the origin or from a sample of rank upper, so
    # its sizes sum to at least upper, and a value where it clears could
    # not lower upper.
    rows_of = [{} for _ in grids]
    for block, grid in zip(rows_of, grids):
        for i, row in enumerate(grid):
            for c in row:
                block.setdefault(c, set()).add(i)
    for axis, direction in enumerate(directions):
        hit_rows = [set().union(*(block.get(c, ()) for c, _ in direction)) for block in rows_of]
        polys = _axis_polynomials(grids, vector_at, origin_witness, hit_rows, axis, f)
        for v in values:
            if not v or _witness_clears(polys, v):
                continue
            tvec = [Fraction(0)] * f
            tvec[axis] = v
            found = _witness(_sample_blocks(grids, vector_at, tvec), cs.symmetric)
            r = sum(len(cols) for _, cols in found)
            if r < upper:
                upper, upper_method = r, "axis-sweep"
                polys = _axis_polynomials(grids, vector_at, found, hit_rows, axis, f)
    if f == 2 and cs.size * cs.block_count <= 8:
        coarse = [Fraction(n, d) for d in (1, 2, 3) for n in range(-3 * d, 3 * d + 1)]
        coarse = sorted(set(coarse))
        for va in coarse:
            for vb in coarse:
                if va or vb:
                    consider([va, vb], "grid")
    if f > 1:
        # With f = 1 the axis sweep has already settled every value a
        # random draw can take.
        rng = random.Random(seed)
        for _ in range(300):
            tvec = [rng.choice(values) for _ in range(f)]
            consider(tvec, "random-sample")

    # Lower bound routes.
    lower = 0
    lower_method = "trivial"
    if any(rhs for _, rhs in cs.equations):
        lower, lower_method = 1, "nonzero-form"

    if not cs.symmetric and not cs.pair and _skew_directions(grids[0], directions):
        # Every solution then shares one symmetric part, so its max
        # inertia bounds the rank of every solution.
        cand = signature_lower_bound(_matrices_from_vector(grids, particular)[0])
        if cand > lower:
            lower, lower_method = cand, "shared-symmetric-part-inertia"

    total_size = cs.size * cs.block_count
    if total_size <= 6:
        # The blocks of a pair stack block-diagonally, so their ranks add up.
        n, pad = cs.size, len(grids) - 1
        for m in (2, 3):
            if m > total_size or lower >= m:
                continue
            mats = []
            for degree in range(m + 1):
                for e in monomial_index_set(f, degree):
                    vec = vector_at(1, e)
                    mats.append([[0] * (b * n) + [vec[c] for c in row] + [0] * ((pad - b) * n)
                                 for b, grid in enumerate(grids) for row in grid])
            found_constant = False
            polys = []
            subsets = itertools.combinations(range(total_size), m)
            for ridx, cidx in itertools.product(subsets, repeat=2):
                # A nonzero constant takes one nonzero value at every point.
                # With f > 1 that is all the search needs, so a minor stops
                # at its first zero or differing value; with f = 1 every
                # value is kept for the root search.
                minor_values = []
                for mat in mats:
                    v = det_integer([[mat[i][j] for j in cidx] for i in ridx])
                    if f > 1 and (v == 0 or minor_values and v != minor_values[0]):
                        break
                    minor_values.append(v)
                if len(minor_values) == len(mats) and (
                        f > 1 or minor_values[0] and len(set(minor_values)) == 1):
                    found_constant = True
                    break
                if f == 1 and any(minor_values):
                    polys.append(_newton_coefficients(minor_values))
            if found_constant and m > lower:
                lower, lower_method = m, "constant-minor"
                continue
            if f == 1 and polys:
                # No rational parameter kills every m-minor -> rank >= m
                # at every rational point.
                common = _rational_roots(functools.reduce(_gcd, polys))
                if not common and m > lower:
                    lower, lower_method = m, "minor-system-no-rational-root"
                for t in common:
                    consider([t], "minor-root")

    if lower > upper:
        raise ArithmeticError("lower bound exceeded an exhibited solution; routes disagree")
    return MinrankInterval(lower, upper, lower_method, upper_method, f)


# ---------------------------------------------------------------------------
# JSON serialization (triplet format).


class _Records(list):
    """A one-shot iterator over count records, each made as it is read.  A
    list subclass, as json.dumps reads one through iter(): it stores none."""

    def __init__(self, records, count: int):
        self._records, self._count = records, count

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._records)


def system_to_json(cs: ConstraintSystem) -> dict:
    """The system in the triplet format.  Its "eqs" records are made from
    equation_terms as they are written, so one write consumes them."""
    # One rhs object per Fraction object, shared by its equations: z2k's
    # 12,650 equations at d = 6 hold two.  Keyed by id(), as hashing a
    # Fraction runs Python code.
    values = {id(value): value for _, value in cs.equations}
    rhs = {key: fraction_to_json(value) for key, value in values.items()}
    records = ({"terms": terms, "rhs": rhs[id(value)]}
               for terms, (_, value) in zip(equation_terms(cs), cs.equations))
    return {
        "n": cs.size,
        "pair": cs.pair,
        "symmetric": cs.symmetric,
        "num_vars": cs.num_vars,
        "k": cs.half_degree,
        "scale": fraction_to_json(cs.scale) if cs.scale is not None else None,
        "basis": cs.basis,
        "eqs": _Records(records, len(cs.equations)),
    }
