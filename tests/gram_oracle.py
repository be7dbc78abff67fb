"""Gram-solution checks, the dense Gram solver, the pairwise term builder,
the z2k projection and the constraint-system reader: test oracles for
`birank.rankmin`.

`reference_terms` writes each equation's terms as the builders stored
them before `equation_terms` wrote them from one anti-chain rule: from
the anti-chains of all index pairs, and for z2k from its support loop.
`term_chains` is the chain pass of `minrank_interval` on equations given
as term lists, with the two refusals the rule makes unreachable: an
unknown in two equations, and an empty equation with a nonzero rhs.

`gram_expand` multiplies a candidate solution back out and
`check_solution` evaluates the equations at it; the tests require the
two to agree, and use them to check `solve_feasible`, the z2k projection
of the permanent Hessian and the sampled intervals.  `_linear_system`
writes a system as dense Fraction rows and `solve_linear` runs
fraction-free Gauss-Jordan on them; the tests require the closed-form
chain solution of `minrank_interval` to equal theirs.  `system_from_json`
reads the triplet layout that `system_to_json` writes, for the round-trip
test; no subcommand reads a system back.

`sampled_upper` is the upper end of `minrank_interval` with every sample
ranked, none cleared by a witness minor, and `rational_roots_by_divisors`
is the rational root search by trial division that the bisection search
replaced; the tests require each pair to agree.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from birank.exactla import ExactMatrix, _eliminate, _integer_rows, det_exact, rank_exact
from birank.polyring import (
    Exponent,
    Polynomial,
    as_fraction,
    fraction_from_json,
    monomial_count,
    monomial_index_set,
)
from birank.rankmin import (
    ConstraintSystem,
    _integer_solution,
    _matrices_from_vector,
    _sample_ranker,
    _sample_values,
    _variable_layout,
    _variables,
    build_z2k,
    equation_terms,
)
from matrix_oracle import submatrix


def insert_zeros(exps: Exponent, d: int) -> Exponent:
    """Lift an exponent tuple over the (d-1) x (d-1) matrix variables to the
    d x d variables, zero-padding the last row and column."""
    if len(exps) != (d - 1) * (d - 1):
        raise ValueError(f"expected {(d - 1) * (d - 1)} exponents")
    out = [0] * (d * d)
    for pos, e in enumerate(exps):
        i, j = divmod(pos, d - 1)
        out[i * d + j] = e
    return tuple(out)


def project_pair_to_z2k(plus: ExactMatrix, minus: ExactMatrix, d: int, k: int):
    """Project a solution pair of the full d x d pair system onto the
    multilinear system built by build_z2k: restrict both matrices to the
    multilinear monomials supported on the top-left block and multiply by
    the system's scale."""
    z = build_z2k(d, k)
    full_basis = monomial_index_set(d * d, k)
    full_index = {exps: i for i, exps in enumerate(full_basis)}
    rows = [full_index[insert_zeros(exps, d)] for exps in z.basis]
    out = []
    for m in (plus, minus):
        if m.rows != len(full_basis) or m.cols != len(full_basis):
            raise ValueError("matrix is not indexed by the full degree-k basis")
        out.append(submatrix(m, rows, rows).scale(z.scale))
    return out[0], out[1]


@dataclass(frozen=True)
class ProjectionCounts:
    full_basis: int
    multilinear_basis: int

    @property
    def gap(self) -> int:
        return self.full_basis - self.multilinear_basis


def projection_sandwich(d: int, k: int) -> ProjectionCounts:
    """Basis sizes on the two sides of the projection: all degree-k
    monomials in d^2 variables vs multilinear ones in (d-1)^2 variables."""
    if d < 2 or k < 1:
        raise ValueError("need d >= 2 and k >= 1")
    return ProjectionCounts(
        full_basis=monomial_count(d * d, k),
        multilinear_basis=math.comb((d - 1) * (d - 1), k),
    )


def _as_blocks(cs: ConstraintSystem, matrices) -> Tuple[ExactMatrix, ...]:
    if isinstance(matrices, ExactMatrix):
        matrices = (matrices,)
    matrices = tuple(matrices)
    if len(matrices) != cs.block_count:
        raise ValueError(f"expected {cs.block_count} matrices, got {len(matrices)}")
    for m in matrices:
        if m.rows != cs.size or m.cols != cs.size:
            raise ValueError(f"matrices must be {cs.size} x {cs.size}")
        if cs.symmetric and not m.is_symmetric():
            raise ValueError("system requires symmetric matrices")
    return matrices


def gram_expand(cs: ConstraintSystem, matrices) -> Polynomial:
    """v(x)^T Q v(x) for a single matrix, or the difference of the two
    blocks for a pair system, over the system's monomial basis."""
    matrices = _as_blocks(cs, matrices)
    acc: Dict[Exponent, Fraction] = {}
    signs = (1, -1)
    for b, m in enumerate(matrices):
        sign = signs[b]
        for i, bi in enumerate(cs.basis):
            for j, bj in enumerate(cs.basis):
                v = m[i, j]
                if v:
                    h = tuple(a + b2 for a, b2 in zip(bi, bj))
                    acc[h] = acc.get(h, Fraction(0)) + sign * v
    return Polynomial(cs.num_vars, acc)


def term_equations(cs: ConstraintSystem) -> list:
    """(terms, rhs) for each equation of cs."""
    return [(terms, rhs) for terms, (_, rhs) in zip(equation_terms(cs), cs.equations)]


def check_solution(cs: ConstraintSystem, matrices) -> bool:
    matrices = _as_blocks(cs, matrices)
    for terms, rhs in term_equations(cs):
        total = Fraction(0)
        for block, i, j, coef in terms:
            total += coef * matrices[block][i, j]
        if total != rhs:
            return False
    return True


def dense_rows(grids, count, equations):
    """Dense Fraction rows and right-hand sides of equations given as
    (terms, rhs), on the columns of grids."""
    rows = []
    rhs = []
    for terms, value in equations:
        row = [Fraction(0)] * count
        for block, i, j, coef in terms:
            row[grids[block][i][j]] += coef
        rows.append(row)
        rhs.append(value)
    return rows, rhs


def _linear_system(cs: ConstraintSystem):
    grids, count = _variable_layout(cs)
    return (grids, *dense_rows(grids, count, term_equations(cs)))


def term_chains(grids, equations):
    """The chains of _gram_chains for equations given as (terms, rhs): a
    chain is an equation's (column, summed coefficient) nonzeros in column
    order.  An equation with no nonzero coefficient is dropped when its
    rhs is 0, and raises ValueError (infeasible) otherwise; an unknown in
    two chains raises ValueError, since the closed form needs disjoint
    chains."""
    chains = []
    for terms, rhs in equations:
        coefs: Dict[int, int] = {}
        for block, i, j, coef in terms:
            c = grids[block][i][j]
            coefs[c] = coefs.get(c, 0) + coef
        chain = sorted((c, v) for c, v in coefs.items() if v)
        if not chain:
            if rhs:
                raise ValueError("constraint system is infeasible")
            continue
        chains.append((chain, rhs))
    columns = [c for chain, _ in chains for c, _ in chain]
    if len(set(columns)) < len(columns):
        raise ValueError("an unknown appears in two equations; the anti-chains must be disjoint")
    return chains


def _anti_chains(basis):
    # For each degree-2k monomial H, the ordered index pairs with
    # basis[i] + basis[j] = H.
    groups: Dict[Exponent, List[Tuple[int, int]]] = {}
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            h = tuple(a + b for a, b in zip(bi, bj))
            groups.setdefault(h, []).append((i, j))
    return groups


def _z2k_terms(num_vars: int, k: int):
    # Monomials are indexed by their supports, enumerated in the basis order.
    index_of = {s: i for i, s in enumerate(itertools.combinations(range(num_vars), k))}
    for support in itertools.combinations(range(num_vars), 2 * k):
        lefts = list(itertools.combinations(support, k))
        terms = []
        # Complementing k-subsets reverses their lexicographic order, so
        # the reversed list holds each left half's complement.
        for left, right in zip(lefts, reversed(lefts)):
            i = index_of[left]
            j = index_of[right]
            terms.append((0, i, j, 1))
            terms.append((1, i, j, -1))
        yield tuple(terms)


def reference_terms(cs: ConstraintSystem) -> list:
    """Each equation's terms as the builders stored them: z2k (the system
    with a scale) from its support loop, every other system from the
    anti-chains of its basis, one equation per degree-2k monomial in
    graded-lex order."""
    if cs.scale is not None:
        return list(_z2k_terms(cs.num_vars, cs.half_degree))
    groups = _anti_chains(cs.basis)
    equations = []
    for h in monomial_index_set(cs.num_vars, 2 * cs.half_degree):
        terms = []
        for i, j in groups.get(h, []):
            terms.append((0, i, j, 1))
            if cs.pair:
                terms.append((1, i, j, -1))
        equations.append(tuple(terms))
    return equations


def solve_linear(rows, rhs):
    """Solve rows * x = rhs over the rationals.

    Returns (particular, nullspace_basis) with free variables set to zero,
    or None when inconsistent.  Fraction-free Gauss-Jordan on [rows | rhs].
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("right-hand side length mismatch")
    ncols = len(rows[0]) if m else 0
    work, _ = _integer_rows(
        [[as_fraction(v) for v in row] + [as_fraction(rhs[i])] for i, row in enumerate(rows)]
    )
    pivots, _, last = _eliminate(work, ncols, jordan=True)
    if any(row[ncols] for row in work[len(pivots):]):
        return None
    particular = [Fraction(0)] * ncols
    for row, col in zip(work, pivots):
        particular[col] = Fraction(row[ncols], last)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(work, pivots):
            vec[col] = Fraction(-row[free], last)
        basis.append(vec)
    return particular, basis


def solve_feasible(cs: ConstraintSystem) -> Tuple[ExactMatrix, ...]:
    """One exact solution of the system (free variables zero); raises on an
    infeasible system."""
    grids, rows, rhs = _linear_system(cs)
    solved = solve_linear(rows, rhs)
    if solved is None:
        raise ValueError("constraint system is infeasible")
    particular, _ = solved
    return _matrices_from_vector(grids, particular)


def _coef_from_json(obj) -> int:
    # Every builder writes the coefficients 1 and -1; bool is an int subtype.
    if type(obj) is int and obj in (1, -1):
        return obj
    raise ValueError(f"bad coefficient {obj!r}")


def system_from_json(obj) -> ConstraintSystem:
    """The system of the triplet layout.  Each equation's monomial is read
    off its first term, basis[i] + basis[j], and its terms must be those
    equation_terms writes for it."""
    required = {"n", "pair", "eqs"}
    if not isinstance(obj, dict) or not required <= set(obj):
        raise ValueError("constraint system object needs 'n', 'pair', 'eqs'")
    basis = tuple(tuple(int(e) for e in b) for b in obj.get("basis", []))
    read = []
    for eq in obj["eqs"]:
        terms = tuple(
            (int(t[0]), int(t[1]), int(t[2]), _coef_from_json(t[3])) for t in eq["terms"]
        )
        if not terms:
            raise ValueError("an equation has no terms")
        _, i, j, _ = terms[0]
        h = tuple(sorted(_variables(basis[i]) + _variables(basis[j])))
        read.append((terms, (h, fraction_from_json(eq["rhs"]))))
    scale = obj.get("scale")
    cs = ConstraintSystem(
        size=int(obj["n"]),
        pair=bool(obj["pair"]),
        symmetric=bool(obj.get("symmetric", False)),
        num_vars=int(obj.get("num_vars", len(basis[0]) if basis else 0)),
        half_degree=int(obj.get("k", 1)),
        basis=basis,
        equations=tuple(equation for _, equation in read),
        scale=fraction_from_json(scale) if scale else None,
    )
    if list(equation_terms(cs)) != [terms for terms, _ in read]:
        raise ValueError("an equation's terms are not the anti-chain of its monomial")
    return cs


def rational_roots_by_divisors(coeffs) -> list:
    """Sorted rational roots of a nonconstant integer polynomial, constant
    term first: by the rational root theorem each is +-num/den with num
    dividing its lowest and den its leading nonzero coefficient, whose
    divisors are found by trial division up to the square root."""
    low = next(k for k, c in enumerate(coeffs) if c)
    lead = max(k for k, c in enumerate(coeffs) if c)

    def divisors(v):
        v = abs(v)
        return {d for c in range(1, math.isqrt(v) + 1) if v % c == 0 for d in (c, v // c)}

    roots = {Fraction(0)} if low > 0 else set()
    for num in divisors(coeffs[low]):
        for den in divisors(coeffs[lead]):
            for sign in (1, -1):
                # den^lead * p(num/den), on integers
                if not sum(c * (sign * num) ** k * den ** (lead - k) for k, c in enumerate(coeffs[:lead + 1])):
                    roots.add(Fraction(sign * num, den))
    return sorted(roots)


def _interpolate(values) -> list:
    """Rational coefficients, constant term first, of the polynomial of
    degree at most m through (k, values[k]), k = 0..m (Lagrange)."""
    m = len(values) - 1
    coeffs = [Fraction(0)] * (m + 1)
    for k, v in enumerate(values):
        term = [Fraction(v)]
        for j in range(m + 1):
            if j != k:
                # times (t - j) / (k - j)
                term = [(a - j * b) / (k - j) for a, b in zip([Fraction(0)] + term, term + [Fraction(0)])]
        coeffs = [a + b for a, b in zip(coeffs, term)]
    return coeffs


def _minor_roots(grids, particular, direction, m) -> list:
    """With one free parameter, the rational t where every m-minor of the
    stacked blocks of particular + t * direction vanishes: the rational
    roots of the first minor that is not identically zero, kept where the
    rank at t is below m; none when every m-minor is identically zero."""
    def stacked(t):
        blocks = _matrices_from_vector(grids, [a + t * b for a, b in zip(particular, direction)])
        n, pad = blocks[0].rows, len(blocks) - 1
        return [[0] * (b * n) + list(row) + [0] * ((pad - b) * n)
                for b, q in enumerate(blocks) for row in q.entries]

    samples = [stacked(t) for t in range(m + 1)]
    subsets = list(itertools.combinations(range(len(samples[0])), m))
    for ridx, cidx in itertools.product(subsets, repeat=2):
        values = [det_exact(ExactMatrix([[mat[i][j] for j in cidx] for i in ridx])) for mat in samples]
        if any(values):
            coeffs = _interpolate(values)
            den = math.lcm(*(c.denominator for c in coeffs))
            roots = rational_roots_by_divisors([c.numerator * (den // c.denominator) for c in coeffs])
            return [t for t in roots if rank_exact(ExactMatrix(stacked(t))) < m]
    return []


def sampled_upper(cs: ConstraintSystem, seed: int = 0):
    """(upper, upper_method) of minrank_interval with every sample ranked,
    in its order: the origin, the axis sweep over every nonzero sample
    value, the grid when f = 2 and the blocks total at most 8 rows, 300
    seeded draws when f > 1, and last, when f = 1 and the blocks total at
    most 6 rows, the parameters where every m-minor vanishes (m = 2, 3).
    The solution set comes from the dense Gauss-Jordan oracle."""
    grids, rows, rhs = _linear_system(cs)
    particular, basis = solve_linear(rows, rhs)
    f = len(basis)
    rank_at = _sample_ranker(grids, _integer_solution(particular, [
        [(c, v) for c, v in enumerate(vec) if v] for vec in basis]))
    upper, method = rank_at([Fraction(0)] * f), "origin"
    if f == 0:
        return upper, "unique-solution"
    values = _sample_values()
    samples = []
    for axis in range(f):
        for v in values:
            if v:
                samples.append(([v if a == axis else Fraction(0) for a in range(f)], "axis-sweep"))
    total = cs.size * cs.block_count
    if f == 2 and total <= 8:
        coarse = sorted({Fraction(n, d) for d in (1, 2, 3) for n in range(-3 * d, 3 * d + 1)})
        samples += [([a, b], "grid") for a in coarse for b in coarse if a or b]
    if f > 1:
        rng = random.Random(seed)
        samples += [([rng.choice(values) for _ in range(f)], "random-sample") for _ in range(300)]
    if f == 1 and total <= 6:
        for m in (2, 3):
            if m <= total:
                samples += [([t], "minor-root") for t in _minor_roots(grids, particular, basis[0], m)]
    for tvec, how in samples:
        r = rank_at(tvec)
        if r < upper:
            upper, method = r, how
    return upper, method
