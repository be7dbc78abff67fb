"""Determinant coefficients via clow sequences, and certified splittings of
determinant slices into sums of degree-(k, k) products.

A clow on vertices {1..n} is a closed walk <v1, ..., vl> whose head v1 is
strictly smaller than every other vertex of the walk; repeats among the
later vertices are allowed.  A clow sequence is an ordered tuple of clows
with strictly increasing heads; its length is the total number of walk
vertices and its sign is (-1)^(n + number of clows).  Signed clow
enumeration computes determinant coefficients because everything that is
not a disjoint union of cycles cancels in pairs (Mahajan and Vinay 1997).

One clow program serves the module.  Over all heads, its length-k answer
is (-1)^k times the coefficient of lambda^(n-k) in det(A(x) + lambda*I);
on a k x k block it gives the determinant.  The degree-2k part of
det(A(x) + J), J the diagonal with r trailing ones, is split into products
in three ways: at r = n-1 the head-1 program is cut after its first clow
or in the middle of it, at r = n-2k a generalized Laplace expansion pairs
k x k determinants, and in between one trailing one is peeled per step.

Construction is fraction-free (the idea of Bareiss 1968): A is scaled
once by L, the lcm of all its denominators, an entry of L*A is an integer
form {packed monomial: int}, and a value built from s entries is L^s
times the true one.  Each factor becomes a Polynomial once, divided by
its own L^s.  The walk tables and the clow program of a matrix are built
once and shared by every head length t.

Every constructor verifies its output and refuses to return an
unverified object.  The pair sum and the target are forms of degree 2k in
D variables, and two such forms are equal exactly when their values agree
on the simplex lattice {e in N^D : |e| = 2k}, which is unisolvent for
them (Chung and Yao 1977, principal lattices): C(D + 2k - 1, 2k) points,
495 for D = 9 and k = 2.  The target slice is evaluated there without
ever being expanded: at a lattice point the linear matrix B is numeric,
and the slice value is a sum of principal minors that share one
elimination with principal pivots (Sylvester's identity; Bareiss 1968):
after pivots P, entry (i, j) is det(B[P+i, P+j]), so a subset of the
optional rows extends its prefix's elimination, and a branch that would
divide by a vanishing pivot takes its minors one by one.  The pair sum
packs its own keys; verification shares no code with construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from birank.exactla import AffineMatrixPoly, _bareiss_step, det_integer
from birank.polyring import (
    Point,
    Polynomial,
    monomial_index_set,
    poly_to_json,
    split_terms,
)


class DecompositionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Integer forms.  A form is a dict {key: int} with the monomial x^e packed
# into key = sum_l e_l << (width * l).  The field width holds the largest
# total degree the program reaches, so no field carries into the next and
# multiplying monomials is adding keys.


class _IntegerForms:
    """The entries of L*A as integer forms, keyed by 0-based (row, column),
    L the lcm of the denominators of A's constant and coefficient matrices;
    zero entries are absent.  No form may exceed total degree max_degree."""

    def __init__(self, a: AffineMatrixPoly, max_degree: int):
        mats = (a.const,) + a.coeffs
        self.num_vars = a.num_vars
        self.width = max_degree.bit_length()
        self.scale = math.lcm(*(v.denominator for m in mats for row in m.entries for v in row))
        keys = [0] + [1 << (self.width * l) for l in range(a.num_vars)]
        self.entries = {}
        for i in range(a.n):
            for j in range(a.n):
                form = {}
                for key, m in zip(keys, mats):
                    v = m.entries[i][j]
                    if v:
                        form[key] = v.numerator * (self.scale // v.denominator)
                if form:
                    self.entries[i, j] = form
        self._exponents: Dict[int, Tuple[int, ...]] = {}

    def pack(self, exps) -> int:
        return sum(e << (self.width * l) for l, e in enumerate(exps))

    def exponents(self, key: int) -> Tuple[int, ...]:
        exps = self._exponents.get(key)
        if exps is None:
            mask = (1 << self.width) - 1
            exps = tuple((key >> (self.width * l)) & mask for l in range(self.num_vars))
            self._exponents[key] = exps
        return exps

    def polynomial(self, form: dict, s: int) -> Polynomial:
        """The Polynomial form / L^s."""
        den = self.scale ** s
        return Polynomial._trusted(
            self.num_vars, {self.exponents(key): Fraction(c, den) for key, c in form.items()}
        )


_ONE = {0: 1}
_MINUS_ONE = {0: -1}


def _mul_add(acc: dict, p: dict, q: dict):
    """acc += p * q, in place."""
    get = acc.get
    for k2, c2 in q.items():
        for k1, c1 in p.items():
            key = k1 + k2
            acc[key] = get(key, 0) + c1 * c2


def _scaled(p: dict, c: int) -> dict:
    """c * p without zero terms; c = 1 drops the zeros of p."""
    return {key: c * v for key, v in p.items() if v}


# ---------------------------------------------------------------------------
# The clow program.  State (h, v): an unfinished clow with head h currently
# at vertex v, preceded by finished clows with heads < h.  Each finished or
# unfinished clow contributes a factor -1, so a layer value is the sum of
# (-1)^(number of clows so far) * (product of edge entries so far).


def _clow_dp(entries: dict, rows: Sequence[int], cols: Sequence[int], max_total: int) -> list:
    """answers[s], s = 1..max_total: the sum over clow sequences of total
    length s on the vertices 0..m-1 of (-1)^(clow count) * weight, where
    the edge v -> w weighs entries[rows[v], cols[w]]; an integer form
    scaled by L^s.  With rows = cols the answers sum principal minors; on
    a k x k block answers[k] is (-1)^k times its determinant."""
    m = len(rows)
    edge = {}
    for v in range(m):
        for w in range(m):
            e = entries.get((rows[v], cols[w]))
            if e:
                edge[v, w] = e
    answers = [None]
    open_cur = {(h, h): _MINUS_ONE for h in range(m)}
    for s in range(1, max_total + 1):
        closed = {}
        for (h, v), form in open_cur.items():
            e = edge.get((v, h))
            if e:
                _mul_add(closed.setdefault(h, {}), form, e)
        finish = {}
        for value in closed.values():
            _mul_add(finish, value, _ONE)
        answers.append(_scaled(finish, 1))
        if s == max_total:
            break
        nxt = {}
        for (h, v), form in open_cur.items():
            for w in range(h + 1, m):
                e = edge.get((v, w))
                if e:
                    _mul_add(nxt.setdefault((h, w), {}), form, e)
        for h, value in closed.items():
            for h2 in range(h + 1, m):
                _mul_add(nxt.setdefault((h2, h2), {}), value, _MINUS_ONE)
        open_cur = {}
        for state, form in nxt.items():
            form = _scaled(form, 1)
            if form:
                open_cur[state] = form
    return answers


def char_coefficients(a: AffineMatrixPoly, degrees: Sequence[int]) -> Dict[int, Polynomial]:
    """Coefficient polynomials c_k(x) of lambda^(n-k) in det(A(x) + lambda I).

    c_k is the sum of all k x k principal minors of A(x), (-1)^k times the
    length-k answer of the clow program over all heads: polynomially many
    operations on the integer forms of L*A.  A may have a constant part.
    """
    degrees = sorted(set(int(k) for k in degrees))
    n = a.n
    if any(k < 0 or k > n for k in degrees):
        raise ValueError(f"degrees must lie in [0, {n}]")
    out: Dict[int, Polynomial] = {}
    want = [k for k in degrees if k >= 1]
    if 0 in degrees:
        out[0] = Polynomial.constant(a.num_vars, 1)
    if want:
        forms = _IntegerForms(a, max(want))
        verts = range(n)
        answers = _clow_dp(forms.entries, verts, verts, max(want))
        for k in want:
            out[k] = forms.polynomial(_scaled(answers[k], (-1) ** k), k)
    return out


def det_lambda_part(a: AffineMatrixPoly, r: int, m: int) -> List[Fraction]:
    """Exact values of the degree-m part of det(A(x) + J), J the diagonal
    with ones in the last r positions, at the points of
    monomial_index_set(D, m), in that order.

    The slice is the sum of the principal m-minors of A(x) that contain
    the first n - r rows.  With L the lcm of the denominators of the
    coefficient matrices, B = L*A(e) is an integer matrix: its parent
    point's B plus L*A_l, only the level below held.  The minors share one
    elimination (module docstring), the last two subset levels read with
    no row update, as the diagonal sum and as 2 x 2 determinants over the
    last pivot.  The sum is divided by L^m once.  Independent of the clow
    programs, these values are the verification target everywhere.
    """
    n = a.n
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= {n}")
    if not a.is_linear():
        raise ValueError("det_lambda_part expects a linear matrix")
    mandatory = list(range(n - r))
    optional = list(range(n - r, n))
    need = m - len(mandatory)
    if need < 0 or need > len(optional):
        return [Fraction(0)] * len(monomial_index_set(a.num_vars, m))
    scale = math.lcm(*(v.denominator for c in a.coeffs for row in c.entries for v in row))
    ints = [[[v.numerator * scale // v.denominator for v in row] for row in c.entries] for c in a.coeffs]

    def minors(b, w, prev, rows, cands, d):
        # The sum of det(b[rows + S]) over the d-subsets S of cands, given
        # w[i][j] = det(b[rows + i, rows + j]) and prev = det(b[rows]).
        if not prev:
            subsets = (rows + list(s) for s in itertools.combinations(cands, d))
            return sum(det_integer([[b[i][j] for j in idx] for i in idx]) for idx in subsets)
        if d < 2:
            return sum(w[q][q] for q in cands) if d else prev
        if d == 2:
            return sum(w[q][q] * w[s][s] - w[q][s] * w[s][q] for q, s in itertools.combinations(cands, 2)) // prev
        total = 0
        for t in range(len(cands) - d + 1):
            q, rest, child = cands[t], cands[t + 1:], list(w)
            pivot = _bareiss_step(child, q, q, prev, rest)
            total += minors(b, child, pivot, rows + [q], rest, d - 1)
        return total

    def lattice(degree):
        # B at the points of monomial_index_set(D, degree), in order.
        if not degree:
            yield [[0] * n for _ in range(n)]
            return
        parents = dict(zip(monomial_index_set(a.num_vars, degree - 1), lattice(degree - 1)))
        for e in monomial_index_set(a.num_vars, degree):
            l = next(l for l, x in enumerate(e) if x)
            parent = parents[e[:l] + (e[l] - 1,) + e[l + 1:]]
            yield [[x + y for x, y in zip(p, c)] for p, c in zip(parent, ints[l])]
    values = []
    for b in lattice(m):
        w, prev = list(b), 1
        for i in mandatory:
            prev = prev and _bareiss_step(w, i, i, prev, range(i + 1, n))
        values.append(Fraction(minors(b, w, prev, mandatory, optional, need), scale ** m))
    return values


# ---------------------------------------------------------------------------
# Certified product-sum decompositions.


def _form_values(p: Polynomial, degree: int) -> List[Fraction]:
    """Exact values of p at the points of monomial_index_set(D, degree).

    Rejects p unless it is zero or a form of that degree: only between such
    forms do the lattice values prove equality.  The terms are scaled to
    integers by their common denominator, and a term only reaches the
    points whose support contains its own, so each point sums the term
    groups of the subsets of its support.
    """
    if not p.is_zero() and (not p.is_homogeneous() or p.degree() != degree):
        raise DecompositionError(f"target is not a form of degree {degree}")
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    groups: Dict[Tuple[int, ...], list] = {}
    for exps, c in p.terms.items():
        support = tuple(i for i, e in enumerate(exps) if e)
        groups.setdefault(support, []).append(([(i, exps[i]) for i in support], c.numerator * den // c.denominator))
    values = []
    for e in monomial_index_set(p.num_vars, degree):
        support = [i for i, w in enumerate(e) if w]
        total = 0
        for size in range(len(support) + 1):
            for sub in itertools.combinations(support, size):
                for powers, c in groups.get(sub, ()):
                    value = c
                    for i, k in powers:
                        value *= e[i] ** k
                    total += value
        values.append(Fraction(total, den))
    return values


def _pair_sum(pairs, num_vars: int, degree: int) -> Polynomial:
    """sum(f * g) over the pairs on integers and keys sum_l e_l << (w * l)
    for x^e, w the bit length of degree so that no field carries: factors
    scaled by their denominators, products lifted to the lcm of those."""
    width = degree.bit_length()

    def packed(p):
        den = math.lcm(*(c.denominator for c in p.terms.values()))
        return den, [
            (sum(e << (width * l) for l, e in enumerate(exps)), c.numerator * den // c.denominator)
            for exps, c in p.terms.items()
        ]
    scaled = [packed(f) + packed(g) for f, g in pairs]
    den = math.lcm(*(f_den * g_den for f_den, _, g_den, _ in scaled))
    acc: Dict[int, int] = {}
    for f_den, f_terms, g_den, g_terms in scaled:
        lift = den // (f_den * g_den)
        for k1, c1 in f_terms:
            c1 *= lift
            for k2, c2 in g_terms:
                key = k1 + k2
                acc[key] = acc.get(key, 0) + c1 * c2
    mask = (1 << width) - 1
    terms = ((tuple([key >> (width * l) & mask for l in range(num_vars)]), c) for key, c in acc.items() if c)
    return Polynomial(num_vars, {exps: Fraction(c, den) for exps, c in terms})


@dataclass(frozen=True)
class BiDecomposition:
    """Verified pairs with sum(f_i * g_i) equal to target; every factor is
    homogeneous of degree half_degree."""

    half_degree: int
    pairs: Tuple[Tuple[Polynomial, Polynomial], ...]
    target: Polynomial

    @classmethod
    def build(cls, half_degree: int, pairs, target, num_vars: Optional[int] = None) -> "BiDecomposition":
        """Check the pairs and keep the nonzero ones.

        target is either a Polynomial, which must be zero or a form of
        degree 2 * half_degree, or the values of such a form at the points
        of monomial_index_set(num_vars, 2 * half_degree), as det_lambda_part
        returns them.  Every factor must be homogeneous of degree
        half_degree; the symbolic pair sum is then evaluated on that
        simplex lattice and must match the target's values exactly, which
        proves the two forms equal.  The stored target is the verified
        pair sum.
        """
        degree = 2 * half_degree
        if isinstance(target, Polynomial):
            num_vars = target.num_vars
            expected = _form_values(target, degree)
        elif num_vars is None:
            raise ValueError("a target given by its lattice values needs num_vars")
        else:
            expected = list(target)
        kept = []
        for f, g in pairs:
            if f.is_zero() or g.is_zero():
                continue
            for factor in (f, g):
                if factor.num_vars != num_vars:
                    raise DecompositionError("factor lives in the wrong variable count")
                if not factor.is_homogeneous() or factor.degree() != half_degree:
                    raise DecompositionError(
                        f"factor of degree {factor.degree()} is not homogeneous of degree {half_degree}"
                    )
            kept.append((f, g))
        total = _pair_sum(kept, num_vars, degree)
        if _form_values(total, degree) != expected:
            raise DecompositionError("pairs do not re-multiply to the target")
        return cls(half_degree=half_degree, pairs=tuple(kept), target=total)


def decomposition_to_json(dec: BiDecomposition) -> dict:
    return {
        "k": dec.half_degree,
        "pairs": [{"f": poly_to_json(f), "g": poly_to_json(g)} for f, g in dec.pairs],
    }


def _walk_table(entries: dict, head: int, others: Sequence[int], steps: int, backward: bool = False) -> list:
    """table[s][v], s = 1..steps: the sum over walks head -> v (backward:
    v -> head) with s edges whose other vertices lie in others, as integer
    forms scaled by L^s; zero sums are absent."""

    def edge(v, w):
        return entries.get((w, v) if backward else (v, w))

    table = [None, {v: e for v in others if (e := edge(head, v))}]
    for _ in range(2, steps + 1):
        prev, cur = table[-1], {}
        for v in others:
            acc = {}
            for w, form in prev.items():
                e = edge(w, v)
                if e:
                    _mul_add(acc, form, e)
            acc = _scaled(acc, 1)
            if acc:
                cur[v] = acc
        table.append(cur)
    return table


def _head_slice_pairs(forms: _IntegerForms, idx: List[int], k: int, sign: int) -> list:
    """Pairs whose products sum to sign times the degree-2k part of
    det(A + J) on the rows and columns idx, J with n-1 trailing ones: the
    head-1 clow program of length 2k, one slice per length t of its first
    clow.  For t < 2k the head-clow sum times the program on the other
    vertices is one product, split by the monomials of its factor of
    higher degree unless t = k; a single clow of length 2k is cut at its
    (k+1)-th vertex.  The walk tables and the program on the other
    vertices are built once for every t."""
    entries = forms.entries
    n = len(idx)
    head, others = idx[0], idx[1:]
    sign = sign if n % 2 == 0 else -sign
    outer = -1 if n % 2 == 0 else 1  # (-1)^(n+1): the sign of a head-1 sequence
    forward = _walk_table(entries, head, others, max(k, 2 * k - 2))
    tails = _clow_dp(entries, others, others, 2 * k - 1)
    pairs = []
    for t in range(1, 2 * k):
        if t == 1:
            head_sum = entries.get((head, head), {})
        else:
            head_sum = {}
            for v, form in forward[t - 1].items():
                e = entries.get((v, head))
                if e:
                    _mul_add(head_sum, form, e)
            head_sum = _scaled(head_sum, 1)
        rest = 2 * k - t
        tail = _scaled(tails[rest], outer)
        if not head_sum or not tail:
            continue
        small = min(t, rest)
        low, high = (head_sum, tail) if t <= rest else (tail, head_sum)
        if small == k:
            pairs.append((_scaled(low, sign), k, high, k))
            continue
        for div, cofactor in split_terms(((forms.exponents(key), c) for key, c in high.items()), k - small):
            shift = forms.pack(div)
            f = {key + shift: sign * c for key, c in low.items()}
            g = {forms.pack(exps): c for exps, c in cofactor.items()}
            pairs.append((f, small, g, 2 * k - small))
    # t = 2k comes last.
    backward = _walk_table(entries, head, others, k, backward=True)
    for v in others:
        f, g = forward[k].get(v), backward[k].get(v)
        if f and g:
            pairs.append((_scaled(f, sign * outer), k, g, k))
    return pairs


def _laplace_pairs(forms: _IntegerForms, idx: List[int], k: int, sign: int) -> list:
    # det of the top-left 2k x 2k submatrix, expanded along its first k
    # columns: one product of two k x k determinants per row subset.
    rows = range(2 * k)
    base = sum(range(1, k + 1))
    det_sign = (-1) ** k
    pairs = []
    for subset in itertools.combinations(rows, k):
        rest = [i for i in rows if i not in subset]
        expansion_sign = (-1) ** (sum(i + 1 for i in subset) + base)
        f = _clow_dp(forms.entries, [idx[i] for i in subset], idx[:k], k)[k]
        g = _clow_dp(forms.entries, [idx[i] for i in rest], idx[k:2 * k], k)[k]
        pairs.append((_scaled(f, sign * expansion_sign * det_sign), k, _scaled(g, det_sign), k))
    return pairs


def _det_part_pairs(forms: _IntegerForms, idx: List[int], k: int, r: int, sign: int = 1) -> list:
    """Pairs (f, s, g, t) of integer forms, f scaled by L^s and g by L^t,
    whose products sum to sign times the degree-2k part of det(A + J) on
    the rows and columns idx, J with r trailing ones."""
    n = len(idx)
    if 2 * k > n:
        return []
    if r == n - 2 * k:
        return _laplace_pairs(forms, idx, k, sign)
    if r == n - 1:
        return _head_slice_pairs(forms, idx, k, sign)
    # Peel one diagonal one: the trailing-ones diagonals for r and r+1
    # differ only at position n-r-1, whose row and column get deleted in
    # the second branch.
    p = n - r - 1
    return _det_part_pairs(forms, idx, k, r + 1, sign) + _det_part_pairs(
        forms, idx[:p] + idx[p + 1:], k, r, -sign
    )


def _construct_pairs(a: AffineMatrixPoly, k: int, r: int) -> list:
    """The pairs of decompose_det_part before verification."""
    forms = _IntegerForms(a, 2 * k)
    return [
        (forms.polynomial(f, s), forms.polynomial(g, t))
        for f, s, g, t in _det_part_pairs(forms, list(range(a.n)), k, r)
    ]


def decompose_det_part(a: AffineMatrixPoly, k: int, r: int) -> BiDecomposition:
    """Certified decomposition of the degree-2k part of det(A(x) + J), J
    the diagonal with r trailing ones, for a linear A.

    Construction: at r = n-1 the head-length slices of the clow program,
    each split in its middle; at r = n-2k a generalized Laplace expansion
    with binomial(2k, k) products; in between, a recursion that removes one
    trailing one per step and branches on deleting the corresponding row
    and column.  Every table is built on integer forms of L*A, once per
    matrix of the recursion, and each factor is divided by its own power
    of L once.  The pair sum always matches the values of the subset-minor
    target (det_lambda_part) on the simplex lattice, or an error is raised.
    """
    n = a.n
    if k < 1:
        raise ValueError("need k >= 1")
    if not a.is_linear():
        raise ValueError("decompose_det_part expects a linear matrix")
    if not max(0, n - 2 * k) <= r <= n - 1:
        raise ValueError(f"need {max(0, n - 2 * k)} <= r <= {n - 1}")
    target = det_lambda_part(a, r, 2 * k)
    pairs = _construct_pairs(a, k, r)
    return BiDecomposition.build(k, pairs, target, a.num_vars)


@dataclass(frozen=True)
class RepresentationDecomposition:
    """Output of the full pipeline on a determinantal representation."""

    n: int
    num_vars: int
    half_degree: int
    constant_rank: int
    decomposition: BiDecomposition
    pair_bound: int

    @property
    def pair_count(self) -> int:
        return len(self.decomposition.pairs)


def pipeline_pair_bound(n: int, k: int, num_vars: int) -> int:
    """Pair-count bound certified by the pipeline: 2^(2k-2) * (n + 2(k-1)*D^(k-1))."""
    return 4 ** (k - 1) * (n + 2 * (k - 1) * num_vars ** (k - 1))


def decompose_from_representation(q: AffineMatrixPoly, x0: Point, k: int) -> RepresentationDecomposition:
    """From det(Q(x)) = p(x) and a point with Q(x0) singular, produce a
    verified decomposition of the degree-2k part of p at x0 into at most
    pipeline_pair_bound(n, k, D) products of degree-k polynomials."""
    from birank.exactla import singular_normal_form

    if k < 1:
        raise ValueError("need k >= 1")
    form = singular_normal_form(q, x0)
    a, r, n = form.linear, form.rank, q.n
    if 2 * k > n or r < n - 2 * k:
        # No principal 2k-minor contains all n-r mandatory rows: the degree
        # slice is identically zero and the empty decomposition is exact.
        target = det_lambda_part(a, r, 2 * k)
        dec = BiDecomposition.build(k, [], target, a.num_vars)
    else:
        dec = decompose_det_part(a, k, r)
    bound = pipeline_pair_bound(n, k, q.num_vars)
    if len(dec.pairs) > bound:
        raise DecompositionError(
            f"pair count {len(dec.pairs)} exceeds the certified bound {bound}"
        )
    return RepresentationDecomposition(
        n=n,
        num_vars=q.num_vars,
        half_degree=k,
        constant_rank=r,
        decomposition=dec,
        pair_bound=bound,
    )


# ---------------------------------------------------------------------------
# Bound calculators.


def dc_lower_bound(birank_value, k: int, num_vars: int) -> Fraction:
    """Determinantal-size lower bound implied by the bi-polynomial rank of
    the degree-2k slice at a singular point: b / 2^(2k-2) - 2(k-1)*D^(k-1)."""
    if k < 1 or num_vars < 1:
        raise ValueError("need k >= 1 and num_vars >= 1")
    b = Fraction(birank_value)
    return b / 4 ** (k - 1) - 2 * (k - 1) * num_vars ** (k - 1)


def dc_sqrt_bound(birank_value) -> float:
    """Weaker k-free form: any representation size is at least sqrt(b)."""
    b = Fraction(birank_value)
    if b < 0:
        raise ValueError("bi-polynomial rank cannot be negative")
    return math.sqrt(b)


def generic_birank_floor(num_vars: int, k: int) -> Fraction:
    """Lower bound on the bi-polynomial rank of a generic degree-2k form:
    k! * D^k / (2 * (2k)!)."""
    if k < 1 or num_vars < 1:
        raise ValueError("need k >= 1 and num_vars >= 1")
    return Fraction(math.factorial(k) * num_vars ** k, 2 * math.factorial(2 * k))

