"""Determinant coefficients via clow sequences, and certified splittings of
determinant slices into sums of degree-(k, k) products.

A clow on vertices {1..n} is a closed walk <v1, ..., vl> whose head v1 is
strictly smaller than every other vertex of the walk; repeats among the
later vertices are allowed.  A clow sequence is an ordered tuple of clows
with strictly increasing heads; its length is the total number of walk
vertices and its sign is (-1)^(n + number of clows).  Signed clow
enumeration computes determinant coefficients because everything that is
not a disjoint union of cycles cancels in pairs (Mahajan and Vinay 1997);
the cancellation itself is exercised by tests through the brute-force
enumerator below.

Two dynamic programs drive the module: an unrestricted one over all
heads, whose length-k slice gives the coefficient of lambda^(n-k) in
det(A(x) + lambda*I), and a head-1-restricted one, whose length-2k slice
equals the degree-2k part of det(A(x) + J) where J is the diagonal with
ones in the last n-1 positions.  Product-sum decompositions come from
cutting a program in the middle or from peeling the trailing-ones
diagonal one position at a time.

Every constructor verifies its output and refuses to return an
unverified object.  The pair sum and the target are forms of degree 2k in
D variables, and two such forms are equal exactly when their values agree
on the simplex lattice {e in N^D : |e| = 2k}, which is unisolvent for
them (Chung and Yao 1977, principal lattices): C(D + 2k - 1, 2k) points,
495 for D = 9 and k = 2.  The target slice is evaluated there without
ever being expanded: at a lattice point the linear matrix is numeric, and
the slice value is a sum of principal minors, each an integer
determinant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from birank.exactla import AffineMatrixPoly, det_integer, trailing_ones_matrix
from birank.polyring import (
    Point,
    Polynomial,
    monomial_index_set,
    monomial_split,
    poly_from_json,
    poly_to_json,
)

ENUMERATION_LIMIT_N = 5
ENUMERATION_LIMIT_LENGTH = 5


class DecompositionError(ValueError):
    pass


@dataclass(frozen=True)
class Clow:
    """Closed walk with a strictly minimal first vertex."""

    vertices: Tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a clow needs at least one vertex")
        head = self.vertices[0]
        if any(v <= head for v in self.vertices[1:]):
            raise ValueError(f"head {head} must be strictly minimal in {self.vertices}")

    @property
    def head(self) -> int:
        return self.vertices[0]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def is_cycle(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)

    def edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


@dataclass(frozen=True)
class ClowSequence:
    clows: Tuple[Clow, ...]

    def __post_init__(self):
        heads = [c.head for c in self.clows]
        if any(a >= b for a, b in zip(heads, heads[1:])):
            raise ValueError("clow heads must strictly increase")

    @property
    def total_length(self) -> int:
        return sum(c.length for c in self.clows)

    def sign(self, n: int) -> int:
        return -1 if (n + len(self.clows)) % 2 else 1

    def is_cycle_cover(self) -> bool:
        seen = set()
        for c in self.clows:
            if not c.is_cycle():
                return False
            if seen & set(c.vertices):
                return False
            seen |= set(c.vertices)
        return True

    def weight(self, entry) -> Polynomial:
        poly = None
        for c in self.clows:
            for v, w in c.edges():
                e = entry(v, w)
                poly = e if poly is None else poly * e
        return poly


def _entry_table(a: AffineMatrixPoly):
    polys = {}

    def entry(v, w):
        key = (v, w)
        if key not in polys:
            polys[key] = a.entry_poly(v - 1, w - 1)
        return polys[key]

    return entry


def _enumerate_clows(head: int, length: int, n: int):
    if length == 1:
        yield Clow((head,))
        return
    for rest in itertools.product(range(head + 1, n + 1), repeat=length - 1):
        yield Clow((head,) + rest)


def enumerate_clow_sequences(n: int, total_length: int, restricted_to_vertex1: bool = False):
    """All clow sequences on {1..n} of the given total length.  Exponential;
    guarded by the module enumeration limits."""
    if n > ENUMERATION_LIMIT_N or total_length > ENUMERATION_LIMIT_LENGTH:
        raise ValueError(
            f"enumeration limited to n <= {ENUMERATION_LIMIT_N}, "
            f"length <= {ENUMERATION_LIMIT_LENGTH}"
        )

    def rec(min_head, remaining):
        if remaining == 0:
            yield ()
            return
        for h in range(min_head, n + 1):
            for l in range(1, remaining + 1):
                for c in _enumerate_clows(h, l, n):
                    for rest in rec(h + 1, remaining - l):
                        yield (c,) + rest

    for clows in rec(1, total_length):
        seq = ClowSequence(clows)
        if restricted_to_vertex1 and (not clows or clows[0].head != 1):
            continue
        yield seq


def clow_sum_bruteforce(
    a: AffineMatrixPoly,
    length: int,
    restricted_to_vertex1: bool = False,
    family: str = "all",
    head_length: Optional[int] = None,
) -> Polynomial:
    """Sum of sign(C) * weight(C) over clow sequences by direct enumeration.

    family selects "all" sequences, only "cycle_covers", or only
    "non_covers"; head_length keeps sequences whose first clow has exactly
    that many vertices.  Oracle for the dynamic programs; n <= 5 and
    length <= 5 enforced.
    """
    if family not in ("all", "cycle_covers", "non_covers"):
        raise ValueError(f"unknown family {family!r}")
    n = a.n
    entry = _entry_table(a)
    total = Polynomial.zero(a.num_vars)
    for seq in enumerate_clow_sequences(n, length, restricted_to_vertex1):
        if head_length is not None and seq.clows[0].length != head_length:
            continue
        if family == "cycle_covers" and not seq.is_cycle_cover():
            continue
        if family == "non_covers" and seq.is_cycle_cover():
            continue
        total = total + seq.sign(n) * seq.weight(entry)
    return total


# ---------------------------------------------------------------------------
# Dynamic programs.  State (h, v): an unfinished clow with head h currently
# at vertex v, preceded by finished clows with heads < h.  Each finished or
# unfinished clow contributes a factor -1, so a layer value is the sum of
# (-1)^(number of clows so far) * (product of edge entries so far).


def _clow_dp_layers(a: AffineMatrixPoly, verts: Sequence[int], max_total: int, first_head: Optional[int]):
    """Forward pass.  Returns (answers, open_layers): answers[s] is the sum
    of (-1)^(clow count) * weight over complete sequences of total length s;
    open_layers[s] maps open states after committing s vertices to their
    accumulated sums."""
    zero = Polynomial.zero(a.num_vars)
    entry = _entry_table(a)
    heads = [first_head] if first_head is not None else list(verts)
    minus_one = Polynomial.constant(a.num_vars, -1)
    open_cur = {(h, h): minus_one for h in heads if h in verts}
    open_layers = {1: dict(open_cur)}
    answers: Dict[int, Polynomial] = {}
    for s in range(1, max_total + 1):
        closed = {}
        for (h, v), poly in open_cur.items():
            e = entry(v, h)
            if not e.is_zero():
                closed[h] = closed.get(h, zero) + poly * e
        finish = zero
        for value in closed.values():
            finish = finish + value
        answers[s] = finish
        if s == max_total:
            break
        nxt = {}
        for (h, v), poly in open_cur.items():
            for w in verts:
                if w <= h:
                    continue
                e = entry(v, w)
                if not e.is_zero():
                    key = (h, w)
                    nxt[key] = nxt.get(key, zero) + poly * e
        for h, value in closed.items():
            for h2 in verts:
                if h2 > h:
                    key = (h2, h2)
                    nxt[key] = nxt.get(key, zero) - value
        open_cur = {k: p for k, p in nxt.items() if not p.is_zero()}
        open_layers[s + 1] = dict(open_cur)
    return answers, open_layers


def _clow_dp_backward(a: AffineMatrixPoly, verts: Sequence[int], total: int, down_to: int):
    """Backward pass for the same program: value of an open state (h, v)
    after s committed vertices = sum over all completions to total length
    `total` of the remaining edge product times (-1)^(future clow count)."""
    zero = Polynomial.zero(a.num_vars)
    entry = _entry_table(a)
    states = [(h, v) for h in verts for v in verts if v >= h]
    back = {}
    for h, v in states:
        e = entry(v, h)
        back[(h, v)] = e if not e.is_zero() else zero
    for s in range(total - 1, down_to - 1, -1):
        reopen = {}
        for h in verts:
            acc = zero
            for h2 in verts:
                if h2 > h:
                    acc = acc - back.get((h2, h2), zero)
            reopen[h] = acc
        nxt = {}
        for h, v in states:
            acc = zero
            for w in verts:
                if w <= h:
                    continue
                e = entry(v, w)
                if not e.is_zero():
                    acc = acc + e * back.get((h, w), zero)
            e = entry(v, h)
            if not e.is_zero() and not reopen[h].is_zero():
                acc = acc + e * reopen[h]
            nxt[(h, v)] = acc
        back = nxt
    return back


def char_coefficients(a: AffineMatrixPoly, degrees: Sequence[int]) -> Dict[int, Polynomial]:
    """Coefficient polynomials c_k(x) of lambda^(n-k) in det(A(x) + lambda I).

    c_k is the sum of all k x k principal minors of A(x); it is computed by
    the signed clow program in polynomially many polynomial operations.
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
        answers, layers = _clow_dp_layers(a, range(1, n + 1), max(want), None)
        width_cap = n * n
        for s, states in layers.items():
            if len(states) > width_cap:
                raise ArithmeticError("clow program exceeded its width bound")
        for k in want:
            out[k] = answers[k] if k % 2 == 0 else -answers[k]
    return out


def layer_widths(a: AffineMatrixPoly, total: int, restricted_to_vertex1: bool = False) -> List[int]:
    """Number of live states per committed-vertex layer, 1..total."""
    first = 1 if restricted_to_vertex1 else None
    _, layers = _clow_dp_layers(a, range(1, a.n + 1), total, first)
    return [len(layers.get(s, {})) for s in range(1, total + 1)]


def det_lambda_part(a: AffineMatrixPoly, r: int, m: int) -> List[Fraction]:
    """Exact values of the degree-m part of det(A(x) + J), J the diagonal
    with ones in the last r positions, at the points of
    monomial_index_set(D, m), in that order.

    The slice is the sum of the principal m-minors of A(x) that contain
    the first n - r rows.  A is linear, so at a lattice point e the matrix
    A(e) is numeric: with L the lcm of the denominators of all coefficient
    matrices, each minor of L*A(e) is an integer determinant, and the sum
    is divided by L^m once.  The values fix the slice on the simplex
    lattice (see the module docstring); independent of the clow programs,
    they are the verification target everywhere.
    """
    n = a.n
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= {n}")
    if not a.is_linear():
        raise ValueError("det_lambda_part expects a linear matrix")
    points = monomial_index_set(a.num_vars, m)
    mandatory = list(range(n - r))
    optional = list(range(n - r, n))
    need = m - len(mandatory)
    if need < 0 or need > len(optional):
        return [Fraction(0)] * len(points)
    subsets = [mandatory + list(extra) for extra in itertools.combinations(optional, need)]
    scale = math.lcm(*(v.denominator for c in a.coeffs for row in c.entries for v in row))
    ints = [
        [[v.numerator * (scale // v.denominator) for v in row] for row in c.entries]
        for c in a.coeffs
    ]
    values = []
    for e in points:
        terms = [(w, ints[l]) for l, w in enumerate(e) if w]
        at_e = [[sum(w * b[i][j] for w, b in terms) for j in range(n)] for i in range(n)]
        total = sum(det_integer([[at_e[i][j] for j in idx] for i in idx]) for idx in subsets)
        values.append(Fraction(total, scale ** m))
    return values


# ---------------------------------------------------------------------------
# Certified product-sum decompositions.


def _integer_terms(p: Polynomial):
    """The terms of p scaled to integers by the lcm of its denominators,
    and that lcm."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return [(e, c.numerator * (den // c.denominator)) for e, c in p.terms.items()], den


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
    terms, den = _integer_terms(p)
    groups: Dict[Tuple[int, ...], list] = {}
    for exps, c in terms:
        support = tuple(i for i, e in enumerate(exps) if e)
        groups.setdefault(support, []).append(([(i, exps[i]) for i in support], c))
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


def _pair_sum(pairs, num_vars: int) -> Polynomial:
    """sum(f * g) over the pairs, multiplied out on integers: each factor
    is scaled by its own denominator and every product is brought to the
    lcm of their denominators, divided out once per term at the end."""
    scaled = []
    for f, g in pairs:
        (f_terms, f_den), (g_terms, g_den) = _integer_terms(f), _integer_terms(g)
        scaled.append((f_terms, g_terms, f_den * g_den))
    den = math.lcm(*(d for _, _, d in scaled))
    acc: Dict[Tuple[int, ...], int] = {}
    for f_terms, g_terms, d in scaled:
        lift = den // d
        for e1, c1 in f_terms:
            c1 *= lift
            for e2, c2 in g_terms:
                key = tuple([a + b for a, b in zip(e1, e2)])
                acc[key] = acc.get(key, 0) + c1 * c2
    return Polynomial(num_vars, {e: Fraction(c, den) for e, c in acc.items() if c})


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
        total = _pair_sum(kept, num_vars)
        if _form_values(total, degree) != expected:
            raise DecompositionError("pairs do not re-multiply to the target")
        return cls(half_degree=half_degree, pairs=tuple(kept), target=total)

    def __len__(self):
        return len(self.pairs)


def decomposition_to_json(dec: BiDecomposition) -> dict:
    return {
        "k": dec.half_degree,
        "pairs": [{"f": poly_to_json(f), "g": poly_to_json(g)} for f, g in dec.pairs],
    }


def decomposition_from_json(obj) -> BiDecomposition:
    if not isinstance(obj, dict) or "k" not in obj or "pairs" not in obj:
        raise ValueError("decomposition object needs 'k' and 'pairs'")
    k = int(obj["k"])
    pairs = [(poly_from_json(p["f"]), poly_from_json(p["g"])) for p in obj["pairs"]]
    if not pairs:
        raise ValueError("cannot reconstruct an empty decomposition without a target")
    num_vars = pairs[0][0].num_vars
    target = Polynomial.zero(num_vars)
    for f, g in pairs:
        target = target + f * g
    return BiDecomposition.build(k, pairs, target)


def _head_walk_tables(a: AffineMatrixPoly, steps: int):
    # forward[s][v]: sum over walks 1 -> v with s edges, later vertices >= 2
    # backward[s][v]: sum over walks v -> 1 with s edges, intermediates >= 2
    entry = _entry_table(a)
    n = a.n
    zero = Polynomial.zero(a.num_vars)
    others = range(2, n + 1)
    forward = {1: {v: entry(1, v) for v in others}}
    backward = {1: {v: entry(v, 1) for v in others}}
    for s in range(2, steps + 1):
        fprev = forward[s - 1]
        fnew = {}
        for v in others:
            acc = zero
            for w in others:
                p = fprev.get(w, zero)
                if not p.is_zero():
                    acc = acc + p * entry(w, v)
            fnew[v] = acc
        forward[s] = fnew
        bprev = backward[s - 1]
        bnew = {}
        for v in others:
            acc = zero
            for w in others:
                p = bprev.get(w, zero)
                if not p.is_zero():
                    acc = acc + entry(v, w) * p
            bnew[v] = acc
        backward[s] = bnew
    return forward, backward


def _head_slice_pairs(a: AffineMatrixPoly, k: int, t: int):
    """Raw pairs for the slice of the head-1 program whose first clow has
    exactly t vertices, at total length 2k.  Sum of pairs equals
    sum over those sequences of sign(C) * weight(C)."""
    n = a.n
    entry = _entry_table(a)
    num_vars = a.num_vars
    outer_sign = 1 if (n + 1) % 2 == 0 else -1
    if t == 2 * k:
        # One clow of length 2k: cut it at the (k+1)-th vertex.
        forward, backward = _head_walk_tables(a, k)
        pairs = []
        for v in range(2, n + 1):
            f = forward[k].get(v)
            g = backward[k].get(v)
            if f is None or g is None or f.is_zero() or g.is_zero():
                continue
            pairs.append((outer_sign * f, g))
        return pairs
    # First clow of length t < 2k, remaining clows avoid vertex 1.
    if t == 1:
        head_sum = entry(1, 1)
    else:
        forward, _ = _head_walk_tables(a, t - 1)
        head_sum = Polynomial.zero(num_vars)
        for v in range(2, n + 1):
            p = forward[t - 1].get(v)
            if p is not None and not p.is_zero():
                head_sum = head_sum + p * entry(v, 1)
    rest_len = 2 * k - t
    answers, _ = _clow_dp_layers(a, range(2, n + 1), rest_len, None)
    tail_sum = outer_sign * answers[rest_len]
    if head_sum.is_zero() or tail_sum.is_zero():
        return []
    t_small = min(t, rest_len)
    low, high = (head_sum, tail_sum) if t <= rest_len else (tail_sum, head_sum)
    if t_small == k:
        return [(low, high)]
    pairs = []
    for mono, cofactor in monomial_split(high, k - t_small):
        pairs.append((low * mono, cofactor))
    return pairs


def decompose_head_slice(a: AffineMatrixPoly, k: int, t: int) -> BiDecomposition:
    """Certified decomposition of one head-length slice of the length-2k
    head-1 clow program.  Verified against brute-force enumeration, so the
    enumeration guards apply (n <= 5, 2k <= 5)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not 1 <= t <= 2 * k:
        raise ValueError(f"need 1 <= t <= {2 * k}")
    if not a.is_linear():
        raise ValueError("decompose_head_slice expects a linear matrix")
    target = clow_sum_bruteforce(a, 2 * k, restricted_to_vertex1=True, head_length=t)
    pairs = _head_slice_pairs(a, k, t)
    return BiDecomposition.build(k, pairs, target)


def layer_decomposition(a: AffineMatrixPoly, k: int) -> BiDecomposition:
    """Cut the head-1 program of length 2k at its middle edge layer: one
    pair per live state, so the pair count is bounded by that layer's
    width.  The target is the degree-2k part of det(A + J) with J carrying
    n-1 trailing ones."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not a.is_linear():
        raise ValueError("layer_decomposition expects a linear matrix")
    n = a.n
    verts = range(1, n + 1)
    _, layers = _clow_dp_layers(a, verts, 2 * k, 1)
    split = k + 1  # k+1 committed vertices = k edges used
    fwd = layers.get(split, {})
    back = _clow_dp_backward(a, verts, 2 * k, split)
    pairs = []
    for state, f in fwd.items():
        g = back.get(state)
        if g is None or g.is_zero():
            continue
        pairs.append((f, g))
    target = det_lambda_part(a, n - 1, 2 * k)
    return BiDecomposition.build(k, pairs, target, a.num_vars)


def _laplace_pairs(a: AffineMatrixPoly, k: int):
    # det of the top-left 2k x 2k submatrix, expanded along its first k
    # columns: one product of two k x k determinants per row subset.
    rows = list(range(2 * k))
    base = sum(range(1, k + 1))
    pairs = []
    for subset in itertools.combinations(rows, k):
        rest = [i for i in rows if i not in subset]
        sign = (-1) ** (sum(i + 1 for i in subset) + base)
        f = a.submatrix(subset, range(k)).det_polynomial()
        g = a.submatrix(rest, range(k, 2 * k)).det_polynomial()
        pairs.append((sign * f, g))
    return pairs


def _det_part_pairs(a: AffineMatrixPoly, k: int, r: int):
    n = a.n
    if 2 * k > n:
        return []
    if r == n - 2 * k:
        return _laplace_pairs(a, k)
    if r == n - 1:
        sign = 1 if (n - 2 * k) % 2 == 0 else -1
        pairs = []
        for t in range(1, 2 * k + 1):
            for f, g in _head_slice_pairs(a, k, t):
                pairs.append((sign * f, g))
        return pairs
    # Peel one diagonal one: the trailing-ones diagonals for r and r+1
    # differ in a single position, whose row and column get deleted in the
    # second branch.
    lam_r = trailing_ones_matrix(n, r)
    lam_r1 = trailing_ones_matrix(n, r + 1)
    diff = [i for i in range(n) if lam_r[i, i] != lam_r1[i, i]]
    assert len(diff) == 1
    pairs = list(_det_part_pairs(a, k, r + 1))
    for f, g in _det_part_pairs(a.delete_row_col(diff[0]), k, r):
        pairs.append((-f, g))
    return pairs


def decompose_det_part(a: AffineMatrixPoly, k: int, r: int) -> BiDecomposition:
    """Certified decomposition of the degree-2k part of det(A(x) + J), J
    the diagonal with r trailing ones, for a linear A.

    Construction: at r = n-1 the head-length slices of the clow program,
    each split in its middle; at r = n-2k a generalized Laplace expansion
    with binomial(2k, k) products; in between, a recursion that removes one
    trailing one per step and branches on deleting the corresponding row
    and column.  The pair sum always matches the values of the subset-minor
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
    pairs = _det_part_pairs(a, k, r)
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
