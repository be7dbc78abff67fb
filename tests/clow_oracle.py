"""Clow programs on Fraction `Polynomial` arithmetic: test oracles for the
integer-form routes of `birank.abpdec`.

Here are the brute-force clow enumerator, the forward and backward clow
programs, the head-walk tables, the head-slice and Laplace pairs, the
trailing-ones recursion and the characteristic coefficients.  The tests
compare the integer routes with them pair by pair.  The brute-force
routes are exponential; the enumeration limits guard them.

The affine-matrix helpers (a matrix from its entry polynomials, adding a
constant, deleting a row and column, an entry polynomial, a submatrix
and the Leibniz determinant as a Polynomial) and the monomial split of a
Polynomial serve these oracles and the tests that build matrices by
hand.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from birank.abpdec import BiDecomposition, det_lambda_part
from birank.exactla import AffineMatrixPoly, ExactMatrix, trailing_ones_matrix
from birank.polyring import Polynomial, split_terms
import matrix_oracle

ENUMERATION_LIMIT_N = 5
ENUMERATION_LIMIT_LENGTH = 5


def from_entry_polys(grid) -> AffineMatrixPoly:
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("grid must be square")
    num_vars = grid[0][0].num_vars if n else 0
    zero_exps = (0,) * num_vars
    const = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [[[Fraction(0)] * n for _ in range(n)] for _ in range(num_vars)]
    for i, row in enumerate(grid):
        for j, entry in enumerate(row):
            if entry.num_vars != num_vars:
                raise ValueError("mixed variable counts in grid")
            if entry.degree() > 1:
                raise ValueError(f"entry ({i},{j}) is not affine")
            for exps, coeff in entry.terms.items():
                if exps == zero_exps:
                    const[i][j] = coeff
                else:
                    coeffs[exps.index(1)][i][j] = coeff
    return AffineMatrixPoly(ExactMatrix(const), [ExactMatrix(c) for c in coeffs])


def add_constant(a: AffineMatrixPoly, m: ExactMatrix) -> AffineMatrixPoly:
    return AffineMatrixPoly(a.const + m, a.coeffs)


def delete_row_col(a: AffineMatrixPoly, idx: int) -> AffineMatrixPoly:
    keep = [i for i in range(a.n) if i != idx]
    return submatrix(a, keep, keep)


def entry_poly(a: AffineMatrixPoly, i: int, j: int) -> Polynomial:
    terms = {}
    c = a.const[i, j]
    if c:
        terms[(0,) * a.num_vars] = c
    for l, coeff in enumerate(a.coeffs):
        v = coeff[i, j]
        if v:
            exps = tuple(1 if t == l else 0 for t in range(a.num_vars))
            terms[exps] = v
    return Polynomial(a.num_vars, terms)


def submatrix(a: AffineMatrixPoly, row_idx, col_idx) -> AffineMatrixPoly:
    return AffineMatrixPoly(
        matrix_oracle.submatrix(a.const, row_idx, col_idx),
        [matrix_oracle.submatrix(c, row_idx, col_idx) for c in a.coeffs],
    )


def _permutations_with_parity(n: int):
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        yield perm, -1 if inversions % 2 else 1


def det_polynomial(a: AffineMatrixPoly) -> Polynomial:
    """Full symbolic determinant by Leibniz expansion; meant for small n."""
    entries = [[entry_poly(a, i, j) for j in range(a.n)] for i in range(a.n)]
    total = Polynomial.zero(a.num_vars)
    for perm, sign in _permutations_with_parity(a.n):
        prod = Polynomial.constant(a.num_vars, sign)
        for i in range(a.n):
            prod = prod * entries[i][perm[i]]
        total = total + prod
    return total


def monomial_split(p: Polynomial, m: int) -> list:
    """Split a homogeneous p of degree >= m into pairs (f_i, g_i) with p = sum f_i*g_i.

    Each f_i is a distinct degree-m monomial (coefficient 1) dividing some
    term of p, g_i collects the cofactors.  Pair count is at most the number
    of degree-m monomials.  Returns [] for the zero polynomial.
    """
    if p.is_zero():
        return []
    if not p.is_homogeneous():
        raise ValueError("monomial_split needs a homogeneous polynomial")
    if m < 0 or m > p.degree():
        raise ValueError(f"cannot split degree {p.degree()} at m={m}")
    return [
        (Polynomial.monomial(p.num_vars, div), Polynomial(p.num_vars, cofactor))
        for div, cofactor in split_terms(p.terms.items(), m)
    ]


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
            polys[key] = entry_poly(a, v - 1, w - 1)
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


def fraction_char_coefficients(a: AffineMatrixPoly, degrees: Sequence[int]) -> Dict[int, Polynomial]:
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
        f = det_polynomial(submatrix(a, subset, range(k)))
        g = det_polynomial(submatrix(a, rest, range(k, 2 * k)))
        pairs.append((sign * f, g))
    return pairs


def fraction_det_part_pairs(a: AffineMatrixPoly, k: int, r: int):
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
    pairs = list(fraction_det_part_pairs(a, k, r + 1))
    for f, g in fraction_det_part_pairs(delete_row_col(a, diff[0]), k, r):
        pairs.append((-f, g))
    return pairs
