import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from birank.exactla import (
    AffineMatrixPoly,
    ExactMatrix,
    Signature,
    _decompose_constant,
    affine_from_json,
    affine_to_json,
    det_exact,
    inverse_exact,
    matrix_from_json,
    matrix_to_json,
    rank_exact,
    signature_exact,
    signature_lower_bound,
    singular_normal_form,
    trailing_ones_matrix,
)
from birank import exactla
from birank.polyring import Polynomial, homogeneous_part, point, shift
from clow_oracle import add_constant, det_polynomial, entry_poly, from_entry_polys
from gram_oracle import solve_linear
from matrix_oracle import kron


def random_matrix(rng, rows, cols, span=4):
    return ExactMatrix([
        [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ])


def gauss_rank(m):
    # Plain fraction Gauss elimination, independent of the Bareiss path.
    rows = [list(r) for r in m.entries]
    rank = 0
    for col in range(m.cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def leibniz_det(m):
    n = m.rows
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        prod = Fraction(sign)
        for i in range(n):
            prod *= m[i, perm[i]]
        total += prod
    return total


def test_matrix_basics():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert (a @ b).entries == ExactMatrix([[2, 1], [4, 3]]).entries
    assert (a + b - b) == a
    assert a.transpose().transpose() == a
    assert a.scale(Fraction(1, 2))[1, 1] == 2
    assert trailing_ones_matrix(3, 1) == ExactMatrix.diagonal([0, 0, 1])
    with pytest.raises(ValueError):
        trailing_ones_matrix(2, 3)


def test_rank_exact_matches_gauss():
    rng = random.Random(0)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank_exact(m) == gauss_rank(m)


def test_rank_exact_known_rank_products():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 6)
        r = rng.randint(1, min(3, n))
        while True:
            g = random_matrix(rng, n, r, span=3)
            h = random_matrix(rng, r, n, span=3)
            if gauss_rank(g) == r and gauss_rank(h) == r:
                break
        assert rank_exact(g @ h) == r


def test_det_and_inverse():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert det_exact(m) == leibniz_det(m)
        if det_exact(m):
            assert m @ inverse_exact(m) == ExactMatrix.identity(n)


def test_signature_diagonal_and_hyperbolic():
    assert signature_exact(ExactMatrix.diagonal([3, -1, 0, Fraction(1, 2)])) == Signature(2, 1, 1)
    assert signature_exact(ExactMatrix([[0, 5], [5, 0]])) == Signature(1, 1, 0)
    # Zero diagonal everywhere, rank-deficient off-diagonal pattern.
    m = ExactMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert signature_exact(m) == Signature(1, 1, 1)
    with pytest.raises(ValueError):
        signature_exact(ExactMatrix([[0, 1], [2, 0]]))


def test_signature_sylvester_invariance():
    # Congruence with an invertible G preserves inertia, so G^T D G must
    # report exactly the signs planted on the diagonal of D.
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        diag = [rng.choice([1, -1, 0]) * Fraction(rng.randint(1, 3)) for _ in range(n)]
        expected = Signature(
            sum(1 for v in diag if v > 0),
            sum(1 for v in diag if v < 0),
            sum(1 for v in diag if v == 0),
        )
        while True:
            g = random_matrix(rng, n, n, span=2)
            if det_exact(g):
                break
        m = g.transpose() @ ExactMatrix.diagonal(diag) @ g
        assert signature_exact(m) == expected
        assert rank_exact(m) == expected.rank


def test_signature_lower_bound():
    # For any square Q, rank(Q) >= max inertia of Q + Q^T.
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 5)
        q = random_matrix(rng, n, n)
        assert rank_exact(q) >= signature_lower_bound(q)
    skew = ExactMatrix([[0, 1], [-1, 0]])
    assert signature_lower_bound(skew) == 0


def test_kron_signature_multiplies():
    a = ExactMatrix([[0, 1], [1, 0]])
    b = ExactMatrix.diagonal([1, 1, -1])
    k = kron(a, b)
    assert k.rows == 6
    # inertia of a kron product of symmetric matrices: (p1*p2+m1*m2, p1*m2+m1*p2, rest)
    assert signature_exact(k) == Signature(3, 3, 0)


def charpoly_descending(m):
    # Faddeev-LeVerrier: coefficients of det(xI - m), highest power first,
    # from matrix products and traces only, independent of elimination.
    n = m.rows
    coeffs = [Fraction(1)]
    mk = ExactMatrix.zeros(n, n)
    for k in range(1, n + 1):
        mk = m @ mk + ExactMatrix.identity(n).scale(coeffs[-1])
        product = m @ mk
        coeffs.append(-sum((product[i, i] for i in range(n)), Fraction(0)) / k)
    return coeffs


def descartes_inertia(m):
    # All roots of a symmetric matrix's characteristic polynomial are real,
    # so Descartes' rule of signs counts the positive and negative ones.
    coeffs = charpoly_descending(m)
    n = len(coeffs) - 1

    def sign_changes(values):
        signs = [v > 0 for v in values if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    n_zero = next(k for k, c in enumerate(reversed(coeffs)) if c)
    flipped = [c if (n - k) % 2 == 0 else -c for k, c in enumerate(coeffs)]
    return Signature(sign_changes(coeffs), sign_changes(flipped), n_zero)


def test_signature_matches_descartes_oracle():
    rng = random.Random(11)
    zero_diagonals = deficient = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        r = rng.randint(0, n)
        g = random_matrix(rng, n, r, span=3) if r else ExactMatrix.zeros(n, 0)
        d = ExactMatrix.diagonal([rng.choice([-2, -1, 1, Fraction(1, 2), 3]) for _ in range(r)])
        m = g @ d @ g.transpose() if r else ExactMatrix.zeros(n, n)
        if rng.random() < 0.5:
            m = ExactMatrix([[0 if i == j else v for j, v in enumerate(row)] for i, row in enumerate(m.entries)])
            zero_diagonals += 1
        sig = signature_exact(m)
        assert sig == descartes_inertia(m)
        assert sig.rank == rank_exact(m)
        deficient += sig.rank < n
    assert zero_diagonals > 30 and deficient > 30


def test_mixed_denominators_give_fractions():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = ExactMatrix([
            [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12])) for _ in range(n)]
            for _ in range(n)
        ])
        assert isinstance(rank_exact(m), int)
        det = det_exact(m)
        assert type(det) is Fraction and det == leibniz_det(m)
        if det:
            inv = inverse_exact(m)
            assert all(type(v) is Fraction for row in inv.entries for v in row)
            assert m @ inv == ExactMatrix.identity(n)
        rhs = [Fraction(rng.randint(-5, 5), rng.choice([1, 4, 9])) for _ in range(n)]
        solved = solve_linear(m.to_lists(), rhs)
        if solved is None:
            assert not det
            continue
        particular, basis = solved
        assert len(basis) == n - rank_exact(m)
        for vec in [particular] + basis:
            assert all(type(v) is Fraction for v in vec)
        for row, b in zip(m.entries, rhs):
            assert sum((a * x for a, x in zip(row, particular)), Fraction(0)) == b
            for vec in basis:
                assert sum((a * x for a, x in zip(row, vec)), Fraction(0)) == 0


def test_decompose_constant_leading_zero_columns():
    # Columns [0, 0, a, b, c] of rank 3: the pivot search swaps the zero
    # columns out one at a time, so t's free columns come out as e1, e0.
    # The zero rows of s and the free columns of t come first.
    cols = [
        [0] * 5,
        [0] * 5,
        [0, Fraction(1, 2), 0, 2, -1],
        [0, 1, 3, -1, Fraction(1, 3)],
        [2, 0, 1, 0, 1],
    ]
    m0 = ExactMatrix([[cols[j][i] for j in range(5)] for i in range(5)])
    s, t, r = _decompose_constant(m0)
    assert r == 3
    assert s == ExactMatrix([
        ["-5/6", -4, "5/3", 1, 0],
        ["-1/9", 2, "-7/9", 0, 1],
        [0, 2, 0, 0, 0],
        [0, 0, "1/3", 0, 0],
        ["1/2", 0, 0, 0, 0],
    ])
    assert t == ExactMatrix([
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 1, -2, "2/3"],
        [0, 0, 0, 1, "-1/3"],
        [0, 0, 0, 0, 1],
    ])
    assert s @ m0 @ t == ExactMatrix.diagonal([0, 0, 1, 1, 1])


def test_solve_linear():
    rows = [[1, 1, 0], [0, 1, 1]]
    particular, basis = solve_linear(rows, [3, 5])
    assert len(basis) == 1
    for vec in [particular] + [[p + b for p, b in zip(particular, basis[0])]]:
        assert vec[0] + vec[1] == 3
        assert vec[1] + vec[2] == 5
    assert solve_linear([[1], [1]], [0, 1]) is None


def affine_from_grid(grid):
    return from_entry_polys(grid)


def test_affine_entry_round_trip():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    grid = [[x1 + 1, x2], [x1 - x2, Polynomial.constant(2, 3)]]
    a = affine_from_grid(grid)
    for i in range(2):
        for j in range(2):
            assert entry_poly(a, i, j) == grid[i][j]
    assert a.evaluate(point([1, 2])) == ExactMatrix([[2, 2], [-1, 3]])
    assert affine_from_json(affine_to_json(a)) == a


def test_affine_det_matches_entry_expansion():
    rng = random.Random(5)
    for _ in range(10):
        n, num_vars = rng.randint(1, 3), rng.randint(1, 3)
        grid = []
        for i in range(n):
            row = []
            for j in range(n):
                terms = {(0,) * num_vars: Fraction(rng.randint(-2, 2))}
                for l in range(num_vars):
                    exps = tuple(1 if t == l else 0 for t in range(num_vars))
                    terms[exps] = Fraction(rng.randint(-2, 2))
                row.append(Polynomial(num_vars, terms))
            grid.append(row)
        a = affine_from_grid(grid)
        det = det_polynomial(a)
        for _ in range(3):
            pt = point(Fraction(rng.randint(-3, 3)) for _ in range(num_vars))
            assert det.eval(pt) == det_exact(a.evaluate(pt))


def perm2_representation():
    # det of this matrix is the 2x2 permanent.
    x = [Polynomial.variable(4, i) for i in range(4)]
    return affine_from_grid([[x[0], -x[1]], [x[2], x[3]]])


def test_singular_normal_form_perm2():
    q = perm2_representation()
    x0 = point([1, 1, 1, -1])
    form = singular_normal_form(q, x0)
    assert form.rank == 1
    lam = trailing_ones_matrix(2, 1)
    assert form.s @ q.evaluate(x0) @ form.t == lam
    assert det_exact(form.s) * det_exact(form.t) == 1
    # Symbolic oracle for the identity the construction's exact checks
    # imply; the degree-2 slice is the shifted permanent's quadratic part.
    p_shifted = shift(det_polynomial(q), x0)
    lhs = det_polynomial(add_constant(form.linear, lam))
    assert lhs == p_shifted
    assert not homogeneous_part(p_shifted, 2).is_zero()


def test_singular_normal_form_random():
    rng = random.Random(6)
    built = 0
    while built < 12:
        n, num_vars = rng.randint(2, 3), rng.randint(1, 3)
        const_rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        const = ExactMatrix(const_rows)
        if det_exact(const):
            continue
        coeffs = [random_matrix(rng, n, n, span=2) for _ in range(num_vars)]
        q = AffineMatrixPoly(const, coeffs)
        form = singular_normal_form(q, point([0] * num_vars))
        lam = trailing_ones_matrix(n, form.rank)
        assert form.s @ const @ form.t == lam
        assert det_exact(form.s) * det_exact(form.t) == 1
        assert form.linear.is_linear()
        # Symbolic oracle for the identity the two exact checks imply.
        assert det_polynomial(add_constant(form.linear, lam)) == det_polynomial(q)
        built += 1


def corank_representation(rng, n, num_vars, corank, x0):
    # Q(x) = G*H + sum_l (x_l - x0_l) * M_l with G n x (n - corank) and
    # H (n - corank) x n, rational entries; redrawn until Q(x0) = G*H has
    # exactly the requested corank.
    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))

    r = n - corank
    while True:
        m0 = random_matrix(rng, n, r, span=3) @ random_matrix(rng, r, n, span=3)
        if rank_exact(m0) == r:
            break
    coeffs = [ExactMatrix([[entry() for _ in range(n)] for _ in range(n)]) for _ in range(num_vars)]
    const = m0
    for x, c in zip(x0, coeffs):
        const = const - c.scale(x)
    return AffineMatrixPoly(const, coeffs)


def test_singular_normal_form_7x7_by_evaluation():
    # Above 4x4 the symbolic identity is out of reach for the oracle, so
    # det(A(t*y) + J) = det(Q(x0 + t*y)) is checked at integer points.
    rng = random.Random(13)
    x0 = point([1, "-1/2", 2, "1/3"])
    for corank in (1, 3):
        q = corank_representation(rng, 7, 4, corank, x0)
        form = singular_normal_form(q, x0)
        assert form.rank == 7 - corank
        lam = trailing_ones_matrix(7, form.rank)
        assert det_exact(form.s) * det_exact(form.t) == 1
        for _ in range(3):
            y = [rng.randint(-3, 3) for _ in range(4)]
            for t in (1, 2, -3):
                ty = point(t * v for v in y)
                lhs = det_exact(form.linear.evaluate(ty) + lam)
                rhs = det_exact(q.evaluate(point(a + b for a, b in zip(x0, ty))))
                assert lhs == rhs


def normal_form_sweep():
    # Two inputs for every n = 1..7 and rank r < n, rational entries; the
    # second has its first z >= 1 columns of Q(x0) zero.
    rng = random.Random(19)
    x0 = point(["1/2", -1])
    for n in range(1, 8):
        for r in range(n):
            for zero_cols in (0, rng.randint(1, n - r)):
                while True:
                    if r:
                        h = random_matrix(rng, r, n, span=3)
                        h = ExactMatrix([[0] * zero_cols + list(row[zero_cols:]) for row in h.entries])
                        m0 = random_matrix(rng, n, r, span=3) @ h
                    else:
                        m0 = ExactMatrix.zeros(n, n)
                    if rank_exact(m0) == r:
                        break
                coeffs = [random_matrix(rng, n, n, span=3) for _ in x0]
                const = m0
                for x, c in zip(x0, coeffs):
                    const = const - c.scale(x)
                yield AffineMatrixPoly(const, coeffs), x0


NORMAL_FORM_SWEEP_DIGEST = "3330a8535ffe5169f7dfba539b6ef33d08b44b527f1f853699e35ddcbef79b11"


def test_singular_normal_form_sweep_digest():
    # Pins S, T, the rank and the linear part over the whole sweep.
    forms = []
    for q, x0 in normal_form_sweep():
        form = singular_normal_form(q, x0)
        forms.append({
            "s": matrix_to_json(form.s),
            "t": matrix_to_json(form.t),
            "rank": form.rank,
            "linear": affine_to_json(form.linear),
        })
    assert len(forms) == 56
    text = json.dumps(forms, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == NORMAL_FORM_SWEEP_DIGEST


def test_singular_normal_form_rejects_a_wrong_transform(monkeypatch):
    # A T off by a factor 2 still passes the determinant rescale, but
    # S*Q(x0)*T = 2J fails the exact check.
    decompose = exactla._decompose_constant

    def doubled(m0):
        s, t, r = decompose(m0)
        return s, t.scale(2), r

    monkeypatch.setattr(exactla, "_decompose_constant", doubled)
    q = corank_representation(random.Random(14), 7, 4, 1, point([1, 0, 0, 2]))
    with pytest.raises(ArithmeticError):
        singular_normal_form(q, point([1, 0, 0, 2]))


def test_singular_normal_form_rejects_invertible_point():
    q = perm2_representation()
    with pytest.raises(ValueError):
        singular_normal_form(q, point([1, 0, 0, 1]))


def nonsingular_normal_form(q, x0):
    # Oracle for an invertible Q(x0): A(x) = Q(x0)^{-1} * (Q(x0 + x) - Q(x0))
    # is linear and alpha = det(Q(x0)), so alpha * det(A(x) + I) = det(Q(x0 + x)).
    x0 = point(x0)
    m0 = q.evaluate(x0)
    alpha = det_exact(m0)
    if not alpha:
        raise ValueError("Q(x0) is singular; need an invertible point")
    inverse = inverse_exact(m0)
    linear = AffineMatrixPoly(ExactMatrix.zeros(q.n, q.n), [inverse @ c for c in q.coeffs])
    return linear, alpha


def test_nonsingular_normal_form_perm2():
    q = perm2_representation()
    x0 = point([1, 0, 0, 1])
    linear, alpha = nonsingular_normal_form(q, x0)
    assert alpha == 1
    assert linear.is_linear()
    lhs = det_polynomial(add_constant(linear, ExactMatrix.identity(2))) * alpha
    assert lhs == shift(det_polynomial(q), x0)
    with pytest.raises(ValueError):
        nonsingular_normal_form(q, point([1, 1, 1, -1]))


def test_matrix_json_round_trip():
    rng = random.Random(7)
    m = random_matrix(rng, 3, 2)
    assert matrix_from_json(matrix_to_json(m)) == m
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1})
