import itertools
import json
import random
from fractions import Fraction

import pytest

from birank import abpdec
from birank.abpdec import (
    BiDecomposition,
    DecompositionError,
    _construct_pairs,
    char_coefficients,
    decompose_det_part,
    decompose_from_representation,
    decomposition_to_json,
    dc_lower_bound,
    dc_sqrt_bound,
    det_lambda_part,
    generic_birank_floor,
    pipeline_pair_bound,
)
from birank.exactla import (
    AffineMatrixPoly,
    ExactMatrix,
    affine_from_json,
    det_integer,
    rank_exact,
    singular_normal_form,
    trailing_ones_matrix,
)
from birank.polyring import (
    Polynomial,
    homogeneous_part,
    monomial_count,
    monomial_index_set,
    point,
    poly_from_json,
    shift,
)
from clow_oracle import (
    Clow,
    ClowSequence,
    add_constant,
    clow_sum_bruteforce,
    decompose_head_slice,
    delete_row_col,
    det_polynomial,
    enumerate_clow_sequences,
    fraction_char_coefficients,
    fraction_det_part_pairs,
    from_entry_polys,
    layer_decomposition,
    layer_widths,
    submatrix,
)
from test_cli import rep7_file
from verify_oracle import (
    det_lambda_part_by_subsets,
    lattice_matrices,
    pair_sum_by_tuples,
    slice_subsets,
)


def random_linear_matrix(rng, n, num_vars, span=2, density=1.0):
    coeffs = []
    for _ in range(num_vars):
        rows = [
            [Fraction(rng.randint(-span, span)) if rng.random() < density else Fraction(0) for _ in range(n)]
            for _ in range(n)
        ]
        coeffs.append(ExactMatrix(rows))
    return AffineMatrixPoly(ExactMatrix.zeros(n, n), coeffs)


def char_coefficients_by_leibniz(a):
    # Oracle: adjoin lambda as an extra variable, take the full symbolic
    # determinant, and read off the lambda powers.
    n, num_vars = a.n, a.num_vars
    lift_const = ExactMatrix([[a.const[i, j] for j in range(n)] for i in range(n)])
    lifted_coeffs = list(a.coeffs) + [ExactMatrix.identity(n)]
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            c = lift_const[i, j]
            if c:
                terms[(0,) * (num_vars + 1)] = c
            for l, coeff in enumerate(lifted_coeffs):
                v = coeff[i, j]
                if v:
                    exps = tuple(1 if t == l else 0 for t in range(num_vars + 1))
                    terms[exps] = terms.get(exps, Fraction(0)) + v
            row.append(Polynomial(num_vars + 1, terms))
        grid.append(row)
    det = det_polynomial(from_entry_polys(grid))
    out = {k: Polynomial.zero(num_vars) for k in range(n + 1)}
    for exps, coeff in det.terms.items():
        lam_power = exps[-1]
        k = n - lam_power
        out[k] = out[k] + Polynomial.monomial(num_vars, exps[:-1], coeff)
    return out


def leibniz_slice(a, r, m):
    # Oracle: the degree-m part of det(A(x) + J), J with r trailing ones, as
    # a symbolic sum of Leibniz-expanded principal m-minors containing the
    # first n - r rows.
    n = a.n
    mandatory = list(range(n - r))
    total = Polynomial.zero(a.num_vars)
    if m < len(mandatory):
        return total
    for extra in itertools.combinations(range(n - r, n), m - len(mandatory)):
        idx = mandatory + list(extra)
        total = total + det_polynomial(submatrix(a, idx, idx))
    return total


def lattice_values(p, m):
    # Plain Fraction evaluation at the simplex lattice points, in order.
    return [p.eval(point(e)) for e in monomial_index_set(p.num_vars, m)]


def rational_normal_form(rng, n, num_vars, corank):
    # The linear part of a normal form: a random rational representation
    # whose matrix at x0 has the given corank, normalized there.
    def entry():
        return Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))

    r = n - corank
    while True:
        g = ExactMatrix([[entry() for _ in range(r)] for _ in range(n)])
        h = ExactMatrix([[entry() for _ in range(n)] for _ in range(r)])
        m0 = g @ h if r else ExactMatrix.zeros(n, n)
        if rank_exact(m0) == r:
            break
    coeffs = [ExactMatrix([[entry() for _ in range(n)] for _ in range(n)]) for _ in range(num_vars)]
    x0 = point(entry() for _ in range(num_vars))
    const = m0
    for x, c in zip(x0, coeffs):
        const = const - c.scale(x)
    q = AffineMatrixPoly(const, coeffs)
    return q, x0, singular_normal_form(q, x0)


def test_clow_validation():
    with pytest.raises(ValueError):
        Clow((2, 1))
    with pytest.raises(ValueError):
        Clow(())
    c = Clow((1, 3, 3))
    assert c.head == 1 and c.length == 3 and not c.is_cycle()
    with pytest.raises(ValueError):
        ClowSequence((Clow((2,)), Clow((1,))))
    seq = ClowSequence((Clow((1, 2)), Clow((3,))))
    assert seq.total_length == 3
    assert seq.sign(3) == -1 and seq.sign(4) == 1
    assert seq.is_cycle_cover()


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(enumerate_clow_sequences(6, 2))
    with pytest.raises(ValueError):
        list(enumerate_clow_sequences(3, 6))


def test_char_coefficients_match_leibniz():
    rng = random.Random(0)
    for _ in range(8):
        n = rng.randint(1, 4)
        num_vars = rng.randint(1, 3)
        a = random_linear_matrix(rng, n, num_vars)
        oracle = char_coefficients_by_leibniz(a)
        got = char_coefficients(a, range(n + 1))
        for k in range(n + 1):
            assert got[k] == oracle[k], (n, k)
        assert got[n] == det_polynomial(a)


def rational_matrix(rng, n, num_vars, den, affine=False):
    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, den))

    def block():
        return ExactMatrix([[entry() for _ in range(n)] for _ in range(n)])

    const = block() if affine else ExactMatrix.zeros(n, n)
    return AffineMatrixPoly(const, [block() for _ in range(num_vars)])


def test_integer_construction_matches_fraction_oracle():
    # Same pairs as the Fraction route, pair by pair and in order, zero
    # pairs included, for every admissible r; the entry denominators are
    # drawn from 1..den with den cycling through 1..6 (den = 1 gives L = 1).
    rng = random.Random(14)
    dens = itertools.cycle(range(1, 7))
    cases = 0
    for n in range(2, 8):
        for k in range(1, 4):
            for r in range(max(0, n - 2 * k), n):
                a = rational_matrix(rng, n, 2 if n >= 6 else 3, next(dens))
                got = _construct_pairs(a, k, r)
                assert got == fraction_det_part_pairs(a, k, r), (n, k, r)
                cases += bool(got)
    assert cases == 40  # every (n, k, r) with 2k <= n gives pairs


def test_char_coefficients_match_fraction_oracle():
    # Affine matrices too: the constant part is scaled by the same L.
    rng = random.Random(15)
    for n in range(1, 7):
        for den in range(1, 7):
            a = rational_matrix(rng, n, 2, den, affine=den % 2 == 0)
            degrees = range(n + 1)
            assert char_coefficients(a, degrees) == fraction_char_coefficients(a, degrees), (n, den)


def test_clow_cancellation_and_cycle_cover_identity():
    # Non-cycle-cover clow sequences cancel to the zero polynomial; the
    # surviving cycle covers give the principal-minor sums.
    rng = random.Random(1)
    for n in range(1, 5):
        a = random_linear_matrix(rng, n, 2)
        oracle = char_coefficients_by_leibniz(a)
        for k in range(1, min(n, 4) + 1):
            non_covers = clow_sum_bruteforce(a, k, family="non_covers")
            assert non_covers.is_zero(), (n, k)
            covers = clow_sum_bruteforce(a, k, family="cycle_covers")
            everything = clow_sum_bruteforce(a, k)
            assert everything == covers
            expected = oracle[k] if (n - k) % 2 == 0 else -oracle[k]
            assert covers == expected


def test_restricted_program_matches_trailing_ones_slice():
    rng = random.Random(2)
    for _ in range(6):
        n = rng.randint(2, 4)
        a = random_linear_matrix(rng, n, 2)
        for k in (1, 2):
            brute = clow_sum_bruteforce(a, 2 * k, restricted_to_vertex1=True)
            signed = brute if (n - 2 * k) % 2 == 0 else -brute
            assert signed == leibniz_slice(a, n - 1, 2 * k)
            assert det_lambda_part(a, n - 1, 2 * k) == lattice_values(signed, 2 * k)


def test_layer_widths_within_square_bound():
    rng = random.Random(3)
    for _ in range(5):
        n = rng.randint(1, 5)
        a = random_linear_matrix(rng, n, 2)
        for widths in (layer_widths(a, n), layer_widths(a, min(2 * n, 4), restricted_to_vertex1=True)):
            assert all(w <= n * n for w in widths)


def test_layer_decomposition_count_bounded_by_width():
    rng = random.Random(4)
    for _ in range(6):
        n = rng.randint(2, 4)
        k = rng.choice([1, 2])
        a = random_linear_matrix(rng, n, 2)
        dec = layer_decomposition(a, k)
        widths = layer_widths(a, 2 * k, restricted_to_vertex1=True)
        assert len(dec.pairs) <= widths[k]  # width of the split layer (k+1 vertices)
        assert dec.target == leibniz_slice(a, n - 1, 2 * k)


def test_decompose_head_slice_counts():
    rng = random.Random(5)
    for _ in range(8):
        n = rng.randint(2, 4)
        num_vars = rng.randint(1, 3)
        a = random_linear_matrix(rng, n, num_vars)
        for k, t in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4)):
            dec = decompose_head_slice(a, k, t)  # raises if pairs disagree
            if t == 2 * k:
                assert len(dec.pairs) <= n - 1
            else:
                t_small = min(t, 2 * k - t)
                cap = 1 if t_small == k else monomial_count(num_vars, k - t_small)
                assert len(dec.pairs) <= cap


def test_decompose_head_slice_guards():
    a = random_linear_matrix(random.Random(6), 6, 2)
    with pytest.raises(ValueError):
        decompose_head_slice(a, 1, 1)
    b = random_linear_matrix(random.Random(6), 3, 2)
    with pytest.raises(ValueError):
        decompose_head_slice(b, 3, 1)  # 2k = 6 beyond the enumeration guard
    with pytest.raises(ValueError):
        decompose_head_slice(b, 1, 3)


def test_trailing_ones_recursion_identity():
    # det(A + J_{r+1}) = det(A + J_r) + det(A' + J'_r) where A' deletes the
    # row and column at the position where the two diagonals differ.
    rng = random.Random(7)
    for _ in range(6):
        n = rng.randint(2, 4)
        a = random_linear_matrix(rng, n, 2)
        for r in range(0, n - 1):
            lam_r = trailing_ones_matrix(n, r)
            lam_r1 = trailing_ones_matrix(n, r + 1)
            diff = [i for i in range(n) if lam_r[i, i] != lam_r1[i, i]]
            assert diff == [n - r - 1]
            lhs = det_polynomial(add_constant(a, lam_r1))
            sub = delete_row_col(a, diff[0])
            rhs = det_polynomial(add_constant(a, lam_r)) + det_polynomial(
                add_constant(sub, trailing_ones_matrix(n - 1, r))
            )
            assert lhs == rhs


def test_decompose_det_part_counts_and_bounds():
    rng = random.Random(8)
    for _ in range(8):
        n = rng.randint(2, 4)
        k = rng.choice([1, 2])
        num_vars = rng.randint(1, 3)
        a = random_linear_matrix(rng, n, num_vars)
        for r in range(max(0, n - 2 * k), n):
            dec = decompose_det_part(a, k, r)  # self-verifying
            if r == n - 2 * k:
                import math

                assert len(dec.pairs) <= math.comb(2 * k, k)
            else:
                cap = 2 ** (n - r - 1) * (n + 2 * (k - 1) * num_vars ** (k - 1))
                assert len(dec.pairs) <= cap


def test_decompose_det_part_validation():
    a = random_linear_matrix(random.Random(9), 3, 2)
    with pytest.raises(ValueError):
        decompose_det_part(a, 1, 3)
    with pytest.raises(ValueError):
        decompose_det_part(a, 0, 1)
    with pytest.raises(ValueError):
        decompose_det_part(add_constant(a, ExactMatrix.identity(3)), 1, 1)


def perm2_representation():
    x = [Polynomial.variable(4, i) for i in range(4)]
    return from_entry_polys([[x[0], -1 * x[1]], [x[2], x[3]]])


def test_pipeline_on_perm2():
    q = perm2_representation()
    x0 = point([1, 1, 1, -1])
    rep = decompose_from_representation(q, x0, 1)
    assert rep.n == 2 and rep.constant_rank == 1
    assert rep.pair_count <= 2
    assert rep.pair_count <= rep.pair_bound == pipeline_pair_bound(2, 1, 4)
    expected = homogeneous_part(shift(det_polynomial(q), x0), 2)
    assert rep.decomposition.target == expected
    total = Polynomial.zero(4)
    for f, g in rep.decomposition.pairs:
        total = total + f * g
    assert total == expected


def test_pipeline_zero_slice():
    # k too large for the matrix size: the degree slice vanishes and the
    # pipeline certifies the empty decomposition.
    q = perm2_representation()
    rep = decompose_from_representation(q, point([1, 1, 1, -1]), 2)
    assert rep.pair_count == 0
    assert rep.decomposition.target.is_zero()


def test_pipeline_random_representations():
    rng = random.Random(10)
    done = 0
    while done < 6:
        n = rng.randint(2, 3)
        num_vars = rng.randint(2, 3)
        a = random_linear_matrix(rng, n, num_vars)
        const = ExactMatrix([[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)])
        from birank.exactla import det_exact

        if det_exact(const):
            continue
        q = AffineMatrixPoly(const, a.coeffs)
        rep = decompose_from_representation(q, point([0] * num_vars), 1)
        assert rep.pair_count <= rep.pair_bound
        expected = homogeneous_part(det_polynomial(q), 2)
        assert rep.decomposition.target == expected
        done += 1


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


def test_decomposition_json_round_trip():
    q = perm2_representation()
    rep = decompose_from_representation(q, point([1, 1, 1, -1]), 1)
    obj = decomposition_to_json(rep.decomposition)
    back = decomposition_from_json(obj)
    assert back.half_degree == 1
    assert back.target == rep.decomposition.target


def test_det_lambda_part_lattice_values_match_leibniz():
    # Every r and every slice degree m, on rational linear parts of normal
    # forms; zero slices come back as all-zero value lists.
    rng = random.Random(12)
    for n in range(1, 6):
        num_vars = 2 if n == 5 else 3
        for corank in sorted({1, n}):
            q, x0, form = rational_normal_form(rng, n, num_vars, corank)
            a = form.linear
            assert any(v.denominator > 1 for c in a.coeffs for row in c.entries for v in row)
            for r in range(n + 1):
                for m in range(n + 1):
                    got = det_lambda_part(a, r, m)
                    assert got == lattice_values(leibniz_slice(a, r, m), m), (n, r, m)
                    assert len(got) == monomial_count(num_vars, m)
            assert det_lambda_part(a, form.rank, n) == lattice_values(
                homogeneous_part(shift(det_polynomial(q), x0), n), n
            )


def sweep_matrices(rng, n, num_vars):
    # Linear matrices whose shared elimination meets every branch: dense
    # integer and rational parts, zero diagonals (the first pivot vanishes
    # at every pure-power point), sparse entries, a zero first row in the
    # first coefficient matrix (every mandatory block is singular at
    # m * u_1), and all-zero coefficient matrices.
    def integer():
        return Fraction(rng.randint(-2, 2))

    def rational():
        return Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))

    def sparse():
        return Fraction(rng.randint(-1, 1)) if rng.random() < 0.4 else Fraction(0)

    def build(entry, zero_diagonal=False, zero_row=False, zero_matrices=0):
        coeffs = []
        for l in range(num_vars):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            for i in range(n):
                if zero_diagonal:
                    rows[i][i] = Fraction(0)
                if (zero_row and l == 0 and i == 0) or l >= num_vars - zero_matrices:
                    rows[i] = [Fraction(0)] * n
            coeffs.append(ExactMatrix(rows))
        return AffineMatrixPoly(ExactMatrix.zeros(n, n), coeffs)

    yield "integer", build(integer)
    yield "rational", build(rational)
    yield "zero-diagonal", build(rational, zero_diagonal=True)
    yield "sparse", build(sparse)
    yield "singular-mandatory", build(integer, zero_row=True)
    yield "zero-matrix", build(rational, zero_matrices=1)
    yield "all-zero", build(integer, zero_matrices=num_vars)


def test_det_lambda_part_matches_subset_minors(monkeypatch):
    # Oracle sweep: the shared Sylvester elimination against one
    # det_integer per principal minor, on every r (0 and n included) and
    # every slice degree m = 0..n, so m = 2k for k = 1..3 at n = 6.
    rng = random.Random(1104)
    fallbacks = []
    monkeypatch.setattr(abpdec, "det_integer", lambda rows: fallbacks.append(len(rows)) or det_integer(rows))
    for n in range(1, 7):
        for num_vars in (1, 3):
            for kind, a in sweep_matrices(rng, n, num_vars):
                for r in range(n + 1):
                    for m in range(n + 1):
                        got = det_lambda_part(a, r, m)
                        assert got == det_lambda_part_by_subsets(a, r, m), (kind, n, num_vars, r, m)
    # The sweep reaches the zero-pivot branches, not only the shared route.
    assert len(fallbacks) > 100


def golden_7x7(tmp_path, rank):
    # A golden decompose-7x7 representation of test_cli, and its x0.
    path, x0 = rep7_file(tmp_path, rank=rank)
    with open(path) as fh:
        return affine_from_json(json.load(fh)), point(Fraction(v) for v in x0.split(","))


def vanishing_prefix_minors(a, r, m):
    # The (point, minor) pairs the shared elimination cannot reach: some
    # prefix idx[:t] of the minor's rows, t = 1..max(n - r, len(idx) - 2),
    # which the elimination would divide by, has a zero determinant.
    count = 0
    subsets = slice_subsets(a.n, r, m)
    for b in lattice_matrices(a, m)[1]:
        prefix_det = {}
        for idx in subsets:
            for t in range(1, max(a.n - r, len(idx) - 2) + 1):
                key = tuple(idx[:t])
                if key not in prefix_det:
                    prefix_det[key] = det_integer([[b[i][j] for j in key] for i in key])
                if not prefix_det[key]:
                    count += 1
                    break
    return count


def test_det_lambda_part_calls_det_integer_only_past_vanishing_pivots(tmp_path, monkeypatch):
    # Cost guard without timing: det_integer runs at most once per minor
    # whose pivot prefix vanishes, never per subset.  At r = 6 the
    # per-subset route made C(6, 3) = 20 calls at each lattice point: 700
    # on the golden corank-1 7x7 (D = 4), whose prefixes never vanish, and
    # 9,900 on a sparse integer 7x7 in D = 9, where some do.
    form = singular_normal_form(*golden_7x7(tmp_path, rank=6))
    sparse = random_linear_matrix(random.Random(501), 7, 9, density=0.6)
    inputs = [(form.linear, form.rank), (sparse, 6)]
    calls = []
    monkeypatch.setattr(abpdec, "det_integer", lambda rows: calls.append(len(rows)) or det_integer(rows))
    direct = []
    for a, r in inputs:
        assert r == 6
        calls.clear()
        got = det_lambda_part(a, r, 4)
        direct.append(vanishing_prefix_minors(a, r, 4))
        assert len(calls) <= direct[-1]
        assert got == det_lambda_part_by_subsets(a, r, 4)
    assert direct[0] == 0 and direct[1] > 0


def test_pair_sum_matches_tuple_keys_on_golden_7x7(tmp_path):
    # The golden decompose-7x7 commands of test_cli: corank 2 at k = 2 and
    # k = 3, corank 4 (the Laplace route), and corank 1.
    for rank, k in ((5, 2), (5, 3), (3, 2), (6, 2)):
        q, x0 = golden_7x7(tmp_path, rank)
        dec = decompose_from_representation(q, x0, k).decomposition
        assert dec.pairs
        got = abpdec._pair_sum(dec.pairs, q.num_vars, 2 * k)
        assert got == pair_sum_by_tuples(dec.pairs, q.num_vars) == dec.target, (rank, k)


def test_pair_sum_keeps_exponents_at_the_field_limit():
    # Carry guard: x_l^k * x_l^k = x_l^(2k) fills the bit field of width
    # (2k).bit_length(), up to its top bit at 2k = 2, 4, 8.  A narrower
    # field would carry into the next variable's field or, for the last
    # variable, lose the high bit.
    for k in range(1, 5):
        for num_vars in (1, 2, 4):
            powers = [
                Polynomial.monomial(num_vars, tuple(k if i == l else 0 for i in range(num_vars)), Fraction(l + 1, 2))
                for l in range(num_vars)
            ]
            total = powers[0]
            for p in powers[1:]:
                total = total + p
            pairs = [(p, p) for p in powers] + [(powers[0], powers[-1]), (total, total)]
            got = abpdec._pair_sum(pairs, num_vars, 2 * k)
            assert got == pair_sum_by_tuples(pairs, num_vars), (k, num_vars)
            for l in range(num_vars):
                assert tuple(2 * k if i == l else 0 for i in range(num_vars)) in got.terms


def test_build_rejects_one_changed_coefficient_at_7x7():
    rng = random.Random(13)
    q, x0, form = rational_normal_form(rng, 7, 3, 1)
    a, r = form.linear, form.rank
    dec = decompose_from_representation(q, x0, 2).decomposition
    target = det_lambda_part(a, r, 4)
    assert BiDecomposition.build(2, dec.pairs, target, 3).target == dec.target
    for index in (0, len(dec.pairs) // 2, len(dec.pairs) - 1):
        f, g = dec.pairs[index]
        for factor in (f, g):
            exps = factor.sorted_terms()[-1][0]
            changed = factor + Polynomial.monomial(3, exps, Fraction(1, 7))
            pairs = list(dec.pairs)
            pairs[index] = (changed, g) if factor is f else (f, changed)
            with pytest.raises(DecompositionError):
                BiDecomposition.build(2, pairs, target, 3)


def test_build_rejects_polynomial_targets_that_are_not_forms():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    pairs = [(x1, x2)]
    # Both targets agree with x1*x2 on the lattice x1 + x2 = 2, so only the
    # form check can refuse them.
    inhomogeneous = x1 * x2 + (x1 + x2) * (x1 + x2) - 4
    wrong_degree = x1 * x2 * (x1 + x2) * Fraction(1, 2)
    for target in (inhomogeneous, wrong_degree):
        assert lattice_values(target, 2) == lattice_values(x1 * x2, 2)
        with pytest.raises(DecompositionError):
            BiDecomposition.build(1, pairs, target)
    assert BiDecomposition.build(1, pairs, x1 * x2).target == x1 * x2
    # The empty decomposition verifies against an all-zero target only.
    assert BiDecomposition.build(1, [], Polynomial.zero(2)).target.is_zero()
    assert BiDecomposition.build(2, [], [Fraction(0)] * 5, 2).target.is_zero()
    with pytest.raises(DecompositionError):
        BiDecomposition.build(1, [], x1 * x2)
    with pytest.raises(DecompositionError):
        BiDecomposition.build(1, pairs, lattice_values(x1 * x2, 2)[:-1], 2)
    with pytest.raises(ValueError):
        BiDecomposition.build(1, pairs, lattice_values(x1 * x2, 2))


def test_bidecomposition_rejects_bad_pairs():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    with pytest.raises(ValueError):
        BiDecomposition.build(1, [(x1, x2)], x1 * x1)  # wrong target
    with pytest.raises(ValueError):
        BiDecomposition.build(1, [(x1 * x1, x2)], x1 * x1 * x2)  # wrong degree
    with pytest.raises(ValueError):
        BiDecomposition.build(1, [(x1 + 1, x2)], x1 * x2 + x2)  # inhomogeneous


def test_bound_calculators():
    assert dc_lower_bound(16, 1, 4) == 16
    assert dc_lower_bound(16, 2, 2) == 0  # 16/4 - 2*2
    assert dc_sqrt_bound(16) == 4.0
    assert generic_birank_floor(4, 1) == 1
    assert generic_birank_floor(9, 1) == Fraction(9, 4)
    assert generic_birank_floor(16, 2) == Fraction(32, 3)
    with pytest.raises(ValueError):
        generic_birank_floor(0, 1)
    with pytest.raises(ValueError):
        dc_sqrt_bound(-1)


def test_dc_bound_consistency_with_pipeline():
    # A size-n representation can never certify a bound above n.
    rng = random.Random(11)
    q = perm2_representation()
    rep = decompose_from_representation(q, point([1, 1, 1, -1]), 1)
    assert dc_lower_bound(rep.pair_count, 1, 4) <= rep.n
