import functools
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from birank import rankmin
from birank.exactla import ExactMatrix, det_integer, rank_exact, rank_integer
from birank.permhess import perm_zero_point
from birank.polyring import (
    Polynomial,
    homogeneous_part,
    monomial_count,
    monomial_index_set,
    perm_poly,
    point,
    shift,
)
from birank.rankmin import (
    ConstraintSystem,
    _axis_polynomials,
    _chain_solution,
    _gcd,
    _gram_chains,
    _integer_solution,
    _matrices_from_vector,
    _newton_coefficients,
    _pivots,
    _rational_roots,
    _sample_blocks,
    _sample_ranker,
    _skew_directions,
    _variable_layout,
    _vanishes_at,
    _witness_clears,
    build_affine_system,
    build_psd_pair_system,
    build_sym_system,
    build_z2k,
    equation_terms,
    minrank_interval,
    multilinear_index_set,
    system_to_json,
)
from gram_oracle import (
    _linear_system,
    check_solution,
    dense_rows,
    gram_expand,
    insert_zeros,
    project_pair_to_z2k,
    projection_sandwich,
    rational_roots_by_divisors,
    reference_terms,
    sampled_upper,
    solve_feasible,
    solve_linear,
    system_from_json,
    term_chains,
    term_equations,
)
from perm_oracle import hessian_perm_fast


def poly_from_coeffs(num_vars, coeffs):
    return Polynomial(num_vars, {e: Fraction(c) for e, c in coeffs.items()})


def x1x2():
    return poly_from_coeffs(2, {(1, 1): 1})


def sum_of_squares():
    return poly_from_coeffs(2, {(2, 0): 1, (0, 2): 1})


def perm2_slice():
    p = perm_poly(2)
    x0 = perm_zero_point(2)
    return homogeneous_part(shift(p, x0), 2)


def test_affine_system_shape():
    cs = build_affine_system(x1x2())
    assert cs.size == 2 and not cs.pair and not cs.symmetric
    assert cs.half_degree == 1
    assert len(cs.equations) == monomial_count(2, 2)
    # One equation per degree-2 monomial, split entries only.
    for terms in equation_terms(cs):
        for block, i, j, coef in terms:
            assert block == 0
            assert coef == 1


def test_sym_and_pair_flags():
    sym = build_sym_system(sum_of_squares())
    assert sym.symmetric and not sym.pair
    pair = build_psd_pair_system(sum_of_squares())
    assert pair.symmetric and pair.pair
    blocks = {t[0] for terms in equation_terms(pair) for t in terms}
    assert blocks == {0, 1}


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_affine_system(Polynomial.zero(2))
    with pytest.raises(ValueError):
        build_affine_system(poly_from_coeffs(2, {(1, 0): 1}))  # odd degree
    inhom = poly_from_coeffs(2, {(2, 0): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        build_affine_system(inhom)


def test_gram_expand_and_check_solution():
    p = sum_of_squares()
    cs = build_affine_system(p)
    q = ExactMatrix([[Fraction(1), Fraction(3)], [Fraction(-3), Fraction(1)]])
    assert gram_expand(cs, q) == p
    assert check_solution(cs, q)
    bad = ExactMatrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]])
    assert not check_solution(cs, bad)


def test_check_solution_matches_gram_expand():
    # The equations say exactly that the expansion reproduces the form.
    rng = random.Random(5)
    for _ in range(20):
        num_vars = rng.randint(2, 3)
        k = 1
        basis = monomial_index_set(num_vars, k)
        s = len(basis)
        q = ExactMatrix(
            [[Fraction(rng.randint(-3, 3)) for _ in range(s)] for _ in range(s)]
        )
        target = poly_from_coeffs(
            num_vars,
            {tuple(e): rng.randint(-4, 4) for e in monomial_index_set(num_vars, 2 * k)},
        )
        if target.is_zero():
            continue
        cs = build_affine_system(target)
        assert check_solution(cs, q) == (gram_expand(cs, q) == target)


def test_solve_feasible_produces_solution():
    for p in (x1x2(), sum_of_squares(), perm2_slice()):
        for build in (build_affine_system, build_sym_system, build_psd_pair_system):
            cs = build(p)
            mats = solve_feasible(cs)
            assert check_solution(cs, mats)
            assert gram_expand(cs, mats) == p


def test_solve_feasible_symmetric_output():
    cs = build_sym_system(x1x2())
    (q,) = solve_feasible(cs)
    assert q.is_symmetric()
    assert q[0, 1] == Fraction(1, 2)


def test_minrank_interval_x1x2_affine():
    iv = minrank_interval(build_affine_system(x1x2()))
    assert (iv.lower, iv.upper) == (1, 1)


def test_minrank_interval_sum_of_squares():
    iv = minrank_interval(build_affine_system(sum_of_squares()))
    assert (iv.lower, iv.upper) == (2, 2)


def test_minrank_interval_sym_unique():
    # Symmetric solutions of x1*x2 form a point; rank 2 exactly.
    iv = minrank_interval(build_sym_system(x1x2()))
    assert (iv.lower, iv.upper) == (2, 2)
    assert iv.lower_method == "unique-solution"
    assert iv.free_dimension == 0


def test_minrank_interval_perm2_slice():
    iv = minrank_interval(build_affine_system(perm2_slice()))
    assert (iv.lower, iv.upper) == (2, 2)


def test_minrank_interval_brute_force_agreement():
    # Oracle: exhaustive minimum rank over a coarse lattice of solutions.
    rng = random.Random(11)
    lattice = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    for _ in range(6):
        coeffs = {
            tuple(e): rng.randint(-2, 2) for e in monomial_index_set(2, 2)
        }
        p = poly_from_coeffs(2, coeffs)
        if p.is_zero():
            continue
        cs = build_affine_system(p)
        iv = minrank_interval(cs)
        best = None
        for a in lattice:
            for b in lattice:
                for c in lattice:
                    for d in lattice:
                        q = ExactMatrix([[a, b], [c, d]])
                        if check_solution(cs, q):
                            r = rank_exact(q)
                            best = r if best is None else min(best, r)
        if best is not None:
            assert iv.lower <= best
            assert iv.upper <= best or iv.upper == best


def test_minrank_interval_budget():
    p = perm2_slice()
    with pytest.raises(ValueError):
        minrank_interval(build_affine_system(p), budget=2)


def test_minrank_interval_infeasible():
    # An empty equation with rhs 1 added to a built system.
    cs = build_affine_system(x1x2())
    grids, _ = _variable_layout(cs)
    with pytest.raises(ValueError):
        term_chains(grids, term_equations(cs) + [((), Fraction(1))])


def hand_built(size, equations):
    # (grids, count, equations as (terms, rhs)) of a one-block system with
    # unshared entries; no builder makes these.
    layout = ConstraintSystem(size=size, pair=False, symmetric=False, num_vars=1, half_degree=1,
                              basis=(), equations=())
    return (*_variable_layout(layout), [(tuple(t), Fraction(r)) for t, r in equations])


def test_chain_pass_refuses_an_unknown_in_two_equations():
    # Feasible, and Gauss-Jordan solves it, but entry (0, 1) sits in two
    # equations, so the closed form does not hold.
    grids, count, equations = hand_built(2, [([(0, 0, 0, 1), (0, 0, 1, 1)], 1), ([(0, 0, 1, 1), (0, 1, 1, 1)], 2)])
    assert solve_linear(*dense_rows(grids, count, equations))
    with pytest.raises(ValueError, match="appears in two equations"):
        term_chains(grids, equations)


def test_chain_pass_refuses_an_empty_equation_with_nonzero_rhs():
    # Terms that cancel leave no nonzero coefficient; with rhs 0 such an
    # equation is dropped, with rhs 1 the system is infeasible.
    cancelled = [(0, 0, 1, 1), (0, 0, 1, -1)]
    grids, count, fine = hand_built(2, [([(0, 0, 0, 1)], 1), (cancelled, 0), ([(0, 1, 1, 1)], 2)])
    chains = term_chains(grids, fine)
    assert count - len(chains) == 2
    assert len(_chain_solution(count, chains)[1]) == 2
    grids, count, bad = hand_built(2, [([(0, 0, 0, 1)], 1), (cancelled, 1)])
    assert solve_linear(*dense_rows(grids, count, bad)) is None
    with pytest.raises(ValueError, match="constraint system is infeasible"):
        term_chains(grids, bad)


def perm4_slice():
    return homogeneous_part(shift(perm_poly(4), perm_zero_point(4)), 4)


@pytest.mark.parametrize(
    "build,f",
    [(lambda: build_z2k(5, 2), 12700), (lambda: build_sym_system(perm4_slice()), 5440)],
    ids=["z2k-d5-k2", "sym-perm4-slice"],
)
def test_budget_refusal_builds_no_direction(build, f, monkeypatch):
    # A dense basis would hold f * unknowns Fractions (12,700 * 14,520 for
    # z2k); the equation count gives f before any chain exists.
    cs = build()

    def unreachable(*args):
        raise AssertionError("an over-budget system built its chains")

    monkeypatch.setattr(rankmin, "_gram_chains", unreachable)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"free dimension {f} exceeds budget 6"):
        minrank_interval(cs)
    assert time.perf_counter() - start < 1.0


def gram_sweep():
    # Seeded forms with mixed denominators through every builder, then z2k
    # with k = 1; d = 6 is left out, where the dense oracle alone takes
    # seconds.
    rng = random.Random(41)
    for num_vars in (2, 3, 4):
        for degree in (2, 4):
            for _ in range(3):
                p = mixed_denominator_form(rng, num_vars, degree)
                for build in (build_affine_system, build_sym_system, build_psd_pair_system):
                    yield build(p)
    for d in (3, 4, 5):
        yield build_z2k(d, 1)


def test_chain_solution_equals_gauss_jordan_oracle():
    kinds = set()
    for cs in gram_sweep():
        grids, count = _variable_layout(cs)
        chains = _gram_chains(cs, grids)
        particular, directions = _chain_solution(count, chains)
        oracle_grids, rows, rhs = _linear_system(cs)
        oracle_particular, oracle_basis = solve_linear(rows, rhs)
        assert grids == oracle_grids
        assert particular == oracle_particular
        assert all(type(v) is Fraction for v in particular)
        assert all(len(d) <= 2 for d in directions)
        assert directions == nonzeros(oracle_basis)
        assert count - len(chains) == len(oracle_basis)
        kinds.add((cs.symmetric, cs.pair, cs.scale is not None))
    assert len(kinds) == 4


# sha256 of the compact JSON of every equation's terms, and of every
# rhs, one line per system, over gram_sweep() and z2k at d = 3..6 with
# k = 1, 2: recorded when the builders still stored each equation's terms.
TERMS_DIGEST = "98d161651aeb05bc1073382b06699c5f924b4e5e14fb2710577b132e37c01b95"
RHS_DIGEST = "aaa76f92643e7b57f497a70aac384ddcdf371483eb05e9f48f02152adcbe45a9"


def test_anti_chain_rule_matches_pairwise_builders_and_pin():
    # The rule against the pairwise builders, and its chains disjoint with
    # a nonzero coefficient each: so every equation fixes one unknown of
    # its own, and f = unknowns - equations.
    systems = list(gram_sweep()) + [build_z2k(d, k) for k in (1, 2) for d in range(3, 7) if d > 2 * k]
    terms_digest, rhs_digest = hashlib.sha256(), hashlib.sha256()
    for cs in systems:
        terms = list(equation_terms(cs))
        assert terms == reference_terms(cs)
        grids, _ = _variable_layout(cs)
        chains = term_chains(grids, zip(terms, (rhs for _, rhs in cs.equations)))
        assert len(chains) == len(cs.equations)
        assert chains == _gram_chains(cs, grids)
        terms_digest.update((json.dumps(terms, separators=(",", ":")) + "\n").encode())
        rhs_digest.update((json.dumps([str(rhs) for _, rhs in cs.equations], separators=(",", ":")) + "\n").encode())
    assert (terms_digest.hexdigest(), rhs_digest.hexdigest()) == (TERMS_DIGEST, RHS_DIGEST)


def test_skew_chain_rule_matches_dense_null_matrices():
    # The rule picks the shared-symmetric-part route exactly when every
    # oracle null matrix is skew.  The hand-built systems add a transposed
    # pair with opposite coefficients and a column in no equation.
    systems = [(*_variable_layout(cs), term_equations(cs))
               for cs in gram_sweep() if not cs.symmetric and not cs.pair]
    systems.append(hand_built(2, [([(0, 0, 0, 1)], 1), ([(0, 0, 1, 1), (0, 1, 0, -1)], 0), ([(0, 1, 1, 1)], 1)]))
    systems.append(hand_built(2, [([(0, 0, 0, 1)], 1), ([(0, 0, 1, 1), (0, 1, 0, 1)], 0)]))
    outcomes = []
    for grids, count, equations in systems:
        chains = term_chains(grids, equations)
        _, directions = _chain_solution(count, chains)
        rows, rhs = dense_rows(grids, count, equations)
        zero = ExactMatrix.zeros(len(grids[0]), len(grids[0]))
        null_mats = [_matrices_from_vector(grids, vec)[0] for vec in solve_linear(rows, rhs)[1]]
        skew = all(n + n.transpose() == zero for n in null_mats)
        assert _skew_directions(grids[0], directions) == skew
        outcomes.append(skew)
    assert outcomes[-2:] == [False, False] and True in outcomes and outcomes.count(False) > 2


def test_one_parameter_sampling_settles_each_value_once(monkeypatch):
    # With f = 1 the origin and the axis sweep settle every value of
    # _sample_values() exactly once: its sample is ranked, or the witness
    # minor is nonzero there, which puts its rank at or above upper.
    # Seeded random draws from the same values could only repeat them.
    p = poly_from_coeffs(2, {(4, 0): 1, (3, 1): Fraction(-1, 2), (2, 2): 3, (1, 3): 2,
                             (0, 4): Fraction(5, 3)})
    cs = build_sym_system(p)
    ranked, cleared = [], []

    def recording_blocks(grids, vector_at, tvec):
        ranked.append(tuple(tvec))
        return _sample_blocks(grids, vector_at, tvec)

    def recording_clears(polys, t):
        clears = _witness_clears(polys, t)
        if clears:
            cleared.append(t)
        return clears

    monkeypatch.setattr(rankmin, "_sample_blocks", recording_blocks)
    monkeypatch.setattr(rankmin, "_witness_clears", recording_clears)
    iv = minrank_interval(cs)
    assert (iv.lower, iv.upper, iv.lower_method, iv.upper_method, iv.free_dimension) == (
        3, 3, "minor-system-no-rational-root", "origin", 1)
    assert sorted([t for (t,) in ranked] + cleared) == rankmin._sample_values()
    assert ranked == [(Fraction(0),)]


def test_witness_minor_is_nonsingular():
    # Pivot rows and columns of square integer matrices of every rank,
    # general and symmetric: the minor on them is nonsingular and its size
    # is the rank.
    rng = random.Random(67)
    for _ in range(200):
        n, r = rng.randint(1, 6), rng.randint(0, 6)
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        right = left if rng.random() < 0.5 else [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        m = [[sum(a * b for a, b in zip(x, y)) for y in right] for x in left]
        symmetric = right is left
        (rows, cols), = rankmin._witness([[list(row) for row in m]], symmetric)
        assert len(rows) == len(cols) == rank_integer([list(row) for row in m])
        assert det_integer([[m[i][j] for j in cols] for i in rows]) != 0


def count_sampler_work(monkeypatch):
    # Exact eliminations (rank_integer for ranked samples, _pivots for
    # witnesses) and the minors of each witness polynomial build.
    work = {"eliminations": 0, "minors": 0, "builds": []}

    def counting(name, fn):
        def wrapped(*args):
            work[name] += 1
            return fn(*args)
        return wrapped

    def counting_build(*args):
        before = work["minors"]
        out = _axis_polynomials(*args)
        work["builds"].append(work["minors"] - before)
        return out

    monkeypatch.setattr(rankmin, "rank_integer", counting("eliminations", rank_integer))
    monkeypatch.setattr(rankmin, "_pivots", counting("eliminations", _pivots))
    monkeypatch.setattr(rankmin, "det_integer", counting("minors", det_integer))
    monkeypatch.setattr(rankmin, "_axis_polynomials", counting_build)
    return work


def test_axis_sweep_cost_on_twenty_parameter_quartics(monkeypatch):
    # Ranking every value cost 1 + 85*20 + 300 = 2,001 eliminations.  Now
    # an axis ranks only where a witness minor vanishes: at most 4 values
    # per axis and 4 more after each drop of upper in the sweep, each drop
    # rebuilding that axis's polynomials at up to 5 minors per build.
    # Seeds 0 and 14 meet the tighter 1 + 300 + one per drop; on seeds 1, 7
    # and 10 a drop to 9 leaves later axes with samples of rank 9 where the
    # origin's rank-10 witness vanishes, which are ranked too.
    work = count_sampler_work(monkeypatch)
    for seed in (*range(12), 14):
        work.update(eliminations=0, builds=[])
        iv = minrank_interval(build_sym_system(seeded_form(4, 4, seed)), budget=20)
        assert iv.free_dimension == 20
        drops = len(work["builds"]) - 20
        assert max(work["builds"]) <= 5
        assert work["eliminations"] <= 1 + 300 + 4 * (20 + drops)
        if seed in (0, 14):
            assert work["eliminations"] <= 1 + 300 + drops
            assert drops == (seed == 14)


def test_insert_zeros_layout():
    d = 3
    exps = (1, 0, 0, 2)  # entries (1,1) and (2,2) of the top-left block
    lifted = insert_zeros(exps, d)
    assert len(lifted) == 9
    assert lifted[0] == 1 and lifted[4] == 2
    assert sum(lifted) == 3
    with pytest.raises(ValueError):
        insert_zeros((1, 0), 3)


def test_multilinear_index_set_graded_lex():
    got = multilinear_index_set(4, 2)
    assert got[0] == (1, 1, 0, 0)
    assert got[-1] == (0, 0, 1, 1)
    assert len(got) == math.comb(4, 2)
    assert all(sum(e) == 2 and set(e) <= {0, 1} for e in got)


def test_z2k_d3_k1_equations():
    cs = build_z2k(3, 1)
    assert cs.pair and cs.symmetric
    assert cs.size == 4
    assert len(cs.equations) == 6
    ones = [rhs for _, rhs in cs.equations if rhs == 1]
    zeros = [rhs for _, rhs in cs.equations if rhs == 0]
    assert len(ones) == 2 and len(zeros) == 4
    coefs = {c for terms in equation_terms(cs) for _, _, _, c in terms}
    assert coefs <= {Fraction(1), Fraction(-1)}
    assert cs.scale == Fraction(-1, 2)


def test_z2k_rejects_small_d():
    with pytest.raises(ValueError):
        build_z2k(2, 1)
    with pytest.raises(ValueError):
        build_z2k(4, 2)
    with pytest.raises(ValueError):
        build_z2k(3, 0)


def test_projected_hessian_pair_satisfies_z2k():
    # A solution pair of the full quadratic-slice system projects onto a
    # solution of the multilinear system.
    for d in (3, 4):
        h = hessian_perm_fast(d)
        half = h.scale(Fraction(1, 2))
        zero = ExactMatrix.zeros(d * d, d * d)
        p = homogeneous_part(shift(perm_poly(d), perm_zero_point(d)), 2)
        full = build_psd_pair_system(p)
        assert check_solution(full, (half, zero))
        plus, minus = project_pair_to_z2k(half, zero, d, 1)
        cs = build_z2k(d, 1)
        assert check_solution(cs, (plus, minus))


def test_projection_sandwich_counts():
    pc = projection_sandwich(3, 1)
    assert pc.full_basis == 9
    assert pc.multilinear_basis == 4
    assert pc.gap == 5
    pc2 = projection_sandwich(5, 2)
    assert pc2.full_basis == monomial_count(25, 2)
    assert pc2.multilinear_basis == math.comb(16, 2)


def term_types(cs):
    return [tuple(map(type, t)) for terms in equation_terms(cs) for t in terms]


def test_system_json_round_trip():
    for cs in (build_affine_system(x1x2()), build_z2k(3, 1)):
        obj = system_to_json(cs)
        assert set(obj) >= {"n", "pair", "eqs"}
        back = system_from_json(obj)
        # Fraction(1) == 1, so equality alone would not see a changed type.
        assert back == cs
        assert term_types(back) == term_types(cs)
        # json.dumps writes the generated records through its C encoder and,
        # with an indent, through its Python one.
        for indent in (None, 2):
            assert system_from_json(json.loads(json.dumps(system_to_json(cs), indent=indent))) == cs


@pytest.mark.parametrize("coef", [1.0, -1.0, True, "1", "-1", 2, 0])
def test_system_from_json_reads_only_unit_integer_coefficients(coef):
    obj = system_to_json(build_affine_system(x1x2()))
    obj["eqs"] = list(obj["eqs"])
    obj["eqs"][0]["terms"] = [[0, 0, 0, coef]]
    with pytest.raises(ValueError):
        system_from_json(obj)


def test_every_builder_stores_integer_coefficients():
    quartic = poly_from_coeffs(2, {(4, 0): 1, (3, 1): Fraction(-1, 2), (2, 2): 3, (0, 4): 2})
    systems = [build(quartic) for build in (build_affine_system, build_sym_system, build_psd_pair_system)]
    systems.append(build_z2k(5, 2))
    for cs in systems:
        for terms in equation_terms(cs):
            for term in terms:
                # A type check: Fraction(1) == 1 would pass an equality test.
                assert type(term[3]) is int and term[3] in (1, -1), term
        json.dumps(system_to_json(cs))


def test_system_json_coefficient_encoding():
    obj = system_to_json(build_z2k(3, 1))
    for eq in obj["eqs"]:
        for term in eq["terms"]:
            assert isinstance(term[3], int)
            assert term[3] in (1, -1)


def test_gram_expand_pair_subtracts():
    p = x1x2()
    cs = build_psd_pair_system(p)
    plus = ExactMatrix(
        [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]
    )
    minus = ExactMatrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    assert gram_expand(cs, (plus, minus)) == p
    assert check_solution(cs, (plus, minus))


def test_pair_system_requires_symmetry():
    cs = build_psd_pair_system(x1x2())
    skew = ExactMatrix([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    with pytest.raises(ValueError):
        check_solution(cs, (skew, skew))


def fraction_sample_rank(grids, particular, basis_vecs, tvec):
    # Oracle: the rational solution at t, its blocks ranked by rank_exact.
    vec = list(particular)
    for t, direction in zip(tvec, basis_vecs):
        vec = [a + t * b for a, b in zip(vec, direction)]
    return sum(rank_exact(m) for m in _matrices_from_vector(grids, vec))


def nonzeros(vecs):
    # Dense vectors as the (column, value) lists _integer_solution takes.
    return [[(c, v) for c, v in enumerate(vec) if v] for vec in vecs]


def mixed_denominator_form(rng, num_vars, degree):
    return poly_from_coeffs(
        num_vars,
        {e: Fraction(rng.choice([-4, -3, -1, 1, 2, 5]), rng.randint(1, 6))
         for e in monomial_index_set(num_vars, degree)},
    )


def test_integer_sampler_matches_fraction_ranks():
    rng = random.Random(23)
    forms = [mixed_denominator_form(rng, nv, deg) for nv, deg in ((2, 2), (2, 4), (3, 2), (3, 4))]
    # Forms whose solution sets reach low ranks, so deficient samples occur.
    forms += [x1x2(), perm2_slice(), poly_from_coeffs(2, {(2, 2): Fraction(3, 7)})]
    checked = {}
    deficient = 0
    for build in (build_affine_system, build_sym_system, build_psd_pair_system):
        for p in forms:
            cs = build(p)
            grids, rows, rhs = _linear_system(cs)
            particular, basis_vecs = solve_linear(rows, rhs)
            f = len(basis_vecs)
            if f == 0 or f > 8:
                continue
            rank_at = _sample_ranker(grids, _integer_solution(particular, nonzeros(basis_vecs)))
            samples = [[Fraction(0)] * f]
            for _ in range(20):
                samples.append([
                    Fraction(rng.randint(-8, 8), rng.randint(1, 8)) if rng.random() < 0.6 else Fraction(0)
                    for _ in range(f)
                ])
            for tvec in samples:
                r = rank_at(tvec)
                assert r == fraction_sample_rank(grids, particular, basis_vecs, tvec)
                deficient += r < cs.size * cs.block_count
            checked[build] = checked.get(build, 0) + 1
    assert all(checked.get(b, 0) >= 2 for b in (build_affine_system, build_sym_system, build_psd_pair_system))
    assert deficient > 0


def test_integer_sampler_at_planted_low_rank_solutions():
    # Plant a rank-one solution block with mixed denominators; its parameter
    # vector then has several nonzero coordinates with different
    # denominators, where a wrong per-sample scale would change the rank.
    rng = random.Random(31)

    def rational():
        return Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 8))

    cases = 0
    for build in (build_affine_system, build_sym_system, build_psd_pair_system):
        for num_vars, k in ((2, 2), (3, 1), (3, 2)):
            template = build(poly_from_coeffs(num_vars, {(2 * k,) + (0,) * (num_vars - 1): 1}))
            n = template.size
            blocks = []
            for _ in range(template.block_count):
                u = [rational() for _ in range(n)]
                w = u if template.symmetric else [rational() for _ in range(n)]
                blocks.append(ExactMatrix([[a * b for b in w] for a in u]))
            p = gram_expand(template, blocks)
            cs = build(p)
            grids, rows, rhs = _linear_system(cs)
            particular, basis_vecs = solve_linear(rows, rhs)
            if not 1 <= len(basis_vecs) <= 10:
                continue
            planted = [None] * len(particular)
            for grid, q in zip(grids, blocks):
                for i, row in enumerate(grid):
                    for j, c in enumerate(row):
                        planted[c] = q[i, j]
            # A column where only direction l is nonzero reads off t_l.
            tvec = []
            for l, vec in enumerate(basis_vecs):
                c = next(c for c, v in enumerate(vec)
                         if v and all(o[c] == 0 for m, o in enumerate(basis_vecs) if m != l))
                tvec.append((planted[c] - particular[c]) / vec[c])
            rebuilt = list(particular)
            for t, vec in zip(tvec, basis_vecs):
                rebuilt = [a + t * b for a, b in zip(rebuilt, vec)]
            assert rebuilt == planted
            rank_at = _sample_ranker(grids, _integer_solution(particular, nonzeros(basis_vecs)))
            assert rank_at(tvec) == fraction_sample_rank(grids, particular, basis_vecs, tvec)
            assert rank_at(tvec) == cs.block_count
            if len({t.denominator for t in tvec if t}) > 1:
                cases += 1
    assert cases >= 3


def z2k_oracle(d, k):
    # Exponent-list construction: left halves as 0/1 exponent tuples, right
    # halves by subtraction, the rhs from row and column sums of H read as
    # a (d-1) x (d-1) matrix.  Returns the basis, each equation's terms and
    # rhs, and the scale.
    m = d - 1
    num_vars = m * m
    basis = tuple(multilinear_index_set(num_vars, k))
    index_of = {exps: i for i, exps in enumerate(basis)}
    equations = []
    for h in multilinear_index_set(num_vars, 2 * k):
        support = [pos for pos, e in enumerate(h) if e]
        terms = []
        for left in itertools.combinations(support, k):
            left_exps = [0] * num_vars
            for pos in left:
                left_exps[pos] = 1
            right_exps = [a - b for a, b in zip(h, left_exps)]
            i = index_of[tuple(left_exps)]
            j = index_of[tuple(right_exps)]
            terms.append((0, i, j, Fraction(1)))
            terms.append((1, i, j, Fraction(-1)))
        rows = [0] * m
        cols = [0] * m
        for pos, e in enumerate(h):
            rows[pos // m] += e
            cols[pos % m] += e
        partial = max(rows) <= 1 and max(cols) <= 1
        equations.append((tuple(terms), Fraction(int(partial))))
    return basis, equations, Fraction(-1, 2 * k * math.factorial(d - 2 * k - 1))


@pytest.mark.parametrize("d,k", [(3, 1), (4, 1), (5, 1), (5, 2), (6, 1)])
def test_z2k_matches_exponent_list_oracle(d, k):
    cs = build_z2k(d, k)
    basis, equations, scale = z2k_oracle(d, k)
    assert (cs.size, cs.pair, cs.symmetric, cs.num_vars, cs.half_degree) == (len(basis), True, True, (d - 1) ** 2, k)
    assert (cs.basis, term_equations(cs), cs.scale) == (basis, equations, scale)
    # The rhs-1 monomials are the partial permutations of size 2k.
    m = d - 1
    ones = sum(rhs == 1 for _, rhs in cs.equations)
    assert ones == math.comb(m, 2 * k) ** 2 * math.factorial(2 * k)


def seeded_form(num_vars, degree, seed):
    rng = random.Random(seed)
    return poly_from_coeffs(
        num_vars, {e: rng.randint(-3, 3) for e in monomial_index_set(num_vars, degree)}
    )


# Full intervals of seeded forms whose systems have total size at most 6,
# so the minor search runs on every one of them.  psd-pair cannot end on a
# minor route: the Q_minus entries are all free parameters, so no minor
# through them is constant, and its free dimension is at least 3.
MINOR_ROUTE_INTERVALS = {
    ((2, 2, 2), "xp"): (2, 2, "minor-system-no-rational-root", "origin", 1),
    ((2, 2, 2), "sym"): (2, 2, "unique-solution", "unique-solution", 0),
    ((2, 2, 2), "psd-pair"): (1, 2, "nonzero-form", "origin", 3),
    ((3, 2, 2), "xp"): (2, 3, "shared-symmetric-part-inertia", "origin", 3),
    ((3, 2, 2), "sym"): (3, 3, "unique-solution", "unique-solution", 0),
    ((3, 2, 2), "psd-pair"): (1, 3, "nonzero-form", "origin", 6),
    ((2, 4, 0), "xp"): (1, 2, "nonzero-form", "origin", 4),
    ((2, 4, 0), "sym"): (2, 2, "minor-system-no-rational-root", "origin", 1),
    ((2, 4, 0), "psd-pair"): (1, 2, "nonzero-form", "origin", 7),
    ((2, 4, 4), "xp"): (1, 2, "nonzero-form", "origin", 4),
    ((2, 4, 4), "sym"): (2, 2, "constant-minor", "axis-sweep", 1),
    ((2, 4, 4), "psd-pair"): (1, 2, "nonzero-form", "axis-sweep", 7),
}


@pytest.mark.parametrize(
    "form,kind",
    list(MINOR_ROUTE_INTERVALS),
    ids=[f"vars{v}-deg{d}-seed{s}-{kind}" for (v, d, s), kind in MINOR_ROUTE_INTERVALS],
)
def test_minor_route_intervals_are_pinned(form, kind):
    build = {"xp": build_affine_system, "sym": build_sym_system, "psd-pair": build_psd_pair_system}[kind]
    cs = build(seeded_form(*form))
    assert cs.size * cs.block_count <= 6
    iv = minrank_interval(cs, budget=7)
    got = (iv.lower, iv.upper, iv.lower_method, iv.upper_method, iv.free_dimension)
    assert got == MINOR_ROUTE_INTERVALS[form, kind]


# A seeded sweep of systems of total size at most 6, so the minor search
# runs on each: random forms with mixed denominators over several shapes,
# and two planted forms whose rank drops only at a rational parameter
# outside the sampled values, (x1 + 9*x2)*(x1 + 10*x2) for xp and
# (2*x1^2 + 10/3*x1*x2 + x2^2)^2 + (x1^2 + 5*x2^2)^2 for sym.  The digest,
# recorded before the minors were evaluated on the principal lattice, is
# of the interval tuples, or the budget error, in sweep order.
SWEEP_SHAPES = [(2, 2)] * 12 + [(2, 4)] * 14 + [(2, 6)] * 10 + [(3, 2)] * 2 + [(3, 4)]
SWEEP_DIGEST = "fa2463bc26a06b3aa7ee0be665512420e518f10d40a4bbd5aa7c839d6fd63988"


def sweep_forms():
    for seed, (num_vars, degree) in enumerate(SWEEP_SHAPES):
        rng = random.Random(seed)
        density = rng.choice([0.3, 0.6, 1.0])
        coeffs = {e: Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3, 5, 7]))
                  for e in monomial_index_set(num_vars, degree) if rng.random() < density}
        yield poly_from_coeffs(num_vars, coeffs or {(degree,) + (0,) * (num_vars - 1): 1})
    yield poly_from_coeffs(2, {(2, 0): 1, (1, 1): 19, (0, 2): 90})
    squares = [[2, Fraction(10, 3), 1], [1, 0, 5]]
    basis = monomial_index_set(2, 2)
    coeffs = {}
    for u in squares:
        for i, j in itertools.product(range(3), repeat=2):
            e = tuple(a + b for a, b in zip(basis[i], basis[j]))
            coeffs[e] = coeffs.get(e, 0) + u[i] * u[j]
    yield poly_from_coeffs(2, coeffs)


def sweep_intervals():
    builds = {"xp": build_affine_system, "sym": build_sym_system, "psd-pair": build_psd_pair_system}
    out = []
    for index, p in enumerate(sweep_forms()):
        for kind, build in builds.items():
            cs = build(p)
            if cs.size * cs.block_count > 6:
                continue
            try:
                iv = minrank_interval(cs)
            except ValueError as err:
                out.append((index, kind, str(err)))
                continue
            out.append((index, kind, (iv.lower, iv.upper, iv.lower_method, iv.upper_method,
                                      iv.free_dimension)))
    return out


def test_minor_route_sweep_is_pinned():
    got = sweep_intervals()
    intervals = [iv for _, _, iv in got if isinstance(iv, tuple)]
    assert {kind for _, kind, iv in got if isinstance(iv, tuple)} == {"xp", "sym", "psd-pair"}
    assert {"constant-minor", "minor-system-no-rational-root"} <= {iv[2] for iv in intervals}
    assert "minor-root" in {iv[3] for iv in intervals}
    assert {iv[4] for iv in intervals} >= {1, 3, 6}
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == SWEEP_DIGEST


def lagrange_at(values, t):
    # Oracle: the interpolant through (k, values[k]), k = 0..m, at t.
    total = Fraction(0)
    for k, v in enumerate(values):
        term = Fraction(v)
        for j in range(len(values)):
            if j != k:
                term *= Fraction(t - j, k - j)
        total += term
    return total


def test_newton_coefficients_match_fraction_interpolation():
    rng = random.Random(41)
    for m in range(5):
        for _ in range(20):
            values = [rng.randint(-50, 50) for _ in range(m + 1)]
            coeffs = _newton_coefficients(values)
            assert len(coeffs) == m + 1 and all(isinstance(c, int) for c in coeffs)
            points = [Fraction(k) for k in range(-2, m + 3)]
            points.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for t in points:
                got = sum(c * t ** k for k, c in enumerate(coeffs))
                assert got == math.factorial(m) * lagrange_at(values, t)
    # t(t-1)/2 takes the values 0, 0, 1 and has no integer coefficients.
    assert _newton_coefficients([0, 0, 1]) == [0, -1, 1]


def test_rational_roots_of_integer_polynomials():
    # (3t - 2)(t + 5)t = 3t^3 + 13t^2 - 10t
    assert _rational_roots([0, -10, 13, 3]) == [Fraction(-5), Fraction(0), Fraction(2, 3)]
    assert _rational_roots([1, 0, 1]) == []
    assert _rational_roots([-2, 0, 0, 9]) == []


def poly_mul(a, b):
    # Product of two polynomials, constant term first.
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_rational_roots_agree_with_trial_division():
    # Seeded small-coefficient polynomials, half of them products of
    # linear and quadratic factors, so that rational roots, repeated roots
    # and irrational roots next to rational ones occur, against the trial
    # division oracle; then the common roots of several polynomials, most
    # sharing a factor, as the roots of their gcd, against the oracle's
    # filter.
    rng = random.Random(59)

    def sample_poly():
        if rng.random() < 0.5:
            return [rng.randint(-12, 12) for _ in range(rng.randint(2, 5))]
        coeffs = [rng.choice([-3, -1, 1, 2, 5])]
        for _ in range(rng.randint(1, 4)):
            factor = [rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6])]
            if rng.random() < 0.3:
                factor = [rng.randint(-9, 9), rng.randint(-5, 5), rng.randint(1, 3)]
            coeffs = poly_mul(coeffs, factor)
        return coeffs

    with_roots = shared = 0
    for _ in range(400):
        p = sample_poly()
        if not any(p[1:]):
            continue
        roots = _rational_roots(p)
        assert roots == rational_roots_by_divisors(p)
        with_roots += bool(roots)
        polys = [p] + [poly_mul(p, q) if rng.random() < 0.3 else poly_mul(p[:2], q)
                       for q in (sample_poly() for _ in range(rng.randint(1, 2)))]
        polys = [q for q in polys if any(q)]
        common = _rational_roots(functools.reduce(_gcd, polys))
        assert common == [t for t in rational_roots_by_divisors(polys[0])
                          if all(_vanishes_at(q, t) for q in polys)]
        shared += bool(common)
    assert with_roots > 200 and shared > 100


def test_rational_roots_do_not_factor_coefficients():
    # Trial division took 17 s on the first polynomial, dividing up to the
    # square root of 10^14.
    start = time.perf_counter()
    assert _rational_roots([10**14 + 14, 3, 10**14 + 31]) == []
    big = 10**18 + 9
    # (big*t - 7) (3t + big)^2 (t^2 + 2): a repeated root and two irrational ones
    p = poly_mul(poly_mul([-7, big], poly_mul([big, 3], [big, 3])), [2, 0, 1])
    assert _rational_roots(p) == [Fraction(-big, 3), Fraction(7, big)]
    assert _rational_roots(poly_mul([-big, 1], [-big, 1])) == [Fraction(big)]
    assert _rational_roots(poly_mul([-big, 0, 1], [1, big])) == [Fraction(-1, big)]
    assert time.perf_counter() - start < 1.0


BUILDS = {"xp": build_affine_system, "sym": build_sym_system, "psd-pair": build_psd_pair_system}
# (num_vars, degree) and how many systems of each kind; free dimensions
# run from 1 to 21, and most systems are small so that ranking every
# sample stays cheap.
SAMPLER_PLAN = {
    "xp": [((2, 2), 100), ((2, 4), 24), ((3, 2), 16), ((4, 2), 8), ((2, 6), 6), ((2, 8), 3), ((3, 4), 2)],
    "sym": [((2, 4), 102), ((2, 6), 24), ((2, 8), 12), ((3, 4), 8), ((4, 4), 1), ((2, 10), 3)],
    "psd-pair": [((2, 2), 44), ((3, 2), 16), ((2, 4), 24), ((4, 2), 4), ((2, 6), 3), ((2, 8), 2)],
}


def planted_system(rng, build, num_vars, k):
    # A Gram form of rank one or two.  Each rank-one term u w^T has u on
    # {0, i}, and w = u, or w on {0, n-1} for xp, so that the planted
    # solution often differs from the particular one in one free entry:
    # a sample on one axis, where upper falls partway through the sweep.
    # That entry's value is u_i^2 or u_i * w_0, a sampled value unless
    # u_i is 3 or 3/2, which leaves it to the minor roots.
    template = build(poly_from_coeffs(num_vars, {(2 * k,) + (0,) * (num_vars - 1): 1}))
    n = template.size
    q = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(rng.choice([1, 1, 2])):
        u = [Fraction(0)] * n
        u[0] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
        u[rng.randrange(1, n)] = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        w = list(u)
        if not template.symmetric:
            w = [Fraction(0)] * n
            w[0], w[-1] = (Fraction(rng.choice([-2, 1, 3]), rng.choice([1, 2])) for _ in range(2))
        for i in range(n):
            for j in range(n):
                q[i][j] += u[i] * w[j]
    blocks = [ExactMatrix(q)] + [ExactMatrix.zeros(n, n)] * (template.block_count - 1)
    return build(gram_expand(template, blocks))


def sampler_systems():
    rng = random.Random(97)
    for kind, plan in SAMPLER_PLAN.items():
        for (num_vars, degree), count in plan:
            for rep in range(count):
                if rep % 2 == 0:
                    yield kind, True, planted_system(rng, BUILDS[kind], num_vars, degree // 2)
                else:
                    coeffs = {e: Fraction(rng.choice([-7, -4, -2, -1, 1, 2, 3, 6, 9]), rng.choice([1, 1, 2, 3]))
                              for e in monomial_index_set(num_vars, degree) if rng.random() < 0.7}
                    yield kind, False, BUILDS[kind](
                        poly_from_coeffs(num_vars, coeffs or {(degree,) + (0,) * (num_vars - 1): 1}))


def test_witness_sweep_matches_ranking_every_sample():
    # The witness filter skips only samples that could not lower upper,
    # so upper and its method equal those of ranking every sample.
    seen = []
    for kind, planted, cs in sampler_systems():
        iv = minrank_interval(cs, budget=24)
        assert (iv.upper, iv.upper_method) == sampled_upper(cs), (kind, planted)
        seen.append((kind, planted, iv.free_dimension, iv.upper_method))
    assert len(seen) >= 400
    assert sum(planted for _, planted, _, _ in seen) * 2 >= len(seen)
    assert {kind for kind, _, _, _ in seen} == set(BUILDS)
    assert max(f for _, _, f, _ in seen) >= 20
    fell = {kind for kind, planted, _, method in seen if planted and method == "axis-sweep"}
    assert fell == set(BUILDS)
    assert sum(method == "axis-sweep" for *_, method in seen) >= 100
    assert "minor-root" in {method for *_, method in seen}
