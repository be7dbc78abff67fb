"""Acceptance gate: one test per shipped guarantee, each printing a single
[PASS]/[FAIL] line.  Run with `pytest tests/test_acceptance.py -v -s`.

Everything here is checked at the stated tolerance; exact means zero
tolerance.  Randomized suites use fixed seeds so the gate is reproducible.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from birank.abpdec import (
    char_coefficients,
    decompose_det_part,
    decompose_from_representation,
    det_lambda_part,
)
from birank.certify import (
    DualCertificate,
    certify_minrank,
    check_dual,
    dual_from_eigs,
    jacobi_eigh,
    mu,
    norm_scale,
)
from birank.exactla import (
    AffineMatrixPoly,
    ExactMatrix,
    rank_exact,
    signature_exact,
)
from birank.permhess import hessian_blocks, hessian_report, perm_zero_point
from birank.polyring import (
    Polynomial,
    homogeneous_part,
    perm_poly,
    shift,
)
from birank.rankmin import (
    build_affine_system,
    build_psd_pair_system,
    build_z2k,
    equation_terms,
    minrank_interval,
)
from clow_oracle import clow_sum_bruteforce, det_polynomial, from_entry_polys
from gram_oracle import check_solution, project_pair_to_z2k
from perm_oracle import hessian, hessian_perm_fast, hollow_ones, signature_by_elimination


def report(ok: bool, name: str) -> None:
    print(("[PASS] " if ok else "[FAIL] ") + name)
    assert ok, name


def random_linear_matrix(rng, n, num_vars, span=3):
    zero = ExactMatrix.zeros(n, n)
    coeffs = []
    for _ in range(num_vars):
        rows = [
            [Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)
        ]
        coeffs.append(ExactMatrix(rows))
    return AffineMatrixPoly(zero, coeffs)


def leibniz_char_coefficients(a):
    # Independent oracle: adjoin lambda as one more variable, expand the
    # determinant by permutations, and slice the lambda powers.
    n, num_vars = a.n, a.num_vars
    lifted = list(a.coeffs) + [ExactMatrix.identity(n)]
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            c = a.const[i, j]
            if c:
                terms[(0,) * (num_vars + 1)] = c
            for l, coeff in enumerate(lifted):
                v = coeff[i, j]
                if v:
                    exps = tuple(1 if t == l else 0 for t in range(num_vars + 1))
                    terms[exps] = terms.get(exps, Fraction(0)) + v
            row.append(Polynomial(num_vars + 1, terms))
        grid.append(row)
    det = det_polynomial(from_entry_polys(grid))
    out = {k: Polynomial.zero(num_vars) for k in range(n + 1)}
    for exps, coeff in det.terms.items():
        out[n - exps[-1]] = out[n - exps[-1]] + Polynomial.monomial(
            num_vars, exps[:-1], coeff
        )
    return out


def perm2_representation():
    # det [[x0, -x1], [x2, x3]] equals the 2x2 permanent.
    zero = ExactMatrix.zeros(2, 2)
    coeffs = []
    for i, j, v in [(0, 0, 1), (0, 1, -1), (1, 0, 1), (1, 1, 1)]:
        rows = [[Fraction(0)] * 2 for _ in range(2)]
        rows[i][j] = Fraction(v)
        coeffs.append(ExactMatrix(rows))
    return AffineMatrixPoly(zero, coeffs)


def test_criterion_01_hessian_rank():
    start = time.monotonic()
    ok = all(rank_exact(hessian_perm_fast(d)) == d * d for d in range(2, 6))
    ok = ok and time.monotonic() - start < 10.0
    report(ok, "hessian rank equals d^2 for d=2..5, exact, <10s")


def test_criterion_02_hessian_signature():
    start = time.monotonic()
    ok = True
    for d in range(2, 6):
        sig = signature_exact(hessian_perm_fast(d))
        ok = ok and sig.n_minus == (d - 1) ** 2 + 1 and sig.n_zero == 0
    ok = ok and time.monotonic() - start < 10.0
    report(ok, "hessian signature n_minus equals (d-1)^2+1 for d=2..5, exact, <10s")


def test_criterion_03_hessian_three_routes():
    ok = True
    for d in (3, 4, 5):
        fast = hessian_perm_fast(d)
        blocks = hessian_blocks(d)
        symbolic = hessian(perm_poly(d), perm_zero_point(d))
        ok = ok and fast == blocks == symbolic
    report(ok, "hessian agrees across block, minor, and symbolic routes, d=3..5")


def test_criterion_04_hollow_ones_signature():
    ok = True
    for d in range(2, 9):
        sig = signature_exact(hollow_ones(d))
        ok = ok and (sig.n_plus, sig.n_minus, sig.n_zero) == (1, d - 1, 0)
    report(ok, "hollow ones signature equals (1, d-1, 0) for d=2..8, exact")


def test_criterion_05_char_coefficients_vs_leibniz():
    start = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_linear_matrix(rng, n, rng.randint(1, 3))
        oracle = leibniz_char_coefficients(a)
        got = char_coefficients(a, range(n + 1))
        ok = ok and all(got[k] == oracle[k] for k in range(n + 1))
    ok = ok and time.monotonic() - start < 30.0
    report(ok, "char coefficients match Leibniz on 20 random matrices, exact, <30s")


def test_criterion_06_clow_cancellation():
    rng = random.Random(102)
    ok = True
    for n in range(1, 5):
        a = random_linear_matrix(rng, n, 2)
        for k in range(1, min(n, 4) + 1):
            ok = ok and clow_sum_bruteforce(a, k, family="non_covers").is_zero()
    report(ok, "non-cycle-cover clow sums cancel to zero for n<=4, k<=4, exact")


def test_criterion_07_decomposition_soundness_and_counts():
    start = time.monotonic()
    a = perm2_representation()
    x0 = (Fraction(1), Fraction(1), Fraction(1), Fraction(-1))
    result = decompose_from_representation(a, x0, 1)
    target = homogeneous_part(shift(perm_poly(2), x0), 2)
    total = Polynomial.zero(4)
    for f, g in result.decomposition.pairs:
        total = total + f * g
    ok = result.pair_count <= 2 and total == target

    rng = random.Random(103)
    done = 0
    while done < 10:
        n = rng.randint(2, 4)
        k = rng.randint(1, 2)
        if 2 * k > n:
            continue
        num_vars = rng.randint(2, 4)
        a = random_linear_matrix(rng, n, num_vars)
        r = rng.randint(max(0, n - 2 * k), n - 1)
        dec = decompose_det_part(a, k, r)
        if r == n - 2 * k:
            bound = math.comb(2 * k, k)
        else:
            bound = 2 ** (n - r - 1) * (n + 2 * (k - 1) * num_vars ** (k - 1))
        ok = ok and len(dec.pairs) <= bound
        done += 1
    ok = ok and time.monotonic() - start < 60.0
    report(ok, "decompositions re-expand exactly and respect pair bounds, <60s")


def test_criterion_08_minrank_sandwich():
    x1x2 = Polynomial(2, {(1, 1): Fraction(1)})
    squares = Polynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    perm2 = homogeneous_part(shift(perm_poly(2), perm_zero_point(2)), 2)
    expected = {0: 1, 1: 2, 2: 2}
    ok = True
    for idx, p in enumerate((x1x2, squares, perm2)):
        iv = minrank_interval(build_affine_system(p))
        ok = ok and iv.lower == iv.upper == expected[idx]
        h = hessian(p, (Fraction(1),) * p.num_vars)
        ok = ok and Fraction(iv.lower) >= Fraction(rank_exact(h), 2)
    report(ok, "minrank intervals hit 1, 2, 2 and clear half the hessian rank, exact")


def test_criterion_09_multilinear_system():
    cs = build_z2k(3, 1)
    ok = len(cs.equations) == 6
    ones = [rhs for _, rhs in cs.equations if rhs == 1]
    ok = ok and len(ones) == 2
    coefs = {c for terms in equation_terms(cs) for _, _, _, c in terms}
    ok = ok and coefs <= {Fraction(1), Fraction(-1)}
    half = hessian_perm_fast(3).scale(Fraction(1, 2))
    zero = ExactMatrix.zeros(9, 9)
    p = homogeneous_part(shift(perm_poly(3), perm_zero_point(3)), 2)
    full = build_psd_pair_system(p)
    ok = ok and check_solution(full, (half, zero))
    plus, minus = project_pair_to_z2k(half, zero, 3, 1)
    ok = ok and check_solution(cs, (plus, minus))
    report(ok, "projected system: 6 equations, 2 with rhs 1, coefficients in {0,+-1}")


def test_criterion_10_mu_concavity():
    start = time.monotonic()
    rng = random.Random(104)
    ok = True
    for _ in range(100):
        n = rng.randint(2, 12)
        a = np.array([[rng.uniform(-4, 4) for _ in range(n)] for _ in range(n)])
        a = (a + a.T) / 2
        b = np.array([[rng.uniform(-4, 4) for _ in range(n)] for _ in range(n)])
        b = (b + b.T) / 2
        l = rng.randint(1, n)
        lhs = mu((a + b) / 2, l)
        rhs = (mu(a, l) + mu(b, l)) / 2
        scale = max(norm_scale(a), norm_scale(b))
        ok = ok and lhs >= rhs - 1e-9 * scale
    ok = ok and time.monotonic() - start < 5.0
    report(ok, "mu midpoint concavity on 100 random pairs, 1e-9 scale, <5s")


def test_criterion_11_weak_duality():
    rng = random.Random(105)
    ok = True
    for _ in range(100):
        n = rng.randint(2, 9)
        y = np.array([[rng.uniform(-4, 4) for _ in range(n)] for _ in range(n)])
        y = (y + y.T) / 2
        l = rng.randint(1, n)
        if rng.random() < 0.5:
            cert = dual_from_eigs(y, l)
        else:
            vals, _ = jacobi_eigh(y)
            z = float(vals[0]) - rng.uniform(0.0, 2.0)
            g = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
            zmat = g @ g.T
            cert = DualCertificate(
                l=l, z=z, zmat=tuple(tuple(float(v) for v in row) for row in zmat)
            )
        accepted, bound, slack = check_dual(y, cert)
        ok = ok and accepted and mu(y, l) >= bound - slack
    tight = dual_from_eigs(np.diag([3.0, 1.0, -2.0]), 2)
    accepted, bound, _ = check_dual(np.diag([3.0, 1.0, -2.0]), tight)
    ok = ok and accepted and abs(bound - (-1.0)) <= 1e-9
    report(ok, "100 accepted dual certificates respect weak duality; tight bound -1")


def test_criterion_12_rank_vs_mu():
    rng = random.Random(106)
    ok = True
    for _ in range(50):
        n = rng.randint(2, 10)
        rho = rng.randint(1, n)
        while True:
            g = [[rng.randint(-3, 3) for _ in range(rho)] for _ in range(n)]
            exact = ExactMatrix([[Fraction(v) for v in row] for row in g])
            if rank_exact(exact) == rho:
                break
        ga = np.array(g, dtype=float)
        y = ga @ ga.T
        for r in range(n):
            cert = certify_minrank([y], r, tol=1e-9)
            ok = ok and cert.accepted == (r < rho)
    report(ok, "certify_minrank accepts exactly r below the Gram rank, 50 matrices")


def test_criterion_13_hessian_inertia_by_blocks():
    ok = True
    for d in range(2, 1001):
        rep = hessian_report(d)
        ok = ok and rep.rank == d * d and rep.signature.n_minus == rep.new_bound == (d - 1) ** 2 + 1
        if d <= 16:
            ok = ok and rep.signature == signature_by_elimination(d)
    report(ok, "hessian inertia bound is (d-1)^2+1 by isotypic blocks for d=2..1000; full elimination agrees for d<=16")
