import math
import random
from fractions import Fraction

import numpy as np
import pytest

from birank.certify import (
    DualCertificate,
    certificate_to_json,
    certify_brank,
    certify_minrank,
    check_dual,
    dual_from_eigs,
    dual_from_json,
    dual_to_json,
    eigenvalues,
    jacobi_eigh,
    mu,
    norm_scale,
    psd_check,
    sym_part,
    to_float_array,
    _round_robin,
)
from birank.exactla import ExactMatrix, rank_exact


def random_symmetric(rng, n, span=5.0):
    a = np.array([[rng.uniform(-span, span) for _ in range(n)] for _ in range(n)])
    return (a + a.T) / 2.0


def random_gram(rng, n, r):
    # Integer factors with exactly verified column rank r.
    while True:
        g = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        exact = ExactMatrix([[Fraction(v) for v in row] for row in g])
        if rank_exact(exact) == r:
            ga = np.array(g, dtype=float)
            return ga @ ga.T


def test_to_float_array_accepts_exact_matrix():
    m = ExactMatrix([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(3)]])
    a = to_float_array(m)
    assert a[0, 0] == 0.5 and a[1, 1] == 3.0
    with pytest.raises(ValueError):
        to_float_array([[1.0, 2.0]])


def test_jacobi_matches_numpy_eigvalsh():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 12)
        a = random_symmetric(rng, n)
        got = eigenvalues(a)
        want = np.linalg.eigvalsh(a)
        assert np.max(np.abs(got - want)) <= 1e-9 * norm_scale(a)


def test_jacobi_eigenvectors():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(2, 10)
        a = random_symmetric(rng, n)
        vals, vecs = jacobi_eigh(a)
        scale = norm_scale(a)
        assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-8 * scale * n
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-10 * n
        assert all(vals[i] <= vals[i + 1] + 1e-12 * scale for i in range(n - 1))


def known_spectrum(np_rng, spectrum):
    q, _ = np.linalg.qr(np_rng.normal(size=(len(spectrum), len(spectrum))))
    a = (q * np.asarray(spectrum, dtype=float)) @ q.T
    return (a + a.T) / 2.0


def test_round_robin_covers_every_pair_once():
    for n in range(1, 10):
        rounds = _round_robin(n)
        assert len(rounds) == n - 1 + n % 2
        seen = []
        for p, q in rounds:
            # Disjoint pairs: no index twice in one round.
            assert len(set(p.tolist()) | set(q.tolist())) == 2 * len(p)
            seen += [tuple(sorted(pair)) for pair in zip(p.tolist(), q.tolist())]
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_jacobi_round_robin_matches_eigvalsh_at_sizes():
    np_rng = np.random.default_rng(61)
    for n in (1, 2, 3, 61, 120):
        inputs = [
            np_rng.uniform(-5.0, 5.0, size=(n, n)),
            np.zeros((n, n)),
            np.diag(np_rng.uniform(-5.0, 5.0, size=n)),
            # Repeated eigenvalues: three values shared by all n.
            known_spectrum(np_rng, [float(k % 3) - 1.0 for k in range(n)]),
        ]
        if n >= 2:
            half = n // 2
            blocks = np.zeros((n, n))
            blocks[:half, :half] = known_spectrum(np_rng, np.arange(half) / 8.0)
            blocks[half:, half:] = known_spectrum(np_rng, np.arange(n - half) / 8.0 - 1.0)
            inputs.append(blocks)
        for m in inputs:
            a = sym_part(m)
            vals = jacobi_eigh(a, vectors=False)
            assert vals.shape == (n,)
            assert all(vals[i] <= vals[i + 1] for i in range(n - 1))
            want = np.linalg.eigvalsh(a)
            assert np.max(np.abs(vals - want), initial=0.0) <= 1e-12 * n * norm_scale(a)
            if n <= 61:
                # The eigenvector updates never feed back into the matrix.
                full, vecs = jacobi_eigh(a)
                assert np.array_equal(full, vals) and vecs.shape == (n, n)
                assert np.array_equal(eigenvalues(a), vals)


def test_jacobi_eigenvectors_at_61():
    np_rng = np.random.default_rng(62)
    n = 61
    for a in (sym_part(np_rng.uniform(-5.0, 5.0, size=(n, n))),
              known_spectrum(np_rng, [float(k % 4) for k in range(n)])):
        vals, vecs = jacobi_eigh(a)
        scale = norm_scale(a)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-12 * n
        assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-12 * n * scale


def test_jacobi_tests_convergence_after_the_last_sweep():
    # One rotation diagonalises a 2x2 matrix, and a diagonal matrix needs
    # none; both used to raise because the test ran only before a sweep.
    vals, vecs = jacobi_eigh([[2.0, 1.0], [1.0, 3.0]], max_sweeps=1)
    assert np.max(np.abs(vals - np.linalg.eigvalsh([[2.0, 1.0], [1.0, 3.0]]))) <= 1e-14
    vals, vecs = jacobi_eigh(np.diag([3.0, -1.0, 2.0]), max_sweeps=0)
    assert vals.tolist() == [-1.0, 2.0, 3.0]
    assert vecs.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(ArithmeticError):
        jacobi_eigh([[2.0, 1.0], [1.0, 3.0]], max_sweeps=0)
    with pytest.raises(ValueError):
        jacobi_eigh(np.eye(2), max_sweeps=-1)


def test_mu_known_values():
    y = np.diag([3.0, 1.0, -2.0])
    assert mu(y, 0) == 0.0
    assert abs(mu(y, 1) - (-2.0)) <= 1e-12
    assert abs(mu(y, 2) - (-1.0)) <= 1e-12
    assert abs(mu(y, 3) - 2.0) <= 1e-12
    with pytest.raises(ValueError):
        mu(y, 4)
    with pytest.raises(ValueError):
        mu(y, -1)


def test_mu_matches_numpy():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 10)
        a = random_symmetric(rng, n)
        l = rng.randint(1, n)
        want = float(np.sum(np.linalg.eigvalsh(a)[:l]))
        assert abs(mu(a, l) - want) <= 1e-9 * norm_scale(a) * n


def test_mu_is_minimum_over_projectors():
    # mu_l is the minimum of <Y, P> over rank-l orthogonal projectors,
    # attained at the projector onto the l lowest eigendirections.
    rng = random.Random(10)
    np_rng = np.random.default_rng(10)
    for _ in range(15):
        n = rng.randint(2, 8)
        a = random_symmetric(rng, n)
        l = rng.randint(1, n)
        value = mu(a, l)
        vals, vecs = jacobi_eigh(a)
        proj = vecs[:, :l] @ vecs[:, :l].T
        attained = float(np.sum(a * proj))
        assert abs(attained - value) <= 1e-8 * norm_scale(a) * n
        for _ in range(5):
            q, _ = np.linalg.qr(np_rng.normal(size=(n, l)))
            p = q @ q.T
            assert float(np.sum(a * p)) >= value - 1e-8 * norm_scale(a) * n


def test_mu_concavity():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 12)
        a = random_symmetric(rng, n)
        b = random_symmetric(rng, n)
        l = rng.randint(1, n)
        lam = rng.random()
        mixed = lam * a + (1.0 - lam) * b
        lhs = mu(mixed, l)
        rhs = lam * mu(a, l) + (1.0 - lam) * mu(b, l)
        scale = max(norm_scale(a), norm_scale(b))
        assert lhs >= rhs - 1e-9 * scale


def test_psd_check():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(2, 8)
        y = random_gram(rng, n, rng.randint(1, n))
        assert psd_check(y)
    assert not psd_check(np.diag([1.0, -1.0]))
    assert psd_check(np.diag([1.0, -1e-15]))


def test_dual_from_eigs_attains_mu():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 10)
        a = random_symmetric(rng, n)
        l = rng.randint(1, n)
        cert = dual_from_eigs(a, l)
        assert abs(cert.bound - mu(a, l)) <= 1e-8 * norm_scale(a) * n
        ok, bound, slack = check_dual(a, cert)
        assert ok
        assert mu(a, l) >= bound - slack


def test_dual_tight_example():
    y = np.diag([3.0, 1.0, -2.0])
    cert = dual_from_eigs(y, 2)
    assert abs(cert.z - 1.0) <= 1e-12
    zmat = np.array(cert.zmat)
    assert np.max(np.abs(zmat - np.diag([0.0, 0.0, 3.0]))) <= 1e-12
    assert abs(cert.bound - (-1.0)) <= 1e-9
    ok, bound, slack = check_dual(y, cert)
    assert ok and abs(bound - (-1.0)) <= 1e-9


def test_weak_duality_random_certificates():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(2, 9)
        y = random_symmetric(rng, n)
        l = rng.randint(1, n)
        vals = np.linalg.eigvalsh(y)
        z = float(vals[0]) - rng.uniform(0.0, 2.0)
        zmat = random_gram(rng, n, rng.randint(1, n))
        cert = DualCertificate(
            l=l, z=z, zmat=tuple(tuple(float(x) for x in row) for row in zmat)
        )
        ok, bound, slack = check_dual(y, cert)
        assert ok
        assert mu(y, l) >= bound - slack


def test_check_dual_rejects_bad_certificates():
    y = np.diag([3.0, 1.0, -2.0])
    negative = DualCertificate(
        l=2, z=0.0, zmat=((-1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    )
    ok, _, _ = check_dual(y, negative)
    assert not ok
    too_high = DualCertificate(
        l=2, z=100.0, zmat=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    )
    ok, _, _ = check_dual(y, too_high)
    assert not ok
    wrong_shape = DualCertificate(l=2, z=0.0, zmat=((0.0,),))
    ok, _, _ = check_dual(y, wrong_shape)
    assert not ok


def test_certify_minrank_exact_rank_threshold():
    rng = random.Random(15)
    for _ in range(10):
        n = rng.randint(2, 8)
        rho = rng.randint(1, n)
        y = random_gram(rng, n, rho)
        for r in range(n):
            cert = certify_minrank([y], r)
            assert cert.accepted == (r < rho)
            if cert.accepted:
                assert cert.certified_lower_bound == r + 1


def test_certify_minrank_hull():
    vertices = [np.eye(2), np.diag([2.0, 1.0]), np.array([[2.0, 1.0], [1.0, 2.0]])]
    cert = certify_minrank(vertices, 1)
    assert cert.accepted
    assert len(cert.vertex_mu) == 3
    assert cert.margin > 0
    # An indefinite vertex blocks the certificate even though its rank is 2.
    indefinite = np.array([[0.0, 0.5], [0.5, 0.0]])
    cert2 = certify_minrank([indefinite], 1)
    assert not cert2.accepted


def test_certify_minrank_validation():
    with pytest.raises(ValueError):
        certify_minrank([], 0)
    with pytest.raises(ValueError):
        certify_minrank([np.eye(2)], 2)
    with pytest.raises(ValueError):
        certify_minrank([np.eye(2), np.eye(3)], 1)


def test_certify_brank_pair_embedding():
    plus = np.array([[1.0, 0.0], [0.0, 0.0]])
    minus = np.array([[0.0, 0.0], [0.0, 1.0]])
    for r in range(4):
        cert = certify_brank([(plus, minus)], r)
        assert cert.accepted == (r < 2)
    with pytest.raises(ValueError):
        certify_brank([(np.eye(2), np.eye(3))], 1)


def test_certify_brank_matches_explicit_embedding():
    rng = random.Random(16)
    for _ in range(10):
        m = rng.randint(1, 6)
        pairs = [
            (random_gram(rng, m, rng.randint(1, m)), random_symmetric(rng, m) if rng.random() < 0.3
             else random_gram(rng, m, rng.randint(1, m)))
            for _ in range(rng.randint(1, 3))
        ]
        embedded = []
        for plus, minus in pairs:
            big = np.zeros((2 * m, 2 * m))
            big[:m, :m] = plus
            big[m:, m:] = minus
            embedded.append(big)
        scale = max(norm_scale(big) for big in embedded)
        for r in range(2 * m):
            got = certify_brank(pairs, r)
            want = certify_minrank(embedded, r)
            assert (got.r, got.l, got.threshold, got.accepted) == (want.r, want.l, want.threshold, want.accepted)
            for g, w in zip(got.vertex_mu, want.vertex_mu):
                assert abs(g - w) <= 1e-12 * 2 * m * scale


def test_certify_rejects_bad_tolerances():
    # With tol = -1 the threshold was negative, and the hull of these two
    # vertices, which holds the zero matrix, was certified to have rank 2.
    vertices = [np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])]
    pair = [(np.eye(1), np.eye(1))]
    for tol in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            certify_minrank(vertices, 1, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            certify_brank(pair, 1, tol=tol)
    assert not certify_minrank(vertices, 1, tol=0.0).accepted
    assert certify_brank(pair, 1, tol=0.0).accepted


def test_certify_brank_needs_two_blocks_per_vertex():
    for vertex in ([np.eye(2)], [np.eye(2), np.eye(2), np.zeros((2, 2))]):
        with pytest.raises(ValueError, match="exactly two blocks"):
            certify_brank([(np.eye(2), np.eye(2)), vertex], 1)


def test_certificate_json():
    cert = certify_minrank([np.diag([2.0, 1.0])], 1)
    obj = certificate_to_json(cert)
    assert obj["accepted"] is True
    assert obj["assumes_hull_containment"] is True
    assert obj["certified_lower_bound"] == 2
    dual = dual_from_eigs(np.diag([3.0, 1.0, -2.0]), 2)
    back = dual_from_json(dual_to_json(dual))
    assert back == dual


def test_sym_part_and_norm_scale():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    s = sym_part(a)
    assert np.allclose(s, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert norm_scale(np.zeros((2, 2))) == 1.0
    assert norm_scale(np.diag([0.25, -0.5])) == 1.0
    assert norm_scale(np.diag([4.0, -9.0])) == 9.0
