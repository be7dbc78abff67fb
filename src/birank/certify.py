"""Floating-point certificates for rank lower bounds.

The sum of the l smallest eigenvalues of a symmetric matrix, mu_l, is a
concave function of the matrix, and for any symmetric Y, mu_l(Y) > 0
forces at least n - l + 1 nonzero eigenvalues, hence rank(Y) > n - l.
Minimizing a concave function over a polytope lands on a vertex, so
checking mu at the vertices of an outer approximation of a solution set
certifies a rank lower bound over the whole set.  This module provides
the eigenvalue machinery (a Jacobi solver in the round-robin ordering of
Brent and Luk, "The solution of singular-value and symmetric eigenvalue
problems on multiprocessor arrays", SIAM J. Sci. Stat. Comput. 6, 1985,
which rotates n/2 disjoint planes per vectorised step; it is kept
independent of numpy.linalg so the latter can serve as a cross-check), the
mu/PSD helpers, dual certificates that witness a value of mu, and the
vertex certification entry points.

Every acceptance threshold is relative: tolerances scale with the max
absolute entry of the matrices involved, never with fixed absolute
cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from birank.exactla import ExactMatrix


def to_float_array(m) -> np.ndarray:
    """Square float64 array of finite entries from an ExactMatrix, nested
    sequences, or an ndarray."""
    if isinstance(m, ExactMatrix):
        rows = [[float(v) for v in row] for row in m.to_lists()]
        a = np.array(rows, dtype=float)
    else:
        a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def sym_part(m) -> np.ndarray:
    a = to_float_array(m)
    return (a + a.T) / 2.0


def norm_scale(a) -> float:
    """Relative-tolerance scale: max absolute entry, floored at 1."""
    a = to_float_array(a)
    return max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)


def _round_robin(n: int):
    """Brent and Luk's round-robin ordering of the index pairs of an n x n
    matrix: n - 1 rounds (n rounded up to even), each a set of disjoint
    pairs, together holding every pair p != q exactly once.  The indices
    sit at a table of two rows; index 0 stays put and the others move one
    seat round the table after each round.  For odd n a padding index n
    takes a seat, and its partner has a bye."""
    m = n + n % 2
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        seats = [0] + ring
        pairs = [(seats[i], seats[m - 1 - i]) for i in range(m // 2)]
        pairs = [pair for pair in pairs if max(pair) < n]
        rounds.append((
            np.array([p for p, _ in pairs], dtype=np.intp),
            np.array([q for _, q in pairs], dtype=np.intp),
        ))
        ring = ring[-1:] + ring[:-1]
    return rounds


def jacobi_eigh(m, rel_tol: float = 1e-12, max_sweeps: int = 100, vectors: bool = True):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    symmetric matrix, by Jacobi rotations in the round-robin ordering of
    Brent and Luk (1985); with ``vectors=False`` only the eigenvalues,
    and no eigenvector updates are made.

    A sweep is n - 1 rounds.  The pairs of a round are disjoint, so their
    rotations commute and one vectorised step applies them all: it is the
    same as applying them one after another.  A rotation whose
    off-diagonal entry is at most rel_tol * scale / n^2 is skipped.
    Convergence is reached when the off-diagonal Frobenius norm is at
    most rel_tol times the entry scale of the input; it is tested before
    every sweep and once after the last.  Raises ArithmeticError if
    max_sweeps sweeps do not converge (symmetric input always converges
    long before that).
    """
    if max_sweeps < 0:
        raise ValueError("max_sweeps must be nonnegative")
    a = sym_part(m)
    n = a.shape[0]
    v = np.eye(n) if vectors else None
    scale = norm_scale(a)
    skip = rel_tol * scale / max(1, n * n)
    rounds = _round_robin(n)
    for sweep in range(max_sweeps + 1):
        # Summing the squared total and subtracting the diagonal cancels
        # catastrophically near convergence; sum the off-diagonal directly.
        offdiag = a.copy()
        np.fill_diagonal(offdiag, 0.0)
        if math.sqrt(float(np.sum(offdiag * offdiag))) <= rel_tol * scale:
            break
        if sweep == max_sweeps:
            raise ArithmeticError("Jacobi iteration did not converge")
        for p, q in rounds:
            apq = a[p, q]
            big = np.abs(apq) > skip
            p, q, apq = p[big], q[big], apq[big]
            if not p.size:
                continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            # Advanced indexing copies, so each right-hand side reads the
            # entries from before this round's update.
            cr, sr = c[:, None], s[:, None]
            rp, rq = a[p], a[q]
            a[p] = cr * rp - sr * rq
            a[q] = sr * rp + cr * rq
            cp, cq = a[:, p], a[:, q]
            a[:, p] = cp * c - cq * s
            a[:, q] = cp * s + cq * c
            if vectors:
                vp, vq = v[:, p], v[:, q]
                v[:, p] = vp * c - vq * s
                v[:, q] = vp * s + vq * c
    vals = a.diagonal().copy()
    order = np.argsort(vals, kind="stable")
    if not vectors:
        return vals[order]
    return vals[order], v[:, order]


def eigenvalues(m) -> np.ndarray:
    return jacobi_eigh(m, vectors=False)


def mu(m, l: int) -> float:
    """Sum of the l smallest eigenvalues; concave in the matrix."""
    a = sym_part(m)
    n = a.shape[0]
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= {n}")
    if l == 0:
        return 0.0
    return float(np.sum(eigenvalues(a)[:l]))


def psd_check(m, tol: float = 1e-9) -> bool:
    """True when the smallest eigenvalue clears -tol times the entry
    scale."""
    a = sym_part(m)
    if a.shape[0] == 0:
        return True
    return float(eigenvalues(a)[0]) >= -tol * norm_scale(a)


@dataclass(frozen=True)
class DualCertificate:
    """Witness for a lower bound on mu_l: a shift z and a matrix zmat with
    zmat PSD and Y + zmat - z*I PSD, giving mu_l(Y) >= l*z - tr(zmat)
    up to the checker's slack."""

    l: int
    z: float
    zmat: Tuple[Tuple[float, ...], ...]

    @property
    def bound(self) -> float:
        return self.l * self.z - float(np.trace(np.array(self.zmat)))


def dual_from_eigs(m, l: int) -> DualCertificate:
    """The certificate attaining mu_l exactly: z is the l-th smallest
    eigenvalue and zmat collects the deficits of the eigenvalues below
    it."""
    a = sym_part(m)
    n = a.shape[0]
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= {n}")
    vals, vecs = jacobi_eigh(a)
    z = float(vals[l - 1])
    deficits = np.maximum(0.0, z - vals)
    zmat = (vecs * deficits) @ vecs.T
    zmat = (zmat + zmat.T) / 2.0
    return DualCertificate(l=l, z=z, zmat=tuple(tuple(float(x) for x in row) for row in zmat))


def check_dual(m, cert: DualCertificate, tol: float = 1e-9):
    """Validate a dual certificate against Y and return
    (accepted, certified_bound, slack).

    Acceptance checks both PSD conditions to within -tol*scale; the
    certified statement is then mu_l(Y) >= bound - slack with
    slack = n * tol * scale.
    """
    y = sym_part(m)
    n = y.shape[0]
    if cert.l < 1 or cert.l > n:
        return False, -math.inf, 0.0
    zmat = sym_part(np.array(cert.zmat))
    if zmat.shape != y.shape:
        return False, -math.inf, 0.0
    scale = max(norm_scale(y), norm_scale(zmat), abs(cert.z), 1.0)
    slack = n * tol * scale
    ok_z = float(eigenvalues(zmat)[0]) >= -tol * scale
    shifted = y + zmat - cert.z * np.eye(n)
    ok_shift = float(eigenvalues(shifted)[0]) >= -tol * scale
    return ok_z and ok_shift, cert.bound, slack


@dataclass(frozen=True)
class OuterApproxCertificate:
    """Result of vertex certification: the claimed rank bound holds for
    every matrix in the convex hull of the supplied vertices, provided the
    solution set is contained in that hull (an input assumption this
    module records but cannot check)."""

    r: int
    l: int
    vertex_mu: Tuple[float, ...]
    threshold: float
    margin: float
    accepted: bool

    @property
    def certified_lower_bound(self) -> int:
        return self.r + 1 if self.accepted else 0


def certify_minrank(vertices: Sequence, r: int, tol: float = 1e-9) -> OuterApproxCertificate:
    """Certify rank > r for every matrix in the hull of the given
    symmetric vertices.

    Uses l = n - r: a positive mu_l forces more than r nonzero
    eigenvalues, and concavity of mu_l pins its hull minimum to a vertex.
    Accepts when every vertex value exceeds n * tol * scale.
    """
    return _certify_blocks([(sym_part(v),) for v in vertices], r, tol)


def certify_brank(pair_vertices: Sequence, r: int, tol: float = 1e-9) -> OuterApproxCertificate:
    """Same certification for pair solutions (P, N): the summed rank is
    the rank of the block-diagonal embedding diag(P, N), so the vertices
    are certified at twice the size.  The embedding is never built: its
    spectrum is the union of the two blocks' spectra."""
    blocks = []
    for pair in pair_vertices:
        if len(pair) != 2:
            raise ValueError(f"a pair vertex must hold exactly two blocks, got {len(pair)}")
        a, b = sym_part(pair[0]), sym_part(pair[1])
        if a.shape != b.shape:
            raise ValueError("pair blocks must share one size")
        blocks.append((a, b))
    return _certify_blocks(blocks, r, tol)


def _certify_blocks(vertices, r: int, tol: float) -> OuterApproxCertificate:
    """Vertex certification of block-diagonal vertices, each given as the
    tuple of its symmetric diagonal blocks.  mu_l of a vertex is the sum
    of the l smallest eigenvalues of its blocks, merged; n, the entry
    scale and the threshold are those of the whole vertex."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if not vertices:
        raise ValueError("need at least one vertex")
    sizes = {sum(a.shape[0] for a in blocks) for blocks in vertices}
    if len(sizes) != 1:
        raise ValueError("vertices must share one size")
    n = sizes.pop()
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < {n}")
    l = n - r
    scale = max(norm_scale(a) for blocks in vertices for a in blocks)
    threshold = n * tol * scale
    vertex_mu = tuple(
        float(np.sum(np.sort(np.concatenate([eigenvalues(a) for a in blocks]))[:l]))
        for blocks in vertices
    )
    margin = min(vertex_mu) - threshold
    return OuterApproxCertificate(
        r=r, l=l, vertex_mu=vertex_mu, threshold=threshold,
        margin=margin, accepted=margin > 0,
    )


def certificate_to_json(cert: OuterApproxCertificate) -> dict:
    return {
        "r": cert.r,
        "l": cert.l,
        "vertex_mu": list(cert.vertex_mu),
        "threshold": cert.threshold,
        "margin": cert.margin,
        "accepted": cert.accepted,
        "certified_lower_bound": cert.certified_lower_bound,
        "assumes_hull_containment": True,
    }


def dual_to_json(cert: DualCertificate) -> dict:
    return {
        "l": cert.l,
        "z": cert.z,
        "zmat": [list(row) for row in cert.zmat],
        "bound": cert.bound,
    }


def dual_from_json(obj) -> DualCertificate:
    return DualCertificate(
        l=int(obj["l"]),
        z=float(obj["z"]),
        zmat=tuple(tuple(float(x) for x in row) for row in obj["zmat"]),
    )
