"""Exact workbench for bi-polynomial rank and determinantal-complexity bounds.

The package is organized in layers: `polyring` (exact sparse polynomials),
`exactla` (rational matrices, signatures, affine normal forms), `permhess`
(permanent Hessians at the singular expansion point), `rankmin` (Gram
constraint systems and minrank intervals), `abpdec` (clow-sequence
determinant programs and certified product-sum decompositions), `certify`
(floating-point eigenvalue certificates), and `cli`.

numpy is loaded only when `certify` runs: the certify names below
(certify_brank, certify_minrank, jacobi_eigh, mu) import it on first
access, so the exact layers and every other subcommand start without it.

Symbolic and exponential routes kept only as references for the tests
live in tests/*_oracle.py, not in the package.
"""

from birank.abpdec import (
    BiDecomposition,
    char_coefficients,
    dc_lower_bound,
    dc_sqrt_bound,
    decompose_from_representation,
    generic_birank_floor,
)
from birank.exactla import (
    AffineMatrixPoly,
    ExactMatrix,
    Signature,
    rank_exact,
    signature_exact,
    singular_normal_form,
)
from birank.permhess import hessian_report, perm_zero_point
from birank.polyring import (
    Polynomial,
    det_poly,
    homogeneous_part,
    monomial_index_set,
    perm_poly,
    point,
    shift,
)
from birank.rankmin import (
    ConstraintSystem,
    build_affine_system,
    build_psd_pair_system,
    build_sym_system,
    build_z2k,
    minrank_interval,
)

# Module __getattr__ (PEP 562): see the docstring on when numpy loads.
_CERTIFY_NAMES = frozenset(("certify_brank", "certify_minrank", "jacobi_eigh", "mu"))


def __getattr__(name):
    if name in _CERTIFY_NAMES:
        from birank import certify

        return getattr(certify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AffineMatrixPoly",
    "BiDecomposition",
    "ConstraintSystem",
    "ExactMatrix",
    "Polynomial",
    "Signature",
    "build_affine_system",
    "build_psd_pair_system",
    "build_sym_system",
    "build_z2k",
    "certify_brank",
    "certify_minrank",
    "char_coefficients",
    "dc_lower_bound",
    "dc_sqrt_bound",
    "decompose_from_representation",
    "det_poly",
    "generic_birank_floor",
    "hessian_report",
    "homogeneous_part",
    "jacobi_eigh",
    "minrank_interval",
    "monomial_index_set",
    "mu",
    "perm_poly",
    "perm_zero_point",
    "point",
    "rank_exact",
    "shift",
    "signature_exact",
    "singular_normal_form",
]
