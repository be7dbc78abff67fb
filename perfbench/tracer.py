"""Spans around birank's public functions, installed from outside at run time.

``install()`` replaces each target function with a wrapper that records a
span (name, start, end, parent span, job id, whether an exception crossed
it, and sizes taken from its arguments or result).  No file of the
program changes.  Two details matter:

* a function bound elsewhere by ``from ... import`` is replaced under
  every name in every birank module that refers to it (for example
  ``rankmin.rank_exact`` and ``permhess.signature_exact``);
* class attributes that alias a method (``Polynomial.__rmul__`` is
  ``__mul__``) are replaced together with it.

Targets missing from the program are skipped and listed by ``install``,
so the tracer keeps working when a later version renames a function.
"""

import importlib
import sys
from time import perf_counter


def _n_of(args, kwargs, result):
    m = args[0] if args else kwargs.get("m")
    shape = getattr(m, "shape", None)
    return {"n": shape[0] if shape else len(m)}


def _system_sizes(args, kwargs, result):
    n, blocks = result.size, (2 if result.pair else 1)
    per_block = n * (n + 1) // 2 if result.symmetric else n * n
    return {"equations": len(result.equations), "unknowns": blocks * per_block}


# (module, attribute path, span name, sizes(args, kwargs, result) or None)
TARGETS = [
    ("cli", "main", "cli.main", None),
    # Canonical JSON is ASCII, so characters are bytes.
    ("cli", "canonical_json", "cli.emit", lambda a, k, r: {"bytes": len(r)}),
    ("polyring", "Polynomial.__mul__", "polyring.mul", None),
    ("polyring", "Polynomial.__add__", "polyring.add", None),
    ("polyring", "poly_to_json", "polyring.json", None),
    ("polyring", "poly_from_json", "polyring.json", None),
    ("exactla", "rank_exact", "exactla.rank", None),
    ("exactla", "signature_exact", "exactla.signature", None),
    ("exactla", "solve_linear", "exactla.solve", None),
    ("exactla", "AffineMatrixPoly.det_polynomial", "exactla.leibniz", None),
    ("exactla", "singular_normal_form", "exactla.normal_form", None),
    ("permhess", "permanent_exact", "permhess.permanent", None),
    ("permhess", "hessian_perm_fast", "permhess.hessian_matrix", None),
    ("permhess", "hessian_report", "permhess.report", None),
    ("abpdec", "decompose_det_part", "abpdec.construct", lambda a, k, r: {"pairs": len(r.pairs)}),
    ("abpdec", "det_lambda_part", "abpdec.verify_target", None),
    ("abpdec", "BiDecomposition.build", "abpdec.verify_build", None),
    ("abpdec", "pipeline_pair_bound", "abpdec.pair_bound", lambda a, k, r: {"pair_bound": r}),
    ("rankmin", "build_affine_system", "rankmin.build", _system_sizes),
    ("rankmin", "build_sym_system", "rankmin.build", _system_sizes),
    ("rankmin", "build_psd_pair_system", "rankmin.build", _system_sizes),
    ("rankmin", "build_z2k", "rankmin.build", _system_sizes),
    ("rankmin", "minrank_interval", "rankmin.interval",
     lambda a, k, r: {"free_dimension": r.free_dimension}),
    ("rankmin", "system_to_json", "rankmin.json", None),
    ("certify", "jacobi_eigh", "certify.jacobi", _n_of),
    ("certify", "certify_minrank", "certify.certify", None),
    ("certify", "certify_brank", "certify.certify", None),
]


def _measure(sizes, args, kwargs, result):
    # A later program version may change a result's shape; the span stays.
    try:
        return sizes(args, kwargs, result)
    except (AttributeError, TypeError, IndexError):
        return None


class Tracer:
    """Keeps every span in memory; ``job`` tags the spans that follow."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    def wrap(self, name, fn, sizes):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter()
                stack.pop()
                extra = _measure(sizes, args, kwargs, result) if sizes and not error else None
                spans[index] = (name, start, end, parent, self.job, error, extra)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target; returns the targets the program lacks."""
        for module_name in sorted({t[0] for t in TARGETS}):
            try:
                importlib.import_module(f"birank.{module_name}")
            except ImportError:
                pass
        modules = [m for key, m in sys.modules.items() if key.startswith("birank") and m]
        missing = []
        for module_name, path, name, sizes in TARGETS:
            module = sys.modules.get(f"birank.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, sizes))
            else:
                wrapped = self.wrap(name, raw, sizes)
            holders = [owner] if owner_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        setattr(holder, key, wrapped)
        return missing
