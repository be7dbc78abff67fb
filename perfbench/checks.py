"""Output checks against references that do not come from the code under test.

Each check reads named fields of one job's JSON output and returns a list
of problems (empty when the output is right).  Fields the checks do not
name are ignored, so outputs may gain provenance fields without failing.
"""

import math
from fractions import Fraction

import exact


def _hessian(spec, out):
    d = spec["d"]
    problems = []
    if out.get("d") != d:
        problems.append(f"d is {out.get('d')!r}, expected {d}")
    if out.get("rank") != d * d:
        problems.append(f"rank is {out.get('rank')!r}, expected {d * d}")
    expected = [2 * (d - 1), (d - 1) ** 2 + 1, 0]
    if out.get("signature") != expected:
        problems.append(f"signature is {out.get('signature')!r}, expected {expected}")
    return problems


def _homogeneous_of_degree(poly, k):
    return all(sum(term["exp"]) == k for term in poly["terms"])


def _decompose(spec, out):
    n, k, corank = spec["n"], spec["k"], spec["corank"]
    problems = []
    for field, expected in (("n", n), ("num_vars", spec["num_vars"]), ("k", k),
                            ("constant_rank", n - corank)):
        if out.get(field) != expected:
            problems.append(f"{field} is {out.get(field)!r}, expected {expected}")
    bound = 4 ** (k - 1) * (n + 2 * (k - 1) * spec["num_vars"] ** (k - 1))
    if out.get("pair_bound") != bound:
        problems.append(f"pair_bound is {out.get('pair_bound')!r}, expected {bound}")
    pairs = out.get("decomposition", {}).get("pairs", [])
    if out.get("pair_count") != len(pairs):
        problems.append(f"pair_count {out.get('pair_count')!r} differs from {len(pairs)} pairs")
    if len(pairs) > bound:
        problems.append(f"{len(pairs)} pairs exceed the bound {bound}")
    if not all(_homogeneous_of_degree(p[side], k) for p in pairs for side in ("f", "g")):
        problems.append(f"a factor is not homogeneous of degree {k}")
        return problems
    # At each point y: sum_i f_i(y) g_i(y) = [t^2k] det(C + t * sum_l y_l M_l),
    # since Q(x0 + t y) = C + t sum_l y_l M_l.  det has degree <= n in t, so
    # n + 1 values of t fix it.
    const, coeffs = spec["const"], spec["coeffs"]
    ts = range(n + 1)
    for y in spec["points"]:
        direction = exact.affine_eval([[0] * n for _ in range(n)], coeffs, y)
        values = [exact.det(exact.affine_eval(const, [direction], [t])) for t in ts]
        expected = exact.interpolate(ts, values)[2 * k]
        got = sum(exact.eval_poly_json(p["f"], y) * exact.eval_poly_json(p["g"], y) for p in pairs)
        if got != expected:
            problems.append(f"pair sum at {y} is {got}, expected {expected}")
    return problems


def _z2k(spec, out):
    d, k = spec["d"], spec["k"]
    nv = (d - 1) ** 2
    problems = []
    eqs = out.get("eqs", [])
    basis = out.get("basis", [])
    if len(eqs) != math.comb(nv, 2 * k):
        problems.append(f"{len(eqs)} equations, expected {math.comb(nv, 2 * k)}")
    if len(basis) != math.comb(nv, k) or out.get("n") != len(basis):
        problems.append(f"basis of {len(basis)} (n={out.get('n')!r}), expected {math.comb(nv, k)}")
    if out.get("pair") is not True:
        problems.append("pair is not true")
    bad = sum(1 for eq in eqs for term in eq["terms"] if term[3] not in (0, 1, -1))
    if bad:
        problems.append(f"{bad} coefficients outside {{0, 1, -1}}")
    ones = sum(1 for eq in eqs if eq["rhs"] == {"num": "1", "den": "1"})
    zeros = sum(1 for eq in eqs if eq["rhs"] == {"num": "0", "den": "1"})
    expected_ones = math.comb(d - 1, 2 * k) ** 2 * math.factorial(2 * k)
    if ones != expected_ones or ones + zeros != len(eqs):
        problems.append(f"{ones} equations with rhs 1 and {zeros} with rhs 0, "
                        f"expected {expected_ones} and the rest 0")
    scale = Fraction(-1, 2 * k * math.factorial(d - 2 * k - 1))
    expected_scale = {"num": str(scale.numerator), "den": str(scale.denominator)}
    if out.get("scale") != expected_scale:
        problems.append(f"scale is {out.get('scale')!r}, expected {expected_scale}")
    return problems


def _interval(spec, out):
    nv, k = spec["num_vars"], spec["k"]
    size = math.comb(nv + k - 1, k)
    # Symmetric unknowns minus one independent equation per degree-2k monomial.
    free = size * (size + 1) // 2 - math.comb(nv + 2 * k - 1, 2 * k)
    problems = []
    lower, upper = out.get("lower"), out.get("upper")
    if not (isinstance(lower, int) and isinstance(upper, int) and 0 <= lower <= upper <= size):
        problems.append(f"interval [{lower!r}, {upper!r}] is not within [0, {size}]")
    if out.get("free_dimension") != free:
        problems.append(f"free_dimension is {out.get('free_dimension')!r}, expected {free}")
    if out.get("kind") != "sym":
        problems.append(f"kind is {out.get('kind')!r}, expected 'sym'")
    return problems


def _certify(spec, out):
    problems = []
    for field in ("r", "l", "accepted"):
        if out.get(field) != spec[field]:
            problems.append(f"{field} is {out.get(field)!r}, expected {spec[field]!r}")
    got = out.get("vertex_mu", [])
    expected = [float(Fraction(v)) for v in spec["mu"]]
    tol = 1e-8 * float(Fraction(spec["scale"]))
    if len(got) != len(expected):
        problems.append(f"{len(got)} vertex_mu values, expected {len(expected)}")
    else:
        for i, (g, e) in enumerate(zip(got, expected)):
            if not isinstance(g, (int, float)) or not abs(g - e) <= tol:
                problems.append(f"vertex_mu[{i}] is {g!r}, expected {e} within {tol:.1e}")
    return problems


_CHECKS = {
    "hessian": _hessian,
    "decompose": _decompose,
    "z2k": _z2k,
    "interval": _interval,
    "certify": _certify,
}


def check(spec, out):
    """Problems found in one job's output ``out`` (parsed JSON) for the
    check parameters ``spec``; empty when the output is right."""
    if not isinstance(out, dict):
        return ["output is not a JSON object"]
    try:
        return _CHECKS[spec["kind"]](spec, out)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]
