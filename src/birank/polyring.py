"""Exact sparse multivariate polynomials over the rationals.

A polynomial in D variables is stored as a map from exponent tuples of
length D to nonzero Fraction coefficients; x1^2*x2 + 3 in two variables
is {(2, 1): 1, (0, 0): 3}.  The zero polynomial has an empty map.  All
arithmetic is exact.

Listings and serialized term orders use graded lexicographic order:
lower total degree first, and inside a degree block the monomial with
more weight on earlier variables first, so for two variables at degree
two the order is x1^2, x1*x2, x2^2.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Tuple

Exponent = Tuple[int, ...]
Point = Tuple[Fraction, ...]


def as_fraction(value) -> Fraction:
    """Coerce int, str ('2/3'), or Fraction to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def point(values: Iterable) -> Point:
    return tuple(as_fraction(v) for v in values)


def grlex_key(exps: Exponent):
    """Sort key realizing graded lexicographic order, ascending."""
    return (sum(exps), tuple(-e for e in exps))


class Polynomial:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=None):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent tuple {exps} has wrong length for {num_vars} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = as_fraction(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, num_vars: int, terms: dict) -> "Polynomial":
        """Wrap terms that arithmetic on valid polynomials produced: their
        exponents and Fraction coefficients need no validation, and only
        zero coefficients are dropped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "num_vars", num_vars)
        object.__setattr__(poly, "terms", {e: c for e, c in terms.items() if c})
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value) -> "Polynomial":
        return cls(num_vars, {(0,) * num_vars: as_fraction(value)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        """The monomial x_index, 0-based."""
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls(num_vars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, num_vars: int, exps: Exponent, coeff=1) -> "Polynomial":
        return cls(num_vars, {tuple(exps): as_fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def _check_same_ring(self, other: "Polynomial"):
        if self.num_vars != other.num_vars:
            raise ValueError(f"variable count mismatch: {self.num_vars} vs {other.num_vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.num_vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        acc = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc[exps] = acc.get(exps, Fraction(0)) + coeff
        return Polynomial._trusted(self.num_vars, acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.num_vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            factor = as_fraction(other)
            return Polynomial._trusted(self.num_vars, {e: c * factor for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return Polynomial._trusted(self.num_vars, acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __repr__(self):
        if self.is_zero():
            return f"Polynomial({self.num_vars}, 0)"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e)
            parts.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return f"Polynomial({self.num_vars}, {' + '.join(parts)})"

    def eval(self, pt: Point) -> Fraction:
        if len(pt) != self.num_vars:
            raise ValueError(f"point has {len(pt)} coordinates, expected {self.num_vars}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for base, e in zip(pt, exps):
                if e:
                    value *= base ** e
            total += value
        return total


def shift(p: Polynomial, x0: Point) -> Polynomial:
    """The shifted polynomial q(x) = p(x + x0), expanded exactly."""
    if len(x0) != p.num_vars:
        raise ValueError(f"point has {len(x0)} coordinates, expected {p.num_vars}")
    x0 = point(x0)
    acc = {}
    for exps, coeff in p.terms.items():
        # Expand the product over variables of (x_l + a_l)^{e_l}.
        partial = {exps: coeff}
        for l, e in enumerate(exps):
            if e == 0 or x0[l] == 0:
                continue
            expanded = {}
            powers = [x0[l] ** (e - j) for j in range(e + 1)]
            for prev_exps, prev_coeff in partial.items():
                for j in range(e + 1):
                    key = prev_exps[:l] + (j,) + prev_exps[l + 1:]
                    term = prev_coeff * math.comb(e, j) * powers[j]
                    expanded[key] = expanded.get(key, Fraction(0)) + term
            partial = expanded
        for key, value in partial.items():
            acc[key] = acc.get(key, Fraction(0)) + value
    return Polynomial(p.num_vars, acc)


def homogeneous_part(p: Polynomial, k: int) -> Polynomial:
    """The degree-k homogeneous component of p."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return Polynomial(p.num_vars, {e: c for e, c in p.terms.items() if sum(e) == k})


def perm_poly(d: int) -> Polynomial:
    """Permanent of a d x d matrix of variables, d! monomials with coefficient 1."""
    if d < 1:
        raise ValueError("d must be positive")
    num_vars = d * d
    acc = {}
    for perm in itertools.permutations(range(d)):
        exps = [0] * num_vars
        for i in range(d):
            exps[i * d + perm[i]] = 1
        acc[tuple(exps)] = Fraction(1)
    return Polynomial(num_vars, acc)


def det_poly(n: int) -> Polynomial:
    """Determinant of an n x n matrix of variables, with permutation signs."""
    if n < 1:
        raise ValueError("n must be positive")
    num_vars = n * n
    acc = {}
    for perm in itertools.permutations(range(n)):
        exps = [0] * num_vars
        for i in range(n):
            exps[i * n + perm[i]] = 1
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        acc[tuple(exps)] = Fraction(-1 if inversions % 2 else 1)
    return Polynomial(num_vars, acc)


def monomial_count(num_vars: int, k: int) -> int:
    """Number of degree-k monomials in num_vars variables."""
    if num_vars < 1 or k < 0:
        raise ValueError("need num_vars >= 1 and k >= 0")
    return math.comb(num_vars + k - 1, k)


def monomial_index_set(num_vars: int, k: int) -> list:
    """All exponent tuples of total degree k, in graded lexicographic order."""
    if num_vars < 1 or k < 0:
        raise ValueError("need num_vars >= 1 and k >= 0")
    out = []

    def rec(prefix, remaining_vars, remaining_deg):
        if remaining_vars == 1:
            out.append(prefix + (remaining_deg,))
            return
        for e in range(remaining_deg, -1, -1):
            rec(prefix + (e,), remaining_vars - 1, remaining_deg - e)

    rec((), num_vars, k)
    return out


def _greedy_divisor(exps: Exponent, m: int) -> Exponent:
    # Front-load degree m onto the earliest variables; this is the graded-lex
    # smallest divisor under the listing order used everywhere else.
    left = m
    out = []
    for e in exps:
        take = min(e, left)
        out.append(take)
        left -= take
    if left:
        raise ValueError(f"monomial {exps} has degree below {m}")
    return tuple(out)


def split_terms(terms, m: int) -> list:
    """Group (exponents, coefficient) terms of degree >= m by their greedy
    degree-m divisor: [(divisor, {cofactor exponents: coefficient})],
    divisors in graded-lex order.  The coefficients pass through untouched,
    so integer and Fraction terms split alike."""
    groups = {}
    for exps, coeff in terms:
        div = _greedy_divisor(exps, m)
        rest = tuple(a - b for a, b in zip(exps, div))
        groups.setdefault(div, {})[rest] = coeff
    return [(div, groups[div]) for div in sorted(groups, key=grlex_key)]


# ---------------------------------------------------------------------------
# JSON serialization.  Rationals are {"num": str, "den": str} in lowest terms
# with positive denominator; term lists are sorted graded-lex.

def fraction_to_json(value: Fraction) -> dict:
    value = as_fraction(value)
    return {"num": str(value.numerator), "den": str(value.denominator)}


# The most digits birank reads in one integer: int() of a decimal string is
# quadratic in its length.  On CPython 3.11 (x86-64) 4,300 digits take 0.13
# ms, 29 ns a digit, and 10^5 digits 57 ms.  The value is CPython's default
# limit, which the CLI lifts so that the interpreter's setting changes no output.
MAX_DIGITS = 4300


def int_from_json(value) -> int:
    """An integer field of JSON input, an int or a decimal string of at most
    MAX_DIGITS digits; the CLI's json.load reads every integer through it.
    Floats and booleans are refused: int() would truncate 2.5 to 2."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an integer: {value!r}")
    if isinstance(value, str) and len(value.strip().lstrip("+-")) > MAX_DIGITS:
        raise ValueError(f"an integer has more than {MAX_DIGITS} digits, the cap on integer input")
    return int(value)


def rational_from_json(num, den) -> Fraction:
    """The rational num/den of JSON input, each an integer field."""
    num, den = int_from_json(num), int_from_json(den)
    if den == 0:
        raise ValueError(f"rational {num}/{den} has a zero denominator")
    return Fraction(num, den)


def fraction_from_json(obj) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise ValueError(f"not a rational object: {obj!r}")
    return rational_from_json(obj["num"], obj["den"])


def poly_to_json(p: Polynomial) -> dict:
    terms = []
    for exps, coeff in p.sorted_terms():
        entry = {"exp": list(exps)}
        entry.update(fraction_to_json(coeff))
        terms.append(entry)
    return {"num_vars": p.num_vars, "terms": terms}


def poly_from_json(obj) -> Polynomial:
    if not isinstance(obj, dict) or "num_vars" not in obj or "terms" not in obj:
        raise ValueError("polynomial object needs 'num_vars' and 'terms'")
    num_vars = int_from_json(obj["num_vars"])
    acc = {}
    for entry in obj["terms"]:
        exps = tuple(int_from_json(e) for e in entry["exp"])
        coeff = rational_from_json(entry["num"], entry["den"])
        if exps in acc:
            raise ValueError(f"duplicate exponent {exps} in polynomial input")
        acc[exps] = coeff
    return Polynomial(num_vars, acc)
