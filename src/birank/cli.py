"""Command-line front end.

Subcommands wire the library pipelines into scriptable JSON reports:

  hessian         exact rank/signature report for the permanent's Hessian
  build           emit a Gram constraint system (xp, sym, psd-pair, z2k)
  decompose       bi-homogeneous decomposition from a determinantal
                  representation, with the pair-count bound report
  mv-det          characteristic-coefficient polynomials of a linear matrix
  brank-interval  certified rank interval over a constraint system
  certify         vertex certification of a rank lower bound (exit 2 on
                  a rejected certificate)
  bounds          determinantal-complexity bound calculators

All output is canonical JSON, so identical inputs and seeds produce
byte-identical files.  The canonical text is defined as
json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
plus a newline: one line, sorted keys, no NaN or infinity.  Exit codes: 0
success or accepted certificate, 2 rejected certificate, 1 any error.

Output is written in pieces, each list item from one call of the stdlib's
C encoder, and a system's equations are an iterator, made from its
anti-chain rule as they are written, so the 2.6 MB z2k system is never
held as terms or as one text.  The --out file is opened only once the
text before the first iterator's items, and their first batch, have been
encoded: a report, which holds no iterator, writes nothing if it fails to
encode.  A failure in a later batch leaves a truncated --out file (or
stdout) and exits 1; the equations hold no floats.

Only certify computes in floating point, so numpy is loaded only when
certify runs: its handler imports birank.certify, and no other
subcommand imports numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, islice
from typing import Tuple

from birank import abpdec, exactla, permhess, polyring, rankmin


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through our own error
    # handling so usage problems exit 1 and code 2 stays reserved for
    # rejected certificates.
    def error(self, message):
        raise UsageError(message)


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
# Pieces of text written out by _emit together, about 26 kB of z2k
# equations: _emit holds one batch of text, and the C encoder one item.
_BATCH = 128
# The empty piece that _pieces yields before the items of an iterator.
_STREAM = ""


def canonical_json(obj) -> str:
    """The canonical text of obj: json.dumps(obj, sort_keys=True,
    separators=(",", ":"), allow_nan=False) plus a newline.  Unlike
    json.dumps, it also writes an iterator, as a list."""
    return "".join(_pieces(obj)) + "\n"


def _pieces(obj) -> Iterator[str]:
    """The canonical text of obj, less its newline, in pieces.  A dict is
    walked in sorted key order and a list, tuple or iterator item by item;
    each item, and each other value, is one call of the C encoder."""
    if isinstance(obj, dict):
        sep = "{"
        for key, value in sorted(obj.items()):
            # json writes int, float, bool and None keys as strings.
            yield sep + _ENCODE({key: None})[1:-5]
            yield from _pieces(value)
            sep = ","
        yield "{}" if sep == "{" else "}"
    elif isinstance(obj, (list, tuple, Iterator)):
        if isinstance(obj, Iterator):
            yield _STREAM
        sep = "["
        for item in obj:
            yield sep + _ENCODE(item)
            sep = ","
        yield "[]" if sep == "[" else "]"
    else:
        yield _ENCODE(obj)


def _emit(obj, out_path) -> None:
    """Write the canonical text of obj to the file out_path, or to stdout.
    The first write holds the text up to the items of the first iterator
    in obj and _BATCH pieces more; each later write holds _BATCH pieces.
    The file is opened at the first write, so an object without an
    iterator, such as a report, that fails to encode writes nothing."""
    pieces = chain(_pieces(obj), ("\n",))
    # iter() stops at the first _STREAM piece, or at the end of pieces.
    text = "".join(chain(iter(pieces.__next__, _STREAM), islice(pieces, _BATCH)))
    file = open(out_path, "w") if out_path else sys.stdout
    try:
        while text:
            file.write(text)
            text = "".join(islice(pieces, _BATCH))
    finally:
        if out_path:
            file.close()


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=polyring.int_from_json)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}")
    except RecursionError:
        raise UsageError(f"cannot read JSON from {path}: nested too deeply")


def _integer(text: str) -> int:
    """The argparse type of every integer option: int(text), refused above
    polyring.MAX_DIGITS digits like integer input."""
    try:
        return polyring.int_from_json(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _point(text: str) -> Tuple[Fraction, ...]:
    """The argparse type of --x0: comma-separated rationals as Fraction()
    reads them, each with a numerator and a denominator of at most
    polyring.MAX_DIGITS digits.  The text of each, and its exponent, are
    capped before it is read, so that reading stays cheap."""
    too_long = argparse.ArgumentTypeError(
        f"a coordinate has more than {polyring.MAX_DIGITS} digits, the cap on integer input"
    )
    coords = []
    for part in text.split(","):
        mantissa, _, exponent = part.strip().lower().partition("e")
        if len(mantissa) > 2 * polyring.MAX_DIGITS + 2 or len(exponent) > 5:
            raise too_long
        try:
            value = Fraction(part)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad point: {exc}")
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"bad point: rational {part.strip()} has a zero denominator")
        if max(abs(value.numerator), value.denominator) >= 10 ** polyring.MAX_DIGITS:
            raise too_long
        coords.append(value)
    return tuple(coords)


def _degrees(text: str) -> Tuple[int, ...]:
    """The argparse type of --degrees: comma-separated nonnegative
    integers, each read like integer input."""
    try:
        out = tuple(polyring.int_from_json(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree list: {exc}")
    if any(v < 0 for v in out):
        raise argparse.ArgumentTypeError("degrees must be nonnegative")
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each validates its ranges before any heavy work.


# The report costs about 0.2 ms at any d, so its cap is the range the
# acceptance gate checks d by d.  The matrix has d^4 entries: 258 kB at 10.
HESSIAN_MAX_D = 1000
HESSIAN_MATRIX_MAX_D = 10


def cmd_hessian(args: argparse.Namespace) -> int:
    if args.d < 2:
        raise UsageError("hessian needs --d at least 2")
    if args.d > HESSIAN_MAX_D:
        raise UsageError(f"hessian --d {args.d} is too large: the cap is {HESSIAN_MAX_D}")
    if args.include_matrix and args.d > HESSIAN_MATRIX_MAX_D:
        raise UsageError(
            f"--include-matrix at --d {args.d} is too large: the cap is {HESSIAN_MATRIX_MAX_D}"
        )
    report = permhess.hessian_report(args.d)
    obj = permhess.report_to_json(report)
    if args.include_matrix:
        obj["matrix"] = exactla.matrix_to_json(permhess.hessian_blocks(args.d))
    _emit(obj, args.out_path)
    return 0


def _load_poly(args: argparse.Namespace) -> polyring.Polynomial:
    if not args.poly_path:
        raise UsageError(f"--kind {args.kind} needs --poly FILE")
    return polyring.poly_from_json(_load_json(args.poly_path))


_GRAM_BUILDERS = {
    "xp": rankmin.build_affine_system,
    "sym": rankmin.build_sym_system,
    "psd-pair": rankmin.build_psd_pair_system,
}


def cmd_build(args: argparse.Namespace) -> int:
    if args.kind in _GRAM_BUILDERS:
        p = _load_poly(args)
        if p.degree() > 0 and p.is_homogeneous():
            k = p.degree() // 2
            size = polyring.monomial_count(p.num_vars, max(k, 1))
            if size > 60:
                raise UsageError(f"basis of {size} monomials is too large to build: the cap is 60")
        cs = _GRAM_BUILDERS[args.kind](p)
    elif args.kind == "z2k":
        if args.d is None or args.k is None:
            raise UsageError("--kind z2k needs --d and --k")
        if args.d < 2 or args.k < 1:
            raise UsageError("z2k needs --d at least 2 and --k at least 1")
        count = math.comb((args.d - 1) ** 2, 2 * args.k) if args.d > 2 * args.k else 0
        if count > 200000:
            raise UsageError(f"z2k system of {count} equations is too large: the cap is 200000")
        cs = rankmin.build_z2k(args.d, args.k)
    else:
        raise UsageError(f"unknown build kind {args.kind!r}")
    _emit(rankmin.system_to_json(cs), args.out_path)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.k < 1 or args.k > 3:
        raise UsageError("decompose supports --k between 1 and 3")
    a = exactla.affine_from_json(_load_json(args.matrix_path))
    if a.n > 10:
        raise UsageError("decompose supports matrices up to size 10")
    if len(args.x0) != a.num_vars:
        raise UsageError(f"--x0 needs {a.num_vars} coordinates")
    result = abpdec.decompose_from_representation(a, args.x0, args.k)
    obj = {
        "n": result.n,
        "num_vars": result.num_vars,
        "k": result.half_degree,
        "constant_rank": result.constant_rank,
        "pair_count": result.pair_count,
        "pair_bound": result.pair_bound,
        "decomposition": abpdec.decomposition_to_json(result.decomposition),
    }
    _emit(obj, args.out_path)
    return 0


def cmd_mv_det(args: argparse.Namespace) -> int:
    a = exactla.affine_from_json(_load_json(args.matrix_path))
    if a.n > 6:
        raise UsageError("mv-det supports matrices up to size 6")
    degrees = args.degrees or range(a.n + 1)
    if any(v > a.n for v in degrees):
        raise UsageError(f"coefficient degrees run from 0 to {a.n}")
    coeffs = abpdec.char_coefficients(a, list(degrees))
    obj = {
        "n": a.n,
        "coefficients": {str(k): polyring.poly_to_json(v) for k, v in coeffs.items()},
    }
    _emit(obj, args.out_path)
    return 0


def cmd_brank_interval(args: argparse.Namespace) -> int:
    if args.budget < 0:
        raise UsageError("--budget must be nonnegative")
    p = polyring.poly_from_json(_load_json(args.poly_path))
    kind = args.kind or "xp"
    if kind not in _GRAM_BUILDERS:
        raise UsageError(f"unknown system kind {kind!r}")
    if p.is_zero() or not p.is_homogeneous() or p.degree() % 2 or p.degree() == 0:
        raise UsageError("brank-interval needs a nonzero homogeneous form of even degree")
    size = polyring.monomial_count(p.num_vars, p.degree() // 2)
    if size > 20:
        raise UsageError(f"monomial basis of {size} is too large for the interval search: the cap is 20")
    cs = _GRAM_BUILDERS[kind](p)
    if args.export_cs:
        _emit(rankmin.system_to_json(cs), args.export_cs)
    interval = rankmin.minrank_interval(cs, budget=args.budget, seed=args.seed)
    obj = {
        "kind": kind,
        "lower": interval.lower,
        "upper": interval.upper,
        "lower_method": interval.lower_method,
        "upper_method": interval.upper_method,
        "free_dimension": interval.free_dimension,
    }
    _emit(obj, args.out_path)
    return 0


# json.load reads a JSON number as an int or a float.  Strings and
# booleans must be refused here: numpy's float conversion accepts "1" and
# true.
_NUMBERS = frozenset((int, float))
_JSON_KINDS = {str: "a string", bool: "a boolean", dict: "an object", type(None): "null"}


def _non_number(vertices):
    """The JSON kind of a leaf of the nested vertex lists that is not a
    number, or None when every leaf is one.  A list of numbers, such as a
    matrix row, is checked by one set of its types, without a Python loop
    over its entries."""
    stack = [vertices]
    while stack:
        items = stack.pop()
        if set(map(type, items)) <= _NUMBERS:
            continue
        for item in items:
            if type(item) is list:
                stack.append(item)
            elif type(item) not in _NUMBERS:
                return _JSON_KINDS[type(item)]
    return None


def cmd_certify(args: argparse.Namespace) -> int:
    if args.r < 0:
        raise UsageError("--r must be nonnegative")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError("--tol must be finite and nonnegative")
    data = _load_json(args.vertices_path)
    if not isinstance(data, dict) or "vertices" not in data:
        raise UsageError("vertices file must be an object with a 'vertices' list")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise UsageError("vertices list is empty")
    kind = _non_number(vertices)
    if kind is not None:
        raise UsageError(f"bad vertices input: an entry is {kind}, not a number")
    from birank import certify

    try:
        if args.pair:
            cert = certify.certify_brank(vertices, args.r, tol=args.tol)
        else:
            cert = certify.certify_minrank(vertices, args.r, tol=args.tol)
    except (ValueError, TypeError, IndexError) as exc:
        raise UsageError(f"bad vertices input: {exc}")
    _emit(certify.certificate_to_json(cert), args.out_path)
    return 0 if cert.accepted else 2


# The largest --k of a bounds report that birank would read back: at D = 1
# the generic floor's denominator 2 (2k)! / k! passes polyring.MAX_DIGITS
# digits above it, and every D >= 2 overflows a float field before it.
BOUNDS_MAX_K = 1308


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.birank < 0 or args.k < 1 or args.big_d < 1:
        raise UsageError("bounds needs --birank >= 0, --k >= 1, --D >= 1")
    if args.k > BOUNDS_MAX_K:
        raise UsageError(f"bounds needs --k <= {BOUNDS_MAX_K}; above it no --D keeps every field printable")
    overflow = UsageError("bounds needs every float field below the largest float, about 1.8e308")
    # Sure overflows, refused before the powers: b and D/4 are float fields
    # at k = 1, and past k = 1 the term 2(k-1) D^(k-1) of dc_lower_bound
    # outweighs b / 4^(k-1) for every b whose square root is a float.
    if max(args.birank, args.big_d).bit_length() > 1026 or (args.k - 1) * (args.big_d.bit_length() - 1) >= 1024:
        raise overflow
    lower = abpdec.dc_lower_bound(args.birank, args.k, args.big_d)
    floor = abpdec.generic_birank_floor(args.big_d, args.k)
    try:
        obj = {
            "birank": args.birank,
            "k": args.k,
            "D": args.big_d,
            "dc_lower_bound": polyring.fraction_to_json(lower),
            "dc_lower_bound_float": float(lower),
            "dc_sqrt_bound": abpdec.dc_sqrt_bound(args.birank),
            "generic_floor": polyring.fraction_to_json(floor),
            "generic_floor_float": float(floor),
        }
    except OverflowError:
        raise overflow from None
    _emit(obj, args.out_path)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


def build_parser() -> _Parser:
    parser = _Parser(prog="birank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    def add(name, help_text):
        # Subparsers inherit the _Parser class from the main parser, so
        # their usage errors also route through UsageError.
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", dest="out_path", help="write JSON here instead of stdout")
        return p

    p = add("hessian", "rank/signature report for the permanent's Hessian")
    p.add_argument("--d", type=_integer, required=True, help="matrix size, at least 2")
    p.add_argument(
        "--include-matrix", action="store_true", help="embed the full Hessian entries"
    )

    p = add("build", "emit a Gram constraint system as JSON")
    p.add_argument(
        "--kind", required=True, choices=[*_GRAM_BUILDERS, "z2k"],
        help="system flavor",
    )
    p.add_argument("--poly", dest="poly_path", help="polynomial JSON (xp/sym/psd-pair)")
    p.add_argument("--d", type=_integer, help="matrix size (z2k)")
    p.add_argument("--k", type=_integer, help="half degree (z2k)")

    p = add("decompose", "decompose a determinantal representation's slice")
    p.add_argument("--matrix", dest="matrix_path", required=True, help="affine matrix JSON")
    p.add_argument("--x0", type=_point, required=True, help="comma-separated rational point")
    p.add_argument("--k", type=_integer, required=True, help="half degree of the slice")

    p = add("mv-det", "characteristic-coefficient polynomials of a linear matrix")
    p.add_argument("--matrix", dest="matrix_path", required=True, help="affine matrix JSON")
    p.add_argument("--degrees", type=_degrees, help="comma-separated coefficient indices (default all)")

    p = add("brank-interval", "certified rank interval for a form's Gram systems")
    p.add_argument("--poly", dest="poly_path", required=True, help="polynomial JSON")
    p.add_argument("--kind", choices=list(_GRAM_BUILDERS), help="system flavor")
    p.add_argument("--budget", type=_integer, default=6, help="max free dimension")
    p.add_argument("--seed", type=_integer, default=0, help="seed for random sampling")
    p.add_argument("--export-cs", dest="export_cs", help="also write the system JSON here")

    p = add("certify", "certify a rank lower bound from hull vertices")
    p.add_argument("--vertices", dest="vertices_path", required=True, help="vertices JSON")
    p.add_argument("--r", type=_integer, required=True, help="rank to refute")
    p.add_argument("--tol", type=float, default=1e-9, help="relative tolerance")
    p.add_argument("--pair", action="store_true", help="vertices are (plus, minus) pairs")

    p = add("bounds", "determinantal-complexity bound calculators")
    p.add_argument("--birank", type=_integer, required=True, help="bi-polynomial rank value")
    p.add_argument("--k", type=_integer, required=True, help="half degree")
    p.add_argument("--D", type=_integer, required=True, dest="big_d", help="number of variables")

    return parser


_HANDLERS = {
    "hessian": cmd_hessian,
    "build": cmd_build,
    "decompose": cmd_decompose,
    "mv-det": cmd_mv_det,
    "brank-interval": cmd_brank_interval,
    "certify": cmd_certify,
    "bounds": cmd_bounds,
}


def main(argv=None) -> int:
    # Lift CPython's int/str digit limit (PYTHONINTMAXSTRDIGITS) while main
    # runs, so that no output depends on it; integer inputs have
    # polyring.MAX_DIGITS instead.  An in-process caller gets its limit back.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.subcommand](args)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
