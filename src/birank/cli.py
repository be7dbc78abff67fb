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
json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) plus a newline;
canonical_json produces exactly those bytes, faster, through the stdlib's
C encoder.  Exit codes: 0 success or accepted certificate, 2 rejected
certificate, 1 any error.

Output is written in chunks, after each batch of records of a list or
iterator, and a system's equations are made from its anti-chain rule as
they are written, so the 12.8 MB z2k system is never held as terms or as
one text.  The --out file is opened only at the first chunk: an object
that fails before it, such as a NaN in a small report, writes nothing.
A failure after it leaves a truncated --out file (or stdout) and exits
1; no subcommand's large output holds floats.

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
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import eq
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


# The item separator of the C encoder below.  ensure_ascii escapes every
# control character inside a string, so in its output _SEP appears only
# between items, and _ITEM, which it never writes, can mark where one item
# of a column ends.
_SEP = "\x00"
_ITEM = "\x01"
_ENCODE = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(_SEP, ": ")).encode
_SCALARS = frozenset((str, int, float, bool, type(None)))
_SEQUENCES = frozenset((list, tuple))
# Records of a record list encoded, and written out by _emit, together:
# about 130 kB of z2k equations.  While it writes a column of z2k terms,
# the C encoder's own peak is about 25 times their compact text (Python
# 3.11: 1.8 MB for 512 equations), so the batch sets the peak of _emit.
_BATCH = 128


def canonical_json(obj) -> str:
    """The canonical text of obj: exactly json.dumps(obj, sort_keys=True,
    indent=2, allow_nan=False) plus a newline.

    Any indent sends json.dumps through its pure-Python encoder.  Here
    Python walks only the containers that hold containers; each list or
    dict of scalars, and each list of non-empty scalar lists, is written
    by one call of the C encoder, whose separators are then replaced by
    the indented ones.  A list of dicts that share one set of str keys is
    written a batch of records at a time, with one encoder call per key.
    """
    out = []
    _write(obj, "\n", out, lambda: None)
    out.append("\n")
    return "".join(out)


def _column(values, newline: str):
    """The canonical texts of values, each starting on the line that
    newline ends, from one call of the C encoder: (opening, texts,
    closing), where values[i] reads opening + texts[i] + closing.  None
    unless values are all scalars, or all non-empty dicts of scalars, all
    non-empty lists of scalars or all non-empty lists of non-empty scalar
    lists."""
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        return "", _ENCODE(values)[1:-1].split(_SEP), ""
    if not all(values):
        return None
    inner = newline + "  "
    # A scalar never ends in "}" or "]", so "}" _SEP "{" and "]" _SEP "["
    # are exactly the separators between two containers.
    if kinds == {dict}:
        if not set(map(type, chain.from_iterable(map(dict.values, values)))) <= _SCALARS:
            return None
        text = _ENCODE(values)[2:-2].replace("}" + _SEP + "{", _ITEM)
        return "{" + inner, text.replace(_SEP, "," + inner).split(_ITEM), newline + "}"
    if not kinds <= _SEQUENCES:
        return None
    items = set(map(type, chain.from_iterable(values)))
    if items <= _SCALARS:
        text = _ENCODE(values)[2:-2].replace("]" + _SEP + "[", _ITEM)
        return "[" + inner, text.replace(_SEP, "," + inner).split(_ITEM), newline + "]"
    if not (items <= _SEQUENCES and all(chain.from_iterable(values))):
        return None
    if not set(map(type, chain.from_iterable(chain.from_iterable(values)))) <= _SCALARS:
        return None
    deeper = inner + "  "
    text = _ENCODE(values)[3:-3].replace("]]" + _SEP + "[[", _ITEM)
    text = text.replace("]" + _SEP + "[", inner + "]," + inner + "[" + deeper).replace(_SEP, "," + deeper)
    return "[" + inner + "[" + deeper, text.split(_ITEM), inner + "]" + newline + "]"


def _write(obj, newline: str, out: list, flush) -> None:
    # newline is "\n" plus the indent of the line that obj starts on.
    # flush is called after each batch of records of a list.
    shape = _column((obj,), newline)
    if shape:
        opening, (text,), closing = shape
        out += opening, text, closing
        return
    inner = newline + "  "
    if isinstance(obj, (list, tuple, Iterator)):
        _write_records(obj, newline, out, flush)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        sep = inner
        for key, value in sorted(obj.items()):
            # json converts int, float, bool and None keys to strings.
            key = encode_basestring_ascii(key) if isinstance(key, str) else _ENCODE({key: None})[1:-7]
            out += sep, key, ": "
            _write(value, inner, out, flush)
            sep = "," + inner
        out += newline, "}"
    else:
        out.append(_ENCODE(obj))


def _write_records(records, newline: str, out: list, flush) -> None:
    """The items of records, a list, tuple or iterator, as a JSON array, a
    batch of _BATCH items at a time.  A batch of records, dicts whose first
    one has only str keys, is followed by a flush, and when all have its
    keys and _column can write every column, it is written column by
    column; any other batch is written item by item."""
    inner = newline + "  "
    sep = "[" + inner
    records = iter(records)
    while batch := list(islice(records, _BATCH)):
        keys = batch[0].keys() if set(map(type, batch)) == {dict} else ()
        dicts = keys and set(map(type, keys)) == {str}
        if not (dicts and all(map(eq, repeat(keys), map(dict.keys, batch)))
                and _write_columns(batch, sep, newline, out)):
            for record in batch:
                out.append(sep)
                _write(record, inner, out, flush)
                sep = "," + inner
        sep = "," + inner
        if dicts:
            flush()
    out.append("[]" if sep[0] == "[" else newline + "]")


def _write_columns(batch, sep: str, newline: str, out: list) -> bool:
    # Record i reads sep_i "{" field key_1 ": " value_1 "," field key_2
    # ... value_m inner "}": the constant texts between the values are
    # shared by every record of the batch.
    inner = newline + "  "
    field = inner + "  "
    parts = [chain((sep + "{",), repeat("," + inner + "{"))]
    closing = ""
    for key in sorted(batch[0]):
        shape = _column([record[key] for record in batch], field)
        if shape is None:
            return False
        opening, texts, after = shape
        parts += repeat(closing + field + encode_basestring_ascii(key) + ": " + opening), texts
        closing = after + ","
    parts.append(repeat(closing[:-1] + inner + "}"))
    out += chain.from_iterable(zip(*parts))
    return True


def _emit(obj, out_path) -> None:
    """Write the canonical text of obj to the file out_path, or to stdout,
    one record batch at a time.  The file is opened at the first write,
    so an object that fails to encode before it writes nothing."""
    out, file = [], None

    def flush():
        nonlocal file
        if file is None:
            file = open(out_path, "w") if out_path else sys.stdout
        file.write("".join(out))
        out.clear()

    try:
        _write(obj, "\n", out, flush)
        out.append("\n")
        flush()
    finally:
        if out_path and file is not None:
            file.close()


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=polyring.int_from_json)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}")
    except RecursionError:
        raise UsageError(f"cannot read JSON from {path}: nested too deeply")


def _parse_point(text: str) -> Tuple[Fraction, ...]:
    coords = []
    for part in text.split(","):
        try:
            coords.append(Fraction(part.strip()))
        except ValueError as exc:
            raise UsageError(f"bad point {text!r}: {exc}")
        except ZeroDivisionError:
            raise UsageError(f"bad point {text!r}: rational {part.strip()} has a zero denominator")
    return tuple(coords)


def _parse_degrees(text: str) -> Tuple[int, ...]:
    try:
        out = tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad degree list {text!r}: {exc}")
    if any(v < 0 for v in out):
        raise UsageError("degrees must be nonnegative")
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each validates its ranges before any heavy work.


# The report costs about 0.2 ms at any d, so its cap is the range the
# acceptance gate checks d by d.  The matrix has d^4 entries: 679 kB at 10.
HESSIAN_MAX_D = 1000
HESSIAN_MATRIX_MAX_D = 10


def cmd_hessian(args: argparse.Namespace) -> int:
    if args.d is None or args.d < 2:
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
    x0 = _parse_point(args.x0) if args.x0 else None
    if not args.matrix_path or x0 is None or args.k is None:
        raise UsageError("decompose needs --matrix, --x0 and --k")
    if args.k < 1 or args.k > 3:
        raise UsageError("decompose supports --k between 1 and 3")
    a = exactla.affine_from_json(_load_json(args.matrix_path))
    if a.n > 10:
        raise UsageError("decompose supports matrices up to size 10")
    if len(x0) != a.num_vars:
        raise UsageError(f"--x0 needs {a.num_vars} coordinates")
    result = abpdec.decompose_from_representation(a, x0, args.k)
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
    degrees = _parse_degrees(args.degrees) if args.degrees else None
    if not args.matrix_path:
        raise UsageError("mv-det needs --matrix FILE")
    a = exactla.affine_from_json(_load_json(args.matrix_path))
    if a.n > 6:
        raise UsageError("mv-det supports matrices up to size 6")
    if degrees is None:
        degrees = tuple(range(a.n + 1))
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
    if not args.poly_path:
        raise UsageError("brank-interval needs --poly FILE")
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
    if not args.vertices_path or args.r is None:
        raise UsageError("certify needs --vertices FILE and --r")
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
    if args.birank is None or args.k is None or args.big_d is None:
        raise UsageError("bounds needs --birank, --k and --D")
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
    p.add_argument("--d", type=int, required=True, help="matrix size, at least 2")
    p.add_argument(
        "--include-matrix", action="store_true", help="embed the full Hessian entries"
    )

    p = add("build", "emit a Gram constraint system as JSON")
    p.add_argument(
        "--kind", required=True, choices=[*_GRAM_BUILDERS, "z2k"],
        help="system flavor",
    )
    p.add_argument("--poly", dest="poly_path", help="polynomial JSON (xp/sym/psd-pair)")
    p.add_argument("--d", type=int, help="matrix size (z2k)")
    p.add_argument("--k", type=int, help="half degree (z2k)")

    p = add("decompose", "decompose a determinantal representation's slice")
    p.add_argument("--matrix", dest="matrix_path", required=True, help="affine matrix JSON")
    p.add_argument("--x0", required=True, help="comma-separated rational point")
    p.add_argument("--k", type=int, required=True, help="half degree of the slice")

    p = add("mv-det", "characteristic-coefficient polynomials of a linear matrix")
    p.add_argument("--matrix", dest="matrix_path", required=True, help="affine matrix JSON")
    p.add_argument("--degrees", help="comma-separated coefficient indices (default all)")

    p = add("brank-interval", "certified rank interval for a form's Gram systems")
    p.add_argument("--poly", dest="poly_path", required=True, help="polynomial JSON")
    p.add_argument("--kind", choices=list(_GRAM_BUILDERS), help="system flavor")
    p.add_argument("--budget", type=int, default=6, help="max free dimension")
    p.add_argument("--seed", type=int, default=0, help="seed for random sampling")
    p.add_argument("--export-cs", dest="export_cs", help="also write the system JSON here")

    p = add("certify", "certify a rank lower bound from hull vertices")
    p.add_argument("--vertices", dest="vertices_path", required=True, help="vertices JSON")
    p.add_argument("--r", type=int, required=True, help="rank to refute")
    p.add_argument("--tol", type=float, default=1e-9, help="relative tolerance")
    p.add_argument("--pair", action="store_true", help="vertices are (plus, minus) pairs")

    p = add("bounds", "determinantal-complexity bound calculators")
    p.add_argument("--birank", type=int, required=True, help="bi-polynomial rank value")
    p.add_argument("--k", type=int, required=True, help="half degree")
    p.add_argument("--D", type=int, required=True, dest="big_d", help="number of variables")

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
    # Lift CPython's int/str digit limit (PYTHONINTMAXSTRDIGITS), so that no
    # output depends on it; integer inputs have polyring.MAX_DIGITS instead.
    if hasattr(sys, "set_int_max_str_digits"):
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


if __name__ == "__main__":
    raise SystemExit(main())
