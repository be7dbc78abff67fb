import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections.abc import Iterator
from fractions import Fraction

import numpy as np
import pytest

import birank
from birank import cli, polyring, rankmin
from birank.cli import canonical_json, main
from birank.exactla import AffineMatrixPoly, ExactMatrix, affine_to_json
from birank.polyring import Polynomial, poly_to_json


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def x1x2_file(tmp_path):
    p = Polynomial(2, {(1, 1): Fraction(1)})
    return write_json(tmp_path / "p.json", poly_to_json(p))


def perm2_matrix_file(tmp_path):
    # det [[x0, -x1], [x2, x3]] equals the 2x2 permanent x0*x3 + x1*x2.
    zero = ExactMatrix.zeros(2, 2)
    coeffs = []
    for var, (i, j, v) in enumerate(
        [(0, 0, 1), (0, 1, -1), (1, 0, 1), (1, 1, 1)]
    ):
        rows = [[Fraction(0)] * 2 for _ in range(2)]
        rows[i][j] = Fraction(v)
        coeffs.append(ExactMatrix(rows))
    a = AffineMatrixPoly(zero, coeffs)
    return write_json(tmp_path / "perm2.json", affine_to_json(a))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    for name in (
        "hessian", "build", "decompose", "mv-det",
        "brank-interval", "certify", "bounds",
    ):
        assert main([name, "--help"]) == 0
        capsys.readouterr()


def test_no_arguments_is_an_error(capsys):
    assert main([]) == 1


def test_hessian_report(capsys):
    code, out = run(capsys, ["hessian", "--d", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 9
    assert obj["signature"] == [4, 5, 0]
    assert obj["d"] == 3


def test_hessian_rejects_small_d(capsys):
    assert main(["hessian", "--d", "1"]) == 1
    assert main(["hessian", "--d", "0"]) == 1


def test_hessian_at_its_cap_takes_under_a_second(capsys):
    # The report reads its inertia from four fixed-size blocks, so its cost
    # does not grow with d.
    start = time.perf_counter()
    code, out = run(capsys, ["hessian", "--d", "1000"])
    elapsed = time.perf_counter() - start
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 10 ** 6
    assert obj["signature"] == [1998, 998002, 0]
    assert elapsed < 1.0


def test_build_xp(tmp_path, capsys):
    code, out = run(capsys, ["build", "--kind", "xp", "--poly", x1x2_file(tmp_path)])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["eqs"]) == 3
    assert obj["pair"] is False


def test_build_z2k(capsys):
    code, out = run(capsys, ["build", "--kind", "z2k", "--d", "3", "--k", "1"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["eqs"]) == 6
    assert obj["pair"] is True
    rhs_ones = [eq for eq in obj["eqs"] if eq["rhs"]["num"] == "1"]
    assert len(rhs_ones) == 2


def test_build_z2k_rejects_low_d(capsys):
    assert main(["build", "--kind", "z2k", "--d", "2", "--k", "1"]) == 1


def test_build_missing_poly(capsys):
    assert main(["build", "--kind", "xp"]) == 1


def test_decompose_perm2(tmp_path, capsys):
    path = perm2_matrix_file(tmp_path)
    code, out = run(capsys, ["decompose", "--matrix", path, "--x0", "1,1,1,-1", "--k", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["pair_count"] <= 2
    assert obj["pair_count"] <= obj["pair_bound"]
    assert obj["constant_rank"] == 1
    assert len(obj["decomposition"]["pairs"]) == obj["pair_count"]


def test_decompose_diagonal_single_pair(tmp_path, capsys):
    # det diag(x0, x1) = x0*x1; expanding at (0, 1) gives one pair.
    zero = ExactMatrix.zeros(2, 2)
    c0 = ExactMatrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    c1 = ExactMatrix([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])
    path = write_json(tmp_path / "diag.json", affine_to_json(AffineMatrixPoly(zero, [c0, c1])))
    code, out = run(capsys, ["decompose", "--matrix", path, "--x0", "0,1", "--k", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["pair_count"] == 1


def test_decompose_nonsingular_point_fails(tmp_path, capsys):
    path = perm2_matrix_file(tmp_path)
    assert main(["decompose", "--matrix", path, "--x0", "1,0,0,1", "--k", "1"]) == 1


def test_decompose_wrong_point_length(tmp_path, capsys):
    path = perm2_matrix_file(tmp_path)
    assert main(["decompose", "--matrix", path, "--x0", "1,1", "--k", "1"]) == 1


def test_mv_det(tmp_path, capsys):
    path = perm2_matrix_file(tmp_path)
    code, out = run(capsys, ["mv-det", "--matrix", path, "--degrees", "0,1,2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 2
    assert set(obj["coefficients"]) == {"0", "1", "2"}
    # Constant coefficient of det(A + lambda I) in lambda^0 is det(A).
    c0_terms = obj["coefficients"]["0"]["terms"]
    assert c0_terms


def test_mv_det_bad_degree(tmp_path, capsys):
    path = perm2_matrix_file(tmp_path)
    assert main(["mv-det", "--matrix", path, "--degrees", "7"]) == 1
    assert main(["mv-det", "--matrix", path, "--degrees", "-1"]) == 1


def test_brank_interval(tmp_path, capsys):
    poly = x1x2_file(tmp_path)
    export = tmp_path / "cs.json"
    code, out = run(
        capsys,
        ["brank-interval", "--poly", poly, "--export-cs", str(export)],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == 1 and obj["upper"] == 1
    exported = json.loads(export.read_text())
    assert len(exported["eqs"]) == 3


def test_brank_interval_deterministic_output(tmp_path, capsys):
    poly = x1x2_file(tmp_path)
    outputs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        code = main(
            ["brank-interval", "--poly", poly, "--seed", "3", "--out", str(target)]
        )
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


def test_brank_interval_rejects_negative_budget_before_any_work(tmp_path, capsys, monkeypatch):
    # It used to solve the whole system first, then report that the free
    # dimension exceeds the budget.
    def unreachable(*args, **kwargs):
        raise AssertionError("the system was built")

    monkeypatch.setattr(cli.polyring, "poly_from_json", unreachable)
    assert main(["brank-interval", "--poly", x1x2_file(tmp_path), "--budget", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--budget" in captured.err


def test_brank_interval_rejects_odd_degree(tmp_path, capsys):
    p = Polynomial(2, {(1, 0): Fraction(1)})
    path = write_json(tmp_path / "odd.json", poly_to_json(p))
    assert main(["brank-interval", "--poly", path]) == 1


def test_json_integer_fields_refuse_floats_and_booleans(tmp_path, capsys):
    # int() used to read the exponent 2.5 as 2 and true as 1, and exit 0.
    def square(**changes):
        term = {"exp": [2], "num": "1", "den": "1"}
        term.update(changes)
        return {"num_vars": 1, "terms": [term]}

    polys = [square(exp=[2.5]), square(num=True), square(den=2.0),
             dict(square(), num_vars=1.0)]
    argvs = [["brank-interval", "--poly", write_json(tmp_path / f"p{i}.json", obj)]
             for i, obj in enumerate(polys)]
    with open(perm2_matrix_file(tmp_path)) as fh:
        matrix = json.load(fh)
    matrix["const"]["rows"] = 2.0
    argvs.append(["mv-det", "--matrix", write_json(tmp_path / "m.json", matrix)])
    for argv in argvs:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "not an integer" in captured.err


def quartic_in(num_vars, tmp_path):
    exps = tuple([4] + [0] * (num_vars - 1))
    return write_json(tmp_path / f"quartic{num_vars}.json", poly_to_json(Polynomial(num_vars, {exps: 1})))


@pytest.mark.parametrize("argv, size, cap", [
    # C(49, 4) equations.
    (lambda tmp: ["build", "--kind", "z2k", "--d", "8", "--k", "2"], "211876", "200000"),
    # C(12, 2) monomials of degree 2 in 11 variables.
    (lambda tmp: ["build", "--kind", "xp", "--poly", quartic_in(11, tmp)], "66", "60"),
    # C(7, 2) monomials of degree 2 in 6 variables.
    (lambda tmp: ["brank-interval", "--poly", quartic_in(6, tmp)], "21", "20"),
    (lambda tmp: ["hessian", "--d", "1001"], "1001", "1000"),
    # The report alone is accepted at d = 11; the d^4 matrix is not.
    (lambda tmp: ["hessian", "--d", "11", "--include-matrix"], "11", "10"),
], ids=["z2k-equations", "build-basis", "interval-basis", "hessian-d", "hessian-matrix-d"])
def test_size_refusals_name_their_cap(tmp_path, capsys, argv, size, cap):
    assert main(argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f" {size} " in captured.err and captured.err.rstrip().endswith(f"the cap is {cap}")


def test_deeply_nested_json_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["brank-interval", "--poly", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "nested too deeply" in captured.err


def test_certify_accept_and_reject(tmp_path, capsys):
    accept = write_json(
        tmp_path / "good.json",
        {"vertices": [[[2.0, 0.0], [0.0, 1.0]], [[3.0, 1.0], [1.0, 2.0]]]},
    )
    code, out = run(capsys, ["certify", "--vertices", accept, "--r", "1"])
    assert code == 0
    assert json.loads(out)["accepted"] is True

    reject = write_json(
        tmp_path / "bad.json", {"vertices": [[[0.0, 0.5], [0.5, 0.0]]]}
    )
    code, out = run(capsys, ["certify", "--vertices", reject, "--r", "1"])
    assert code == 2
    assert json.loads(out)["accepted"] is False


def test_certify_pair_mode(tmp_path, capsys):
    path = write_json(
        tmp_path / "pairs.json",
        {"vertices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]]},
    )
    code, out = run(capsys, ["certify", "--vertices", path, "--r", "1", "--pair"])
    assert code == 0
    assert json.loads(out)["l"] == 3


def test_certify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["certify", "--vertices", str(path), "--r", "1"]) == 1
    empty = write_json(tmp_path / "empty.json", {"vertices": []})
    assert main(["certify", "--vertices", empty, "--r", "1"]) == 1


def test_certify_rejects_non_finite_vertices(tmp_path, capsys):
    # NaN used to reach stdout as a bare NaN token with exit 2 (rejected).
    nan = tmp_path / "nan.json"
    nan.write_text('{"vertices": [[[NaN, 0.0], [0.0, 1.0]]]}')
    huge = tmp_path / "huge.json"
    huge.write_text('{"vertices": [[[[1e400, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]]}')
    for argv in (["--vertices", str(nan), "--r", "1"], ["--vertices", str(huge), "--r", "1", "--pair"]):
        assert main(["certify"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "finite" in captured.err
    with pytest.raises(ValueError):
        canonical_json({"mu": float("nan")})


def known_spectrum_pair(np_rng, spectrum):
    blocks = []
    for _ in range(2):
        q, _ = np.linalg.qr(np_rng.normal(size=(len(spectrum), len(spectrum))))
        a = (q * np.array([float(v) for v in spectrum])) @ q.T
        blocks.append(((a + a.T) / 2.0).tolist())
    return blocks


def test_certify_pair_on_known_spectra(tmp_path, capsys):
    # Pair vertices of two 61x61 blocks with known spectra: the 122-row
    # embedding has the union of the blocks' spectra.
    np_rng = np.random.default_rng(122)
    m = 61
    positive = [Fraction(k, 8) for k in range(1, m + 1)]
    indefinite = [Fraction(k - 45, 8) for k in range(1, m + 1)]
    cases = (
        ("accept", (positive, positive), 0, True, m + 1),
        ("reject", (positive, indefinite), 2, False, 0),
    )
    for name, spectra, exit_code, accepted, bound in cases:
        vertices = [known_spectrum_pair(np_rng, s) for s in spectra]
        path = write_json(tmp_path / f"{name}.json", {"vertices": vertices})
        code, out = run(capsys, ["certify", "--pair", "--vertices", path, "--r", str(m)])
        obj = json.loads(out)
        assert code == exit_code
        assert (obj["accepted"], obj["certified_lower_bound"], obj["r"], obj["l"]) == (accepted, bound, m, m)
        scale = max(abs(x) for vertex in vertices for block in vertex for row in block for x in row)
        assert obj["threshold"] == pytest.approx(2 * m * 1e-9 * max(1.0, scale), rel=1e-15)
        for got, s in zip(obj["vertex_mu"], spectra):
            want = float(sum(sorted(s * 2)[:m]))
            assert abs(got - want) <= 1e-12 * 2 * m * max(1.0, scale)


def test_certify_rejects_bad_tolerance(tmp_path, capsys):
    # The hull of diag(1, -1) and diag(-1, 1) holds the zero matrix; with
    # --tol -1 it used to be certified to have rank 2 (exit 0).
    path = write_json(
        tmp_path / "v.json", {"vertices": [[[1.0, 0.0], [0.0, -1.0]], [[-1.0, 0.0], [0.0, 1.0]]]}
    )
    for tol in ("-1", "nan", "inf"):
        assert main(["certify", "--vertices", path, "--r", "1", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--tol" in captured.err
    assert main(["certify", "--vertices", path, "--r", "1", "--tol", "0"]) == 2


def test_certify_pair_rejects_vertices_without_two_blocks(tmp_path, capsys):
    # A third block used to be dropped silently.
    eye, zero = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]
    for vertex in ([eye, eye, zero], [eye]):
        path = write_json(tmp_path / "pairs.json", {"vertices": [[eye, eye], vertex]})
        assert main(["certify", "--pair", "--vertices", path, "--r", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "two blocks" in captured.err


def assert_one_line_error(capsys, argv, *fragments):
    assert main(argv) == 1, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1, captured.err
    for fragment in fragments:
        assert fragment in captured.err, (fragment, captured.err)


def test_certify_refuses_entries_that_are_not_numbers(tmp_path, capsys):
    # numpy's float conversion read "1" and true as 1.0, and both files
    # used to be certified with exit 0.
    cases = (("a string", "1"), ("a boolean", True), ("null", None))
    for i, (kind, entry) in enumerate(cases):
        vertex = [[entry, 0], [0, 1]]
        path = write_json(tmp_path / f"v{i}.json", {"vertices": [vertex]})
        assert_one_line_error(capsys, ["certify", "--vertices", path, "--r", "1"], f"is {kind}, not a number")
        path = write_json(tmp_path / f"pair{i}.json", {"vertices": [[[[1, 0], [0, 1]], vertex]]})
        assert_one_line_error(
            capsys, ["certify", "--pair", "--vertices", path, "--r", "1"], f"is {kind}, not a number"
        )
    # Ints are read as floats, as before.
    outputs = []
    for name, vertex in (("ints", [[2, 0], [0, 1]]), ("floats", [[2.0, 0.0], [0.0, 1.0]])):
        path = write_json(tmp_path / f"{name}.json", {"vertices": [vertex]})
        code, out = run(capsys, ["certify", "--vertices", path, "--r", "1"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_zero_denominator_is_one_line_error(tmp_path, capsys):
    # Fraction(n, 0) used to reach stderr as "error: Fraction(1, 0)".
    poly = {"num_vars": 2, "terms": [{"exp": [1, 1], "num": "1", "den": "0"}]}
    poly_path = write_json(tmp_path / "poly.json", poly)
    with open(perm2_matrix_file(tmp_path)) as fh:
        matrix = json.load(fh)
    matrix["coeff"][0]["entries"][0][0] = {"num": "1", "den": "0"}
    matrix_path = write_json(tmp_path / "matrix.json", matrix)
    for argv in (
        ["build", "--kind", "xp", "--poly", poly_path],
        ["brank-interval", "--poly", poly_path],
        ["mv-det", "--matrix", matrix_path],
        ["decompose", "--matrix", matrix_path, "--x0", "0,0,0,0", "--k", "1"],
        ["decompose", "--matrix", perm2_matrix_file(tmp_path), "--x0", "0, 1/0,0,0", "--k", "1"],
    ):
        assert_one_line_error(capsys, argv, "rational 1/0 has a zero denominator")


def test_integer_input_above_the_digit_cap_is_one_line_error(tmp_path, capsys):
    # The interpreter's own digit limit used to decide: a 5,000-digit
    # coefficient exited 1 with Python's message by default and was read
    # under PYTHONINTMAXSTRDIGITS=0.  The cap applies to JSON numbers and to
    # decimal strings alike, and a form at the cap is read.
    digits = "7" * polyring.MAX_DIGITS
    for name, num in (("string", f'"{digits}7"'), ("number", digits + "7"), ("negative", f'"-{digits}7"')):
        path = tmp_path / f"{name}.json"
        path.write_text('{"num_vars": 2, "terms": [{"exp": [2, 0], "num": ' + num + ', "den": "1"}]}')
        assert_one_line_error(capsys, ["brank-interval", "--poly", str(path)], "more than 4300 digits")
    path = tmp_path / "at-cap.json"
    path.write_text('{"num_vars": 2, "terms": [{"exp": [2, 0], "num": -' + digits + ', "den": "1"}]}')
    assert main(["brank-interval", "--poly", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("option", [
    ["brank-interval", "--poly", "p.json", "--seed"],
    ["bounds", "--k", "1", "--D", "1", "--birank"],
    ["hessian", "--d"],
    ["decompose", "--matrix", "m.json", "--k", "1", "--x0"],
    ["mv-det", "--matrix", "m.json", "--degrees"],
], ids=lambda argv: argv[-1])
def test_integer_option_above_the_digit_cap_is_one_line_error(capsys, option):
    # A 130,000-digit --seed used to be parsed.  The message names the
    # option and does not repeat the value.
    assert_one_line_error(capsys, option + ["7" * 130_000], f"argument {option[-1]}: ", "more than 4300 digits")
    assert_one_line_error(capsys, option + ["x"], f"argument {option[-1]}: ")


def test_x0_coordinate_above_the_digit_cap_is_one_line_error(capsys):
    # A short exponent makes a long numerator or denominator: 1e999999999
    # is refused before Fraction() builds 10^999999999.
    decompose = ["decompose", "--matrix", "m.json", "--k", "1", "--x0"]
    for x0 in ("1e999999999", "1e-4300", "1/1" + "0" * 4300):
        assert_one_line_error(capsys, decompose + [x0], "argument --x0: ", "more than 4300 digits")


@pytest.mark.parametrize("kind, change, field", [
    ("poly", lambda p: p.update(terms=5), "'terms'"),
    ("poly", lambda p: p.update(terms=[[t["exp"], t["num"], t["den"]] for t in p["terms"]]), "'terms'"),
    ("poly", lambda p: p["terms"][0].update(exp=2), "'terms'"),
    ("poly", lambda p: p["terms"][0].pop("den"), "'terms'"),
    ("matrix", lambda a: a["const"].update(entries=3), "'entries'"),
    ("matrix", lambda a: a["coeff"][1].update(entries=[1, 2]), "'entries'"),
    ("matrix", lambda a: a.update(coeff=5), "'coeff'"),
], ids=["terms-int", "terms-lists", "exp-int", "term-without-den", "entries-int", "rows-ints", "coeff-int"])
def test_input_field_of_the_wrong_type_is_named(tmp_path, capsys, kind, change, field):
    # Each used to print Python's own message, such as "'int' object is not
    # iterable".
    source = x1x2_file(tmp_path) if kind == "poly" else perm2_matrix_file(tmp_path)
    with open(source) as fh:
        obj = json.load(fh)
    change(obj)
    path = write_json(tmp_path / "input.json", obj)
    argv = ["brank-interval", "--poly", path] if kind == "poly" else ["mv-det", "--matrix", path]
    assert_one_line_error(capsys, argv, field)


def test_main_restores_the_digit_limit(capsys):
    # main lifts the interpreter's digit limit while it runs and used to
    # leave it lifted.  bounds-k300 prints integers of up to 723 digits.
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out = run(capsys, ["bounds", "--birank", "5", "--k", "300", "--D", "9"])
        assert code == 0 and sha256(out) == GOLDEN_COMPACT_DIGESTS["bounds-k300"]
        assert sys.get_int_max_str_digits() == 640
        for argv in (["hessian", "--d", "1"], ["--help"]):
            main(argv)
            assert sys.get_int_max_str_digits() == 640, argv
    finally:
        sys.set_int_max_str_digits(before)
    capsys.readouterr()


def test_non_utf8_file_names_its_path(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"vertices": [[[1.0]]], "note": "\xff"}')
    assert_one_line_error(
        capsys, ["certify", "--vertices", str(path), "--r", "0"], f"cannot read JSON from {path}: ", "utf-8"
    )


def test_bounds(capsys):
    code, out = run(capsys, ["bounds", "--birank", "16", "--k", "1", "--D", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["dc_lower_bound_float"] == 16.0
    assert obj["dc_sqrt_bound"] == 4.0


def test_bounds_validates(capsys):
    assert main(["bounds", "--birank", "-1", "--k", "1", "--D", "4"]) == 1
    assert main(["bounds", "--birank", "4", "--k", "0", "--D", "4"]) == 1


def test_bounds_refuses_unprintable_fields_in_one_line(capsys):
    # k = 10^6 used to run for minutes on (2k)!; 1000 and 20000 printed
    # Python's own float-division and digit-limit messages.
    for k in ("1309", "20000", "1000000"):
        assert_one_line_error(capsys, ["bounds", "--birank", "5", "--k", k, "--D", "1"], "--k <= 1308")
    big = str(10 ** 400)
    for b, k, d in (("5", "1000", "9"), (big, "1", "4"), ("4", "1", big), ("5", "1308", "9" * 4299)):
        assert_one_line_error(capsys, ["bounds", "--birank", b, "--k", k, "--D", d], "largest float, about 1.8e308")
    # The largest k that prints at D = 1, 2, 9 and 100.  Past it, D >= 2
    # overflows only once the fields are computed: 2 * 321 * 9^321 > 1.8e308.
    for d, k in ((1, 1308), (2, 1014), (9, 321), (100, 153)):
        assert main(["bounds", "--birank", "5", "--k", str(k), "--D", str(d)]) == 0
        capsys.readouterr()
        limit = "--k <= 1308" if d == 1 else "1.8e308"
        assert_one_line_error(capsys, ["bounds", "--birank", "5", "--k", str(k + 1), "--D", str(d)], limit)
    # At k = 1 the fields hold b and D/4: D = 2^1025 prints, 2^1026 does not.
    assert main(["bounds", "--birank", "5", "--k", "1", "--D", str(2 ** 1025)]) == 0
    capsys.readouterr()
    assert_one_line_error(capsys, ["bounds", "--birank", "5", "--k", "1", "--D", str(2 ** 1026)], "1.8e308")


def run_python(args, timeout=120, **env):
    # The child imports the same birank as this process, also from a
    # checkout that is not installed; env adds environment variables.
    src = os.path.dirname(os.path.dirname(birank.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        timeout=timeout,
    )


def test_interval_of_a_quartic_with_huge_coefficients(tmp_path):
    # The rational root search used to divide by every integer up to the
    # square root of its coefficients, about 10^18 here, and never ended.
    rng = random.Random(5)
    poly = {"num_vars": 2, "terms": [
        {"exp": [4 - i, i], "num": str(10**18 + rng.randint(1, 10**6)), "den": "1"} for i in range(5)]}
    path = write_json(tmp_path / "huge.json", poly)
    start = time.perf_counter()
    proc = run_python(["-m", "birank", "brank-interval", "--poly", path, "--kind", "sym"], timeout=10)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert (obj["lower"], obj["upper"], obj["lower_method"]) == (3, 3, "minor-system-no-rational-root")


def test_module_entry_point(tmp_path):
    proc = run_python(["-m", "birank", "bounds", "--birank", "4", "--k", "1", "--D", "2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dc_lower_bound_float"] == 4.0


# Byte-identity guard: stdout digests recorded before the exact-arithmetic
# kernel was rewritten (the 7x7 case before decompositions were verified on
# the simplex lattice; the psd-pair interval and the z2k build before the
# sampler and build_z2k moved to integers and index supports; the last
# three before decompositions were constructed on integer forms).  Any
# change here is a behaviour change.
def leading_zero_rep_file(tmp_path):
    # A 5x5 representation in 3 variables whose matrix at GOLDEN_X0 has the
    # columns [0, 0, a, b, c] of rank 3, with mixed denominators.
    m0_cols = [
        [0] * 5,
        [0] * 5,
        [1, Fraction(1, 2), 0, 2, -1],
        [0, 1, 3, -1, Fraction(1, 3)],
        [2, 0, 1, 0, 1],
    ]
    coeffs = [
        [[1, 0, -1, 2, 0], [0, 1, 1, 0, -1], [2, 0, 0, 1, 1], [-1, 1, 0, 0, 2], [0, -2, 1, 1, 0]],
        [[0, 1, 0, -1, 1], [1, 0, 2, 1, 0], [0, -1, 1, 0, 1], [1, 1, 0, 2, 0], [-1, 0, 0, 1, 1]],
        [[1, 1, 0, 0, 0], [0, 0, 1, -1, 2], [1, 0, 0, 0, -1], [0, 2, -1, 1, 0], [0, 1, 1, 0, 1]],
    ]
    x0 = [Fraction(1), Fraction(-1, 2), Fraction(2)]
    const = [
        [m0_cols[j][i] - sum(x * c[i][j] for x, c in zip(x0, coeffs)) for j in range(5)]
        for i in range(5)
    ]
    a = AffineMatrixPoly(ExactMatrix(const), [ExactMatrix(c) for c in coeffs])
    return write_json(tmp_path / "rep5.json", affine_to_json(a)), "1,-1/2,2"


def rep7_file(tmp_path, rank=5):
    # A 7x7 representation in 4 variables whose matrix at x0 is G*H with
    # G 7 x rank and H rank x 7, so its corank is 7 - rank; entries carry
    # mixed denominators.
    rng = random.Random(2026)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))

    g = [[entry() for _ in range(rank)] for _ in range(7)]
    h = [[entry() for _ in range(7)] for _ in range(rank)]
    m0 = [[sum(g[i][l] * h[l][j] for l in range(rank)) for j in range(7)] for i in range(7)]
    coeffs = [[[entry() for _ in range(7)] for _ in range(7)] for _ in range(4)]
    x0 = [Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(1, 3)]
    const = [
        [m0[i][j] - sum(x * c[i][j] for x, c in zip(x0, coeffs)) for j in range(7)]
        for i in range(7)
    ]
    a = AffineMatrixPoly(ExactMatrix(const), [ExactMatrix(c) for c in coeffs])
    return write_json(tmp_path / f"rep7-rank{rank}.json", affine_to_json(a)), "1,-1/2,2,1/3"


def affine6_file(tmp_path):
    # A 6x6 affine matrix in 3 variables with a constant part; det(C_1) != 0,
    # so c_6 contains x1^6, the largest exponent mv-det can reach.
    rng = random.Random(6)

    def entry():
        return Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))

    const = [[entry() for _ in range(6)] for _ in range(6)]
    coeffs = [[[entry() for _ in range(6)] for _ in range(6)] for _ in range(3)]
    a = AffineMatrixPoly(ExactMatrix(const), [ExactMatrix(c) for c in coeffs])
    return write_json(tmp_path / "affine6.json", affine_to_json(a))


def binary_quartic_file(tmp_path):
    p = Polynomial(2, {(4, 0): 1, (3, 1): Fraction(-1, 2), (2, 2): 3, (1, 3): 2, (0, 4): Fraction(5, 3)})
    return write_json(tmp_path / "quartic.json", poly_to_json(p))


# Digests of each output re-rendered by indented(): they pin its content
# since before the canonical text became compact.
GOLDEN_DIGESTS = {
    "hessian-d2": "ec1021919e435a6138ee1ff146eec626a0aece8c5cc8035596c1f35c72c55191",
    "hessian-d3": "d4dd2b5bb638a87983b62bfb44d0d8fdda5ea41cf70b539a98de9dda1611b1fd",
    "hessian-d4": "d58cbc54eb65b2cec489fdf330fc1a084a9e0a024a5af5deb1bc1f3fdac6fdb4",
    "hessian-d5": "6b3370364a26fdff7c53f17da624b9efcbab3aab6fecbc97fd001781d087acc0",
    "hessian-d6": "57ad8576853344dee552e5154db28c513ffc831bcebd8595d87ef6e64a7334d5",
    "hessian-d7": "4e0632605ab3ba76c0b7ff0640d2195c49da9c8af49c894cf90035f03ef58b41",
    "hessian-d8": "a51ae87512f7579049e3156211929e52a283c4231a5a1826ab2e797d007f5cc3",
    "hessian-d9": "e38f6a9318f29f52251784c0f4e102a97b141e86f8f3bce8b2113f3522c518bc",
    "hessian-d10": "c89239cdd90f8f8acf57815c4a7d4ab942ad03d9a86d3b9605e3ce094590c617",
    "hessian-d5-matrix": "f03c55dcfc81916e16fc3045c906c5a60969d8ce6149de94835121edcebeee9a",
    "hessian-d2-matrix": "f06a397297b13e0cfb1070e8a687348b85bb5a1f14b665c102bcbb92422e8fd9",
    "hessian-d3-matrix": "69ef64d4f28b1a0a810d43dc449d978a5cc54bd3b8637ac533c390d397032929",
    "hessian-d4-matrix": "c6070ce9ce4702ac04bc58f601d015add8da0db467cdb4ce92418a5365be15d1",
    "bounds-k2": "fb463bdb2c08ec1bf956e73f76b747ee2497f10e92f0ddd6fe6f231df558f992",
    "bounds-k300": "8d9066ac7a760a18d554b4b79c1f25ef160ce4165e7246fdea1f267e400f634b",
    "decompose-k1": "e6dd0544399d34ea53b35369d09d746fb1e83392afe6abc5f39186f8acd77335",
    "decompose-k2": "b605c2239b9bd5a14fbc17b6573afdf52cc7730aa6063d95e22f9a9cca509ce7",
    "decompose-7x7-k2": "b75229a84314f5cc553611b52fde1179d9ed30bf705b8d9016267d3c7377e02e",
    "interval-xp": "c7faaed89e85fdc777e8f152fa0b2211c784fdce0df1b3334677cf027e2ec654",
    "interval-sym": "a0973844402dd3978f77fe2fcabc9b6bc7531db3002b1ecb5fa966f4b7a7cb55",
    "mv-det": "7d7aa7d93c90e70a2de48744e26fab79655d75d01fe3a06121466c4373904dea",
    "interval-psd-pair": "64c2c73592a657c42b728babed8238ee6bc85ed20d6d87ba34fadc2b1ed6bf6b",
    "build-z2k-d5-k2": "2d9365f0995dbef4527512b95f708f721dabd1c222d5d2dee1c68c9c7c05fc4b",
    "decompose-7x7-k3": "e328efb5fa39b56651419fb9c6475350e8ab1344c1514ed478e8fc22e3025ec0",
    "decompose-7x7-corank4-k2": "d87761accec056794073d6fd5db8012b2e4253e34dc97bac9b121f464ab23050",
    "mv-det-6x6": "ffb2c8efd33db031f6d10d64bb0d1dc09f85aecc4621d6ea6c78e6f5a29e7f2f",
    "build-xp-quartic": "00d92b61da38c9d0101371cbaa0d7a8d5dca488780084a795a8163001097c0c4",
    "build-sym-quartic": "84c3b4b26cab23461bb57aa5b1525df2269845653dc40856c74f4aedbaa04014",
    "build-psd-pair-quartic": "ab449a344f979b65646666225962d934976ce62f85be4ef81051f7580cd050e5",
    # The file written by --export-cs, not stdout.
    "interval-psd-pair-export-cs": "ab449a344f979b65646666225962d934976ce62f85be4ef81051f7580cd050e5",
    # The largest outputs, of LARGE_GOLDEN_COMMANDS.
    "build-z2k-d6-k2": "1209160044a9a725f2f2646baed6a7189c45d729db4fdf1daafd212257d1bc86",
    "hessian-d10-matrix": "02d2a14c1dd8fe7336499fd1c3197ac173f3fd92273e11e4021ae20b18bfc512",
}

# Digests of the output bytes, the compact canonical text.
GOLDEN_COMPACT_DIGESTS = {
    "hessian-d2": "ae830367a63333abff012378df934735d93a27b4a8cf7a0a3319a62d429def97",
    "hessian-d3": "0282962d0bb6988b4e62978a15667db696057d9903d788dd10fef8a092f2609b",
    "hessian-d4": "daf82221b5faf8295538942a1c30fe25ed4647238fc369bdded661d686e0d6c7",
    "hessian-d5": "222a9d7d0edd3495d0b81a0dbec1d7d3c5ef58e51b7ae0b56d5ca81c86d6c0f8",
    "hessian-d6": "7cd6e4b24fd6c5a4430b5c7ae0abf8bbdc9f98293aa9894b70f35e3ef6c6ef49",
    "hessian-d7": "dfb7764e8a2773d429ad8cea9113cbba77cb67a73ed4954bef97a9c177eab66a",
    "hessian-d8": "cd6e987cc8f16ca15c22c2d0bf9c0951502aec9788bb3b5585ccad6d3244daba",
    "hessian-d9": "a1f3db778a3dfea4410d3e0113fbb9e8e41e8d5e50874b99457183e43b7e6d6b",
    "hessian-d10": "0dd130359d8b6ee9fe1e7083c4b36324e8941749d0b7127d99af1aab91fa5f16",
    "hessian-d5-matrix": "56f860632d9916fa7cbf9aad0d9f5583e6063acf8b60095d2a9a1e20dc0e0c44",
    "hessian-d2-matrix": "209f949ccf4f52cc6379d328281d2b72f7684a03dc862cf5023a9596340bc62d",
    "hessian-d3-matrix": "0594835bc3e6bb26c44921ca8669a78b2dab02403ac993eedbfc91f706a52fb5",
    "hessian-d4-matrix": "c51820101ff2a153141c14f43f17d6a37f56dac8d8d38b2de22960308db584bf",
    "bounds-k2": "3f4a2ed2f9cf5b76062b6ae50cb52c376bcda10210baf05145a6e6d2962b9e9e",
    "bounds-k300": "ae7f971c4ec685fd92f876ea5e7dae5c195851ad8a94ac8f1436cebfd6ad1304",
    "decompose-k1": "972524168c0a7b5d8bb486a6662e46d9a2a76cc66d790126a3f1f37be460bb34",
    "decompose-k2": "ee1d86fa91fa9383aba02f348f4b0d5c5fc9b937b9618cf3a359c3bf39774733",
    "decompose-7x7-k2": "458c981c803f318b04022acfd70d20db0afdbcefdbbdfb4f895e6268b68ecb12",
    "interval-xp": "d8e65d27ef249aa8e69c3540f73c9ffa508f317fb3867d8e82392f6e85574519",
    "interval-sym": "4cbdb9bb84a03ca4a75fa0f47fde357f34832572369b45dd4ac5427bd67cb558",
    "mv-det": "fe9857d48180bd9bcde126842ff6e6d4a577bd9fddb8b9e6b574b33280e4ffe4",
    "interval-psd-pair": "03aa42fa2dd2f46f124965542479b2919b88b94e8f9828c95ef075cfef3ade52",
    "build-z2k-d5-k2": "17f8e9f2429ce73cf0ce6dd0cf1de0ae0f47b8f81ce800fbb045071893de96e1",
    "decompose-7x7-k3": "caf591e19682a3ea89a43c84a40d3eba379ba2e2de50624d8e211da5a6fde7cf",
    "decompose-7x7-corank4-k2": "076b452cbbdc1cc018ceeaa8b386f4e1366d6694fea154861106d744ecf4a3ea",
    "mv-det-6x6": "4ee80d6ce537d10c9e40eeb57c418a82ea78e16a633e00420e71c861cbe63115",
    "build-xp-quartic": "9564af134a28a232c3f29b5a73109d1491ee03ca245b3e631c10bfeb692fdda2",
    "build-sym-quartic": "59be10836b8a95a76f2c63ae2534cf20bc88324fab61b4eaa97eab8473c880d1",
    "build-psd-pair-quartic": "f941a4059809bb38f647b1be2b2f911a37d64bc81140f51de1b71a8ccad08734",
    # The file written by --export-cs, not stdout.
    "interval-psd-pair-export-cs": "f941a4059809bb38f647b1be2b2f911a37d64bc81140f51de1b71a8ccad08734",
    # The largest outputs, of LARGE_GOLDEN_COMMANDS.
    "build-z2k-d6-k2": "9b125b703062197aeae96deac3fc51a24627c1c202eea2dd3f4125fae804176e",
    "hessian-d10-matrix": "188eb783c0f1f3fb21fd8696851225ddd3d092500629fb9542bff15b029a5d88",
}


def golden_commands(tmp_path):
    rep, x0 = leading_zero_rep_file(tmp_path)
    rep7, x07 = rep7_file(tmp_path)
    rep7_corank4, _ = rep7_file(tmp_path, rank=3)
    quartic = binary_quartic_file(tmp_path)
    return {
        **{f"hessian-d{d}-matrix": ["hessian", "--d", str(d), "--include-matrix"] for d in range(2, 6)},
        **{f"hessian-d{d}": ["hessian", "--d", str(d)] for d in range(2, 11)},
        "decompose-k1": ["decompose", "--matrix", rep, f"--x0={x0}", "--k", "1"],
        "decompose-k2": ["decompose", "--matrix", rep, f"--x0={x0}", "--k", "2"],
        "decompose-7x7-k2": ["decompose", "--matrix", rep7, f"--x0={x07}", "--k", "2"],
        "interval-xp": ["brank-interval", "--poly", quartic, "--kind", "xp"],
        "interval-sym": ["brank-interval", "--poly", quartic, "--kind", "sym"],
        "mv-det": ["mv-det", "--matrix", rep],
        # Free dimension 7: the two-block sampler.
        "interval-psd-pair": ["brank-interval", "--poly", quartic, "--kind", "psd-pair", "--budget", "7"],
        "build-z2k-d5-k2": ["build", "--kind", "z2k", "--d", "5", "--k", "2"],
        # r = 5 at k = 3: the head slices split with m = 2 and m = 1.
        "decompose-7x7-k3": ["decompose", "--matrix", rep7, f"--x0={x07}", "--k", "3"],
        # r = 3 = n - 2k: the Laplace route.
        "decompose-7x7-corank4-k2": ["decompose", "--matrix", rep7_corank4, f"--x0={x07}", "--k", "2"],
        "mv-det-6x6": ["mv-det", "--matrix", affine6_file(tmp_path)],
        "build-xp-quartic": ["build", "--kind", "xp", "--poly", quartic],
        "build-sym-quartic": ["build", "--kind", "sym", "--poly", quartic],
        "build-psd-pair-quartic": ["build", "--kind", "psd-pair", "--poly", quartic],
        "bounds-k2": ["bounds", "--birank", "16", "--k", "2", "--D", "4"],
        # Exact fractions of up to 723 digits next to their floats.
        "bounds-k300": ["bounds", "--birank", "5", "--k", "300", "--D", "9"],
    }


def indented(text):
    # The canonical text up to its compact layout: json.loads of an output
    # re-rendered with indent=2.
    return json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n"


def sha256(text):
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


def assert_golden(name, text, content=True):
    # The bytes of the output, and (unless content is False) its content.
    assert sha256(text) == GOLDEN_COMPACT_DIGESTS[name], name
    assert not content or sha256(indented(text)) == GOLDEN_DIGESTS[name], name


def test_golden_stdout_digests(tmp_path, capsys):
    assert GOLDEN_COMPACT_DIGESTS.keys() == GOLDEN_DIGESTS.keys()
    for name, argv in golden_commands(tmp_path).items():
        code, out = run(capsys, argv)
        assert code == 0, name
        assert_golden(name, out)


def test_golden_digests_do_not_depend_on_interpreter_settings(tmp_path):
    # bounds-k300 prints integers of up to 723 digits, past a digit limit
    # of 640; the two builds and the interval iterate over sets, whose
    # order of str keys follows the hash seed.
    commands = golden_commands(tmp_path)
    for digits, seed in itertools.product(("640", "0"), ("0", "12345")):
        for name in ("bounds-k300", "build-psd-pair-quartic", "interval-sym"):
            proc = run_python(["-m", "birank", *commands[name]], PYTHONINTMAXSTRDIGITS=digits, PYTHONHASHSEED=seed)
            assert proc.returncode == 0, (name, digits, seed, proc.stderr)
            assert sha256(proc.stdout) == GOLDEN_COMPACT_DIGESTS[name], (name, digits, seed)


def test_golden_export_cs_digest(tmp_path, capsys):
    export = tmp_path / "cs.json"
    argv = golden_commands(tmp_path)["interval-psd-pair"] + ["--export-cs", str(export)]
    code, out = run(capsys, argv)
    assert code == 0
    assert_golden("interval-psd-pair", out)
    assert_golden("interval-psd-pair-export-cs", export.read_text())


# Kept out of golden_commands, whose every command the reach guard runs
# under a profiler: that takes seconds on the 2.6 MB z2k system.
LARGE_GOLDEN_COMMANDS = {
    "build-z2k-d6-k2": ["build", "--kind", "z2k", "--d", "6", "--k", "2"],
    "hessian-d10-matrix": ["hessian", "--d", "10", "--include-matrix"],
}


def test_golden_large_output_digests(tmp_path, capsys):
    # Many record batches, to stdout and to an --out file.
    for name, argv in LARGE_GOLDEN_COMMANDS.items():
        code, out = run(capsys, argv)
        assert code == 0, name
        assert_golden(name, out)
        path = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(path)]) == 0, name
        assert_golden(name, path.read_bytes(), content=False)


def test_emit_holds_a_few_record_batches_not_the_text(tmp_path):
    # The z2k system is built and written inside the traced window.  Its
    # equations' terms are made from the anti-chain rule a batch at a time
    # as they are written: held as term tuples they would take 1.8 MB, and
    # the whole text, or its encoded bytes, the output's size.  Writing
    # consumes the equation records, so the object is built once for each
    # use.
    path = tmp_path / "z2k.json"
    tracemalloc.start()
    try:
        obj = rankmin.system_to_json(rankmin.build_z2k(5, 2))
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._emit(obj, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 350_000
    # Half the size of the same system's 1.8 MB text with indent=2.
    assert peak < 900_000
    assert peak - built < size / 2
    assert path.read_text() == canonical_json(rankmin.system_to_json(rankmin.build_z2k(5, 2)))


def test_emit_opens_out_at_the_first_chunk(tmp_path, capsys):
    # An object without an iterator that fails to encode writes nothing,
    # however long its lists.
    path = tmp_path / "out.json"
    records = [{"a": 0.5}] * (2 * cli._BATCH) + [{"a": float("nan")}]
    for obj in ({"mu": float("nan")}, {"a": records}):
        for out_path in (str(path), None):
            with pytest.raises(ValueError):
                cli._emit(obj, out_path)
    assert not path.exists()
    assert capsys.readouterr().out == ""
    # An iterator's records are written in chunks: a failure in the first
    # writes nothing, and one in a later chunk leaves the chunks before it.
    with pytest.raises(ValueError):
        cli._emit({"a": iter(records[-cli._BATCH:])}, str(path))
    assert not path.exists()
    with pytest.raises(ValueError):
        cli._emit({"a": iter(records)}, str(path))
    written = path.read_text()
    assert written and canonical_json({"a": records[:-1]}).startswith(written)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_certify_report_that_fails_to_encode_writes_nothing(tmp_path, capsys):
    # The last of 200 vertices has mu = 2.4e308, which overflows to inf,
    # while the margin stays finite.  The report used to be written after
    # its first 128 vertex_mu values, and --out kept the truncated text.
    identity, big = ([[v if i == j else 0.0 for j in range(3)] for i in range(3)] for v in (1.0, 8e307))
    vertices = [identity] * 199 + [big]
    path = write_json(tmp_path / "vertices.json", {"vertices": vertices})
    out = tmp_path / "out.json"
    assert_one_line_error(capsys, ["certify", "--vertices", path, "--r", "0", "--out", str(out)], "JSON")
    assert not out.exists()


def every_subcommand(tmp_path):
    """The golden commands and one command for each subcommand, kind and
    mode they leave out; every one exits 0."""
    golden = golden_commands(tmp_path)
    quadratic = write_json(
        tmp_path / "quadratic.json",
        poly_to_json(Polynomial(2, {(2, 0): 1, (1, 1): Fraction(1, 2), (0, 2): -3})),
    )
    vertices = write_json(tmp_path / "vertices.json", {"vertices": [[[2.0, 0.0], [0.0, 1.0]]]})
    pairs = write_json(
        tmp_path / "pairs.json",
        {"vertices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]]},
    )
    commands = list(golden.values())
    commands += [["build", "--kind", kind, "--poly", quadratic] for kind in ("xp", "sym", "psd-pair")]
    commands += [
        # Every nullspace direction of a binary quadratic's xp system is
        # skew, so the shared-symmetric-part route runs.
        ["brank-interval", "--poly", quadratic, "--kind", "xp"],
        golden["mv-det"] + ["--degrees", "0,2"],
        ["certify", "--vertices", vertices, "--r", "1"],
        ["certify", "--pair", "--vertices", pairs, "--r", "1"],
        ["bounds", "--birank", "16", "--k", "2", "--D", "4"],
    ]
    return commands


def stdlib_json(obj):
    # The definition of the canonical text.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def first_difference(a, b):
    # Index of the first differing character, or None when equal; pytest's
    # own diff of two multi-megabyte strings takes minutes.
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def test_canonical_json_matches_stdlib_on_every_subcommand(tmp_path, capsys, monkeypatch):
    emitted = []
    emit = cli._emit

    def recording(obj, out_path):
        # An iterator is consumed by one write: record it as a list, and
        # write an iterator over that list.
        lists = {key: list(value) for key, value in obj.items() if isinstance(value, Iterator)}
        emitted.append({**obj, **lists})
        emit({**obj, **{key: iter(value) for key, value in lists.items()}}, out_path)

    monkeypatch.setattr(cli, "_emit", recording)
    indefinite = [[0.0, 0.5], [0.5, 0.0]]
    rejected = [
        ["certify", "--vertices", write_json(tmp_path / "rejected.json", {"vertices": [indefinite]}),
         "--r", "1"],
        ["certify", "--pair", "--r", "1", "--vertices",
         write_json(tmp_path / "rejected-pair.json", {"vertices": [[indefinite, indefinite]]})],
    ]
    commands = [(argv, 0) for argv in every_subcommand(tmp_path)] + [(argv, 2) for argv in rejected]
    commands.append((["hessian", "--d", "4"], 0))
    for argv, want in commands:
        code, out = run(capsys, argv)
        assert code == want, argv
        assert first_difference(out, stdlib_json(emitted[-1])) is None, argv
        parsed = json.loads(out)
        assert first_difference(canonical_json(parsed), stdlib_json(parsed)) is None, argv
        assert first_difference(canonical_json(parsed), out) is None, argv
    assert len(emitted) == len(commands)
    assert any(isinstance(v, float) for obj in emitted for v in obj.values())


# Checked in a fresh interpreter, which has loaded nothing yet.
FRESH_PROCESS = """
import contextlib, io, json, sys
import birank.cli
numpy_after_import = "numpy" in sys.modules
runs = []
for argv in sorted(json.loads(sys.argv[1]), key=lambda argv: argv[0] == "certify"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = birank.cli.main(argv)
    runs.append((argv[0], code, "numpy" in sys.modules))
import birank
from birank import jacobi_eigh
resolved = {name: getattr(birank, name) is getattr(birank.certify, name) for name in LAZY_NAMES}
print(json.dumps({
    "numpy_after_import": numpy_after_import,
    "runs": runs,
    "resolved": resolved,
    "from_import": jacobi_eigh is birank.certify.jacobi_eigh,
    "all": birank.__all__,
    "all_resolve": all(hasattr(birank, name) for name in birank.__all__),
}))
"""
LAZY_NAMES = ["certify_brank", "certify_minrank", "jacobi_eigh", "mu"]
PACKAGE_ALL = [
    "AffineMatrixPoly", "BiDecomposition", "ConstraintSystem", "ExactMatrix", "Polynomial",
    "Signature", "build_affine_system", "build_psd_pair_system", "build_sym_system", "build_z2k",
    "certify_brank", "certify_minrank", "char_coefficients", "dc_lower_bound", "dc_sqrt_bound",
    "decompose_from_representation", "det_poly", "generic_birank_floor", "hessian_report",
    "homogeneous_part", "jacobi_eigh", "minrank_interval", "monomial_index_set", "mu", "perm_poly",
    "perm_zero_point", "point", "rank_exact", "shift", "signature_exact", "singular_normal_form",
]


def test_numpy_loads_only_when_certify_runs(tmp_path):
    # numpy is the largest fixed cost of a process; no subcommand but
    # certify computes in floating point.
    commands = every_subcommand(tmp_path)
    script = FRESH_PROCESS.replace("LAZY_NAMES", repr(LAZY_NAMES))
    proc = run_python(["-c", script, json.dumps(commands)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["numpy_after_import"] is False
    runs = report["runs"]
    assert len(runs) == len(commands)
    assert {name for name, _, _ in runs} == set(cli._HANDLERS)
    for name, code, numpy_loaded in runs:
        assert code == 0, name
        assert numpy_loaded == (name == "certify"), name
    assert report["resolved"] == {name: True for name in LAZY_NAMES}
    assert report["from_import"] is True
    assert report["all"] == PACKAGE_ALL and report["all_resolve"] is True


CONTROL = "".join(map(chr, range(32)))
ADVERSARIAL_SHAPES = [
    ["[ ] { } , : \" \\", "]\x00[", "\u00e9\u2603\U0001f600", CONTROL],
    {"]" + CONTROL: [CONTROL, ["]", "["]], "\u2603": {"\x00": "\x00"}},
    [["]", "\x00"], ["[", CONTROL]],
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[]]], {"a": {"b": {"c": []}}},
    [[1, 2], []], [[], [1]], [[1], [], [2, 3]], [[[]], []],
    [1, [2], {"a": 1}, "s", None], [[1, [2]], [3]], [[1, {}]], {"a": 1, "b": [1]},
    (1, (2, 3), [(4,), (5, 6)]), {"t": ((1, 2), (3, 4))},
    [True, False, None, 0, -1, 10 ** 200, -(10 ** 200), 1.5, -0.0, 1e300, 5e-324],
    {"big": [[10 ** 100, -(10 ** 100)]], "flag": False, "none": None},
    {1: [1], 2.5: [2], -3: {}}, {True: [1], False: 0}, {None: [None]},
    "top", "\x00", 7, 2.5, None, True,
    # Record lists: dicts that share one set of str keys.
    [{"terms": [[0, 1, 2], [3, 4, 5]], "rhs": {"num": "1", "den": "1"}},
     {"terms": [[6]], "rhs": {"num": "-1", "den": "2"}}],
    [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
    [{1: "x", 2: "y"}, {1: "z", 2: "w"}],
    [{"a": 1, "b": [1]}, {"a": [2], "b": [3]}],
    [{"a": [1, 2]}, {"a": [[1], [2]]}],
    [{"a": {"x": 1}}, {"a": [1]}],
    [{"a": [], "b": {}}, {"a": [1], "b": {"x": 1}}],
    [{"a": [[1], []]}, {"a": [[2]]}],
    [{"a": {"x": {"y": 1}}}, {"a": {"x": {}}}],
    [{"a": [{"b": 1}, {"b": 2}]}, {"a": [{"b": 3}, {"b": 4}]}],
    [{"a": 1, "b": [1, 2]}],
    [{"]]\x00[[": ["]]\x00[[", "}\x00{"], "k": {"}\x00{": "]\x00["}},
     {"]]\x00[[": [CONTROL], "k": {"": CONTROL}}],
    [{"a": [["]", "["], [CONTROL]], "b": (1, 2)}, {"a": (("}",),), "b": [None, True]}],
    [{"a": i, "b": [i, -i], "c": {"x": str(i)}} for i in range(2 * cli._BATCH + 3)],
    # One record that differs, in the second batch.
    [{"a": i, "b": [i, -i]} for i in range(cli._BATCH + 2)] + [{"a": [[1]], "b": []}] + [{"a": 0, "b": [0]}],
    [{"a": i} for i in range(cli._BATCH + 2)] + [{"b": 1}] + [{"a": 0}],
]


@pytest.mark.parametrize("obj", ADVERSARIAL_SHAPES)
def test_canonical_json_matches_stdlib_on_adversarial_shapes(obj):
    assert canonical_json(obj) == stdlib_json(obj)


def equation_records(count):
    return [{"terms": [[0, i, i + 1, 1], [1, i, i + 1, -1]], "rhs": {"num": str(i), "den": "1"}}
            for i in range(count)]


ITERATED_RECORDS = [equation_records(count) for count in (0, 1, 127, 128, 129, 257)] + [
    # Keys that differ inside the second batch.
    equation_records(130) + [{"terms": [], "rhs": None, "extra": 1}] + equation_records(2),
]


@pytest.mark.parametrize("records", ITERATED_RECORDS, ids=lambda records: f"{len(records)}-records")
def test_canonical_json_writes_records_from_an_iterator(records):
    assert cli._BATCH == 128
    assert canonical_json({"eqs": iter(records)}) == stdlib_json({"eqs": records})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_canonical_json_refuses_non_finite_floats(value):
    later_batch = [{"a": 0.5, "b": [0.5]}] * cli._BATCH
    for obj in (value, [value], [1, [value]], [[value]], {"a": value}, {"a": value, "b": []},
                later_batch + [{"a": value, "b": [0.5]}], later_batch + [{"a": 0.5, "b": [value]}]):
        with pytest.raises(ValueError):
            canonical_json(obj)
