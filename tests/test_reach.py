"""Reach guard: every module-level function of birank runs under some
subcommand, or is on ALLOWLIST with the reason it stays in the package.

One command per subcommand and kind runs through cli.main under
sys.setprofile, which records the code object of every Python function
called.  A function that no subcommand reaches is either wired in, moved
to a test oracle, or allowlisted here.
"""

import importlib
import inspect
import pkgutil
import sys
from fractions import Fraction

import birank
from birank.cli import main
from birank.polyring import Polynomial, poly_to_json
from test_cli import golden_commands, write_json

ALLOWLIST = {
    "polyring.perm_poly": "paper primitive: the permanent as a polynomial",
    "polyring.det_poly": "paper primitive: the determinant as a polynomial",
    "polyring.shift": "paper primitive: p(x + x0), the expansion at a point",
    "polyring.homogeneous_part": "paper primitive: the degree-k slice of a polynomial",
    "permhess.perm_zero_point": "paper primitive: the singular point hessian_blocks is assembled at",
    "exactla.rank_exact": "paper primitive: rank over the rationals; the subcommands rank integers",
    "exactla.affine_to_json": "paper primitive: writes the representations decompose and mv-det read",
    "certify.mu": "the mu_l the dual certificates bound; waits for exact certificates in certify",
    "certify.psd_check": "PSD test of a vertex; waits for exact certificates in certify",
    "certify.dual_from_eigs": "dual certificate; waits for exact certificates in certify",
    "certify.check_dual": "dual certificate checker; waits for exact certificates in certify",
    "certify.dual_to_json": "dual certificate writer; waits for exact certificates in certify",
    "certify.dual_from_json": "dual certificate reader; waits for exact certificates in certify",
}


def reach_commands(tmp_path):
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


def module_functions():
    for info in pkgutil.iter_modules(birank.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"birank.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj


def test_every_function_is_reached_or_allowlisted(tmp_path, capsys):
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for argv in reach_commands(tmp_path):
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            code = main(argv)
        finally:
            sys.setprofile(previous)
        assert code == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()
    functions = dict(module_functions())
    unreached = sorted(name for name, f in functions.items() if f.__code__ not in reached)
    assert unreached == sorted(ALLOWLIST)
