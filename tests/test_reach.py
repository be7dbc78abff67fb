"""Reach guard: every module-level function and every method of a class
in birank runs under some subcommand, or is on ALLOWLIST with the reason
it stays in the package.

One command per subcommand and kind runs through cli.main under
sys.setprofile, which records the code object of every Python function
called.  A function that no subcommand reaches is either wired in, moved
to a test oracle, or allowlisted here.
"""

import importlib
import inspect
import pkgutil
import sys

import birank
from birank.cli import main
from test_cli import every_subcommand

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
    "certify.DualCertificate.bound": "dual certificate value; read by check_dual and dual_to_json",
    "cli._Parser.error": "runs on bad usage only, which exits 1",
    "cli.canonical_json": (
        "the canonical text as one string, for the tests and perfbench's checks; "
        "_emit writes the same pieces in batches"
    ),
    "rankmin._Records.__len__": (
        "json.dumps(..., indent=2) reads it, or 'eqs' comes out empty; test_rankmin round-trips "
        "through that path, and _Records stays because perfbench's test runs json.dumps on system_to_json"
    ),
    "exactla.ExactMatrix.__setattr__": "immutability guard: raises on an assignment no caller makes",
    "exactla.AffineMatrixPoly.__setattr__": "immutability guard: raises on an assignment no caller makes",
    "polyring.Polynomial.__setattr__": "immutability guard: raises on an assignment no caller makes",
    "exactla.ExactMatrix.__repr__": "readable test failures",
    "polyring.Polynomial.__repr__": "readable test failures",
    "exactla.ExactMatrix.identity": "tests only: matrix identities in the exactla tests",
    "exactla.ExactMatrix.__sub__": "tests only: matrix arithmetic for the exactla oracles",
    "exactla.ExactMatrix.__neg__": "tests only: matrix arithmetic for the exactla oracles",
    "exactla.ExactMatrix.to_lists": (
        "tests only; also the ExactMatrix branch of certify.to_float_array, which no subcommand takes"
    ),
    "exactla.AffineMatrixPoly.__eq__": "tests only: JSON round trips of representations",
    "polyring.Polynomial.__eq__": "tests only: compares polynomials with oracle results",
    "polyring.Polynomial.eval": "tests only: evaluates oracle polynomials",
    "polyring.Polynomial.zero": "tests only: ring arithmetic for the oracles",
    "polyring.Polynomial.variable": "tests only: ring arithmetic for the oracles",
    "polyring.Polynomial.monomial": "tests only: ring arithmetic for the oracles",
    "polyring.Polynomial._check_same_ring": "tests only: ring arithmetic for the oracles",
    "polyring.Polynomial.__add__": "tests only: ring arithmetic; perfbench traces it as polyring.add",
    "polyring.Polynomial.__mul__": "tests only: ring arithmetic; perfbench traces it as polyring.mul",
    "polyring.Polynomial.__neg__": "tests only: ring arithmetic for the oracles",
    "polyring.Polynomial.__sub__": "tests only: ring arithmetic for the oracles",
    "polyring.Polynomial.__rsub__": "tests only: ring arithmetic for the oracles",
}


def package_functions():
    """Module-level functions and methods written in birank's modules, by
    qualified name.  A method alias (__radd__ = __add__) is its target;
    methods that dataclass and namedtuple generate are left out, since
    their code lives in other files."""
    for info in pkgutil.iter_modules(birank.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"birank.{info.name}")
        for obj in vars(module).values():
            own_class = inspect.isclass(obj) and obj.__module__ == module.__name__
            for member in vars(obj).values() if own_class else [obj]:
                f = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                if inspect.isfunction(f) and f.__code__.co_filename == module.__file__:
                    yield f"{info.name}.{f.__qualname__}", f


def test_every_function_is_reached_or_allowlisted(tmp_path, capsys):
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for argv in every_subcommand(tmp_path):
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            code = main(argv)
        finally:
            sys.setprofile(previous)
        assert code == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()
    functions = dict(package_functions())
    unreached = sorted(name for name, f in functions.items() if f.__code__ not in reached)
    assert unreached == sorted(ALLOWLIST)
