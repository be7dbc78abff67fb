"""Tests of the benchmark itself: deterministic inputs, output checks that
reject corrupted outputs, span accounting and the worker under tracing.

    python3 -m pytest -q perfbench
"""

import copy
import filecmp
import json
import gc
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import checks  # noqa: E402
import exact  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _files(root):
    return sorted(os.listdir(root))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic_per_seed(tmp_path, name):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    jobs_a = workloads.build(name, 7, str(a))
    jobs_b = workloads.build(name, 7, str(b))
    workloads.build(name, 8, str(c))
    assert _files(a) == _files(b)
    for f in _files(a):
        assert filecmp.cmp(a / f, b / f, shallow=False)
    strip = lambda jobs, root: json.dumps(jobs).replace(str(root), "")  # noqa: E731
    assert strip(jobs_a, a) == strip(jobs_b, b)
    if name != "hessian-sweep":  # whose seed only permutes the job order
        assert any(not filecmp.cmp(a / f, c / f, shallow=False) for f in _files(a))


@pytest.mark.parametrize("corank", [1, 3])
def test_representation_has_the_requested_corank(corank):
    rep, x0, const, coeffs = gen.corank_representation(gen.rng_for(3, "t"), corank=corank)
    assert any(x0)
    assert exact.rank(const) == 7 - corank
    at_x0 = exact.affine_eval(exact.matrix_from_json(rep["const"]),
                              [exact.matrix_from_json(m) for m in rep["coeff"]], x0)
    assert at_x0 == const


def test_known_spectrum_matrix():
    np = pytest.importorskip("numpy")
    spectrum = gen.indefinite_spectrum(20)
    a = gen.known_spectrum_matrix(gen.rng_for(1, "t"), spectrum)
    assert all(a[i][j] == a[j][i] for i in range(20) for j in range(20))
    got = np.linalg.eigvalsh(np.array(a))
    assert np.allclose(sorted(got), sorted(float(v) for v in spectrum), atol=1e-12)


def test_interpolate_recovers_coefficients():
    coeffs = [Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(5)]
    ts = range(4)
    values = [sum(c * t ** i for i, c in enumerate(coeffs)) for t in ts]
    assert exact.interpolate(ts, values) == coeffs


def test_hessian_check_rejects_a_wrong_signature():
    good = {"d": 5, "rank": 25, "signature": [8, 17, 0], "new_bound": 17}
    assert checks.check({"kind": "hessian", "d": 5}, good) == []
    bad = dict(good, signature=[9, 16, 0])
    assert checks.check({"kind": "hessian", "d": 5}, bad)
    assert checks.check({"kind": "hessian", "d": 5}, dict(good, rank=24))


def test_z2k_check_rejects_a_flipped_coefficient():
    from birank import rankmin

    out = json.loads(json.dumps(rankmin.system_to_json(rankmin.build_z2k(5, 2))))
    spec = {"kind": "z2k", "d": 5, "k": 2}
    assert checks.check(spec, out) == []
    flipped = copy.deepcopy(out)
    flipped["eqs"][0]["terms"][0][3] = 2
    assert checks.check(spec, flipped)
    rhs = copy.deepcopy(out)
    rhs["eqs"][0]["rhs"] = {"num": "1", "den": "1"} if rhs["eqs"][0]["rhs"]["num"] == "0" else {"num": "0", "den": "1"}
    assert checks.check(spec, rhs)
    assert checks.check(spec, dict(out, scale={"num": "-1", "den": "2"}))


def test_decompose_check_rejects_a_changed_coefficient():
    from birank import abpdec, cli, exactla

    rng = gen.rng_for(5, "small")
    rep, x0, const, coeffs = gen.corank_representation(rng, n=5, num_vars=3, corank=1)
    result = abpdec.decompose_from_representation(exactla.affine_from_json(rep), x0, 2)
    out = {
        "n": result.n, "num_vars": result.num_vars, "k": result.half_degree,
        "constant_rank": result.constant_rank, "pair_count": result.pair_count,
        "pair_bound": result.pair_bound,
        "decomposition": abpdec.decomposition_to_json(result.decomposition),
    }
    out = json.loads(cli.canonical_json(out))
    spec = {"kind": "decompose", "n": 5, "num_vars": 3, "k": 2, "corank": 1,
            "const": const, "coeffs": coeffs, "points": [[1, -2, 3], [2, 1, -1], [-3, 1, 2]]}
    assert checks.check(spec, out) == []
    bad = copy.deepcopy(out)
    term = bad["decomposition"]["pairs"][0]["f"]["terms"][0]
    term["num"] = str(int(term["num"]) + int(term["den"]))
    assert checks.check(spec, bad)
    assert checks.check(spec, dict(out, constant_rank=3))
    assert checks.check(spec, dict(out, pair_count=out["pair_count"] + 1))


def test_certify_check_rejects_a_perturbed_mu():
    spec = {"kind": "certify", "r": 2, "l": 2, "mu": ["3/8"], "scale": "1", "accepted": True}
    good = {"r": 2, "l": 2, "vertex_mu": [0.375], "accepted": True}
    assert checks.check(spec, good) == []
    assert checks.check(spec, dict(good, vertex_mu=[0.375 + 1e-6]))
    assert checks.check(spec, dict(good, accepted=False))
    assert checks.check(spec, dict(good, vertex_mu=[]))


def test_interval_check_rejects_a_wrong_free_dimension():
    spec = {"kind": "interval", "num_vars": 4, "k": 2}
    good = {"kind": "sym", "lower": 1, "upper": 9, "free_dimension": 20}
    assert checks.check(spec, good) == []
    assert checks.check(spec, dict(good, free_dimension=19))
    assert checks.check(spec, dict(good, lower=10))


def test_layer_accounting_on_synthetic_spans():
    spans = [
        # name, start, end, parent, job, error, sizes
        ["cli.main", 0.0, 10.0, -1, "p0/a", False, None],
        ["abpdec.construct", 1.0, 9.0, 0, "p0/a", False, {"pairs": 4}],
        ["abpdec.verify_target", 2.0, 5.0, 1, "p0/a", False, None],
        ["polyring.mul", 2.5, 3.0, 2, "p0/a", False, None],
        ["polyring.mul", 6.0, 7.0, 1, "p0/a", False, None],
        ["rankmin.interval", 9.0, 9.5, 0, "p0/a", False, {"free_dimension": 2}],
        ["exactla.rank", 9.1, 9.2, 5, "p0/a", True, None],
        ["cli.main", 0.0, 1.0, -1, "p1/a", False, None],
    ]
    values = layers.per_pass(spans, ["p0", "p1"])
    assert values["cli.self_s"] == [pytest.approx(1.5), pytest.approx(1.0)]
    assert values["abpdec.construct_s"] == [pytest.approx(5.0), 0]
    assert values["abpdec.verify_target_s"] == [pytest.approx(3.0), 0]
    assert values["polyring.mul_calls"] == [2, 0]
    assert values["polyring.mul_s"] == [pytest.approx(1.5), 0]
    assert values["abpdec.pairs"] == [4, 0]
    assert values["rankmin.sample_rank_calls"] == [1, 0]
    assert values["rankmin.interval_self_s"] == [pytest.approx(0.4), 0]
    assert values["exactla.errors"] == [1, 0]
    assert set(values) | {"trace_overhead_ratio"} == set(layers.METRICS)


def test_worker_traces_every_layer_it_reaches(tmp_path):
    rep, x0, _, _ = gen.corank_representation(gen.rng_for(1, "w"), n=5, num_vars=3, corank=1)
    gen.write_json(tmp_path / "rep.json", rep)
    spec = {
        "jobs": [
            {"name": "h", "argv": ["hessian", "--d", "3"]},
            {"name": "dec", "argv": ["decompose", "--matrix", str(tmp_path / "rep.json"),
                                     "--x0=" + ",".join(map(str, x0)), "--k", "2"]},
        ],
        "seconds": 0,
        "out_dir": str(tmp_path / "out"),
        "result": str(tmp_path / "result.json"),
        "trace": str(tmp_path / "trace.jsonl"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(tmp_path / "spec.json")],
                   env=env, check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["missing_targets"] == []
    assert [j["exit"] for j in result["passes"][0]["jobs"]] == [0, 0]
    assert all(len(j["calibration"]) >= 2 for j in result["passes"][0]["jobs"])
    spans = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    values = layers.medians(layers.per_pass(spans, ["p0"]))
    for metric in ("permhess.permanent_calls", "exactla.rank_calls", "polyring.mul_calls",
                   "exactla.leibniz_calls", "abpdec.pairs", "cli.output_bytes"):
        assert values[metric] > 0, metric
    assert values["abpdec.pair_bound"] == 4 * (5 + 2 * 3)


def test_timed_call_samples_inside_the_job_and_leaves_no_timer():
    def busy():
        end = time.perf_counter() + 4 * worker.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
        raise ValueError("job failed")

    previous = signal.getsignal(signal.SIGALRM)
    gc.disable()
    try:
        start = time.perf_counter()
        outcome, seconds, samples = worker.timed_call(busy)
        wall = time.perf_counter() - start
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert isinstance(outcome, ValueError)
    # One sample before, one after and at least two from the timer.
    assert len(samples) >= 4
    inside = sum(samples[1:-1])
    assert seconds == pytest.approx(4 * worker.SAMPLE_PERIOD_S - inside, abs=0.05)
    assert seconds < wall - inside
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_reference_seconds_scale_by_the_calibration():
    ref = worker.CALIBRATION_REFERENCE_S
    assert worker.reference_seconds(3.0, [ref, ref]) == pytest.approx(3.0)
    assert worker.reference_seconds(3.0, [2 * ref, 4 * ref]) == pytest.approx(1.0)


def test_tracer_replaces_aliases_and_imported_names():
    code = (
        "import tracer, birank.cli\n"
        "from birank import exactla, permhess, polyring, rankmin\n"
        "assert tracer.Tracer().install() == []\n"
        "P = polyring.Polynomial\n"
        "assert P.__rmul__ is P.__mul__ and P.__radd__ is P.__add__\n"
        "assert hasattr(P.__mul__, '__wrapped__')\n"
        "assert rankmin.rank_exact is exactla.rank_exact is permhess.rank_exact\n"
        "assert hasattr(permhess.signature_exact, '__wrapped__')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(REPO, "src"), HERE]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "hessian-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in bench["per_layer"]] == list(layers.METRICS)
    assert {m["name"] for m in bench["end_to_end"]} == {"pass_s", "headline_s", "setup_s", "peak_rss_mb"}
    with open(os.path.join(HERE, "mapping.json")) as fh:
        mapping = json.load(fh)
    for row in mapping["rows"]:
        assert set(row["layer_metrics"]) <= set(layers.METRICS)
        assert set(row["moves"]) <= {m["name"] for m in bench["end_to_end"]}
        assert set(row["on"]) | set(row["flat_on"]) <= set(workloads.NAMES)
