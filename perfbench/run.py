"""birank benchmark: runs one workload through ``birank.cli.main`` and
reports its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  NAME is one of the workloads in
workloads.py, or ``all`` to run each in turn.  It is a closed loop: one
client, one single-threaded worker process, each job started after the
previous one ended.

``--trace 0`` reports the end-to-end metrics: ``pass_s`` (median wall
time of one pass through the job list), ``headline_s`` (median time of
the workload's headline job), ``setup_s`` (median time of ``import
birank.cli`` in fresh interpreters) and ``peak_rss_mb`` (``ru_maxrss`` of
the worker).

The three times are reported in reference seconds: each job's measured
time is multiplied by ``worker.CALIBRATION_REFERENCE_S`` over the mean
time of ``worker.calibrate()`` sampled during that job (for an import,
sampled in the same fresh interpreter right after it).  On a shared host
a CPU's speed swings by up to a factor of two within seconds, and by tens
of percent from one minute to the next; the calibration moves with it and
the benchmark code does not change between the commits compared, so the
ratio keeps a program's own speed-up or slow-down and drops most of the
host's.  A pass's time is the sum of its jobs'.  The wall times themselves
are kept in the result file.

Failed jobs over attempted jobs is the ``failed`` and ``attempted``
fields of the result.  ``--trace 1`` runs the workload twice in fresh
workers, without and with spans around birank's public functions, and
reports the per-layer metrics of layers.py.  Its layer times are wall
times and include the calibration samples taken inside them, a few
percent spread in proportion to time; ``trace_overhead_ratio`` compares
reference seconds.

Every job's output is checked (checks.py).  The last line of standard
output is one JSON object; a fuller record, with the environment, goes to
``.perfbench/result-<workload>.json``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import worker as worker_module  # noqa: E402
import workloads  # noqa: E402

WORK = ".perfbench"
SETUP_IMPORTS = 10
PROBE_SAMPLES = 20
# Pinned like the worker; the calibration module is imported after the
# timed import, so that nothing it loads is counted or preloaded.
IMPORT_PROBE = (
    "import os, sys, time\n"
    "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "start = time.perf_counter()\n"
    "import birank.cli\n"
    "seconds = time.perf_counter() - start\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "import worker\n"
    f"calibration = [worker.calibrate() for _ in range({PROBE_SAMPLES})]\n"
    "print(repr(seconds), repr(sum(calibration) / len(calibration)))\n"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    # Fixed string hashing, so dict and set layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds(count):
    """(wall time of ``import birank.cli``, calibration time), each pair
    from a fresh interpreter."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=child_env(),
            stdout=subprocess.PIPE, check=True, text=True, timeout=60,
        ).stdout
        seconds, calibration = out.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(calibration)))
    return samples


def job_time(job):
    """A job's time in reference seconds (see the module docstring)."""
    return worker_module.reference_seconds(job["seconds"], job["calibration"])


def pass_times(worker):
    return [sum(job_time(j) for j in p["jobs"]) for p in worker["passes"]]


def run_worker(jobs, seconds, tag, trace):
    spec_path = os.path.join(WORK, f"spec-{tag}.json")
    spec = {
        "jobs": [{k: job[k] for k in ("name", "argv")} for job in jobs],
        "seconds": seconds,
        "out_dir": os.path.join(WORK, f"out-{tag}"),
        "result": os.path.join(WORK, f"worker-{tag}.json"),
        "trace": os.path.join(WORK, f"trace-{tag}.jsonl") if trace else None,
    }
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    # The worker's stdout is not ours: our last line must be the result.
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        env=child_env(), stdout=sys.stderr, check=True, timeout=170,
    )
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["trace"] = spec["trace"]
    return result


def check_passes(jobs, worker):
    """(attempted, failures) over every job of every pass."""
    by_name = {job["name"]: job for job in jobs}
    attempted = 0
    failures = []
    for index, pass_ in enumerate(worker["passes"]):
        for run in pass_["jobs"]:
            attempted += 1
            job = by_name[run["name"]]
            if run["error"]:
                problems = [run["error"]]
            elif run["exit"] != job["expect_exit"]:
                problems = [f"exit code {run['exit']}, expected {job['expect_exit']}"]
            else:
                try:
                    with open(run["out"]) as fh:
                        out = json.load(fh)
                except (OSError, ValueError) as exc:
                    problems = [f"unreadable output: {exc}"]
                else:
                    problems = checks.check(job["check"], out)
            if problems:
                failures.append({"pass": index, "job": run["name"], "problems": problems})
    return attempted, failures


def tail_percentile(values):
    """(p, value) for the highest of p99/p95/p90/p75/p50 with at least ten
    samples above it, or None."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        idx = math.ceil(p / 100 * len(ordered)) - 1
        if idx >= 0 and len(ordered) - 1 - idx >= 10:
            return p, ordered[idx]
    return None


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    # The checkout may not be a git repository; read .git directly if present.
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_workload(name, seed, seconds, trace):
    env = environment()
    work_inputs = os.path.join(WORK, "inputs", name)
    jobs = workloads.build(name, seed, work_inputs)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env}
    if trace:
        # Untraced and traced halves, each in a fresh worker.
        plain = run_worker(jobs, seconds / 2, f"{name}-plain", trace=False)
        traced = run_worker(jobs, seconds / 2, f"{name}-traced", trace=True)
        workers = [plain, traced]
        with open(traced["trace"]) as fh:
            spans = [json.loads(line) for line in fh]
        pass_ids = [f"p{i}" for i in range(len(traced["passes"]))]
        values = layers.per_pass(spans, pass_ids)
        metrics = layers.medians(values)
        plain_pass = statistics.median(pass_times(plain))
        traced_pass = statistics.median(pass_times(traced))
        metrics["trace_overhead_ratio"] = traced_pass / plain_pass
        units = layers.METRICS
        record["missing_targets"] = traced["missing_targets"]
        record["spans"] = len(spans)
    else:
        # One untimed import fills the bytecode cache.  The timed ones are
        # split around the worker, so that set-up and passes see the same
        # drift in machine speed.
        import_seconds(1)
        setup_samples = import_seconds(SETUP_IMPORTS // 2)
        worker = run_worker(jobs, seconds, name, trace=False)
        setup_samples += import_seconds(SETUP_IMPORTS - SETUP_IMPORTS // 2)
        setup = [worker_module.reference_seconds(s, [c]) for s, c in setup_samples]
        workers = [worker]
        passes = pass_times(worker)
        headline_jobs = {job["name"] for job in jobs if job["headline"]}
        headline = [job_time(j) for p in worker["passes"] for j in p["jobs"]
                    if j["name"] in headline_jobs]
        metrics = {
            "pass_s": statistics.median(passes),
            "headline_s": statistics.median(headline),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = {"pass_s": "s", "headline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        record["pass_samples"] = passes
        record["headline_samples"] = headline
        record["setup_samples"] = setup
        record["pass_tail"] = tail_percentile(passes)
        record["job_samples"] = {
            job["name"]: [job_time(j) for p in worker["passes"] for j in p["jobs"]
                          if j["name"] == job["name"]]
            for job in jobs
        }
        record["wall_s"] = {
            "pass": [sum(j["seconds"] for j in p["jobs"]) for p in worker["passes"]],
            "headline": [j["seconds"] for p in worker["passes"] for j in p["jobs"]
                         if j["name"] in headline_jobs],
            "setup": [s for s, _ in setup_samples],
            "calibration": [c for p in worker["passes"] for j in p["jobs"]
                            for c in j["calibration"]],
        }
    attempted = 0
    failures = []
    for worker in workers:
        a, f = check_passes(jobs, worker)
        attempted += a
        failures += f
    failed = len(failures)
    env["numpy"] = workers[0]["numpy"]
    record.update({
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "failures": failures, "passes": [len(w["passes"]) for w in workers],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    })
    with open(os.path.join(WORK, f"result-{name}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record):
    """Human-readable lines, to stdout before the final JSON line."""
    name = record["workload"]
    for failure in record["failures"][:10]:
        print(f"[{name}] FAILED pass {failure['pass']} {failure['job']}: "
              f"{'; '.join(failure['problems'])}")
    for metric, m in record["metrics"].items():
        note = ""
        if metric == "pass_s":
            note = f"  (median of {len(record['pass_samples'])} passes)"
        elif metric == "headline_s":
            note = f"  (median of {len(record['headline_samples'])} runs)"
        elif metric == "setup_s":
            note = f"  (median of {len(record['setup_samples'])} fresh imports)"
        print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}{note}")
    if record.get("pass_tail"):
        p, value = record["pass_tail"]
        print(f"[{name}] pass_s p{p} = {value:.6g} s")
    if record.get("wall_s"):
        wall = {k: statistics.median(v) for k, v in record["wall_s"].items()}
        print(f"[{name}] times above are reference seconds; wall-time medians: "
              f"pass {wall['pass']:.6g} s, headline {wall['headline']:.6g} s, "
              f"setup {wall['setup']:.6g} s, calibration {wall['calibration']:.6g} s "
              f"(reference {worker_module.CALIBRATION_REFERENCE_S} s)")
    print(f"[{name}] failed_ratio = {record['failed_ratio']:.6g} "
          f"({record['failed']} of {record['attempted']} jobs)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "birank", "cli.py")):
        print("error: run from the repository root; src/birank/cli.py not found", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(record)
        records.append(record)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
