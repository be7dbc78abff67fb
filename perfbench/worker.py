"""Runs one workload's passes in a fresh interpreter: ``worker.py SPEC``.

SPEC is a JSON file with ``jobs``, ``seconds``, ``out_dir``, ``result`` and
``trace`` (a span file path, or null for an untraced run).  The worker
calls ``birank.cli.main(argv)`` for each job in turn, one job at a time,
and starts another pass while the time left exceeds the median pass so
far (always at least one pass).  Job outputs go to
``out_dir/p<pass>/<job>.json`` and are checked afterwards by the parent,
so checking never runs inside this process.

While a job runs, the worker also measures the speed of the CPU it runs
on.  Every SAMPLE_PERIOD_S of wall time a SIGALRM handler times
``calibrate()``, a fixed piece of exact rational arithmetic that does not
involve birank; one more sample is taken just before the job and one just
after.  On a shared host a CPU's speed swings by up to a factor of two
within seconds, and other tenants' load on different CPUs is unrelated, so
the samples must come from the job's own CPU and from inside the job: the
worker is pinned to one CPU and samples with a timer, not from another
thread or process.  A job's ``seconds`` is its wall time less the time
spent in the handler; ``calibration`` holds its samples.
"""

import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import exact

# A fixed 9x9 integer matrix; one Fraction determinant of it takes about
# a millisecond.
CALIBRATION_MATRIX = [[(7 * i * i + 3 * j + 5 * i * j) % 19 - 9 for j in range(9)] for i in range(9)]
CALIBRATION_DETS = 4
SAMPLE_PERIOD_S = 0.1
# The time of one calibrate() on the machine the reported times refer to.
CALIBRATION_REFERENCE_S = 0.003


def calibrate():
    """Seconds taken by a fixed amount of Fraction arithmetic, with the
    collector off so the program's heap does not enter into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(CALIBRATION_DETS):
            exact.det(CALIBRATION_MATRIX)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_seconds(seconds, calibration):
    """``seconds`` of wall time, rescaled to a machine on which
    ``calibrate()`` takes CALIBRATION_REFERENCE_S, given calibration times
    taken during it."""
    return seconds * CALIBRATION_REFERENCE_S / statistics.fmean(calibration)


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_call(fn):
    """Run ``fn()`` while sampling the CPU's speed.  Returns (result or
    exception, seconds excluding the samples, samples)."""
    samples = []  # (start, duration) of each sample

    def sample(signum=None, frame=None):
        begin = time.perf_counter()
        samples.append((begin, calibrate()))

    sample()
    previous = signal.signal(signal.SIGALRM, sample)
    try:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # a crash fails this job, not the run
            outcome = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
    finally:
        signal.signal(signal.SIGALRM, previous)
    sample()
    inside = sum(d for t, d in samples if start <= t < end)
    return outcome, end - start - inside, [d for _, d in samples]


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    pin_to_one_cpu()
    tracer = None
    missing = []
    import birank.cli

    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracer.install()
    cli = birank.cli
    passes = []
    begin = time.perf_counter()
    while True:
        index = len(passes)
        pass_dir = os.path.join(spec["out_dir"], f"p{index}")
        os.makedirs(pass_dir)
        gc.collect()
        jobs = []
        pass_start = time.perf_counter()
        for job in spec["jobs"]:
            out = os.path.join(pass_dir, job["name"] + ".json")
            if tracer:
                tracer.job = f"p{index}/{job['name']}"
            outcome, seconds, calibration = timed_call(
                lambda: cli.main(job["argv"] + ["--out", out]))
            if isinstance(outcome, Exception):
                code, error = None, f"{type(outcome).__name__}: {outcome}"
            else:
                code, error = outcome, None
            jobs.append({"name": job["name"], "seconds": seconds, "calibration": calibration,
                         "exit": code, "error": error, "out": out})
        passes.append({"wall_seconds": time.perf_counter() - pass_start, "jobs": jobs})
        elapsed = time.perf_counter() - begin
        expected = statistics.median(p["wall_seconds"] for p in passes)
        if elapsed + expected > spec["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy

    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "missing_targets": missing,
    }
    if tracer:
        with open(spec["trace"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
