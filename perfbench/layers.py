"""Per-layer metrics computed from a traced run's spans.

A span is ``(name, start, end, parent, job, error, sizes)`` as written by
tracer.py, with ``job`` = ``p<pass>/<job name>``.  Each metric is summed
over one pass and reported as the median over the traced passes.  Busy
time counts only the outermost span of a name, so recursion is not
counted twice; self time is a span's duration minus its child spans.
"""

import statistics
from collections import defaultdict

# Metric name -> unit, in the order they are printed.
METRICS = {
    "cli.self_s": "s", "cli.emit_s": "s", "cli.output_bytes": "bytes", "cli.errors": "count",
    "polyring.mul_calls": "count", "polyring.mul_s": "s", "polyring.add_calls": "count",
    "polyring.add_s": "s", "polyring.json_s": "s", "polyring.errors": "count",
    "exactla.rank_calls": "count", "exactla.rank_s": "s", "exactla.signature_s": "s",
    "exactla.solve_s": "s", "exactla.leibniz_calls": "count", "exactla.leibniz_s": "s",
    "exactla.normal_form_s": "s", "exactla.errors": "count",
    "permhess.permanent_calls": "count", "permhess.permanent_s": "s",
    "permhess.hessian_matrix_s": "s", "permhess.report_self_s": "s", "permhess.errors": "count",
    "abpdec.construct_s": "s", "abpdec.verify_target_s": "s", "abpdec.verify_build_s": "s",
    "abpdec.pairs": "count", "abpdec.pair_bound": "count", "abpdec.errors": "count",
    "rankmin.build_s": "s", "rankmin.equations": "count", "rankmin.unknowns": "count",
    "rankmin.interval_self_s": "s", "rankmin.sample_rank_calls": "count",
    "rankmin.free_dimension": "count", "rankmin.json_s": "s", "rankmin.errors": "count",
    "certify.jacobi_calls": "count", "certify.jacobi_s": "s", "certify.jacobi_max_n": "count",
    "certify.certify_s": "s", "certify.errors": "count",
    "trace_overhead_ratio": "1",
}

# Metric -> (span name, what): "time" and "calls" of the span, "self" time
# minus all children, or a size recorded on the span.
_SIMPLE = {
    "cli.self_s": ("cli.main", "self"),
    "cli.emit_s": ("cli.emit", "time"),
    "cli.output_bytes": ("cli.emit", "bytes"),
    "polyring.mul_calls": ("polyring.mul", "calls"),
    "polyring.mul_s": ("polyring.mul", "time"),
    "polyring.add_calls": ("polyring.add", "calls"),
    "polyring.add_s": ("polyring.add", "time"),
    "polyring.json_s": ("polyring.json", "time"),
    "exactla.rank_calls": ("exactla.rank", "calls"),
    "exactla.rank_s": ("exactla.rank", "time"),
    "exactla.signature_s": ("exactla.signature", "time"),
    "exactla.solve_s": ("exactla.solve", "time"),
    "exactla.leibniz_calls": ("exactla.leibniz", "calls"),
    "exactla.leibniz_s": ("exactla.leibniz", "time"),
    "exactla.normal_form_s": ("exactla.normal_form", "self"),
    "permhess.permanent_calls": ("permhess.permanent", "calls"),
    "permhess.permanent_s": ("permhess.permanent", "time"),
    "permhess.hessian_matrix_s": ("permhess.hessian_matrix", "time"),
    "permhess.report_self_s": ("permhess.report", "self"),
    "abpdec.verify_target_s": ("abpdec.verify_target", "time"),
    "abpdec.verify_build_s": ("abpdec.verify_build", "time"),
    "abpdec.pairs": ("abpdec.construct", "pairs"),
    "abpdec.pair_bound": ("abpdec.pair_bound", "pair_bound"),
    "rankmin.build_s": ("rankmin.build", "time"),
    "rankmin.equations": ("rankmin.build", "equations"),
    "rankmin.unknowns": ("rankmin.build", "unknowns"),
    "rankmin.interval_self_s": ("rankmin.interval", "self"),
    "rankmin.free_dimension": ("rankmin.interval", "free_dimension"),
    "rankmin.json_s": ("rankmin.json", "time"),
    "certify.jacobi_calls": ("certify.jacobi", "calls"),
    "certify.jacobi_s": ("certify.jacobi", "time"),
    "certify.jacobi_max_n": ("certify.jacobi", "n"),
    "certify.certify_s": ("certify.certify", "time"),
}

# Construction is decompose_det_part minus the two verification halves it
# calls; the polynomial arithmetic of construction stays in it.
_CONSTRUCT_EXCLUDES = {"abpdec.verify_target", "abpdec.verify_build"}


def _module(name):
    return name.split(".", 1)[0]


def per_pass(spans, pass_ids):
    """{metric: [value per pass]} for every metric except
    trace_overhead_ratio, over the given pass ids (``p0``, ``p1``, ...)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def has_ancestor(i, names):
        parent = spans[i][3]
        while parent != -1:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    def time_excluding(i, names):
        # Duration minus the nearest descendants whose name is in names.
        total = dur(i)
        stack = list(children[i])
        while stack:
            c = stack.pop()
            if spans[c][0] in names:
                total -= dur(c)
            else:
                stack.extend(children[c])
        return total

    acc = {p: defaultdict(float) for p in pass_ids}
    for i, (name, start, end, parent, job, error, sizes) in enumerate(spans):
        bucket = acc.get(str(job).split("/", 1)[0])
        if bucket is None:
            continue
        module = _module(name)
        if error and (parent == -1 or _module(spans[parent][0]) != module):
            bucket[f"{module}.errors"] += 1
        bucket[(name, "calls")] += 1
        if not has_ancestor(i, {name}):
            bucket[(name, "time")] += end - start
        bucket[(name, "self")] += dur(i) - sum(dur(c) for c in children[i])
        if name == "abpdec.construct":
            bucket["abpdec.construct_s"] += time_excluding(i, _CONSTRUCT_EXCLUDES)
        if name == "exactla.rank" and has_ancestor(i, {"rankmin.interval"}):
            bucket["rankmin.sample_rank_calls"] += 1
        for key, value in (sizes or {}).items():
            if key == "n":
                bucket[(name, key)] = max(bucket[(name, key)], value)
            else:
                bucket[(name, key)] += value
    out = {}
    for metric in METRICS:
        if metric == "trace_overhead_ratio":
            continue
        key = _SIMPLE.get(metric, metric)
        out[metric] = [acc[p][key] for p in pass_ids]
    return out


def medians(values_by_metric):
    return {m: statistics.median(v) for m, v in values_by_metric.items()}
