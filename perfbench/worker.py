"""Benchmark worker: one fresh process per set-up sample and per run.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
                                --mode setup|run [--seconds S] [--trace 0|1]

Imports covol from DIR/src, builds the workload's op list from the seed and
prints READY.  In setup mode it takes a host-speed probe before the import
and one after READY, prints both and the time the first one took, and
exits.  In run mode it runs whole passes over the op list, one op at a
time, for about S seconds, checks every output outside the timed region,
and prints one JSON result line.  Every op is bracketed by host-speed
probes (calibrate.py), and its time is reported normalised to the
reference host.  With --trace 1 the first half of the time runs untraced
and the second half traced, so that the tracing overhead is measured in
the same process.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import calibrate


def import_covol(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import covol
    if not os.path.abspath(covol.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("covol imported from %s, not from %s" % (covol.__file__, src))


MIN_OPS = 100  # so that ten latency samples lie beyond the 90th percentile


def run_passes(ops, seconds, min_ops=MIN_OPS, on_pass_start=None):
    """Whole passes until about `seconds` have gone by and at least
    `min_ops` ops ran: a new pass starts only while at least half a median
    pass is left.  Returns (per-op latencies as (label, wall seconds,
    normalising factor), per-pass normalised op-time sums, failures,
    attempted)."""
    clock = time.perf_counter
    latencies = []
    passes = []
    failures = []
    attempted = 0
    start = clock()
    before = calibrate.probe(2)  # the first kernel run is cold
    while True:
        if on_pass_start is not None:
            on_pass_start(len(passes))
        pass_total = 0.0
        for op in ops:
            error = None
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # a raised op is a failed op
                error = "raised %s: %s" % (type(exc).__name__, exc)
            t1 = clock()
            after = calibrate.probe()
            factor = calibrate.scale(before, after)
            before = after
            attempted += 1
            latencies.append((op.label, t1 - t0, factor))
            pass_total += (t1 - t0) * factor
            if error is None:
                try:
                    error = op.check(out)
                except Exception as exc:
                    error = "check raised %s: %s" % (type(exc).__name__, exc)
            if error is not None:
                failures.append("%s: %s" % (op.label, error))
        passes.append(pass_total)
        left = seconds - (clock() - start)
        if attempted >= min_ops and left < 0.5 * statistics.median(passes):
            return latencies, passes, failures, attempted


def op_medians(latencies, normalised=True):
    """Median latency of every op over the passes, in seconds, normalised
    to the reference host unless `normalised` is false."""
    by_label = {}
    for label, dt, factor in latencies:
        by_label.setdefault(label, []).append(dt * factor if normalised else dt)
    return {label: statistics.median(v) for label, v in by_label.items()}


def pass_estimate(latencies, normalised=True):
    """Time of one pass, as the sum over ops of each op's median latency:
    a burst of host load during one pass does not move it."""
    return sum(op_medians(latencies, normalised).values())


def latency_stats(latencies):
    values = [dt * factor for _, dt, factor in latencies]
    return {
        "op_p50_ms": statistics.median(values) * 1000.0,
        "op_p90_ms": statistics.quantiles(values, n=10)[8] * 1000.0,
        "ops": len(values),
        "per_op_ms": {k: v * 1000.0 for k, v in op_medians(latencies).items()},
    }


def run_traced(ops, seconds, result):
    """Half the time untraced, half traced; the trace summary, work counts,
    first-pass spans and per-op sizes go into `result`."""
    import tracing
    import workloads
    latencies, passes, failures, attempted = run_passes(ops, seconds / 2, 1)
    result["untraced_pass_s"] = pass_estimate(latencies)
    tracer = tracing.Tracer()
    first_pass_end = []
    op_counts = {}

    def mark(n):
        if n == 1:
            first_pass_end.append(len(tracer.spans))

    def counted(op):
        """The op, recording the work counts of its first traced run."""
        def run():
            before = dict(tracer.stats)
            out = op.run()
            if op.label not in op_counts:
                op_counts[op.label] = {k: v - before.get(k, 0)
                                       for k, v in tracer.stats.items()
                                       if v != before.get(k, 0)}
            return out
        return workloads.Op(op.label, run, op.check, op.sizes)

    with tracer:
        t_lat, t_passes, t_fail, t_att = run_passes(
            [counted(op) for op in ops], seconds / 2, 1, mark)
    result["traced_pass_s"] = pass_estimate(t_lat)
    result["traced_passes"] = len(t_passes)
    # Span times are wall clock; scale them by the traced half's mean
    # normalising factor, so that they add up against trace.pass_s.
    factor = sum(dt * f for _, dt, f in t_lat) / sum(dt for _, dt, _ in t_lat)
    result["traced_host_factor"] = factor
    result["layers"] = {name: {"calls": e["calls"],
                               "self_s": e["self_s"] * factor,
                               "total_s": e["total_s"] * factor}
                        for name, e in tracer.summary().items()}
    result["counts"] = dict(tracer.stats)
    result["spans"] = tracer.spans[:first_pass_end[0] if first_pass_end else None]
    for op in ops:
        result["sizes"][op.label].update(op_counts.get(op.label, {}))
        if op.extra_sizes is not None:
            result["sizes"][op.label].update(op.extra_sizes())
    return (latencies + t_lat, passes + t_passes, failures + t_fail,
            attempted + t_att)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if args.mode == "setup":
        t0 = time.perf_counter()
        first = calibrate.probe(2)
        probe_cost = time.perf_counter() - t0
    import_covol(args.root)
    import workloads
    ops = workloads.WORKLOADS[args.workload](args.seed)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.mode == "setup":
        sys.stdout.write("%r %r %r\n" % (first, calibrate.probe(2), probe_cost))
        return 0

    result = {"sizes": {op.label: op.sizes for op in ops}}
    if args.trace:
        latencies, passes, failures, attempted = run_traced(ops, args.seconds, result)
    else:
        latencies, passes, failures, attempted = run_passes(ops, args.seconds)
    result.update(latency_stats(latencies))
    result["pass_s"] = pass_estimate(latencies)
    result["wall_pass_s"] = pass_estimate(latencies, normalised=False)
    result["host_factor"] = statistics.median(f for _, _, f in latencies)
    result["passes"] = len(passes)
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = failures[:20]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
