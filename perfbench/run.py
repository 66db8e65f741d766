"""covol benchmark entry point.

    python3 perfbench/run.py --workload crosscheck|build_verify|cli_sweep
                             --seed N --seconds S --trace 0|1

Run from the root of a covol checkout; covol is imported from ./src.  Each
run starts fresh worker processes: under --trace 0, SETUP_SAMPLES of them
only get their inputs ready (for setup_s); then one runs the closed loop.
Times are normalised to the reference host by the probes of calibrate.py;
the summary line has the wall-clock figures too.  The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1.  The line before it is a summary with the run metadata,
and a traced run also writes its spans to .perfbench_out/.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import calibrate
from tracing import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
RUN_GRACE_S = 100

WORKLOADS = ("crosscheck", "build_verify", "cli_sweep")

# Per-layer metrics: (name, unit, better).  Times are self time per pass,
# counts are totals per pass.  Only layers that every workload crosses
# carry a time here, so that no time reads a constant 0 on some workload;
# the groups, covering, comodule, workspace and cli layers carry calls and
# work counts, and the trace file has the self time of every traced
# function.
PER_LAYER = [
    ("exactlin.self_s", "s", "lower"),
    ("quiver.self_s", "s", "lower"),
    ("voltage.self_s", "s", "lower"),
    ("coalgebra.self_s", "s", "lower"),
    ("exactlin.rref.self_s", "s", "lower"),
    ("exactlin.intersect_coordinates.self_s", "s", "lower"),
    ("coalgebra.PathIndex.self_s", "s", "lower"),
    ("coalgebra.is_homogeneous.self_s", "s", "lower"),
    ("voltage.SmashQuiver.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
COUNTED_CALLS = [
    "exactlin.rref", "exactlin.intersect_coordinates",
    "exactlin.finest_block_partition", "exactlin.smith_normal_form",
    "exactlin.solve_affine",
    "covering.covering_crosscheck", "covering.span_of_liftings",
    "covering.is_coalgebra_covering", "covering.extract_relators",
    "covering.universal_grading_group",
    "coalgebra.subcoalgebra_closure", "coalgebra.PathIndex",
    "coalgebra.is_homogeneous", "coalgebra.minimal_partition",
    "coalgebra.minimal_rows", "coalgebra.minimal_elements",
    "coalgebra.coassociativity_ok", "coalgebra.verify_coalgebra_map",
    "coalgebra.smash_coalgebra", "coalgebra.covering_coalgebra_iso",
    "coalgebra.compose_maps",
    "voltage.window_ball", "voltage.smash_quiver",
    "voltage.is_connected_weighting", "voltage.local_covering_ok",
    "quiver.spanning_tree_pi1", "quiver.is_covering", "quiver.lift_walk",
    "groups.abelianize", "groups.generates",
    "comodule.gradability_probe", "workspace.parse", "cli.run_command",
]
WORK_COUNTS = [
    "exactlin.rref.rows_in", "exactlin.rref.rank",
    "exactlin.intersect_coordinates.rows_in",
    "exactlin.finest_block_partition.blocks",
    "covering.span_of_liftings.generators", "covering.span_of_liftings.pairs",
    "covering.span_of_liftings.pairs_nonempty",
    "covering.span_of_liftings.dimension",
    "coalgebra.subcoalgebra_closure.dimension", "coalgebra.PathIndex.paths",
    "coalgebra.coassociativity_ok.checked", "coalgebra.coassociativity_ok.symbols",
    "coalgebra.verify_coalgebra_map.checked",
    "coalgebra.verify_coalgebra_map.symbols",
    "voltage.window.size", "voltage.smash_quiver.vertices",
    "voltage.smash_quiver.arrows", "workspace.parse.bytes",
]
PER_LAYER += [(name + ".calls", "count", "lower") for name in COUNTED_CALLS]
PER_LAYER += [(name, "count", "lower") for name in WORK_COUNTS]


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def worker_cmd(root, args, mode):
    return [sys.executable, WORKER, "--root", root, "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode,
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_sample(root, args):
    """Seconds from spawning a fresh worker to its READY line, less the
    probe it takes first: (wall, normalised to the reference host by the
    probes the worker takes before and after its set-up, on the CPU it
    ran on)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(root, args, "setup"), cwd=root,
                            stdout=subprocess.PIPE, env=worker_env(), text=True)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        stop(proc)
    if line.strip() != "READY" or proc.returncode != 0:
        fail("set-up worker failed (exit %s)" % proc.returncode)
    try:
        before, after, probe_cost = (float(x) for x in rest.split())
    except ValueError:
        fail("set-up worker printed no probe times")
    elapsed -= probe_cost
    return elapsed, elapsed * calibrate.scale(before, after)


def run_worker(root, args):
    proc = subprocess.Popen(worker_cmd(root, args, "run"), cwd=root,
                            stdout=subprocess.PIPE, env=worker_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        fail("run worker timed out")
    finally:
        stop(proc)
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "READY":
        fail("run worker failed (exit %s)" % proc.returncode)
    return json.loads(lines[-1])


def metadata(root):
    files = sorted(glob.glob(os.path.join(root, "src", "covol", "**", "*.py"),
                             recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(os.path.relpath(path, root).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def git_commit(root):
    """HEAD from .git, or "unknown" where the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(res, setup_s):
    return {
        "pass_s": (res["pass_s"], "s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }


def module_self_s(res):
    """Self time per pass of every covol module, 0.0 where a workload does
    not cross it."""
    out = {module: 0.0 for module in MODULES}
    for name, entry in res["layers"].items():
        out[name.split(".", 1)[0]] += entry["self_s"] / res["traced_passes"]
    return out


def per_layer(res):
    passes = res["traced_passes"]
    layers = res["layers"]
    values = {}
    module_self = module_self_s(res)
    for name, unit, _ in PER_LAYER:
        if name.endswith(".calls"):
            value = layers.get(name[:-6], {}).get("calls", 0) / passes
        elif name in WORK_COUNTS:
            value = res["counts"].get(name, 0) / passes
        elif name == "trace.pass_s":
            value = res["traced_pass_s"]
        elif name == "trace.untraced_pass_s":
            value = res["untraced_pass_s"]
        elif name == "trace.overhead_s":
            value = res["traced_pass_s"] - res["untraced_pass_s"]
        elif name.count(".") == 1:
            value = module_self[name.split(".")[0]]
        else:
            value = layers.get(name[:-len(".self_s")], {}).get("self_s", 0.0) / passes
        values[name] = (value, unit)
    return values


def write_trace(root, args, res, meta):
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
    passes = res["traced_passes"]
    doc = {
        "workload": args.workload, "seed": args.seed, "meta": meta,
        "traced_passes": passes,
        "traced_host_factor": res["traced_host_factor"],
        "per_pass": {name: {"calls": e["calls"] / passes,
                            "self_s": e["self_s"] / passes,
                            "total_s": e["total_s"] / passes}
                     for name, e in sorted(res["layers"].items())},
        "counts_per_pass": {k: v / passes for k, v in sorted(res["counts"].items())},
        "op_sizes": res["sizes"],
        "op_median_ms": res["per_op_ms"],
        "spans_first_pass": res["spans"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "covol", "__init__.py")):
        fail("no covol source tree at ./src/covol; run from a covol checkout")

    samples = [] if args.trace else [setup_sample(root, args)
                                     for _ in range(SETUP_SAMPLES)]
    res = run_worker(root, args)
    meta = metadata(root)

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "meta": meta, "setup_samples_s": [n for _, n in samples],
        "wall_setup_samples_s": [w for w, _ in samples],
        "wall_pass_s": res["wall_pass_s"], "host_factor": res["host_factor"],
        "passes": res["passes"],
        "ops": res["ops"], "op_p90_samples_beyond": res["ops"] // 10,
        "failed_ratio": res["failed"] / res["attempted"],
        "failures": res["failures"], "op_median_ms": res["per_op_ms"],
    }
    if args.trace:
        metrics = per_layer(res)
        summary["module_self_s"] = module_self_s(res)
        summary["trace_overhead_s"] = res["traced_pass_s"] - res["untraced_pass_s"]
        summary["traced_host_factor"] = res["traced_host_factor"]
        summary["trace_file"] = write_trace(root, args, res, meta)
    else:
        metrics = end_to_end(res, statistics.median(n for _, n in samples))
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
