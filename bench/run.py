"""Benchmark for the logcoral library.

    python3 bench/run.py --workload train_default --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                       # every workload, one process each

Workloads (see workloads.py): train_default, feature_align, gradcheck_sweep.
With --trace 0 the last line of output is one JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics, measured by timing wrappers (tracing.py) on the library's modules,
and the tracing overhead. The lines before it report the same run under the
workload's own metric names, with sample counts, and record the environment.

Timing is in-process `time.perf_counter` only, on whatever machine runs it;
nothing traces the machine as a whole. BLAS is pinned to one thread. The
gated times are scaled by a reference kernel run between operations
(reference.py), which cancels most of a shared machine's speed changes; the
report lines give the measured times as well.
"""
import os

# before numpy is imported, here or in any module loaded below
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np  # noqa: E402  (after the thread pinning)

import reference
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("train_default", "feature_align", "gradcheck_sweep")
SETUP_REPEATS = 7       # input generations and warm-ups, each timed
IMPORT_REPEATS = 11     # fresh-interpreter imports, each timed; one is ~0.2 s
BLOCK_SECONDS = 1.0  # operations between switches of tracing on and off

# The report lines name each workload's operation latency and throughput
# in the workload's own terms, with the tail percentile it reports: the
# highest with at least ten samples beyond it at the default run length.
NAMES = {
    "train_default": ("train.step_ms", 99, "train.steps_per_s"),
    "feature_align": ("align.op_ms", 95, "align.ops_per_s"),
    "gradcheck_sweep": ("gradcheck.seed_ms", 95, "gradcheck.seeds_per_s"),
}


def percentile(values, q):
    return float(np.percentile(values, q))


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- environment

def git_commit():
    """The checked-out commit; None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    total += sum(1 for _ in f)
    return total


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(), "src_lines": src_lines(),
        "timer": "time.perf_counter in-process; no machine-wide tracing; shared machine",
        "scaling": "gated times x nominal / reference kernel time around them (reference.py)",
    }


# ------------------------------------------------------------------ one run

def measure(workload, seconds, tracer=None):
    """Blocks of operations until `seconds` have passed. A block that cannot
    be cut short (one train() call) may overrun. Without a tracer every
    block is untraced; with one, blocks alternate untraced and traced,
    starting untraced, and at least one of each runs."""
    untraced, traced = [], []
    t0 = perf_counter()
    while True:
        remaining = seconds - (perf_counter() - t0)
        need_traced = tracer is not None and not traced
        if untraced and not need_traced and remaining <= 0:
            break
        use_tracer = tracer is not None and len(traced) < len(untraced)
        if use_tracer:
            tracer.install()
        try:
            block = workload.run_block(tracer if use_tracer else None,
                                       min(BLOCK_SECONDS, max(remaining, 0.0)))
        finally:
            if use_tracer:
                tracer.uninstall()
        (traced if use_tracer else untraced).append(block)
    return untraced, traced


def scaled_ms(blocks):
    return [s * 1e3 for b in blocks for s in b.scaled]


def trace_overhead(untraced, traced):
    """Traced over untraced operation time, minus 1: the median over pairs of
    a traced block and the untraced block run just before it, of the ratio
    of their median scaled times. A traced operation's self times add up to
    its root span, so this is also how far they miss the untraced time."""
    return median([median(t.scaled) / median(u.scaled) for u, t in zip(untraced, traced)]) - 1.0


def end_to_end(blocks, setup_s):
    samples = scaled_ms(blocks)
    return {
        "op_ms.p50": (percentile(samples, 50), "ms"),
        "op_ms.p90": (percentile(samples, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(workload, tracer, untraced, traced, grad):
    s = tracer.summary()
    ops = sum(len(b.samples) for b in traced)

    def calls(key):
        return s[key]["calls"] / ops

    def self_ms(key):
        return s[key]["self_s"] * 1e3 / ops

    def per_call_ms(key):
        return s[key]["total_s"] * 1e3 / s[key]["calls"] if s[key]["calls"] else 0.0

    widths = s["stats.batch_covariance"]["probed"]
    useful = sum(1 for w in widths if w == workload.useful_width)
    eig_dims = s["linalg.sym_eig"]["probed"]
    ingest = median(workload.ingest_s)
    return {
        "network.forward.calls": (calls("network.forward"), "count"),
        "network.forward.self_ms": (self_ms("network.forward"), "ms"),
        "network.backward.calls": (calls("network.backward"), "count"),
        "network.backward.self_ms": (self_ms("network.backward"), "ms"),
        "network.train_step.self_ms": (self_ms("network.train_step"), "ms"),
        "network.evaluate.self_ms": (self_ms("network.evaluate"), "ms"),
        "training.train.self_ms": (self_ms("training.train"), "ms"),
        "training.save_checkpoint.ms": (per_call_ms("training.save_checkpoint"), "ms"),
        "training.checkpoint_bytes": (workload.checkpoint_bytes, "B"),
        "stats.batch_covariance.calls": (calls("stats.batch_covariance"), "count"),
        "stats.batch_covariance.self_ms": (self_ms("stats.batch_covariance"), "ms"),
        "stats.cov_useful_ratio": (useful / len(widths) if widths else 0.0, "ratio"),
        "stats.update_smoothed.self_ms": (self_ms("stats.update_smoothed"), "ms"),
        "stats.FeatureBatch.inits": (calls("stats.FeatureBatch"), "count"),
        "linalg.sym_eig.calls": (calls("linalg.sym_eig"), "count"),
        "linalg.sym_eig.self_ms": (self_ms("linalg.sym_eig"), "ms"),
        "linalg.sym_eig.dim": (statistics.fmean(eig_dims) if eig_dims else 0.0, "rows"),
        "linalg.SymmetricMatrix.inits": (calls("linalg.SymmetricMatrix"), "count"),
        "linalg.SymmetricMatrix.self_ms": (self_ms("linalg.SymmetricMatrix"), "ms"),
        "linalg.regularize_psd.self_ms": (self_ms("linalg.regularize_psd"), "ms"),
        "linalg.eig_floor_count": (grad[1], "count"),
        "losses.logcoral_loss.self_ms": (self_ms("losses.logcoral_loss"), "ms"),
        "losses.coral_loss.self_ms": (self_ms("losses.coral_loss"), "ms"),
        "losses.mean_loss.self_ms": (self_ms("losses.mean_loss"), "ms"),
        "losses.softmax_cross_entropy.self_ms": (self_ms("losses.softmax_cross_entropy"), "ms"),
        "losses.chain_to_features.self_ms": (self_ms("losses.chain_to_features"), "ms"),
        "losses.logcoral_grad_rel_err": (grad[0], "ratio"),
        "data.load_csv.ms": (ingest * 1e3 / 2, "ms"),
        "data.load_csv.mb_per_s": (workload.csv_bytes / ingest / 1e6 if ingest else 0.0, "MB/s"),
        "gradcheck.run_gradcheck.self_ms": (self_ms("gradcheck.run_gradcheck"), "ms"),
        "trace.overhead_ratio": (trace_overhead(untraced, traced), "ratio"),
        "trace.missing_targets": (len(tracer.missing), "count"),
    }


def report_lines(workload, metrics, blocks, attempted, failed, import_s):
    """The run under the workload's own metric names, with sample counts."""
    op_name, tail, rate_name = NAMES[workload.name]
    samples = [s * 1e3 for b in blocks for s in b.samples]
    n = len(samples)
    probes = [p * 1e3 for p in workload.speed.probes]
    rows = [
        ("setup_s", metrics["setup_s"][0], "s",
         f"median of {IMPORT_REPEATS} imports, {import_s:.4g} s, plus median of {SETUP_REPEATS} "
         f"input generations and warm-ups, each scaled to the reference speed"),
        ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "peak resident set size"),
        ("ops_failed_ratio", failed / attempted, "ratio", f"{failed} failed checks / {attempted} operations"),
        (f"{op_name}.p50", percentile(samples, 50), "ms", f"n={n}, measured"),
        (f"{op_name}.p{tail}", percentile(samples, tail), "ms", f"n={n}, measured"),
        ("op_ms.p50", metrics["op_ms.p50"][0], "ms", f"n={n}, scaled to the reference speed; gated"),
        ("op_ms.p90", metrics["op_ms.p90"][0], "ms", f"n={n}, scaled to the reference speed; gated"),
        ("reference.kernel_ms.p50", percentile(probes, 50), "ms",
         f"n={len(probes)}; p10 {percentile(probes, 10):.4g}, p90 {percentile(probes, 90):.4g}; "
         f"scaling divides by this over {workload.speed.nominal_s * 1e3:g}"),
        (rate_name, median([len(b.samples) / b.wall for b in blocks]), "1/s",
         f"median over {len(blocks)} blocks of {n} operations"),
    ]
    if workload.ingest_s:
        rows.append(("align.ingest_s", median(workload.ingest_s), "s",
                     f"load_csv of both files, median of {len(workload.ingest_s)}"))
    return [f"{name:<28} {value:>14.6g} {unit:<6} ({note})" for name, value, unit, note in rows]


# Run in a fresh interpreter: time the library's import, then scale it by
# the small reference kernel timed in the same process, after its warm-up.
IMPORT_TIMER = """
from time import perf_counter
t0 = perf_counter()
import logcoral
seconds = perf_counter() - t0
import statistics, reference
speed = reference.Speedometer()
print(seconds * speed.nominal_s / statistics.median(speed.probe() for _ in range(5)))
"""


def import_seconds(src):
    """Time for a fresh interpreter to import the library, scaled to the
    reference speed; the median of IMPORT_REPEATS, since one import is too
    short to time steadily. The interpreter's own start is not counted."""
    path = [src, HERE, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return median([float(subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env,
                                        check=True, capture_output=True, text=True).stdout)
                   for _ in range(IMPORT_REPEATS)])


def run_one(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "logcoral", "__init__.py")):
        print(f"error: no library source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the library from {src}: {exc}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        execute(args, workload, import_seconds(src), work)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(work):
            os.rmdir(work)
    return 0


def execute(args, workload, import_s, spans_dir):
    """Set up, measure, check and print one workload's run."""
    print(f"# env {json.dumps(environment(args), sort_keys=True)}", flush=True)
    # set-up is mostly interpreted work at any width, so the small kernel
    # scales it on every workload
    speed = reference.Speedometer()
    setup_s = import_s + median([speed.timed(workload.setup) for _ in range(SETUP_REPEATS)])

    tracer = Tracer() if args.trace else None
    untraced, traced = measure(workload, args.seconds, tracer)
    grad = workload.grad_accuracy()
    blocks = untraced + traced
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks) + workload.setup_failed
    for why in [w for b in blocks for w in b.failures][:10]:
        print(f"# FAILED {why}", flush=True)

    e2e = end_to_end(untraced, setup_s)
    for line in report_lines(workload, e2e, untraced, attempted, failed, import_s):
        print(line)
    print(f"{'losses.logcoral_grad_rel_err':<28} {grad[0]:>14.6g} {'ratio':<6} "
          f"(against the Daleckii-Krein oracle, {grad[1]} eigenvalues at the epsilon floor; "
          f"the shipped backward is known to be wrong near repeated eigenvalues; not gated)")
    if tracer is not None:
        metrics = per_layer(workload, tracer, untraced, traced, grad)
        if tracer.missing:
            print(f"# trace targets not found (reported as 0 calls): {', '.join(tracer.missing)}")
        for name, (value, unit) in metrics.items():
            print(f"{name:<40} {value:>14.6g} {unit}")
        spans = os.path.join(spans_dir, f"spans-{workload.name}.jsonl")
        tracer.write(spans)
        print(f"# {len(tracer.names)} spans written to {spans}")
    else:
        metrics = e2e
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}),
          flush=True)


# ------------------------------------------------------------- every workload

def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(f"## {name}")
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, default=20.0, help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run instead")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
