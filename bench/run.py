"""Benchmark of `ncdbr`: four workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload {coincidence,model,sampling,cli}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; `ncdbr` is imported from its `src/`.  One
process runs one closed loop with one client.  A run sets up the workload
(inputs from the seed, warm-up), then times whole rounds of operations until
S seconds of operations have passed, checking each round's outputs between
rounds.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run times the same rounds once
untraced and once with span tracing, and reports the per-layer metrics.
The line before it holds the run facts, and bench/out/ keeps a record of
each run.
"""

import os
import sys
import time

START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread in this process and its children, set before numpy loads
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("coincidence", "model", "sampling", "cli")
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print the set-up seconds and exit",
    )
    return parser.parse_args(argv)


def cpu_jiffies():
    """(idle, steal) jiffies summed over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[4]), int(fields[8])


def nearest_rank(sorted_values, q):
    """The q-quantile as the value of rank ceil(q n): on whole rounds of a
    fixed mix it stays inside one class of operations."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def build(args):
    """Set the workload up and warm it up; returns (workload, errors)."""
    import workloads

    if args.workload == "coincidence":
        workload = workloads.Coincidence(args.seed)
    elif args.workload == "model":
        workload = workloads.Model(args.seed)
    elif args.workload == "sampling":
        workload = workloads.Sampling(args.seed)
    else:
        workload = workloads.Cli(args.seed, ROOT, OUT, os.environ)
    return workload, workload.warm_up()


def timed_rounds(workload, seconds, tracer=None, keep=False):
    """Whole rounds, at least one, until `seconds` of operations have
    passed.  Checks run between rounds and are not timed; with keep, the
    outputs are returned."""
    times, errors, results_all = [], [], []
    attempted = failed = 0
    busy = 0.0
    rounds = 0
    while rounds == 0 or busy < seconds:
        rounds += 1
        results = []
        round_start = time.perf_counter()
        for label, op in workload.round():
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = tracer.span("op", op) if tracer else op()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print("operation %s failed: %r" % (label, exc), file=sys.stderr)
                continue
            times.append(time.perf_counter() - t0)
            results.append((label, out))
        busy += time.perf_counter() - round_start
        errors += workload.check(results)
        if keep:
            results_all += results
    return {
        "times": times,
        "busy": busy,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "results": results_all,
    }


def setup_child(args):
    """Set-up seconds of one fresh process of this workload and seed."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed: %s" % proc.stderr.strip())
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(section, workload, setup_samples):
    times = sorted(section["times"])
    return {
        "ops_per_s": (len(times) / section["busy"], "1/s"),
        "op_p50_ms": (1000.0 * nearest_rank(times, 0.5), "ms"),
        "op_p90_ms": (1000.0 * nearest_rank(times, 0.9), "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MiB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def per_layer(workload, plain, traced, tracer):
    import tracing
    import workloads

    ops = len(traced["times"])
    values = tracer.metrics(ops)
    cli = {name: 0.0 for name in tracing.CLI_METRICS}
    if isinstance(workload, workloads.Cli):
        for _, run in traced["results"]:
            report = json.loads(run.stdout)
            cli["cli.startup_ms"] += 1000.0 * run.wall_s - report["wall_time_ms"]
            cli["cli.command_ms"] += report["wall_time_ms"]
            cli["cli.import_scipy_ms"] += tracing.import_time_ms(run.stderr, "scipy.linalg")
        cli = {name: total / ops for name, total in cli.items()}
    values.update(cli)
    values[tracing.OVERHEAD_METRIC] = (len(traced["times"]) / traced["busy"]) / (
        len(plain["times"]) / plain["busy"]
    )
    units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
    return {name: (values[name], units[name]) for name, _, _ in tracing.per_layer_spec()}


def run_facts(args, jiffies_start, sections):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    jiffies_end = cpu_jiffies()
    delta = None
    if jiffies_start and jiffies_end:
        delta = {
            "idle": jiffies_end[0] - jiffies_start[0],
            "steal": jiffies_end[1] - jiffies_start[1],
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "jiffies": delta,
        "sections": {
            name: {
                "attempted": s["attempted"],
                "failed": s["failed"],
                "operations_timed": len(s["times"]),
                "busy_s": s["busy"],
            }
            for name, s in sections.items()
        },
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ncdbr", "__init__.py")):
        print("no ncdbr sources under %s; run from a checkout root" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    jiffies_start = cpu_jiffies()
    os.makedirs(OUT, exist_ok=True)

    workload, errors = build(args)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(repr(setup_s))
        return 1 if errors else 0

    sections = {}
    if args.trace:
        import tracing

        sections["plain"] = timed_rounds(workload, args.seconds)
        tracer = tracing.Tracer()
        tracer.install()
        workload.traced = True  # the cli workload then runs traced children
        try:
            sections["traced"] = timed_rounds(workload, args.seconds, tracer, keep=True)
        finally:
            tracer.uninstall()
        for path in getattr(workload, "spans", ()):
            tracer.absorb(path)
            os.remove(path)
        tracer.dump(os.path.join(OUT, "spans-%s-seed%d.json" % (args.workload, args.seed)))
        metrics = per_layer(workload, sections["plain"], sections["traced"], tracer)
    else:
        setup_samples = [setup_s] + [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
        sections["plain"] = timed_rounds(workload, args.seconds)
        metrics = end_to_end(sections["plain"], workload, setup_samples)

    for s in sections.values():
        errors += s["errors"]
    facts = run_facts(args, jiffies_start, sections)
    if not args.trace:
        facts["setup_samples_s"] = setup_samples
    result = {
        "correct": not errors,
        "attempted": sum(s["attempted"] for s in sections.values()),
        "failed": sum(s["failed"] for s in sections.values()),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "errors": errors, "result": result}, fh, indent=1)
    for error in errors:
        print("check failed: %s" % error, file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
