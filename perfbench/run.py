"""Benchmark of e6cubic: one workload run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--short]

Run it from the root of a checkout: it measures the package in ``src/`` of
the checkout it sits in.  Workloads: count-1w, sweep-2w, verify, constant
(see README.md).  With ``--trace 0`` it reports the end-to-end metrics
wall_s, cpu_s, peak_rss_mb (from a fresh interpreter that runs the
workload) and setup_s (the median time of several fresh interpreters to
import e6cubic and its dependencies).  With ``--trace 1`` it reports the
per-layer metrics.  ``--short`` runs each workload at a small size, for the
benchmark's own tests.  The full report of the run is written to
``perfbench/out/``; the last line of standard output is
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import tracing  # noqa: E402

WORKLOADS = ("count-1w", "sweep-2w", "verify", "constant")
SETUP_PROBES = 5
DEADLINE_S = 170  # the whole run, set-up probes included
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import e6cubic, e6cubic.cli, numpy, scipy.integrate, mpmath; print('ready', flush=True)"
)


def setup_seconds(env, probes):
    """Median time from starting an interpreter until e6cubic is imported."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, SRC], stdout=subprocess.PIPE,
                              env=env, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times), times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "e6cubic", "__init__.py")):
        print(f"run.py: no e6cubic package under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)

    setup = None
    if not args.trace:
        setup = setup_seconds(env, 1 if args.short else SETUP_PROBES)

    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    remaining = DEADLINE_S - (time.perf_counter() - start)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload {args.workload} did not finish in {DEADLINE_S} s",
              file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"run.py: workload {args.workload} exited with {done.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])

    metrics = report["metrics"]
    if setup is not None:
        metrics["setup_s"] = setup[0]
        report["passes"]["setup_s"] = setup[1]
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    if args.trace:
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=sys.version.split()[0], nproc=os.cpu_count())
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    for problem in report["problems"]:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    if report.get("unmeasured"):
        print("run.py: not found, left unmeasured: " + ", ".join(report["unmeasured"]),
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
