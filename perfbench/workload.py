"""One workload run of the e6cubic benchmark, in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--short]

``run.py`` starts this script; it is not meant to be called by hand.  It
imports e6cubic from ``src/`` of the checkout it sits in, makes the
workload's inputs from the seed, runs one small warm-up pass and then
repeats the timed pass until ``--seconds`` have gone by; ``wall_s`` and
``cpu_s`` are the mean over the passes.  Every pass's outputs are checked
against reference data computed after the last pass.  With ``--trace 1``
the passes alternate between untraced and traced, the traced ones with the
wrappers of ``tracing.py`` installed.  The last line of standard output is
one JSON object.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracing  # noqa: E402

# counts above the brute oracle's reach come from this table
REFERENCE = os.path.join(HERE, "reference_counts.json")
# heights up to which the benchmark runs the brute oracle itself
BRUTE_MAX = 400
# truncation prime of the main term the counts are checked against
CHECK_PRIME = 10**5


def import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import e6cubic
    from e6cubic import arith, cli, counting, density, surface, torsor, verify  # noqa: F401

    if not os.path.abspath(e6cubic.__file__).startswith(src + os.sep):
        raise SystemExit(f"e6cubic imported from {e6cubic.__file__}, not from {src}")
    return e6cubic


def load_reference():
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    n = ref["N0"]
    counts = {ref["B0"]: n}
    for k, step in enumerate(ref["increments"], start=1):
        n += step
        counts[ref["B0"] + k] = n
    return counts


def exact_counts(pkg, heights):
    """Exact N(B) for the heights the brute oracle or the table can give."""
    out = {B: n for B, n in load_reference().items() if B in heights}
    small = [B for B in heights if B <= BRUTE_MAX]
    if small:
        brute = pkg.surface.brute_counts_upto(max(small))
        out.update({B: brute[B] for B in small})
    return out


class CountOne:
    """count_torsor_fast at one height on one worker."""

    def __init__(self, pkg, seed, short):
        rng = random.Random(f"count-1w/{seed}")
        self.pkg = pkg
        self.B = 300 + rng.randrange(4) if short else 100_000 + rng.randrange(1001)
        self.ops = 1

    def prepare(self):
        self.poly = self.pkg.density.main_term_coefficients(CHECK_PRIME)
        self.exact = exact_counts(self.pkg, [self.B])

    def warmup(self):
        self.pkg.counting.count_torsor_fast(500)

    def run(self):
        return self.pkg.counting.count_torsor_fast(self.B, threads=1).count

    def collect(self, n):
        return n

    def check(self, n):
        return checks.check_counts([(self.B, n)], self.poly, self.exact)


class Sweep:
    """``e6cubic count --B-range 100:TOP:geometric:25 --threads 2``."""

    def __init__(self, pkg, seed, short):
        rng = random.Random(f"sweep-2w/{seed}")
        self.pkg = pkg
        top, points = (300 + rng.randrange(4), 6) if short else (20_000 + rng.randrange(201), 25)
        self.spec = f"100:{top}:geometric:{points}"
        self.grid = sorted({int(round(b)) for b in np.geomspace(100, top, points)})
        self.path = os.path.join(OUT, f"sweep-{os.getpid()}.json")
        self.ops = len(self.grid)

    def prepare(self):
        self.poly = self.pkg.density.main_term_coefficients(CHECK_PRIME)
        self.exact = exact_counts(self.pkg, self.grid)

    def warmup(self):
        self._count("100:200:geometric:2")

    def _count(self, spec):
        return self.pkg.cli.main(["count", "--B-range", spec, "--threads", "2", "--method",
                                  "fast", "--format", "json", "--out", self.path])

    def run(self):
        return self._count(self.spec)

    def collect(self, rc):
        if rc != 0:
            return rc, []
        with open(self.path) as fh:
            return rc, [(r["B"], r["count"]) for r in json.load(fh)]

    def check(self, record):
        rc, counts = record
        if rc != 0:
            return [f"count exited with {rc}"]
        if sorted(B for B, _ in counts) != self.grid:
            return [f"count reported heights {[B for B, _ in counts]}, grid {self.grid}"]
        return checks.check_counts(counts, self.poly, self.exact)


class Verify:
    """``e6cubic verify`` plus counts_upto and enumerate_points at one height."""

    ETA_QMAX = 2001  # verify.run_suite's default; the CLI does not set it

    def __init__(self, pkg, seed, short):
        rng = random.Random(f"verify/{seed}")
        self.pkg = pkg
        self.B = 40 + rng.randrange(3) if short else 200 + rng.randrange(3)
        self.seed = seed
        self.grid, self.samples = (3, 200) if short else (12, 10_000)
        self.ops = 3

    def prepare(self):
        self.oracle = self.pkg.surface.brute_counts_upto(self.B)

    def warmup(self):
        self._suite(20, 2, 10)

    def _suite(self, B, grid, samples):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pkg.cli.main(["verify", "--B", str(B), "--seed", str(self.seed),
                                    "--samples", str(samples), "--grid", str(grid)])
        return rc, buf.getvalue()

    def run(self):
        counting = self.pkg.counting
        rc, text = self._suite(self.B, self.grid, self.samples)
        upto = counting.counts_upto(self.B)
        points = list(counting.enumerate_points(self.B))
        return rc, text, upto, points

    def collect(self, out):
        rc, text, upto, points = out
        return rc, text, upto, checks.summarize_points([p.coords() for p in points])

    def check(self, record):
        rc, text, upto, summary = record
        expected = {
            "bijection_round_trips": checks.bijection_checks(self.oracle[self.B]),
            "case_analysis_grid": checks.case_grid_checks(self.grid),
            "congruence_identities": self.samples,
            "eta_bound_odd_moduli": checks.eta_checks(self.ETA_QMAX),
        }
        return (checks.check_verify(rc, text, expected)
                + checks.check_counts_upto(upto, self.oracle)
                + checks.check_enumerated(summary, self.B, self.oracle))


class Constant:
    """``e6cubic constant`` plus main_term_coefficients at one truncation prime."""

    def __init__(self, pkg, seed, short):
        rng = random.Random(f"constant/{seed}")
        self.pkg = pkg
        self.P = 10_000 + rng.randrange(101) if short else 1_000_000 + rng.randrange(10_001)
        self.path = os.path.join(OUT, f"constant-{os.getpid()}.json")
        self.ops = 2

    def prepare(self):
        self.omega0 = checks.omega0_logsum(self.P)

    def warmup(self):
        self.pkg.cli.main(["constant", "--trunc-prime", "1000", "--out", self.path])
        self.pkg.density.main_term_coefficients(1000)

    def run(self):
        rc = self.pkg.cli.main(["constant", "--trunc-prime", str(self.P), "--out", self.path])
        return rc, self.pkg.density.main_term_coefficients(self.P)

    def collect(self, out):
        rc, poly = out
        with open(self.path) as fh:
            return rc, json.load(fh), poly

    def check(self, record):
        rc, payload, poly = record
        return checks.check_constant(rc, payload, poly, self.omega0)


WORKLOADS = {"count-1w": CountOne, "sweep-2w": Sweep, "verify": Verify, "constant": Constant}


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def write_trace(path, spans):
    """Spans of one traced pass, columnar, times relative to the pass start."""
    spans = sorted(spans, key=lambda s: s[tracing.SPAN_START])
    t0 = spans[0][tracing.SPAN_START] if spans else 0.0
    index = {s[tracing.SPAN_ID]: k for k, s in enumerate(spans)}
    names = sorted({s[tracing.SPAN_NAME] for s in spans})
    name_index = {n: k for k, n in enumerate(names)}
    doc = {
        "pass": spans[0][tracing.SPAN_PASS] if spans else None,
        "names": names,
        "name": [name_index[s[tracing.SPAN_NAME]] for s in spans],
        "parent": [index.get(s[tracing.SPAN_PARENT], -1) for s in spans],
        "pid": [s[tracing.SPAN_ID][0] for s in spans],
        "start_us": [round(1e6 * (s[tracing.SPAN_START] - t0), 1) for s in spans],
        "end_us": [round(1e6 * (s[tracing.SPAN_END] - t0), 1) for s in spans],
        "attrs": {k: s[tracing.SPAN_ATTRS] for k, s in enumerate(spans) if s[tracing.SPAN_ATTRS]},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def measure(work, seconds, tracer, trace_path):
    """Repeat the pass until ``seconds`` are used; returns the run's report.

    The outputs are checked after the last pass, once the peak resident set
    is read, so that the reference data (the main term above all) does not
    count in the program's memory.
    """
    walls, cpus, traced_walls, layers, records = [], [], [], [], []
    attempted, failed = 0, 0
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass(k)
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = work.run()
        except Exception:  # an operation of the program failed; counted, run goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        if traced:
            tracer.uninstall()
            spans, counts = tracer.end_pass()
            layers.append(tracing.pass_metrics(spans, counts))
            if len(layers) == 1:
                first_spans = spans
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        attempted += work.ops
        if out is None:
            failed += work.ops
        else:
            records.append((k, work.collect(out)))
        k += 1
        if time.perf_counter() - start >= seconds and (tracer is None or k >= 2):
            break
    rss = peak_rss_mb()
    work.prepare()
    problems = [f"pass {k}: {p}" for k, record in records for p in work.check(record)]
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "passes": {"wall_s": walls, "cpu_s": cpus, "traced_wall_s": traced_walls},
    }
    if tracer is None:
        # time per pass over the whole timed window, the inverse of the pass
        # throughput: the host's speed drifts over tens of seconds, and the
        # mean follows that drift more steadily than the middle one of a few
        # passes does
        report["metrics"] = {
            "wall_s": statistics.mean(walls),
            "cpu_s": statistics.mean(cpus),
            "peak_rss_mb": rss,
        }
    else:
        metrics = {name: statistics.median(p[name] for p in layers)
                   for name in layers[0]}
        overhead = statistics.mean(traced_walls) - statistics.mean(walls)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_ratio"] = overhead / statistics.mean(walls)
        report["metrics"] = metrics
        report["unmeasured"] = sorted(set(tracer.missing))
        write_trace(trace_path, first_spans)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    pkg = import_package()
    work = WORKLOADS[args.workload](pkg, args.seed, args.short)
    work.warmup()
    tracer = tracing.Tracer(pkg, os.path.join(OUT, f"workers-{os.getpid()}")) if args.trace else None
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    try:
        report = measure(work, args.seconds, tracer, trace_path)
    finally:
        if tracer is not None:
            os.rmdir(tracer.worker_dir)
    path = getattr(work, "path", None)
    if path and os.path.exists(path):
        os.unlink(path)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
