"""Spans and counts at the module boundaries of e6cubic, from outside.

The tracer replaces module-level functions of the package with wrappers
while it is installed, and puts the originals back afterwards; nothing in
``src/`` knows about it.  A wrapper is installed on the module attribute the
caller looks up: ``counting`` imports ``factorize`` and
``_sqrt_mod_factored`` by name, so those are wrapped as attributes of
``counting`` (and ``factorize`` also in ``arith``, ``torsor`` and
``surface``).

A span is (id, parent id, pass id, name, start, end, attrs).  Ids are
(pid, sequence number), so that spans recorded in forked pool workers do not
collide with the parent's.  The workers inherit the installed wrappers
through ``fork``; each ``counting._count_part`` call in a worker writes the
worker's spans to a file in ``worker_dir`` before it returns, and the parent
reads them back when the pass ends.  Per-shard figures therefore come from
the workers themselves, measured while both shards run at once.

Generator functions (``_xi_tuples``, ``brute_points``, the enumerators) get
one span per step, so the time a consumer spends between two steps is not
charged to the generator.
"""

import collections
import functools
import os
import pickle
import time

SPAN_ID, SPAN_PARENT, SPAN_PASS, SPAN_NAME, SPAN_START, SPAN_END, SPAN_ATTRS = range(7)
# attrs of the step span that finds a generator exhausted; it counts as time, not as an item
EXHAUSTED = "exhausted"


def _shard_attrs(args, result):
    # _count_part((B, fast, parts, part, scheme)); a changed signature gives one
    # shard of unknown index rather than a failed pass
    try:
        part = args[0][3]
    except (IndexError, TypeError):
        part = None
    return {"part": part, "points": result}


def _verify_attrs(args, result):
    return {"checks": result[0], "failures": result[1]}


# (module, attribute, span name, kind, attrs or count function)
#   span  - a span per call, pushed so that nested calls become its children
#   leaf  - a span per call for a function that calls nothing traced
#   steps - a span per step of the generator the function returns
#   count - no span; keeps a value computed from each call's result
TARGETS = (
    ("cli", "main", "cli.main", "span", None),
    ("counting", "count_torsor_fast", "counting.count_torsor_fast", "span", None),
    ("counting", "_count_part", "counting.shard", "span", _shard_attrs),
    ("counting", "_xi_tuples", "counting.xi_tuple", "steps", None),
    ("counting", "counts_upto", "counting.counts_upto", "span", None),
    ("counting", "enumerate_points", "counting.enumerate", "steps", None),
    ("counting", "enumerate_torsor_points", "counting.enumerate", "steps", None),
    ("counting", "factorize", "arith.factorize", "leaf", None),
    ("counting", "_sqrt_mod_factored", "arith.sqrt_mod", "leaf", None),
    ("arith", "factorize", "arith.factorize", "leaf", None),
    ("arith", "count_congruence_interval", "arith.congruence", "leaf", None),
    ("surface", "factorize", "arith.factorize", "leaf", None),
    ("surface", "brute_points", "surface.brute_points", "steps", None),
    ("torsor", "factorize", "arith.factorize", "leaf", None),
    ("torsor", "psi", "torsor.psi", "leaf", None),
    ("torsor", "phi", "torsor.phi", "span", None),
    ("torsor", "phi_prime", "torsor.phi_prime", "span", None),
    ("torsor", "lift", "torsor.lift", "span", None),
    ("verify", "_bijection_checks", "verify.bijection", "span", _verify_attrs),
    ("verify", "_case_grid_checks", "verify.case_grid", "span", _verify_attrs),
    ("verify", "_congruence_checks", "verify.congruence", "span", _verify_attrs),
    ("verify", "_eta_bound_checks", "verify.eta", "span", _verify_attrs),
    ("density", "omega0", "density.omega0", "span", None),
    ("density", "omega_inf_g2", "density.omega_inf_g2", "span", None),
    ("density", "omega_inf_direct", "density.omega_inf_direct", "span", None),
    ("density", "_euler_taylor", "density.euler_taylor", "span", None),
    ("density", "_archimedean_moments", "density.archimedean_moments", "span", None),
    ("density", "_zeta_taylor", "density.zeta_taylor", "span", None),
    ("density", "main_term_coefficients", "density.main_term", "span", None),
    ("density", "g2", "density.g2", "count", lambda result: 1),
    ("density", "_primes_upto", "density.primes", "count", len),
)


class Tracer:
    """Records spans and counts for one workload run, one pass at a time."""

    def __init__(self, package, worker_dir):
        self.package = package
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.seq = 0
        self.pass_id = None
        self.stack = [None]
        self.spans, self.counts = [], collections.defaultdict(list)
        self.missing = []
        self._saved = []
        os.makedirs(worker_dir, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.pid = os.getpid()
        self._take()

    def _take(self):
        """The spans and counts recorded so far; starts new ones."""
        taken = self.spans, self.counts
        self.spans, self.counts = [], collections.defaultdict(list)
        return taken

    def _new_id(self):
        self.seq += 1
        return (self.pid, self.seq)

    # -- installing the wrappers -------------------------------------------

    def install(self):
        self.missing = []
        for module_name, attr, name, kind, extra in TARGETS:
            module = getattr(self.package, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrap = getattr(self, "_wrap_" + kind)
            setattr(module, attr, wrap(fn, name, extra))
            self._saved.append((module, attr, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap_span(self, fn, name, attrs):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._new_id()
            parent = tracer.stack[-1]
            tracer.stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                tracer.stack.pop()
                info = attrs(args, result) if attrs and result is not None else None
                tracer.spans.append((sid, parent, tracer.pass_id, name, start, end, info))
                if name == "counting.shard" and tracer.pid != tracer.root_pid:
                    tracer._dump_worker()

        return wrapper

    def _wrap_leaf(self, fn, name, _):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.spans.append((tracer._new_id(), tracer.stack[-1], tracer.pass_id,
                                     name, start, clock(), None))

        return wrapper

    def _wrap_steps(self, fn, name, _):
        tracer = self
        clock = time.perf_counter

        def steps(it):
            while True:
                sid = tracer._new_id()
                parent = tracer.stack[-1]
                tracer.stack.append(sid)
                info = EXHAUSTED
                start = clock()
                try:
                    item = next(it)
                    info = None
                except StopIteration:
                    pass
                finally:
                    end = clock()
                    tracer.stack.pop()
                    tracer.spans.append((sid, parent, tracer.pass_id, name, start, end, info))
                if info == EXHAUSTED:
                    return
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return steps(iter(fn(*args, **kwargs)))

        return wrapper

    def _wrap_count(self, fn, name, value):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts[name].append(value(result))
            return result

        return wrapper

    # -- passes ----------------------------------------------------------------

    def _dump_worker(self):
        spans, counts = self._take()
        path = os.path.join(self.worker_dir, f"{self.pid}-{self.seq}.pkl")
        with open(path, "wb") as fh:
            pickle.dump((spans, dict(counts)), fh, protocol=pickle.HIGHEST_PROTOCOL)

    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self._take()

    def end_pass(self):
        """Spans and counts of the pass, the workers' included."""
        spans, counts = self._take()
        for entry in sorted(os.listdir(self.worker_dir)):
            if not entry.endswith(".pkl"):
                continue
            path = os.path.join(self.worker_dir, entry)
            with open(path, "rb") as fh:
                worker_spans, worker_counts = pickle.load(fh)
            os.unlink(path)
            spans.extend(worker_spans)
            for name, values in worker_counts.items():
                counts[name].extend(values)
        return spans, counts


# -- turning a pass's spans into layer metrics ----------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its children cover.

    Children of one span are disjoint within a process, but the two shards
    under one sharded count run at once, hence the union.
    """
    children = collections.defaultdict(list)
    for s in spans:
        children[s[SPAN_PARENT]].append((s[SPAN_START], s[SPAN_END]))
    return [
        s[SPAN_END] - s[SPAN_START] - _covered(children.get(s[SPAN_ID], ()), s[SPAN_START], s[SPAN_END])
        for s in spans
    ]


# name, unit, better; the order is the order of the report
LAYER_METRICS = (
    ("counting.walk_s", "s", "lower"),
    ("counting.ns_per_point", "ns", "lower"),
    ("counting.points", "count", "higher"),
    ("counting.calls", "count", "higher"),
    ("counting.xi_tuples", "count", "lower"),
    ("counting.xi_tuples_s", "s", "lower"),
    ("counting.shard_s.max", "s", "lower"),
    ("counting.shard_s.min", "s", "lower"),
    ("counting.shard_points.max", "count", "lower"),
    ("counting.shard_points.min", "count", "higher"),
    ("counting.shard_balance", "ratio", "lower"),
    ("counting.pool_s", "s", "lower"),
    ("counting.enumerate_s", "s", "lower"),
    ("arith.sqrt_mod_calls", "count", "lower"),
    ("arith.sqrt_mod_s", "s", "lower"),
    ("arith.factorize_calls", "count", "lower"),
    ("arith.factorize_s", "s", "lower"),
    ("arith.congruence_calls", "count", "lower"),
    ("arith.congruence_s", "s", "lower"),
    ("surface.brute_points", "count", "higher"),
    ("surface.brute_s", "s", "lower"),
    ("torsor.psi_s", "s", "lower"),
    ("torsor.phi_s", "s", "lower"),
    ("torsor.lift_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.bijection_s", "s", "lower"),
    ("verify.case_grid_s", "s", "lower"),
    ("verify.congruence_s", "s", "lower"),
    ("verify.eta_s", "s", "lower"),
    ("density.primes", "count", "higher"),
    ("density.omega0_s", "s", "lower"),
    ("density.omega_inf_g2_s", "s", "lower"),
    ("density.omega_inf_direct_s", "s", "lower"),
    ("density.g2_calls", "count", "lower"),
    ("density.euler_taylor_s", "s", "lower"),
    ("density.archimedean_moments_s", "s", "lower"),
    ("density.zeta_taylor_s", "s", "lower"),
    ("density.main_term_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# self-time metrics: metric name -> span names summed
_SELF_TIME = {
    "counting.walk_s": ("counting.shard",),
    "counting.xi_tuples_s": ("counting.xi_tuple",),
    "counting.pool_s": ("counting.count_torsor_fast",),
    "counting.enumerate_s": ("counting.enumerate", "counting.counts_upto"),
    "arith.sqrt_mod_s": ("arith.sqrt_mod",),
    "arith.factorize_s": ("arith.factorize",),
    "arith.congruence_s": ("arith.congruence",),
    "surface.brute_s": ("surface.brute_points",),
    "torsor.psi_s": ("torsor.psi",),
    "torsor.phi_s": ("torsor.phi", "torsor.phi_prime"),
    "torsor.lift_s": ("torsor.lift",),
    "verify.bijection_s": ("verify.bijection",),
    "verify.case_grid_s": ("verify.case_grid",),
    "verify.congruence_s": ("verify.congruence",),
    "verify.eta_s": ("verify.eta",),
    "density.omega0_s": ("density.omega0",),
    "density.omega_inf_g2_s": ("density.omega_inf_g2",),
    "density.omega_inf_direct_s": ("density.omega_inf_direct",),
    "density.euler_taylor_s": ("density.euler_taylor",),
    "density.archimedean_moments_s": ("density.archimedean_moments",),
    "density.zeta_taylor_s": ("density.zeta_taylor",),
    "density.main_term_s": ("density.main_term",),
    "cli.self_s": ("cli.main",),
}

# call-count metrics: metric name -> span names counted
_CALLS = {
    "counting.calls": ("counting.count_torsor_fast",),
    "counting.xi_tuples": ("counting.xi_tuple",),
    "arith.sqrt_mod_calls": ("arith.sqrt_mod",),
    "arith.factorize_calls": ("arith.factorize",),
    "arith.congruence_calls": ("arith.congruence",),
    "surface.brute_points": ("surface.brute_points",),
}


def pass_metrics(spans, counts):
    """Layer metrics of one traced pass (all but the trace.overhead ones)."""
    own = self_times(spans)
    self_s = collections.Counter()
    calls = collections.Counter()
    for s, t in zip(spans, own):
        self_s[s[SPAN_NAME]] += t
        if s[SPAN_ATTRS] != EXHAUSTED:
            calls[s[SPAN_NAME]] += 1
    out = {m: sum(self_s[n] for n in names) for m, names in _SELF_TIME.items()}
    out.update({m: sum(calls[n] for n in names) for m, names in _CALLS.items()})

    per_part_s = collections.Counter()
    per_part_points = collections.Counter()
    for s in spans:
        if s[SPAN_NAME] == "counting.shard" and s[SPAN_ATTRS]:
            per_part_s[s[SPAN_ATTRS]["part"]] += s[SPAN_END] - s[SPAN_START]
            per_part_points[s[SPAN_ATTRS]["part"]] += s[SPAN_ATTRS]["points"]
    points = sum(per_part_points.values())
    out["counting.points"] = points
    out["counting.ns_per_point"] = 1e9 * out["counting.walk_s"] / points if points else 0.0
    if per_part_s:
        mean = sum(per_part_s.values()) / len(per_part_s)
        out["counting.shard_s.max"] = max(per_part_s.values())
        out["counting.shard_s.min"] = min(per_part_s.values())
        out["counting.shard_points.max"] = max(per_part_points.values())
        out["counting.shard_points.min"] = min(per_part_points.values())
        out["counting.shard_balance"] = max(per_part_s.values()) / mean if mean else 0.0
    else:
        for m in ("shard_s.max", "shard_s.min", "shard_points.max", "shard_points.min",
                  "shard_balance"):
            out["counting." + m] = 0
    out["verify.checks"] = sum(
        s[SPAN_ATTRS]["checks"] for s in spans
        if s[SPAN_NAME].startswith("verify.") and s[SPAN_ATTRS]
    )
    out["density.g2_calls"] = len(counts.get("density.g2", ()))
    # omega0 and the Euler product of the main term sieve the same range
    out["density.primes"] = max(counts.get("density.primes", ()), default=0)
    out["trace.spans"] = len(spans)
    return out
