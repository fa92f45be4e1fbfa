"""Command-line front end.

Subcommands:
    count     run the point counters and emit CountReports (CSV or JSON)
    constant  compute the expected leading constant and emit JSON
    verify    run the structural verification suite
    fit       fit N(B)/B against powers of log B and compare with the constant

Exit codes: 0 success, 1 verification/equality failure, 2 usage error,
3 numeric failure.  A config file of ``key=value`` lines supplies defaults
that flags override; E6CUBIC_THREADS sets the default worker count.
"""

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import counting, density, surface, verify
from .records import CountReport

__all__ = ["main", "RunConfig", "FitReport", "fit_polylog", "parse_b_range"]

_ENV_THREADS = "E6CUBIC_THREADS"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _default_threads():
    try:
        return max(1, int(os.environ.get(_ENV_THREADS, "1")))
    except ValueError:
        return 1


def parse_b_range(spec: str) -> list[int]:
    """Parse ``start:stop:geometric:n`` (or ``:linear:``) into a B grid."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError("expected START:STOP:{geometric|linear}:N")
    start, stop = float(parts[0]), float(parts[1])
    kind, n = parts[2], int(parts[3])
    if not 1 <= start <= stop < math.inf or n < 1:
        raise ValueError("need 1 <= START <= STOP < inf and N >= 1")
    if kind == "geometric":
        grid = np.geomspace(start, stop, n)
    elif kind == "linear":
        grid = np.linspace(start, stop, n)
    else:
        raise ValueError(f"unknown grid kind {kind!r}")
    out = []
    for b in grid:
        b = int(round(b))
        if not out or b > out[-1]:
            out.append(b)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of a counting run.

    Invariants: every height bound positive, the method known, at least one
    worker.
    """

    b_values: tuple
    method: str
    threads: int
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if not self.b_values or any(b < 1 for b in self.b_values):
            raise ValueError("height bounds must be positive")
        if self.method not in ("brute", "torsor", "fast", "both"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.threads < 1:
            raise ValueError("thread count must be at least 1")


def _collect_b_values(args, parser):
    values = []
    for b in args.B or []:
        x = float(b)
        if not (1 <= x < math.inf and x.is_integer()):
            parser.error(f"--B must be a positive integer, got {b}")
        values.append(int(x))
    if args.B_range:
        try:
            values.extend(parse_b_range(args.B_range))
        except ValueError as exc:
            parser.error(str(exc))
    if not values:
        parser.error("no B values given (use --B or --B-range)")
    return values


def _write_reports(reports, path, fmt):
    if fmt == "csv":
        lines = ["B,count,method,elapsed_s"]
        lines += [f"{r.B},{r.count},{r.method},{r.elapsed_s:.6f}" for r in reports]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([r.as_dict() for r in reports], indent=2) + "\n"
    _emit(text, path)


def _cmd_count(args, parser):
    try:
        cfg = RunConfig(
            b_values=tuple(_collect_b_values(args, parser)),
            method=args.method,
            threads=args.threads,
            out=args.out,
            format=args.format,
        )
    except ValueError as exc:
        parser.error(str(exc))
    reports = []
    verdict_ok = True
    for B in cfg.b_values:
        runs = []
        if cfg.method in ("torsor", "both"):
            runs.append(counting.count_torsor(B, threads=cfg.threads))
        if cfg.method in ("fast", "both"):
            runs.append(counting.count_torsor_fast(B, threads=cfg.threads))
        if cfg.method == "brute" or (cfg.method == "both" and B <= 1000):
            runs.append(surface.brute_count(B))
        reports.extend(runs)
        if cfg.method == "both":
            counts = {r.count for r in runs}
            if len(counts) != 1:
                verdict_ok = False
                print(
                    f"B={B}: DISAGREE "
                    + ", ".join(f"{r.method}={r.count}" for r in runs),
                    file=sys.stderr,
                )
    _write_reports(reports, cfg.out, cfg.format)
    if cfg.method == "both":
        print("verdict: equal" if verdict_ok else "verdict: DISAGREE", file=sys.stderr)
        if not verdict_ok:
            return EXIT_VERIFY
    return EXIT_OK


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_constant(args, parser):
    if args.trunc_prime < 10**3:
        parser.error("--trunc-prime must be at least 1000")
    payload = {
        "alpha": f"{density.ALPHA.numerator}/{density.ALPHA.denominator}",
        "beta": str(density.BETA),
    }
    failed = None
    try:
        pc = density.peyre_constant(args.trunc_prime, args.quad_tol)
        payload["omega0"] = {
            "value": pc.omega0.value,
            "truncation_prime": pc.omega0.truncation_prime,
            "tail_bound": pc.omega0.tail_bound,
        }
        payload["omegaInf"] = {"value": pc.omega_inf.value, "error": pc.omega_inf.error}
        payload["c"] = pc.c
        payload["c_error"] = pc.c_error
    except (ArithmeticError, ValueError) as exc:
        failed = str(exc)
        payload["error"] = failed
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_NUMERIC if failed else EXIT_OK


def _cmd_verify(args, parser):
    results = verify.run_suite(
        B=args.B,
        seed=args.seed,
        congruence_samples=args.samples,
        grid=args.grid,
    )
    worst = EXIT_OK
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}: {r.checks} checks, {r.failures} failures"
        if r.detail:
            line += f" ({r.detail})"
        print(line)
        if not r.passed:
            worst = EXIT_VERIFY
    return worst


@dataclass(frozen=True)
class FitReport:
    """Least-squares fit of N(B)/B against {(log B)^j : j = 0..6}."""

    samples: list
    coefficients: list
    leading: float
    c_reference: float
    ratio: float
    residual_norm: float


def fit_polylog(samples, c_reference: float) -> FitReport:
    """Weighted least squares (weights 1/N) for the degree-6 log polynomial.

    Requires at least 14 distinct samples spanning at least three decades.
    Duplicate B values are dropped with a warning.

    The fit recovers the coefficients of exact polynomial data, but on counts
    with B <= 1e6 it cannot determine the leading one: the seven columns are
    nearly collinear there, and rounding the exact main term
    B * P(log B) to integers alone moves the fitted leading coefficient to
    about 269 times c.  density.main_term_coefficients predicts all seven.
    """
    seen = {}
    for b, n in samples:
        if b in seen:
            warnings.warn(f"duplicate sample B={b} dropped", stacklevel=2)
            continue
        seen[b] = n
    pts = sorted(seen.items())
    if len(pts) < 14:
        raise ValueError(f"need at least 14 distinct samples, got {len(pts)}")
    bs = np.array([b for b, _ in pts], dtype=float)
    ns = np.array([n for _, n in pts], dtype=float)
    if bs.max() / bs.min() < 1_000:
        raise ValueError("samples must span at least three decades of B")
    if np.any(ns <= 0):
        raise ValueError("counts must be positive to fit")
    logb = np.log(bs)
    design = np.vander(logb, 7, increasing=True)
    y = ns / bs
    w = np.sqrt(1.0 / ns)
    coeffs, *_ = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)
    residual = float(np.linalg.norm((design @ coeffs - y) * w))
    leading = float(coeffs[6])
    return FitReport(
        samples=pts,
        coefficients=[float(c) for c in coeffs],
        leading=leading,
        c_reference=float(c_reference),
        ratio=leading / float(c_reference),
        residual_norm=residual,
    )


def _read_counts_csv(path):
    out = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        bi = header.index("B")
        ci = header.index("count")
        for line in fh:
            if not line.strip():
                continue
            cells = line.strip().split(",")
            out.append((int(cells[bi]), int(cells[ci])))
    return out


def _cmd_fit(args, parser):
    if args.counts:
        samples = _read_counts_csv(args.counts)
    else:
        if not args.B_range:
            parser.error("fit needs --counts or --B-range")
        try:
            b_values = parse_b_range(args.B_range)
        except ValueError as exc:
            parser.error(str(exc))
        count = (
            counting.count_torsor_fast if args.method == "fast" else counting.count_torsor
        )
        samples = []
        for B in b_values:
            rep = count(B, threads=args.threads)
            print(f"counted B={B}: {rep.count} ({rep.elapsed_s:.2f}s)", file=sys.stderr)
            samples.append((B, rep.count))
    c_ref = args.c_ref
    if c_ref is None:
        c_ref = density.peyre_constant(P=args.trunc_prime, quad_tol=args.quad_tol).c
    try:
        report = fit_polylog(samples, c_ref)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {
        "samples": [[b, n] for b, n in report.samples],
        "coefficients": report.coefficients,
        "leading": report.leading,
        "c_reference": report.c_reference,
        "ratio": report.ratio,
        "residual_norm": report.residual_norm,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    plot_path = args.plot_csv or (args.out and args.out + ".plot.csv")
    if plot_path:
        rows = ["B,count,model\n"]
        for b, n in report.samples:
            model = report.c_reference * b * math.log(b) ** 6
            rows.append(f"{b},{n},{model!r}\n")
        _emit("".join(rows), plot_path)
    print(
        f"leading={report.leading:.6e} c={report.c_reference:.6e} "
        f"ratio={report.ratio:.4f}",
        file=sys.stderr,
    )
    return EXIT_OK


def _apply_config_file(argv, parser, subparsers):
    """Pre-scan for --config and turn its key=value lines into defaults.

    Values are coerced through the declared option types, so flags given on
    the command line keep overriding the file.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    entries = {}
    try:
        with open(known.config) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                entries[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for key, raw in entries.items():
        matched = False
        for target in [parser] + list(subparsers.values()):
            for action in target._actions:
                if action.dest == key:
                    value = action.type(raw) if action.type else raw
                    target.set_defaults(**{key: value})
                    matched = True
        if not matched:
            parser.error(f"unknown config key: {key}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="e6cubic",
        description="Count rational points of bounded height on the E6 cubic "
        "surface via its universal torsor and check the expected constant.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key=value file of default options")
    parser.add_argument("--config", help="key=value file of default options")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="run the counters", parents=[shared])
    p_count.add_argument("--B", action="append", help="height bound (repeatable)")
    p_count.add_argument("--B-range", dest="B_range", help="START:STOP:geometric:N")
    p_count.add_argument(
        "--method",
        choices=["brute", "torsor", "fast", "both"],
        default="fast",
    )
    p_count.add_argument("--threads", type=int, default=_default_threads())
    p_count.add_argument("--out", help="output path (default stdout)")
    p_count.add_argument("--format", choices=["csv", "json"], default="csv")

    p_const = sub.add_parser("constant", help="compute the leading constant", parents=[shared])
    p_const.add_argument("--trunc-prime", dest="trunc_prime", type=int, default=10**5)
    p_const.add_argument("--quad-tol", dest="quad_tol", type=float, default=1e-9)
    p_const.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run the verification suite", parents=[shared])
    p_verify.add_argument("--B", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=10_000)
    p_verify.add_argument("--grid", type=int, default=12)

    p_fit = sub.add_parser("fit", help="fit the counting function", parents=[shared])
    p_fit.add_argument("--counts", help="CSV of existing counts (B,count,...)")
    p_fit.add_argument("--B-range", dest="B_range", help="START:STOP:geometric:N")
    p_fit.add_argument("--method", choices=["torsor", "fast"], default="fast")
    p_fit.add_argument("--threads", type=int, default=_default_threads())
    p_fit.add_argument("--c-ref", dest="c_ref", type=float, default=None)
    p_fit.add_argument("--trunc-prime", dest="trunc_prime", type=int, default=10**5)
    p_fit.add_argument("--quad-tol", dest="quad_tol", type=float, default=1e-9)
    p_fit.add_argument("--out", help="fit report JSON path")
    p_fit.add_argument("--plot-csv", dest="plot_csv", help="plot-ready CSV path")
    return parser, {"count": p_count, "constant": p_const, "verify": p_verify, "fit": p_fit}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = build_parser()
    _apply_config_file(argv, parser, subparsers)
    args = parser.parse_args(argv)
    if getattr(args, "quad_tol", None) is not None and not 0 < args.quad_tol <= 1e-3:
        parser.error("--quad-tol must lie in (0, 1e-3]")
    if getattr(args, "threads", None) is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    handlers = {
        "count": _cmd_count,
        "constant": _cmd_constant,
        "verify": _cmd_verify,
        "fit": _cmd_fit,
    }
    try:
        return handlers[args.command](args, parser)
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
