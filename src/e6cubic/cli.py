"""Command-line front end.

Subcommands:
    count     run the point counters and emit CountReports (CSV or JSON)
    constant  compute the expected leading constant and emit JSON
    verify    run the structural verification suite
    fit       fit N(B)/B against powers of log B and compare with the constant

Exit codes: 0 success, 1 verification/equality failure, 2 usage error,
3 numeric failure.

Each option's value is checked once, by the ``type`` or ``choices`` of its
argparse declaration, whatever its source:

* a flag on the command line;
* a ``key=value`` line of the ``--config`` file, parsed as ``--key=value`` by
  the chosen subcommand's own parser.  A key that only other subcommands
  declare is ignored; a key that none declares is a usage error.  A flag on
  the command line overrides the file's value for its option, ``--B``
  included;
* E6CUBIC_THREADS, the default of ``--threads``.

A value that fails its check, and a file that cannot be read or written, is
a usage error.
"""

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import counting, density, surface, verify

__all__ = ["main", "FitReport", "fit_polylog", "parse_b_range"]

_ENV_THREADS = "E6CUBIC_THREADS"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    """Bad input found after parsing; ``main`` reports it as a usage error."""


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


def _checked(convert, ok, rule):
    """An argparse ``type``: ``convert(text)`` when ``ok`` holds of it, else a usage error."""

    def check(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")

    return check


def _integral(text):
    """An integer written as an int or a float ('100', '1e2'); ValueError otherwise."""
    x = float(text)
    if not x.is_integer():
        raise ValueError(text)
    return int(x)


_height = _checked(_integral, lambda b: b >= 1, "a height bound must be a positive integer")
_b_range = _checked(
    parse_b_range, bool, "expected START:STOP:{geometric|linear}:N with 1 <= START <= STOP < inf"
)
_positive_int = _checked(int, lambda n: n >= 1, "must be a positive integer")
_trunc_prime = _checked(int, lambda p: p >= 10**3, "must be an integer >= 1000")
_quad_tol = _checked(float, lambda t: 0 < t <= 1e-3, "must be a number in (0, 1e-3]")
_c_ref = _checked(float, lambda c: 0 < c < math.inf, "must be a positive finite number")

# method -> reports for a list of heights, in its order.  "fast" counts them all
# in one pass; the others count each height on its own.  Looked up when called,
# so that a counter replaced on its module is the one run.
_COUNTERS = {
    "torsor": lambda Bs, threads: [counting.count_torsor(B, threads=threads) for B in Bs],
    "fast": lambda Bs, threads: counting.count_torsor_grid(Bs, threads=threads),
    "brute": lambda Bs, threads: [surface.brute_count(B) for B in Bs],
}


def _write_reports(reports, path, fmt):
    if fmt == "csv":
        lines = ["B,count,method,elapsed_s"]
        lines += [f"{r.B},{r.count},{r.method},{r.elapsed_s:.6f}" for r in reports]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([asdict(r) for r in reports], indent=2) + "\n"
    _emit(text, path)


def _cmd_count(args):
    b_values = (args.B or []) + (args.B_range or [])
    if not b_values:
        raise _UsageError("no B values given (use --B or --B-range)")
    both = args.method == "both"
    methods = ["torsor", "fast", "brute"] if both else [args.method]

    def methods_at(B):  # a "both" run leaves out brute above 1000
        return [m for m in methods if not (both and m == "brute" and B > 1000)]

    # each method counts all its heights at once; rows keep the order of b_values
    columns = {
        m: iter(_COUNTERS[m]([B for B in b_values if m in methods_at(B)], args.threads))
        for m in methods
    }
    reports = []
    verdict_ok = True
    for B in b_values:
        runs = [next(columns[m]) for m in methods_at(B)]
        reports.extend(runs)
        if both and len({r.count for r in runs}) != 1:
            verdict_ok = False
            print(
                f"B={B}: DISAGREE " + ", ".join(f"{r.method}={r.count}" for r in runs),
                file=sys.stderr,
            )
    _write_reports(reports, args.out, args.format)
    if both:
        print("verdict: equal" if verdict_ok else "verdict: DISAGREE", file=sys.stderr)
        if not verdict_ok:
            return EXIT_VERIFY
    return EXIT_OK


def _emit(text, path):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_constant(args):
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


def _cmd_verify(args):
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

    Requires heights B >= 1 and at least 14 distinct samples spanning at
    least three decades.  Duplicate B values are dropped with a warning.

    The fit recovers the coefficients of exact polynomial data, but on counts
    with B <= 1e6 it cannot determine the leading one: the seven columns are
    nearly collinear there, and rounding the exact main term
    B * P(log B) to integers alone moves the fitted leading coefficient to
    about 269 times c.  density.main_term_coefficients predicts all seven.
    """
    pts = _fit_points(samples)
    bs = np.array([b for b, _ in pts], dtype=float)
    ns = np.array([n for _, n in pts], dtype=float)
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


def _fit_points(samples):
    """The distinct samples of ``fit_polylog``, sorted, after its checks."""
    seen = {}
    for b, n in samples:
        if b < 1:
            raise ValueError(f"heights must be at least 1, got B={b}")
        if b in seen:
            warnings.warn(f"duplicate sample B={b} dropped", stacklevel=3)
            continue
        seen[b] = n
    pts = sorted(seen.items())
    if len(pts) < 14:
        raise ValueError(f"need at least 14 distinct samples, got {len(pts)}")
    if pts[-1][0] / pts[0][0] < 1_000:
        raise ValueError("samples must span at least three decades of B")
    if any(n <= 0 for _, n in pts):
        raise ValueError("counts must be positive to fit")
    return pts


def _read_counts_csv(path):
    try:
        with open(path, newline="") as fh:
            return [(int(row["B"]), int(row["count"])) for row in csv.DictReader(fh)]
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except (csv.Error, KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"{path}: needs integer B and count columns") from exc


def _cmd_fit(args):
    if not (args.counts or args.B_range):
        raise _UsageError("fit needs --counts or --B-range")
    try:
        if args.counts:
            samples = _read_counts_csv(args.counts)
        else:
            _fit_points((b, 1) for b in args.B_range)  # reject the grid before counting it
            samples = []
            for rep in counting.count_torsor_grid(args.B_range, threads=args.threads):
                print(f"counted B={rep.B}: {rep.count} ({rep.elapsed_s:.2f}s)", file=sys.stderr)
                samples.append((rep.B, rep.count))
        samples = _fit_points(samples)  # reject them before waiting for c
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    c_ref = args.c_ref
    if c_ref is None:
        c_ref = density.peyre_constant(P=args.trunc_prime, quad_tol=args.quad_tol).c
    report = fit_polylog(samples, c_ref)
    _emit(json.dumps(asdict(report), indent=2) + "\n", args.out)
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


def _apply_config_file(args, argv, parser, subparsers, declared):
    """Set in ``args`` the ``--config`` file's values of the options argv leaves unset.

    Each ``key=value`` line names the option ``--key``.  One that the chosen
    subcommand declares becomes the token ``--key=value`` and goes through
    that subcommand's own parser, which checks it like a flag; one that only
    other subcommands declare is skipped unread.
    """
    try:
        with open(args.config) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    tokens = []
    for line in lines:
        if line and not line.startswith("#"):
            key, _, value = (part.strip() for part in line.partition("="))
            option = "--" + key.replace("_", "-")
            if option in declared[args.command]:
                tokens.append(f"{option}={value}")
            elif not any(option in options for options in declared.values()):
                raise _UsageError(f"unknown config key: {key}")
    sub = subparsers[args.command]
    # Without defaults, a parse holds a value only for the options its tokens give.
    sub.set_defaults(**dict.fromkeys(vars(args)))
    given = vars(parser.parse_args(argv))
    for key, value in vars(sub.parse_args(tokens)).items():
        if value is not None and given[key] is None:
            setattr(args, key, value)


def build_parser():
    """The parser, its subcommand parsers, and the option strings each subcommand declares."""
    parser = argparse.ArgumentParser(
        prog="e6cubic",
        description="Count rational points of bounded height on the E6 cubic "
        "surface via its universal torsor and check the expected constant.",
    )
    parser.add_argument("--config", help="key=value file of default options")
    # SUPPRESS: a subcommand that is not given --config keeps the one given before it
    shared = argparse.ArgumentParser(add_help=False)
    config = shared.add_argument(
        "--config", default=argparse.SUPPRESS, help="key=value file of default options"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    threads = os.environ.get(_ENV_THREADS, "1")
    threads_help = f"worker processes (default: ${_ENV_THREADS}, else 1)"
    quad_help = (
        "omega_inf's direct form halves its Gauss panels, up to 400, until its error estimate "
        "is at most tol * max(1, value); tol in (0, 1e-3] (default 1e-9)"
    )
    declared = {}

    def options(command, *actions):
        declared[command] = {s for a in (config, *actions) for s in a.option_strings}

    p_count = sub.add_parser("count", help="run the counters", parents=[shared])
    options(
        "count",
        p_count.add_argument(
            "--B", action="append", type=_height, help="height bound (repeatable)"
        ),
        p_count.add_argument(
            "--B-range", dest="B_range", type=_b_range, help="START:STOP:geometric:N"
        ),
        p_count.add_argument(
            "--method",
            choices=["brute", "torsor", "fast", "both"],
            default="fast",
        ),
        p_count.add_argument("--threads", type=_positive_int, default=threads, help=threads_help),
        p_count.add_argument("--out", help="output path (default stdout)"),
        p_count.add_argument("--format", choices=["csv", "json"], default="csv"),
    )

    p_const = sub.add_parser("constant", help="compute the leading constant", parents=[shared])
    options(
        "constant",
        p_const.add_argument("--trunc-prime", dest="trunc_prime", type=_trunc_prime, default=10**5),
        p_const.add_argument(
            "--quad-tol", dest="quad_tol", type=_quad_tol, default=1e-9, help=quad_help
        ),
        p_const.add_argument("--out"),
    )

    p_verify = sub.add_parser("verify", help="run the verification suite", parents=[shared])
    options(
        "verify",
        p_verify.add_argument("--B", type=_height, default=200),
        p_verify.add_argument("--seed", type=int, default=0),
        p_verify.add_argument("--samples", type=_positive_int, default=10_000),
        p_verify.add_argument("--grid", type=_positive_int, default=12),
    )

    p_fit = sub.add_parser("fit", help="fit the counting function", parents=[shared])
    options(
        "fit",
        p_fit.add_argument("--counts", help="CSV of existing counts (B,count,...)"),
        p_fit.add_argument(
            "--B-range", dest="B_range", type=_b_range, help="START:STOP:geometric:N"
        ),
        p_fit.add_argument("--threads", type=_positive_int, default=threads, help=threads_help),
        p_fit.add_argument("--c-ref", dest="c_ref", type=_c_ref, default=None),
        p_fit.add_argument("--trunc-prime", dest="trunc_prime", type=_trunc_prime, default=10**5),
        p_fit.add_argument(
            "--quad-tol", dest="quad_tol", type=_quad_tol, default=1e-9, help=quad_help
        ),
        p_fit.add_argument("--out", help="fit report JSON path"),
        p_fit.add_argument("--plot-csv", dest="plot_csv", help="plot-ready CSV path"),
    )
    subparsers = {"count": p_count, "constant": p_const, "verify": p_verify, "fit": p_fit}
    return parser, subparsers, declared


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers, declared = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "constant": _cmd_constant,
        "verify": _cmd_verify,
        "fit": _cmd_fit,
    }
    try:
        if args.config:
            _apply_config_file(args, argv, parser, subparsers, declared)
        return handlers[args.command](args)
    except _UsageError as exc:
        subparsers[args.command].error(str(exc))
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
