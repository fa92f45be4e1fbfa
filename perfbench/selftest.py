"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own suite, so that the
benchmark can change without touching it.  The check tests feed wrong
answers into the checks of ``checks.py`` and expect them rejected; the run
tests run every workload at small size through ``run.py --short``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from e6cubic import cli, counting, density, surface, verify  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


@pytest.fixture(scope="module")
def poly():
    return density.main_term_coefficients(10**5)


# -- every check rejects a wrong answer ---------------------------------------------


def test_count_off_by_one_rejected_by_stored_table(poly):
    table = workload.load_reference()
    B = 100_500
    assert checks.check_counts([(B, table[B])], poly, table) == []
    assert checks.check_counts([(B, table[B] + 1)], poly, table)
    assert checks.check_counts([(B, table[B] - 1)], poly, table)


def test_count_off_by_one_rejected_by_brute_oracle(poly):
    brute = surface.brute_counts_upto(150)
    exact = {100: brute[100], 150: brute[150]}
    good = [(100, brute[100]), (150, brute[150])]
    assert checks.check_counts(good, poly, exact) == []
    assert checks.check_counts([(100, brute[100]), (150, brute[150] + 1)], poly, exact)


def test_reference_table_matches_the_fast_counter():
    table = workload.load_reference()
    assert counting.count_torsor_fast(100_000).count == table[100_000]


def test_count_outside_main_term_band_rejected(poly):
    n = workload.load_reference()[100_000]
    assert checks.check_counts([(100_000, n)], poly, {}) == []
    # 3% low passes the [0.5, 2] band but not the 2% tolerance above 1e5
    assert checks.check_counts([(100_000, int(0.97 * n))], poly, {})
    assert checks.check_counts([(1000, 3 * 27145)], poly, {})


def test_decreasing_counts_rejected(poly):
    assert checks.check_counts([(1000, 27145), (1100, 27144)], poly, {})


def test_case_grid_formula_matches_verify():
    for grid in range(1, 6):
        assert verify._case_grid_checks(grid)[0] == checks.case_grid_checks(grid)


def test_failed_verify_property_rejected():
    B, grid, samples = 40, 3, 50
    oracle = surface.brute_counts_upto(B)
    expected = {
        "bijection_round_trips": checks.bijection_checks(oracle[B]),
        "case_analysis_grid": checks.case_grid_checks(grid),
        "congruence_identities": samples,
        "eta_bound_odd_moduli": checks.eta_checks(2001),
    }
    lines = [
        f"PASS bijection_round_trips: {expected['bijection_round_trips']} checks, 0 failures",
        f"PASS case_analysis_grid: {expected['case_analysis_grid']} checks, 0 failures",
        f"PASS congruence_identities: {samples} checks, 0 failures",
        "PASS eta_bound_odd_moduli: 1001 checks, 0 failures",
    ]
    assert checks.check_verify(0, "\n".join(lines), expected) == []
    failed = lines[:]
    failed[2] = f"FAIL congruence_identities: {samples} checks, 1 failures (identity fails)"
    assert checks.check_verify(1, "\n".join(failed), expected)
    assert checks.check_verify(0, "\n".join(failed), expected)
    short = lines[:]
    short[0] = f"PASS bijection_round_trips: {expected['bijection_round_trips'] - 5} checks, 0 failures"
    assert checks.check_verify(0, "\n".join(short), expected)
    assert checks.check_verify(0, "\n".join(lines[1:]), expected)


def test_verify_output_of_the_program_passes():
    import contextlib
    import io

    B, grid, samples = 40, 3, 50
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--B", str(B), "--grid", str(grid), "--samples", str(samples)])
    oracle = surface.brute_counts_upto(B)
    expected = {
        "bijection_round_trips": checks.bijection_checks(oracle[B]),
        "case_analysis_grid": checks.case_grid_checks(grid),
        "congruence_identities": samples,
        "eta_bound_odd_moduli": checks.eta_checks(2001),
    }
    assert checks.check_verify(rc, buf.getvalue(), expected) == []


def test_counts_upto_and_enumeration_off_by_one_rejected():
    B = 60
    oracle = surface.brute_counts_upto(B)
    upto = counting.counts_upto(B)
    assert checks.check_counts_upto(upto, oracle) == []
    wrong = upto[:]
    wrong[B] += 1
    assert checks.check_counts_upto(wrong, oracle)

    points = [p.coords() for p in counting.enumerate_points(B)]
    assert checks.check_enumerated(checks.summarize_points(points), B, oracle) == []
    assert checks.check_enumerated(checks.summarize_points(points[1:]), B, oracle)
    assert checks.check_enumerated(checks.summarize_points(points + points[:1]), B, oracle)


@pytest.fixture(scope="module")
def constant_output(tmp_path_factory):
    P = 10_000
    path = tmp_path_factory.mktemp("constant") / "constant.json"
    rc = cli.main(["constant", "--trunc-prime", str(P), "--out", str(path)])
    payload = json.loads(path.read_text())
    return P, rc, payload, density.main_term_coefficients(P)


def test_constant_of_the_program_passes(constant_output):
    P, rc, payload, poly = constant_output
    assert checks.check_constant(rc, payload, poly, checks.omega0_logsum(P)) == []


def test_omega0_without_its_inverse_square_term_rejected(constant_output):
    P, rc, payload, poly = constant_output
    wrong = 1.0
    for p in checks.primes_upto(P):
        p = float(p)
        wrong *= (1 - 1 / p) ** 7 * (1 + 7 / p)
    bad = dict(payload, omega0=dict(payload["omega0"], value=wrong))
    assert checks.check_constant(rc, bad, poly, checks.omega0_logsum(P))


def test_omega_inf_disagreement_and_wrong_c_rejected(constant_output):
    P, rc, payload, poly = constant_output
    ref = checks.omega0_logsum(P)
    spread = dict(payload, omegaInf=dict(payload["omegaInf"], error=2e-6))
    assert checks.check_constant(rc, spread, poly, ref)
    shifted = dict(payload, c=payload["c"] + 2 * payload["c_error"])
    assert checks.check_constant(rc, shifted, poly, ref)
    assert checks.check_constant(3, dict(payload, error="numeric failure"), poly, ref)


def test_omega0_logsum_is_the_euler_product():
    exact = 1.0
    for p in checks.primes_upto(1000):
        p = int(p)
        exact *= float(density.omega_p(p))
    assert math.isclose(checks.omega0_logsum(1000), exact, rel_tol=1e-13)


# -- the tracer ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ((1, 1), None, 0, "a", 0.0, 10.0, None),
        ((2, 1), (1, 1), 0, "b", 1.0, 4.0, None),  # the two shards overlap
        ((3, 1), (1, 1), 0, "b", 2.0, 6.0, None),
        ((2, 2), (2, 1), 0, "c", 1.5, 2.0, None),
    ]
    assert tracing.self_times(spans) == [5.0, 2.5, 4.0, 0.5]


def test_tracer_restores_the_package():
    import e6cubic

    before = {(m, a): getattr(getattr(e6cubic, m), a) for m, a, *_ in tracing.TARGETS}
    tracer = tracing.Tracer(e6cubic, os.path.join(HERE, "out", "selftest-workers"))
    tracer.install()
    tracer.begin_pass(0)
    assert counting.count_torsor_fast(300, threads=2).count == surface.brute_counts_upto(300)[300]
    tracer.uninstall()
    spans, counts = tracer.end_pass()
    os.rmdir(tracer.worker_dir)
    after = {(m, a): getattr(getattr(e6cubic, m), a) for m, a, *_ in tracing.TARGETS}
    assert after == before
    metrics = tracing.pass_metrics(spans, counts)
    assert metrics["counting.points"] == surface.brute_counts_upto(300)[300]
    assert metrics["counting.shard_points.min"] > 0  # both shards reported from the workers


# -- the benchmark runs ----------------------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


# per workload, the layer metrics the mapping says must be nonzero there
ACTIVE = {
    "count-1w": ["counting.walk_s", "counting.ns_per_point", "counting.points",
                 "counting.xi_tuples", "arith.sqrt_mod_calls", "arith.factorize_calls"],
    "sweep-2w": ["counting.walk_s", "counting.shard_s.min", "counting.shard_points.min",
                 "counting.shard_balance", "counting.pool_s", "arith.sqrt_mod_s", "cli.self_s"],
    "verify": ["arith.congruence_calls", "surface.brute_points", "surface.brute_s",
               "torsor.psi_s", "torsor.phi_s", "torsor.lift_s", "verify.checks",
               "verify.bijection_s", "verify.case_grid_s", "verify.congruence_s", "verify.eta_s",
               "counting.enumerate_s", "cli.self_s"],
    "constant": ["density.primes", "density.omega0_s", "density.omega_inf_g2_s",
                 "density.omega_inf_direct_s", "density.g2_calls", "density.euler_taylor_s",
                 "density.archimedean_moments_s", "density.zeta_taylor_s", "cli.self_s"],
}


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_runs_report_every_metric(name):
    for trace_flag, declared in (("0", BENCHMARK["end_to_end"]), ("1", BENCHMARK["per_layer"])):
        done = _run("--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace_flag,
                    "--short")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, done.stderr
        assert result["attempted"] >= 1
        assert {m: (m in result["metrics"]) for m in (d["name"] for d in declared)} == \
            {d["name"]: True for d in declared}
        for d in declared:
            assert result["metrics"][d["name"]]["unit"] == d["unit"]
        if trace_flag == "0":
            assert all(result["metrics"][d["name"]]["value"] > 0 for d in declared)
        else:
            zero = [m for m in ACTIVE[name] if not result["metrics"][m]["value"] > 0]
            assert zero == []


def test_same_seed_same_inputs():
    a = workload.Sweep(None, 3, False)
    b = workload.Sweep(None, 3, False)
    assert a.spec == b.spec and a.grid == b.grid and len(a.grid) == 25
    assert workload.CountOne(None, 3, False).B == workload.CountOne(None, 3, False).B


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "count-1w", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
