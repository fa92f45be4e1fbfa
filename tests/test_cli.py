import json
import math
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from e6cubic import arith, cli, counting, density, surface, torsor, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_both_methods_agree_at_one(self, capsys):
        code, out, err = run_cli(capsys, "count", "--B", "1", "--method", "both")
        assert code == 0
        assert "verdict: equal" in err
        lines = out.strip().splitlines()
        assert lines[0] == "B,count,method,elapsed_s"
        rows = [line.split(",") for line in lines[1:]]
        assert {r[2] for r in rows} == {"torsor", "fast", "brute"}
        assert all(r[1] == "7" for r in rows)

    def test_brute_beyond_int64_is_numeric_failure(self, capsys):
        # the brute scan's int64 cubes, and the class count's int64 arrays
        for B, method, message in (
            ("2000000", "brute", "height bound B = 2000000 "),
            ("1e14", "fast", "height B = 100000000000000 is too large"),
        ):
            code, out, err = run_cli(capsys, "count", "--B", B, "--method", method)
            assert code == 3
            assert out == ""
            assert err.startswith(f"numeric failure: {message}")

    def test_zero_bound_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--B", "0"])
        assert exc.value.code == 2

    def test_missing_bounds_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "bounds",
        [["--B", "inf"], ["--B", "1e400"], ["--B", "nan"], ["--B-range", "1:inf:geometric:3"]],
    )
    def test_non_finite_bound_is_usage_error(self, capsys, bounds):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", *bounds])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_range_run_to_csv(self, capsys, tmp_path):
        out_path = tmp_path / "runs.csv"
        code, _, _ = run_cli(
            capsys, "count", "--B-range", "10:500:geometric:10",
            "--method", "fast", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "B,count,method,elapsed_s"
        assert len(lines) == 11
        bs = [int(line.split(",")[0]) for line in lines[1:]]
        assert bs == sorted(bs) and bs[0] == 10 and bs[-1] == 500

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--B", "5", "--method", "torsor", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["B"] == 5 and payload[0]["count"] == 27

    def test_rows_keep_order_and_repeats(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--B", "5", "--B", "3", "--B", "5", "--threads", "2")
        assert code == 0
        rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
        assert rows == [["5", "27", "fast"], ["3", "13", "fast"], ["5", "27", "fast"]]

    def test_both_checks_the_grid_against_both_oracles(self, capsys):
        argv = ["count", "--B", "40", "--B", "10", "--B-range", "10:40:linear:4", "--method", "both",
                "--threads", "2"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert "verdict: equal" in err
        brute = surface.brute_counts_upto(40)
        rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
        assert rows == [
            [str(B), str(brute[B]), method]
            for B in (40, 10, 10, 20, 30, 40)
            for method in ("torsor", "fast", "brute")
        ]

    def test_both_reports_a_wrong_grid(self, capsys, monkeypatch):
        grid = counting.count_torsor_grid

        def off_by_one_at_20(heights, threads=1):
            return [replace(r, count=r.count + (r.B == 20)) for r in grid(heights, threads)]

        monkeypatch.setattr(counting, "count_torsor_grid", off_by_one_at_20)
        code, _, err = run_cli(capsys, "count", "--B-range", "10:40:linear:4", "--method", "both")
        assert code == 1
        assert "B=20: DISAGREE" in err and "B=30" not in err
        assert "verdict: DISAGREE" in err

    def test_scientific_notation_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--B", "1e2", "--method", "fast")
        assert code == 0
        assert out.splitlines()[1].startswith("100,")


class TestConstant:
    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "constant", "--trunc-prime", "2000", "--quad-tol", "1e-8"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == "1/6220800"
        assert payload["beta"] == "1"
        assert payload["omega0"]["truncation_prime"] == 2000
        assert payload["omega0"]["tail_bound"] > 0
        assert payload["omegaInf"]["error"] <= 1e-6
        assert payload["c"] > 0

    def test_key_set(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--trunc-prime", "2000")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"alpha", "beta", "omega0", "omegaInf", "c", "c_error"}
        assert set(payload["omega0"]) == {"value", "truncation_prime", "tail_bound"}
        assert set(payload["omegaInf"]) == {"value", "error"}

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "constant", "--trunc-prime", "2000")
        _, second, _ = run_cli(capsys, "constant", "--trunc-prime", "2000")
        assert first == second

    def test_bad_tolerance_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["constant", "--quad-tol", "0.5"])
        assert exc.value.code == 2

    def test_every_tolerance_exits_0(self, capsys):
        # the ends of --quad-tol's range and the default: the direct form's
        # estimate never grows as tol shrinks
        estimates = []
        for tol in ("1e-3", "1e-9", "1e-15"):
            code, out, _ = run_cli(capsys, "constant", "--trunc-prime", "1000", "--quad-tol", tol)
            assert code == 0, out
            estimates.append(density.omega_inf_direct(float(tol))[1])
        assert estimates == sorted(estimates, reverse=True)

    def test_disagreeing_omega_inf_forms_exit_3(self, capsys, monkeypatch):
        # shift the direct form by 1.5 times the two forms' error estimates:
        # beyond what omega_inf accepts, far below 1e-6
        _, ea = density.omega_inf_g2()
        b, eb = density.omega_inf_direct()
        shifted = b + 1.5 * (ea + eb)
        monkeypatch.setattr(density, "omega_inf_direct", lambda tol: (shifted, eb))
        code, out, _ = run_cli(capsys, "constant", "--trunc-prime", "2000")
        assert code == 3
        assert "omega_inf evaluations disagree" in json.loads(out)["error"]


def swap_lift(x):
    """x, but the point (1, -2, 1, 1) in place of (4, -3, 8, 4): a lift fault at one point."""
    return surface.RationalPoint(1, -2, 1, 1) if x.coords() == (4, -3, 8, 4) else x


def fault_ids(faults):
    """Test ids: a property's first fault by its name, a later one also by the attribute's."""
    seen, ids = set(), []
    for prop, _, name, _ in faults:
        ids.append(f"{prop}-{name}" if prop in seen else prop)
        seen.add(prop)
    return ids


def eta_worst_reference(q):
    """max over units a mod q of #{x mod q: x^2 = a}, one modulus at a time."""
    n = np.arange(1, q + 1, dtype=np.int64)
    counts = np.bincount((n * n) % q, minlength=q)
    coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    return int(counts[coprime].max()) if coprime.any() else 0


class TestEtaTally:
    QS = range(1, 2002, 2)

    @pytest.fixture(scope="class")
    def reference(self):
        return [(q, eta_worst_reference(q)) for q in self.QS]

    @pytest.mark.parametrize("block", [None, 64])
    def test_blocks_match_the_per_modulus_reference(self, monkeypatch, reference, block):
        if block is not None:
            monkeypatch.setattr(counting, "_BATCH", block)
        assert verify._eta_worst(self.QS) == reference

    def test_unit_modulus_and_a_modulus_alone_in_its_block(self, monkeypatch):
        assert verify._eta_worst([1]) == [(1, 1)]
        q = counting._BATCH + 1
        assert verify._eta_worst([3, q, 5]) == [(3, 2), (q, eta_worst_reference(q)), (5, 2)]
        monkeypatch.setattr(counting, "_BATCH", 64)
        qs = (63, 65, 1, 105)
        assert verify._eta_worst(qs) == [(q, eta_worst_reference(q)) for q in qs]


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--B", "40", "--samples", "300", "--grid", "6"
        )
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 4

    def test_property_without_checks_does_not_pass(self):
        assert not verify.PropertyResult("empty", checks=0, failures=0).passed
        assert verify.PropertyResult("one", checks=1, failures=0).passed

    @pytest.mark.parametrize(
        "bad, detail",
        [((), ""), ((3,), "note 3"), ((1, 3, 5, 7, 9), "note 1; note 3; note 5; note 7")],
    )
    def test_tally_counts_checks_and_keeps_four_notes(self, bad, detail):
        @verify._tally
        def prop(n):
            for i in range(n):
                yield f"note {i}" if i in bad else None

        assert prop(12) == (12, len(bad), detail)

    # (property, module, name, fault): the fault replaces module.name and
    # breaks what that property, and no other, checks
    FAULTS = [
        ("bijection_round_trips", torsor, "phi_prime", lambda real: lambda p: p),
        ("bijection_round_trips", torsor, "lift", lambda real: lambda x: real(swap_lift(x))),
        ("case_analysis_grid", torsor, "phi_matching_cases", lambda real: lambda *tup: []),
        (
            "congruence_identities", arith, "count_congruence_interval",
            lambda real: lambda *args: replace(
                real(*args), exact_count=real(*args).exact_count + 1
            ),
        ),
        ("eta_bound_odd_moduli", arith, "omega_distinct", lambda real: lambda n: 0),
    ]

    @pytest.mark.parametrize("prop, module, name, fault", FAULTS, ids=fault_ids(FAULTS))
    def test_injected_fault_fails_its_property(self, monkeypatch, prop, module, name, fault):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        results = verify.run_suite(B=40, congruence_samples=300, grid=6)
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == [prop]
        assert failed[0].failures > 0 and failed[0].detail

    def test_lift_fault_fails_both_sides_of_the_round_trip(self, monkeypatch):
        # the brute points reuse the walk's lifts: a wrong lift must still
        # fail psi(lift(x)) == x there, not only lift(psi(t)) == t2
        monkeypatch.setattr(torsor, "lift", lambda x, real=torsor.lift: real(swap_lift(x)))
        checks, failures, detail = verify._bijection_checks(40)
        assert failures == 2
        assert "lift(psi(t)) mismatch at" in detail
        assert "psi(lift(x)) != x at RationalPoint(x0=4, x1=-3, x2=8, x3=4)" in detail

    @pytest.mark.parametrize("B", [40, 201])
    def test_bijection_checks_five_per_point_and_two(self, B):
        n = len(list(surface.brute_points(B)))
        assert verify._bijection_checks(B) == (5 * n + 2, 0, "")

    def test_cli_reports_a_failing_property(self, capsys, monkeypatch):
        monkeypatch.setattr(arith, "omega_distinct", lambda n: 0)
        code, out, _ = run_cli(capsys, "verify", "--B", "40", "--samples", "300", "--grid", "6")
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1
        assert fails[0].startswith("FAIL eta_bound_odd_moduli: 1001 checks, ")
        assert "(eta bound fails at q=" in fails[0]


class TestFit:
    @staticmethod
    def synthetic_samples(c, n=16):
        samples = []
        for k in range(n):
            b = round(10 ** (3 + 4 * k / (n - 1)))
            samples.append((b, c * b * math.log(b) ** 6))
        return samples

    def test_exact_model_recovery(self):
        c = 7.5e-9
        report = cli.fit_polylog(self.synthetic_samples(c), c)
        assert abs(report.ratio - 1) < 1e-6
        assert report.leading > 0

    def test_insufficient_samples_rejected(self):
        with pytest.raises(ValueError):
            cli.fit_polylog([(10 * k, 100 + k) for k in range(1, 11)], 1.0)

    def test_narrow_span_rejected(self):
        samples = [(1000 + 10 * k, 1000.0 + k) for k in range(20)]
        with pytest.raises(ValueError):
            cli.fit_polylog(samples, 1.0)

    def test_height_below_one_rejected(self):
        samples = [(0, 1)] + self.synthetic_samples(1.0)
        with pytest.raises(ValueError, match="B=0"):
            cli.fit_polylog(samples, 1.0)

    def test_cli_fit_height_below_one_is_usage_error(self, capsys, tmp_path):
        rows = ["B,count", "0,1"] + [f"{b},{round(n)}" for b, n in self.synthetic_samples(1.0)]
        csv = tmp_path / "counts.csv"
        csv.write_text("\n".join(rows) + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--counts", str(csv), "--c-ref", "1"])
        assert exc.value.code == 2
        assert "heights must be at least 1, got B=0" in capsys.readouterr().err

    def test_cli_fit_rejects_samples_before_computing_c(self, capsys, tmp_path, monkeypatch):
        def no_constant(**kwargs):
            raise AssertionError("peyre_constant called for rejected samples")

        monkeypatch.setattr(density, "peyre_constant", no_constant)
        csv = tmp_path / "counts.csv"
        csv.write_text("B,count\n1000,27145\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--counts", str(csv)])
        assert exc.value.code == 2
        assert "need at least 14 distinct samples, got 1" in capsys.readouterr().err

    def test_duplicates_dropped_with_warning(self):
        c = 2.0e-8
        samples = self.synthetic_samples(c) + [self.synthetic_samples(c)[0]]
        with pytest.warns(UserWarning, match="duplicate"):
            report = cli.fit_polylog(samples, c)
        assert len(report.samples) == 16

    def test_cli_fit_from_csv(self, capsys, tmp_path):
        # counts large enough that integer rounding cannot disturb the fit
        c = 1.0
        csv = tmp_path / "counts.csv"
        samples = [[b, int(round(n))] for b, n in self.synthetic_samples(c, n=18)]
        rows = ["B,count,method,elapsed_s"] + [f"{b},{n},fast,0.0" for b, n in samples]
        csv.write_text("\n".join(rows) + "\n")
        out_json = tmp_path / "fit.json"
        plot_csv = tmp_path / "plot.csv"
        code, _, err = run_cli(
            capsys, "fit", "--counts", str(csv), "--c-ref", repr(c),
            "--out", str(out_json), "--plot-csv", str(plot_csv),
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert list(payload) == [
            "samples", "coefficients", "leading", "c_reference", "ratio", "residual_norm",
        ]
        assert payload["samples"] == samples  # [B, count] pairs, B ascending
        assert abs(payload["ratio"] - 1) < 1e-3  # integer rounding noise
        plot_lines = plot_csv.read_text().strip().splitlines()
        assert plot_lines[0] == "B,count,model"
        assert len(plot_lines) == 19

    def test_cli_fit_counts_the_range_and_computes_c(self, capsys, tmp_path):
        spec, out_json = "1e2:1e5:geometric:14", tmp_path / "fit.json"
        code, _, err = run_cli(
            capsys, "fit", "--B-range", spec, "--threads", "2", "--out", str(out_json)
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        grid = counting.count_torsor_grid(cli.parse_b_range(spec))
        assert payload["samples"] == [[r.B, r.count] for r in grid]
        counted = [line for line in err.splitlines() if line.startswith("counted B=")]
        assert [line.split(":")[0] for line in counted] == [f"counted B={r.B}" for r in grid]
        assert payload["c_reference"] == density.peyre_constant(P=10**5).c

    def test_fit_without_inputs_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit"])
        assert exc.value.code == 2

    def test_fit_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--B-range", "1:10:geometric:x"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_fit_refuses_a_grid_before_counting_it(self, capsys, monkeypatch):
        def counted(*args, **kwargs):
            raise AssertionError("the grid was counted")

        monkeypatch.setattr(counting, "count_torsor_grid", counted)
        for spec, message in (
            ("1e2:1e4:geometric:5", "need at least 14 distinct samples, got 5"),
            ("1e2:1e4:geometric:20", "samples must span at least three decades of B"),
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(["fit", "--B-range", spec])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert message in err and "counted B=" not in err


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nmethod=torsor\nformat=json\n")
        code, out, _ = run_cli(
            capsys, "count", "--config", str(cfg), "--B", "5"
        )
        assert code == 0
        assert json.loads(out)[0]["method"] == "torsor"
        code, out, _ = run_cli(
            capsys, "count", "--config", str(cfg), "--B", "5", "--method", "fast"
        )
        assert json.loads(out)[0]["method"] == "fast"


class TestConfigSemantics:
    @staticmethod
    def count_rows(capsys, tmp_path, config, *argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, out, _ = run_cli(capsys, *[a.replace("CFG", str(cfg)) for a in argv])
        assert code == 0
        return [line.split(",")[:3] for line in out.strip().splitlines()[1:]]

    def test_file_height_is_counted(self, capsys, tmp_path):
        rows = self.count_rows(capsys, tmp_path, "B=50\n", "count", "--config", "CFG")
        assert rows == [["50", "595", "fast"]]

    def test_command_line_height_replaces_the_files(self, capsys, tmp_path):
        rows = self.count_rows(capsys, tmp_path, "B=5\n", "count", "--config", "CFG", "--B", "7")
        assert [r[0] for r in rows] == ["7"]

    def test_config_before_the_subcommand(self, capsys, tmp_path):
        rows = self.count_rows(
            capsys, tmp_path, "method=torsor\n", "--config", "CFG", "count", "--B", "5"
        )
        assert rows == [["5", "27", "torsor"]]

    def test_key_of_another_subcommand_ignored(self, capsys, tmp_path):
        rows = self.count_rows(
            capsys, tmp_path, "trunc_prime=2000\n", "count", "--config", "CFG", "--B", "5"
        )
        assert rows == [["5", "27", "fast"]]

    def test_key_of_another_subcommand_is_not_checked(self, capsys, tmp_path):
        # constant's check would reject this value; count does not read it
        rows = self.count_rows(
            capsys, tmp_path, "trunc_prime=abc\n", "count", "--config", "CFG", "--B", "5"
        )
        assert rows == [["5", "27", "fast"]]

    def test_other_subcommands_defaults_are_not_converted(self, capsys, tmp_path, monkeypatch):
        # a malformed E6CUBIC_THREADS only concerns the subcommands with --threads
        monkeypatch.setenv("E6CUBIC_THREADS", "abc")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=torsor\n")
        code, out, err = run_cli(
            capsys, "constant", "--trunc-prime", "1000", "--config", str(cfg)
        )
        assert code == 0, err
        assert "c" in json.loads(out)


# (files to write into tmp_path, argv with {tmp} for tmp_path); each must exit 2
CFG = "{tmp}/run.cfg"
USAGE_ERRORS = {
    "config-choice": ({"run.cfg": "format=xml\n"}, ["count", "--config", CFG, "--B", "5"]),
    "config-height-zero": ({"run.cfg": "B=0\n"}, ["count", "--config", CFG]),
    "config-height-garbage": ({"run.cfg": "B=abc\n"}, ["count", "--config", CFG]),
    "config-trunc-prime": ({"run.cfg": "trunc_prime=abc\n"}, ["constant", "--config", CFG]),
    "config-unknown-key": ({"run.cfg": "bogus_key=1\n"}, ["count", "--config", CFG, "--B", "5"]),
    "config-unknown-key-constant": ({"run.cfg": "bogus_key=1\n"}, ["constant", "--config", CFG]),
    "fit-trunc-prime": ({}, ["fit", "--B-range", "100:200:geometric:3", "--trunc-prime", "10"]),
    "verify-negative-height": ({}, ["verify", "--B", "-5"]),
    "verify-negative-samples": ({}, ["verify", "--samples", "-3"]),
    "verify-negative-grid": ({}, ["verify", "--grid", "-1"]),
    "fit-missing-counts": ({}, ["fit", "--counts", "{tmp}/missing.csv"]),
    "fit-counts-without-B": ({"c.csv": "count,method\n5,fast\n"}, ["fit", "--counts", "{tmp}/c.csv"]),
    "fit-counts-not-integer": ({"c.csv": "B,count\n5,x\n"}, ["fit", "--counts", "{tmp}/c.csv"]),
    "fit-method": ({}, ["fit", "--B-range", "100:200:geometric:3", "--method", "fast"]),
    **{
        f"fit-c-ref-{c}": ({}, ["fit", "--B-range", "100:1000:geometric:14", f"--c-ref={c}"])
        for c in ("0", "nan", "inf", "-1")
    },
    "config-c-ref-zero": (
        {"run.cfg": "c_ref=0\n"}, ["fit", "--config", CFG, "--B-range", "100:1000:geometric:14"]
    ),
    "count-unwritable-out": ({}, ["count", "--B", "5", "--out", "{tmp}/no/such/dir/x.csv"]),
}


class TestUsageErrors:
    @pytest.mark.parametrize("files, argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
    def test_exits_2_with_error_line(self, capsys, tmp_path, files, argv):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "counted" not in err  # rejected before any count ran

    def test_malformed_thread_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("E6CUBIC_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--B", "5"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_threads_flag_overrides_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("E6CUBIC_THREADS", "abc")
        code, out, _ = run_cli(capsys, "count", "--B", "5", "--threads", "1")
        assert code == 0
        assert out.splitlines()[1].startswith("5,27,")


@pytest.mark.parametrize("argv", [[], ["count"], ["constant"], ["verify"], ["fit"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


class TestBRangeParser:
    def test_geometric(self):
        grid = cli.parse_b_range("1e3:1e6:geometric:10")
        assert len(grid) == 10
        assert grid[0] == 1000 and grid[-1] == 10**6

    def test_rejects_garbage(self):
        for spec in ("5", "10:1:geometric:5", "1:10:exp:5", "0:10:linear:5", "1:inf:geometric:3"):
            with pytest.raises(ValueError):
                cli.parse_b_range(spec)


class TestReadme:
    def test_cli_examples_parse(self):
        # every example line of README's CLI block is a valid command line
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```")[1]
        examples = [
            shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("e6cubic ")
        ]
        assert examples
        parser, _, _ = cli.build_parser()
        for argv in examples:
            assert parser.parse_args(argv[1:]).command == argv[1], argv
