"""Exit codes, report schemas, file formats, and determinism of the CLI."""

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wpfeq import cli, elliptic

from oracles import ThetaOracle


def run(argv):
    return cli.main(argv)


class TestSymbolic:
    def test_all_checks_pass(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert run(["symbolic", "--which", "all", "--out", str(out)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 6
        assert all("PASS" in l for l in lines)
        report = json.loads(out.read_text())
        assert set(report) >= {"command", "params", "checks", "pass", "max_residual"}
        assert report["pass"] is True

    def test_single_check_reports_cofactor(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["symbolic", "--which", "eqf", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["cofactor"] == "24"
        assert run(["symbolic", "--which", "eta,rewrites", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["checks"]] == ["eta", "rewrites/first", "rewrites/second"]
        assert all(c["cofactor"] == "1" for c in report["checks"])

    def test_bogus_check_is_usage_error(self):
        assert run(["symbolic", "--which", "bogus"]) == 64

    def test_unknown_verb_is_usage_error(self):
        assert run(["frobnicate"]) == 64


class TestVerify:
    def test_theorem1_lattice_shift(self, tmp_path):
        out = tmp_path / "t1.json"
        code = run(
            [
                "verify", "theorem1", "--periods", "2,0,0,2",
                "--shift-frac", "1/3,0", "--n", "200", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["lattice_expectation"] == "pass"
        assert report["max_residual"] <= 1e-8

    def test_theorem1_non_lattice_shift_counts_as_pass(self):
        code = run(
            ["verify", "theorem1", "--periods", "2,0,0,2", "--shift-frac", "0.1,0", "--n", "100"]
        )
        assert code == 0

    @pytest.mark.parametrize("periods", ["1,0,0,1", "1000,0,0,1000", "100,0,0,800"])
    def test_theorem1_verdict_does_not_depend_on_the_period_scale(self, periods):
        # 3 * 0.49 omega1 is off the lattice at every scale, so the scan must fail as expected
        argv = ["verify", "theorem1", "--periods", periods, "--shift-frac", "0.49,0", "--n", "200"]
        assert run(argv) == 0

    def test_expect_flag_overrides(self):
        code = run(
            [
                "verify", "theorem1", "--periods", "2,0,0,2",
                "--shift-frac", "0.1,0", "--n", "100", "--expect", "pass",
            ]
        )
        assert code == 1

    def test_theorem2_cases(self):
        ok = run(
            [
                "verify", "theorem2", "--periods", "2,0,0,2",
                "--gammas", "0.2,0,0,0.3,0.8,0.7", "--n", "100",
            ]
        )
        assert ok == 0
        bad = run(
            [
                "verify", "theorem2", "--periods", "2,0,0,2",
                "--gammas", "0.2,0,0,0.3,0,0", "--n", "100", "--expect", "fail",
            ]
        )
        assert bad == 0

    def test_theorem2_expect_flag_is_the_reported_expectation(self, tmp_path):
        # the lattice's own expectation is reported apart, and does not replace --expect
        out = tmp_path / "t2.json"
        argv = ["verify", "theorem2", "--periods", "2,0,0,2", "--gammas", "0.2,0,0,0.3,0.8,0.7",
                "--n", "50", "--expect", "fail", "--out", str(out)]
        assert run(argv) == 1
        check = json.loads(out.read_text())["checks"][0]
        assert check["expected"] == "fail" and check["lattice_expectation"] == "pass"
        assert check["pass"] is False and check["observed_pass"] is True

    @pytest.mark.parametrize("kind, flags", [("theorem1", ["--shift-frac", "1e-9,0"]),
                                             ("theorem2", ["--gammas", "3e-9,0,0,0,0,0"])])
    def test_borderline_shift_sum_is_indeterminate(self, tmp_path, kind, flags):
        # a shift sum of 6e-9 on the lattice 2Z + 2iZ lies within ten lattice tolerances of 0
        out = tmp_path / "t.json"
        argv = ["verify", kind, "--periods", "2,0,0,2", *flags, "--n", "100", "--out", str(out)]
        assert run(argv) == 0
        check = json.loads(out.read_text())["checks"][0]
        assert check["outcome"] == check["expected"] == "indeterminate"
        assert check["pass"] is True
        assert check["shift_sum"] == pytest.approx([6e-9, 0], rel=1e-12)

    def test_sigma_identity(self, tmp_path):
        out = tmp_path / "sigma.json"
        assert run(["verify", "sigma", "--periods", "2,0,0,2", "--n", "150", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_residual"] <= 1e-8

    def test_constant_cases(self):
        assert run(["verify", "constant", "--case", "exp"]) == 0
        assert run(["verify", "constant", "--case", "zero"]) == 0
        assert run(["verify", "constant", "--case", "mismatch"]) == 0

    def test_missing_periods_is_config_error(self):
        assert run(["verify", "theorem1", "--shift-frac", "1/3,0"]) == 65

    @pytest.mark.parametrize(
        "family, indices, code",
        [
            *((family, indices, 65) for family in ("wp", "exp") for indices in (
                "--k 3 --l 3",  # the two-column determinant needs two columns
                "--k 0",
                "--k -1",
                "--s 0",
                "--k 1 --l 6",  # a column past the jet order cap
            )),
            ("wp", "--k 1 --l 2 --s 2", 0),  # a repeated column: the zero polynomial
            ("exp", "--k 1 --l 2 --s 2", 0),
            ("wp", "--k 1 --l 5", 0),  # sixth jets of pe
            ("wp", "--k 4 --l 5 --s 6", 0),
        ],
    )
    def test_derived_indices_are_refused_or_run(self, family, indices, code, capsys):
        # exp reads no lattice, and would refuse --periods
        lattice = ["--periods", "2,0,0,2"] if family == "wp" else []
        argv = ["verify", "derived", "--family", family, *lattice, *indices.split(), "--n", "50"]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert ("configuration error" in err) == (code == 65) and "internal error" not in err

    def test_invariants_give_their_agm_lattice(self):
        # the shift fraction is of the AGM basis: 3 * omega1/3 is a lattice point
        argv = ["verify", "theorem1", "--g2", "4,0", "--g3", "0,0", "--shift-frac", "1/3,0", "--n", "200"]
        assert run(argv) == 0
        assert run(["verify", "derived", "--family", "wp", "--g2", "4,0", "--g3", "0,0", "--n", "100"]) == 0

    def test_zero_discriminant_has_a_lattice_of_lower_rank(self, tmp_path, capsys):
        # sigma draws fractions of the frame (pi/k, i pi/k) of a lattice of rank one
        assert run(["verify", "sigma", "--g2", "3,0", "--g3", "1,0"]) == 0
        # the poles of 1/z^2 are the lattice {0}: a zero shift sum lies on it
        assert run(["verify", "theorem1", "--g2", "0,0", "--g3", "0,0", "--n", "50"]) == 0
        # the middle point 0.5 + 0.5i of an odd grid, shifted by -0.5 - 0.5i, is the pole of 1/z^2
        capsys.readouterr()
        assert run(["scan", "--family", "wp", "--g2", "0,0", "--g3", "0,0", "--shift", "-0.5,-0.5", "--grid", "5",
                    "--out", str(tmp_path / "s.csv")]) == 65
        assert "grid point 12 " in capsys.readouterr().err
        assert run(["verify", "factfun", "--family", "wp", "--g2", "3,0", "--g3", "1,0", "--n", "50"]) == 0

    @pytest.mark.parametrize("invariants", [("12,0", "8,0"), ("3,0", "1,0"), ("0,0", "0,0")],
                             ids=["node", "rank-one", "cusp"])
    def test_sigma_runs_below_rank_two(self, invariants, tmp_path):
        out = tmp_path / "sigma.json"
        argv = ["verify", "sigma", "--g2", invariants[0], "--g3", invariants[1], "--n", "200", "--out", str(out)]
        assert run(argv) == 0
        check = json.loads(out.read_text())["checks"][0]
        assert check["samples"] == 200 and check["max_residual"] <= 1e-13

    @pytest.mark.parametrize("shift", [None, "0.3,0"])
    def test_the_scaled_node_is_sampled_in_its_own_units(self, shift, tmp_path):
        # (12, 8) scaled by 1000 has the period 1000 pi/sqrt(3); the shift 0.3 of it is no solution, and fails
        # by far, not by a hair
        out = tmp_path / "node.json"
        argv = ["verify", "theorem1", "--g2", "1.2e-11,0", "--g3", "8e-18,0", "--n", "200", "--out", str(out)]
        assert run(argv + (["--shift-frac", shift] if shift else [])) == 0
        check = json.loads(out.read_text())["checks"][0]
        if shift:
            assert check["expected"] == "fail" and check["max_residual"] >= 1e-2
        else:
            assert check["expected"] == "pass" and check["max_residual"] <= 1e-13

    def test_margin_changes_a_rank_one_run(self, tmp_path):
        outputs = []
        for margin in ("0.05", "0.3"):
            report, table = tmp_path / f"v{margin}.json", tmp_path / f"s{margin}.csv"
            lattice = ["--g2", "12,0", "--g3", "8,0", "--margin", margin]
            assert run(["verify", "theorem1", *lattice, "--n", "100", "--out", str(report)]) == 0
            assert run(["scan", *lattice, "--grid", "4", "--out", str(table)]) == 0
            outputs.append((json.loads(report.read_text())["checks"][0], table.read_text()))
        (check_a, table_a), (check_b, table_b) = outputs
        for key in ("max_residual", "mean_residual"):
            assert check_a[key] != check_b[key]
        assert table_a != table_b

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem1", "--g2", "12,0", "--g3", "8,0", "--shift-frac", "1/3,1/2"],
        ["verify", "theorem2", "--g2", "0,0", "--g3", "0,0", "--gammas", "0,0,0,0.1,0,0"],
        ["scan", "--g2", "0,0", "--g3", "0,0", "--shift-frac", "0.5,0", "--grid", "4", "--out", "{out}"],
    ], ids=["theorem1-rank-one", "theorem2-rank-zero", "scan-rank-zero"])
    def test_a_fraction_beyond_the_rank_exits_65(self, argv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run([arg.format(out=out) for arg in argv]) == 65
        rank = 1 if "12,0" in argv else 0
        assert f"a nonzero lattice fraction beyond the rank {rank} of the lattice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fracs, code", [("1/3,0", 0), ("1/3,1/2", 65)])
    def test_theorem1_on_the_rank_one_lattice(self, fracs, code):
        # (12, 8) has poles (pi/sqrt 3)Z: fractions are of pi/k, and a second one has no generator
        argv = ["verify", "theorem1", "--g2", "12,0", "--g3", "8,0", "--shift-frac", fracs, "--n", "100"]
        assert run(argv) == code

    @pytest.mark.parametrize("third, expected", [(-0.8, "pass"), (-0.8 + math.pi / math.sqrt(3.0), "pass"),
                                                 (-0.7, "fail")])
    def test_theorem2_on_the_rank_one_lattice(self, tmp_path, third, expected):
        # gammas 0.3, 0.5 and `third` as fractions of the generator pi/sqrt(3) of (12, 8)
        out = tmp_path / "t2.json"
        fracs = [repr(g * math.sqrt(3.0) / math.pi) + ",0" for g in (0.3, 0.5, third)]
        argv = ["verify", "theorem2", "--g2", "12,0", "--g3", "8,0", "--n", "200", "--seed", "2",
                "--gammas", ",".join(fracs), "--out", str(out)]
        assert run(argv) == 0
        check = json.loads(out.read_text())["checks"][0]
        assert check["expected"] == expected and check["observed_pass"] == (expected == "pass")

    def test_seed_above_two_to_the_53_is_exact(self, tmp_path):
        seed = 2**53 + 1  # the nearest double is 2**53
        out = tmp_path / "seed.json"
        argv = ["verify", "constant", "--case", "exp", "--n", "20", "--seed", str(seed), "--out", str(out)]
        assert run(argv) == 0
        assert json.loads(out.read_text())["params"]["seed"] == seed


class TestGenAndFit:
    def test_roundtrip_weierstrass(self, tmp_path, capsys):
        csv_path = tmp_path / "wp.csv"
        fit_path = tmp_path / "fit.json"
        assert run(
            ["gen", "--family", "wp", "--g2", "4,0", "--g3", "0,0",
             "--grid", "0.6:1.6:0.01", "--out", str(csv_path)]
        ) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "x_re,x_im,w_re,w_im"
        assert run(["fit", "--input", str(csv_path), "--out", str(fit_path)]) == 0
        report = json.loads(fit_path.read_text())
        check = report["checks"][0]
        assert check["family"] == "weierstrass"
        assert abs(check["g2"][0] - 4.0) <= 1e-4

    def test_roundtrip_exponential(self, tmp_path):
        csv_path = tmp_path / "exp.csv"
        assert run(["gen", "--family", "exp", "--delta", "1,0", "--grid", "0:2:0.05",
                    "--out", str(csv_path)]) == 0
        fit_path = tmp_path / "exp.json"
        assert run(["fit", "--input", str(csv_path), "--expect", "exponential",
                    "--out", str(fit_path)]) == 0
        report = json.loads(fit_path.read_text())
        assert abs(report["checks"][0]["delta"][0] - 1.0) <= 1e-4

    def test_linear_gen_values(self, tmp_path):
        csv_path = tmp_path / "lin.csv"
        assert run(["gen", "--family", "linear", "--alpha", "2,0", "--beta", "1,0",
                    "--grid", "0:1:0.1", "--out", str(csv_path)]) == 0
        rows = csv_path.read_text().splitlines()[1:]
        first = rows[0].split(",")
        assert float(first[2]) == pytest.approx(1.0)  # w(0) = beta
        last = rows[-1].split(",")
        assert float(last[2]) == pytest.approx(3.0)  # w(1) = 2 + 1

    def test_too_few_rows_exit_66(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("x_re,x_im,w_re,w_im\n0,0,1,0\n1,0,2,0\n2,0,3,0\n")
        assert run(["fit", "--input", str(p)]) == 66

    def test_unreadable_input_exit_66(self, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "missing.csv")]) == 66

    def test_empty_csv_exit_66(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("x_re,x_im,w_re,w_im\n")
        assert run(["fit", "--input", str(p)]) == 66

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,0,1,0", "0.1,0,2,0", "0.1,0,3,0"], "sample points must be distinct"),
            (["0,0,1,0", "0.1,0,nan,0", "0.2,0,3,0"], "non-finite"),
            (["0,0,1,0", "inf,0,2,0", "0.2,0,3,0"], "non-finite"),
            (["0,0,1,0", "0.1,nan,2,0", "0.2,0,3,-inf"], "non-finite"),
        ],
        ids=["repeated-x", "nan-w", "inf-x", "nan-x"],
    )
    def test_bad_samples_exit_66(self, tmp_path, capsys, rows, message):
        # nine rows, so only the bad ones can refuse the file
        p = tmp_path / "bad.csv"
        good = [f"{0.3 + 0.1 * i},0,{i},0" for i in range(6)]
        p.write_text("\n".join(["x_re,x_im,w_re,w_im", *rows, *good]) + "\n")
        assert run(["fit", "--input", str(p)]) == 66
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err

    @pytest.mark.parametrize(
        "grid, stencil, code",
        [("0.5:0.57:0.01", "4", 66), ("0.5:0.58:0.01", "4", 0), ("0.5:0.56:0.01", "2", 0),
         ("0.5:0.55:0.01", "2", 66)],
        ids=["8-at-order-4", "9-at-order-4", "7-at-order-2", "6-at-order-2"],
    )
    def test_sample_count_rule(self, tmp_path, capsys, grid, stencil, code):
        csv_path = tmp_path / "wp.csv"
        assert run(["gen", "--family", "wp", "--periods", "2,0,0,2", "--grid", grid,
                    "--out", str(csv_path)]) == 0
        assert run(["fit", "--input", str(csv_path), "--stencil-order", stencil,
                    "--expect", "weierstrass"]) == code
        if code == 66:
            need = "9" if stencil == "4" else "7"
            assert f"at least {need} samples" in capsys.readouterr().err

    def test_expectation_mismatch_exit_1(self, tmp_path):
        p = tmp_path / "absval.csv"
        rows = ["x_re,x_im,w_re,w_im"]
        for i in range(41):
            x = -1.0 + 0.05 * i
            rows.append(f"{x},0,{abs(x)},0")
        p.write_text("\n".join(rows) + "\n")
        assert run(["fit", "--input", str(p), "--expect", "weierstrass"]) == 1

    def test_bad_grid_spec_exit_65(self, tmp_path):
        assert run(["gen", "--family", "exp", "--grid", "nope", "--out",
                    str(tmp_path / "x.csv")]) == 65

    @pytest.mark.parametrize(
        "grid, count", [("0:1:0.4", 3), ("0.6:1.6:0.01", 101), ("0:2:0.05", 41), ("0:1:0.1", 11)]
    )
    def test_grid_stops_at_stop(self, tmp_path, grid, count):
        out = tmp_path / "g.csv"
        assert run(["gen", "--family", "linear", "--grid", grid, "--out", str(out)]) == 0
        xs = [float(row.split(",")[0]) for row in out.read_text().splitlines()[1:]]
        assert len(xs) == count
        assert xs[-1] <= float(grid.split(":")[1]) * (1.0 + 1e-12)

    def test_wp_grid_point_on_a_pole_exit_65(self, tmp_path):
        assert run(["gen", "--family", "wp", "--periods", "2,0,0,2", "--grid", "0:1:0.5",
                    "--out", str(tmp_path / "x.csv")]) == 65


class TestScan:
    def test_grid_rows_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sum1, sum2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["scan", "--family", "wp", "--periods", "2,0,0,2", "--grid", "8",
                "--seed", "7"]
        assert run(argv + ["--out", str(out1), "--summary", str(sum1)]) == 0
        assert run(argv + ["--out", str(out2), "--summary", str(sum2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(sum1.read_text())["checks"] == json.loads(sum2.read_text())["checks"]
        lines = out1.read_text().splitlines()
        assert lines[0] == "x_re,x_im,y_re,y_im,residual"
        assert len(lines) == 1 + 64
        report = json.loads(sum1.read_text())
        assert "wall_time_s" not in report

    def test_grid_point_on_lattice_exit_65(self, tmp_path):
        # the shifted grid puts a point on the lattice; no partner can rescue it
        assert run(["scan", "--periods", "2,0,0,2", "--shift-frac", "0.95,0.95",
                    "--grid", "16", "--out", str(tmp_path / "s.csv")]) == 65

    def test_grid_point_inside_the_pole_radius_is_named(self, tmp_path, capsys):
        # at margin 0.01 grid point 0 lies 0.028 from the origin, inside the pole radius 0.06: refused before any
        # partner is drawn; at 0.03 it lies 0.085 away and the scan writes every row
        out = tmp_path / "m.csv"
        argv = ["scan", "--periods", "2,0,0,2", "--grid", "8", "--out", str(out), "--margin"]
        assert run(argv + ["0.01"]) == 65
        err = capsys.readouterr().err
        assert "grid point 0 at x = (0.02+0.02j) lies within 0.06 of a pole of the family" in err
        assert "within 200 draws" not in err
        assert run(argv + ["0.03"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 64

    def test_box_grid_without_periods(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["scan", "--family", "exp", "--grid", "5"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 1 + 25

    def test_shifted_scan_has_residual_floor(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["scan", "--family", "wp", "--periods", "2,0,0,2",
                    "--shift-frac", "0.1,0", "--grid", "6", "--out", str(out)])
        assert code == 1
        residuals = [float(r.rsplit(",", 1)[1]) for r in out.read_text().splitlines()[1:]]
        assert min(residuals) > 1e-6


class TestEval:
    def test_wp_value(self, capsys):
        assert run(["eval", "--fn", "wp", "--periods", "2,0,0,2", "--z", "0.31,0.17"]) == 0
        re, im = (float(t) for t in capsys.readouterr().out.split())
        assert re == pytest.approx(4.3402800615, rel=1e-9)
        assert im == pytest.approx(-6.6832945734, rel=1e-9)

    def test_pole_exit_1(self):
        assert run(["eval", "--fn", "wp", "--periods", "2,0,0,2", "--z", "0,0"]) == 1

    def test_small_lattice_evaluates(self, capsys):
        # pe(t z; t Lambda) = pe(z; Lambda) / t^2 with t = 1/20
        small = ["--periods", "0.1,0,0,0.1", "--z", "0.03,0.01"]
        for fn in ("wp-prime", "zeta", "sigma", "wp"):
            assert run(["eval", "--fn", fn, *small]) == 0
        assert run(["eval", "--fn", "wp", "--periods", "2,0,0,2", "--z", "0.6,0.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        got, ref = (complex(*map(float, line.split())) for line in lines[-2:])
        assert abs(got - 400.0 * ref) <= 1e-12 * abs(got)

    def test_needs_context(self):
        assert run(["eval", "--fn", "wp", "--z", "1,0"]) == 65

    @pytest.mark.parametrize(
        "lattice, ctx",
        [
            (["--periods", "1e-27,0,0,1e-27"], lambda: elliptic.from_periods(1e-27, 1e-27j)),
            (["--g2", "1e103,0", "--g3", "0,0"], lambda: elliptic.from_invariants(1e103, 0)),
        ],
    )
    def test_lattice_past_the_discriminants_range_evaluates(self, lattice, ctx, capsys):
        # g2^3 - 27 g3^2 leaves the float range, g2 and g3 do not
        assert run(["eval", "--fn", "wp", *lattice, "--z", "1e-28,0"]) == 0
        got = complex(*map(float, capsys.readouterr().out.split()))
        ref = ThetaOracle(*ctx().reduced).values(1e-28)[0]
        assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_lattice_beyond_the_float_range_exit_65(self, capsys):
        # g3 of a lattice on 1e-60 passes 1e308
        assert run(["eval", "--fn", "wp", "--periods", "1e-60,0,0,1e-60", "--z", "1e-28,0"]) == 65
        assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--fn", "wp", "--periods", "1e400,0,0,1", "--z", "0.3,0.2"],
        ["eval", "--fn", "wp", "--g2", "nan,0", "--g3", "1,0", "--z", "0.3,0.2"],
        ["eval", "--fn", "wp", "--g2", "4,0", "--g3", "1,inf", "--z", "0.3,0.2"],
        ["eval", "--fn", "wp", "--periods", "1,0,0,1", "--z", "nan,0"],
        ["eval", "--fn", "wp", "--periods", "1,0,0,1", "--z", "0.3,1e309"],
        ["verify", "theorem1", "--periods", "2,0,0,2", "--shift-frac", "1e400,0"],
        ["verify", "theorem1", "--periods", "2,0,0,2", "--shift", "nan,0"],
        ["verify", "theorem2", "--periods", "2,0,0,2", "--gammas", "1e999,0,0,0,0,0"],
        ["gen", "--family", "wp", "--periods", "2,0,0,2", "--grid", "nan:1:0.1"],
        ["gen", "--family", "wp", "--periods", "2,0,0,2", "--grid", "0:inf:1"],
        ["gen", "--family", "wp", "--periods", "2,0,0,2", "--grid=-1e308:1e308:1"],
        ["gen", "--family", "exp", "--delta", "nan,0", "--grid", "0:1:0.1"],
        ["gen", "--family", "exp", "--delta", "0,0", "--grid", "0:1:0.1"],
        ["gen", "--family", "linear", "--alpha", "0,0", "--grid", "0:1:0.1"],
        ["verify", "theorem1", "--periods", "1e300,0,0,1e300", "--n", "20"],
        ["eval", "--fn", "wp", "--periods", "2,0,0,2", "--z", "1e308,0"],
    ],
    ids=["periods-overflow", "g2-nan", "g3-inf", "z-nan", "z-overflow", "shift-frac-overflow", "shift-nan",
         "gammas-overflow", "grid-nan", "grid-inf", "grid-count-overflow", "delta-nan", "zero-rate", "zero-slope",
         "periods-squared-overflow", "z-coordinate-overflow"],
)
def test_non_finite_flag_is_a_configuration_error(argv, tmp_path, capsys):
    out = tmp_path / "samples.csv"
    if argv[0] == "gen":
        argv = [*argv, "--out", str(out)]
    assert run(argv) == 65
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["1e300", "1e308"])
def test_a_shift_sum_past_2_52_fixes_no_point_of_the_cell(gamma, capsys):
    # the shift sum's lattice coordinate holds no fraction: neither a lattice point nor a miss
    assert run(["verify", "theorem2", "--periods", "2,0,0,2", "--gammas", f"{gamma},0,0,0,0,0", "--n", "20"]) == 65
    err = capsys.readouterr().err
    assert "fixes no point of the cell" in err and "internal error" not in err


# (the run, the flag, a value with a leading minus sign): every complex and fraction flag
_SIGNED = [
    (["eval", "--fn", "wp", "--periods", "2,0,0,2"], "--z", "-0.3,0.1"),
    (["eval", "--fn", "wp", "--z", "0.3,0.1"], "--periods", "-2,0,0,2"),
    (["eval", "--fn", "wp", "--g3", "1,0", "--z", "0.3,0.2"], "--g2", "-4,0"),
    (["eval", "--fn", "wp", "--g2", "4,0", "--z", "0.3,0.2"], "--g3", "-1,0"),
    (["verify", "theorem1", "--periods", "2,0,0,2", "--n", "20"], "--shift", "-0.5,0.3"),
    (["verify", "theorem1", "--periods", "2,0,0,2", "--n", "20"], "--shift-frac", "-1/3,0"),
    (["verify", "theorem2", "--periods", "2,0,0,2", "--n", "20"], "--gammas", "-1/3,0,1/3,0,0,0"),
    (["gen", "--family", "exp", "--grid", "0:1:0.5"], "--delta", "-0.5,1"),
    (["gen", "--family", "linear", "--grid", "0:1:0.5"], "--alpha", "-2,0"),
    (["gen", "--family", "linear", "--grid", "0:1:0.5"], "--beta", "-.5,0"),
    (["gen", "--family", "constant", "--grid", "0:1:0.5"], "--c", "-1,0.5"),
]


@pytest.mark.parametrize("argv, flag, value", _SIGNED, ids=[flag for _, flag, _ in _SIGNED])
def test_a_value_may_start_with_a_minus_sign(argv, flag, value, tmp_path, capsys):
    # "--z -0.3,0.1" runs as "--z=-0.3,0.1" does
    csv = tmp_path / "samples.csv"
    out = ["--out", str(csv)] if argv[0] == "gen" else []

    def outputs(args):
        code = run([*argv, *args, *out])
        return code, capsys.readouterr().out, csv.read_text() if out else None

    joined = outputs([f"{flag}={value}"])
    assert joined[0] == 0
    assert outputs([flag, value]) == joined


@pytest.mark.parametrize("unknown", ["--bogus", "-5", "-0.3,0.1"])
def test_an_unknown_option_or_stray_value_still_exits_64(unknown, capsys):
    assert run(["eval", "--fn", "wp", "--periods", "2,0,0,2", "--z", "0.3,0.1", unknown]) == 64
    assert "unrecognized arguments" in capsys.readouterr().err


class TestParser:
    # each verb's option strings: a shared flag group must add none to a verb
    OPTIONS = {
        "symbolic": {"--which", "--out"},
        "verify": {"--periods", "--g2", "--g3", "--shift-frac", "--shift", "--gammas", "--family", "--delta",
                   "--case", "--k", "--l", "--s", "--n", "--seed", "--margin", "--tol", "--h-step", "--expect",
                   "--out"},
        "fit": {"--input", "--stencil-order", "--seed", "--expect", "--out"},
        "scan": {"--family", "--periods", "--g2", "--g3", "--shift-frac", "--shift", "--delta", "--grid", "--seed",
                 "--margin", "--tol", "--out", "--summary"},
        "gen": {"--family", "--g2", "--g3", "--periods", "--alpha", "--beta", "--delta", "--c", "--grid", "--out"},
        "eval": {"--fn", "--periods", "--g2", "--g3", "--z"},
    }

    def test_each_verb_keeps_its_flags(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.OPTIONS)
        for verb, parser in sub.choices.items():
            flags = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
            assert flags == self.OPTIONS[verb], verb


class TestReportFormat:
    def test_floats_read_back_bit_identical(self, tmp_path):
        floats = [0.05, 0.1 + 0.2, 1.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3]
        out = tmp_path / "r.json"
        cli._write_report(str(out), {"f": floats, "np": [np.float64(x) for x in floats], "z": complex(1 / 3, -0.0)})
        back = json.loads(out.read_text())
        for read in (back["f"], back["np"], back["z"]):
            assert all(isinstance(x, float) for x in read)
        assert [x.hex() for x in back["f"]] == [x.hex() for x in back["np"]] == [x.hex() for x in floats]
        assert [x.hex() for x in back["z"]] == [(1 / 3).hex(), (-0.0).hex()]
        # and through a command: the margin and tolerance given are the doubles the report holds
        out = tmp_path / "t1.json"
        argv = ["verify", "theorem1", "--periods", "2,0,0,2", "--n", "20", "--margin", "0.05", "--tol", "1e-8",
                "--out", str(out)]
        assert run(argv) == 0
        report = json.loads(out.read_text())
        assert report["params"]["margin"].hex() == (0.05).hex() and report["params"]["tol"].hex() == (1e-8).hex()
        assert isinstance(report["pass"], bool) and isinstance(report["max_residual"], float)

    def test_non_finite_numbers_are_null(self, tmp_path):
        out = tmp_path / "r.json"
        cli._write_report(str(out), {"nan": math.nan, "inf": np.float64(-math.inf), "z": complex(math.inf, 1.0)})
        assert json.loads(out.read_text()) == {"nan": None, "inf": None, "z": [None, 1.0]}

    def test_a_path_with_control_characters_gives_a_report_that_parses(self, tmp_path):
        folder = tmp_path / "tab\there"
        folder.mkdir()
        samples, out = folder / "wp\n.csv", folder / 'fit "report".json'
        assert run(["gen", "--family", "wp", "--periods", "2,0,0,2", "--grid", "0.5:0.6:0.01", "--out", str(samples)]) == 0
        assert run(["fit", "--input", str(samples), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["input"] == str(samples)

    def test_checks_count_skipped_triples(self, tmp_path):
        out = tmp_path / "r.json"
        run(["verify", "factfun", "--periods", "2,0,0,2", "--n", "40", "--out", str(out)])
        check = json.loads(out.read_text())["checks"][0]
        assert isinstance(check["skipped"], int)
        assert check["samples"] + check["skipped"] == 40

    def test_factfun_default_step_scales_with_the_lattice(self, tmp_path):
        # an absolute step of 1e-2 would guard every triple out of this cell
        out = tmp_path / "r.json"
        assert run(["verify", "factfun", "--periods", "0.01,0,0.003,0.011", "--n", "40", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["params"]["h_step"] == pytest.approx(5e-5, rel=1e-12)
        assert report["checks"][0]["samples"] >= 35

    def test_complex_params_serialise_as_pairs(self, tmp_path):
        out = tmp_path / "r.json"
        run(["verify", "theorem1", "--periods", "2,0,0,2", "--shift-frac", "1/3,0",
             "--n", "20", "--out", str(out)])
        report = json.loads(out.read_text())
        shift = report["params"]["shift"]
        assert isinstance(shift, list) and len(shift) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "linear", "--grid", "0:1e12:1"],
        ["verify", "constant", "--n", "1000000000"],
        ["scan", "--family", "linear", "--grid", "1001"],
    ],
    ids=["gen-grid", "verify-n", "scan-grid-squared"],
)
def test_a_count_past_the_point_ceiling_exits_65_before_allocating(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] != "verify":
        argv = [*argv, "--out", str(out)]
    tracemalloc.start()
    try:
        status = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 65
    err = capsys.readouterr().err
    assert f"more than the {cli.MAX_POINTS}" in err and "internal error" not in err
    assert peak < 4 << 20
    assert not out.exists()


def test_the_point_ceiling_itself_is_accepted():
    assert len(cli._parse_grid(f"0:{cli.MAX_POINTS - 1}:1")) == cli.MAX_POINTS
    with pytest.raises(cli.ConfigError):
        cli._parse_grid(f"0:{cli.MAX_POINTS}:1")
    assert run(["verify", "constant", "--n", str(cli.MAX_POINTS + 1)]) == 65


# -- every flag given is read, or refused ----------------------------------------------------------


def _verb_parsers():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _well_formed(action) -> str:
    """A value argparse accepts for the flag, so that only the table can refuse it."""
    if action.choices:
        return str(action.choices[0])
    return {int: "1", float: "0.1"}.get(action.type, "1,0")


# (argv of a run, the flags it reads): each verify kind, and each family of verify, scan and gen
_RUNS = [
    *((["verify", kind], [*cli._VERB_FLAGS["verify"], *cli._KIND_FLAGS[kind]])
      for kind in ("theorem1", "theorem2", "sigma", "constant")),
    *((["verify", kind, "--family", family],
       [*cli._VERB_FLAGS["verify"], *cli._KIND_FLAGS[kind], *cli._FAMILY_FLAGS[family]])
      for kind in ("derived", "factfun") for family in ("wp", "exp", "linear")),
    *((["scan", "--family", family], [*cli._VERB_FLAGS["scan"], *cli._FAMILY_FLAGS[family]])
      for family in ("wp", "exp", "linear")),
    *((["gen", "--family", family], [*cli._VERB_FLAGS["gen"], *cli._FAMILY_FLAGS[family]])
      for family in ("wp", "exp", "linear", "constant")),
]

_UNREAD = [
    (run, action)
    for run, reads in _RUNS
    for action in _verb_parsers()[run[0]]._actions
    if action.option_strings and action.dest not in {"help", *reads}
]


@pytest.mark.parametrize("run_argv, action", _UNREAD, ids=[f"{' '.join(r)} {a.option_strings[0]}" for r, a in _UNREAD])
def test_a_flag_the_run_does_not_read_exits_64(run_argv, action, tmp_path, capsys):
    out = tmp_path / "out.csv"
    required = {"scan": ["--out", str(out)], "gen": ["--grid", "0:1:0.5", "--out", str(out)]}.get(run_argv[0], [])
    assert run([*run_argv, *required, action.option_strings[0], _well_formed(action)]) == 64
    assert f"does not read {action.option_strings[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_the_table_names_flags_and_every_flag_has_a_run_that_reads_it():
    parsers = _verb_parsers()
    dests = {a.dest for parser in parsers.values() for a in parser._actions}
    for table in (cli._VERB_FLAGS, cli._KIND_FLAGS, cli._FAMILY_FLAGS):
        assert {flag for flags in table.values() for flag in flags} <= dests
    for verb, parser in parsers.items():
        reads = set(cli._VERB_FLAGS[verb]).union(*(reads for argv, reads in _RUNS if argv[0] == verb))
        assert {a.dest for a in parser._actions} - {"help"} <= reads, verb


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "wp", "--periods", "2,0,0,2", "--alpha", "2,0", "--beta", "5,0", "--grid", "0.5:0.6:0.01"],
        ["verify", "theorem1", "--periods", "2,0,0,2", "--delta", "3,0"],
        ["verify", "sigma", "--periods", "2,0,0,2", "--margin", "0.4"],
        ["gen", "--family", "exp", "--periods", "2,0,0,2", "--grid", "0:1:0.1"],
        ["verify", "theorem1", "--periods", "2,0,0,2", "--k", "1"],
        ["verify", "theorem2", "--periods", "2,0,0,2", "--gammas", "0,0,0,0,0,0", "--shift", "1,0"],
        ["verify", "constant", "--periods", "2,0,0,2"],
        ["scan", "--family", "exp", "--periods", "2,0,0,2"],
        ["verify", "theorem1", "--periods", "2,0,0,2", "--g2", "4,0"],
        ["eval", "--fn", "wp", "--periods", "2,0,0,2", "--g3", "0,0", "--z", "0.3,0.2"],
        ["verify", "theorem1", "--periods", "2,0,0,2", "--shift-frac", "1/3,0", "--shift", "1,0"],
        ["scan", "--periods", "2,0,0,2", "--shift", "1,0", "--shift-frac", "1/3,0"],
    ],
    ids=["gen-wp-alpha-beta", "theorem1-delta", "sigma-margin", "gen-exp-periods", "theorem1-k", "theorem2-shift",
         "constant-periods", "scan-exp-periods", "periods-and-g2", "periods-and-g3", "shift-frac-and-shift",
         "scan-shift-and-shift-frac"],
)
def test_an_ignored_or_conflicting_flag_exits_64(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] in ("gen", "scan"):
        argv = [*argv, "--out", str(out)]
    assert run(argv) == 64
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, family", [("derived", None), ("factfun", None), ("factfun", "exp")])
def test_the_report_names_the_family_that_ran(kind, family, tmp_path):
    out = tmp_path / "r.json"
    argv = ["verify", kind, *(["--family", family] if family else ["--periods", "2,0,0,2"]), "--n", "20",
            "--out", str(out)]
    assert run(argv) == 0
    params = json.loads(out.read_text())["params"]
    assert params["family"] == (family or "wp")
    # the margin shapes the draws of the lattice fractions alone
    assert ("margin" in params) == (family is None)


@pytest.mark.parametrize("argv", [
    ["verify", "theorem1", "--periods", "2,0,0,2", "--out", "{report}"],
    ["verify", "factfun", "--periods", "2,0,0,2", "--out", "{report}"],
    ["scan", "--periods", "2,0,0,2", "--grid", "8", "--out", "{csv}", "--summary", "{report}"],
], ids=["theorem1", "factfun", "scan"])
def test_the_environment_changes_no_run(argv, tmp_path, monkeypatch):
    # variables named like the flags that a run left at their defaults, with values that would change or break it
    paths = {"report": tmp_path / "report.json", "csv": tmp_path / "scan.csv"}

    def outputs():
        code = run([arg.format(**paths) for arg in argv])
        texts = [path.read_text() if path.exists() else None for path in paths.values()]
        for path in paths.values():
            path.unlink(missing_ok=True)
        report = texts[0] and json.loads(texts[0])
        if report:
            report.pop("wall_time_s", None)
        return code, report, texts[1]

    plain = outputs()
    for name, value in {"WPFEQ_N": "5", "WPFEQ_SEED": "7", "WPFEQ_TOL": "1e-30", "WPFEQ_MARGIN": "0.4",
                        "WPFEQ_H_STEP": "banana"}.items():
        monkeypatch.setenv(name, value)
    assert outputs() == plain

# -- seeds, stdout and a closed stdout --------------------------------------------------------------


@pytest.fixture
def wp_samples(tmp_path, capsys):
    path = tmp_path / "wp.csv"
    assert run(["gen", "--family", "wp", "--periods", "2,0,0,2", "--grid", "0.5:0.6:0.01", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize("verb", ["verify", "scan", "fit"])
def test_a_negative_seed_exits_65(verb, wp_samples, tmp_path, capsys):
    argv = {
        "verify": ["verify", "theorem1", "--periods", "2,0,0,2", "--n", "20"],
        "scan": ["scan", "--periods", "2,0,0,2", "--grid", "4", "--out", str(tmp_path / "s.csv")],
        "fit": ["fit", "--input", str(wp_samples)],
    }[verb]
    assert run([*argv, "--seed", "-1"]) == 65
    assert "seed must be non-negative" in capsys.readouterr().err


def test_no_command_imports_numpy_random(wp_samples, tmp_path):
    # numpy loads numpy.random on first use; the samplers draw from their own stream, so no run needs it
    script = (
        "import sys\n"
        "from wpfeq import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    assert cli.main(argv.split()) == 0, argv\n"
        "print('numpy.random' in sys.modules)\n"
    )
    runs = [
        "verify theorem1 --periods 2,0,0,2 --n 50",
        "verify sigma --periods 2,0,0,2 --n 50",
        f"scan --periods 2,0,0,2 --grid 4 --out {tmp_path / 'scan.csv'}",
        f"fit --input {wp_samples}",
    ]
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *runs], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_fit_without_out_writes_one_json_document_to_stdout(wp_samples, capsys):
    assert run(["fit", "--input", str(wp_samples)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["checks"][0]["family"] == "weierstrass"
    assert captured.err.startswith("family: weierstrass")


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv, code", [
    (["verify", "theorem1", "--periods", "2,0,0,2", "--n", "50", "--out", "{report}"], 0),
    (["verify", "theorem1", "--periods", "2,0,0,2", "--shift-frac", "0.1,0", "--n", "50", "--expect", "pass",
      "--out", "{report}"], 1),
    (["symbolic", "--which", "eta,eqf", "--out", "{report}"], 0),
    (["fit", "--input", "{samples}"], 0),  # the report itself goes to the closed stdout
])
def test_a_closed_stdout_loses_the_text_alone(argv, code, wp_samples, tmp_path, monkeypatch, capsys):
    report = tmp_path / "report.json"
    argv = [arg.format(report=report, samples=wp_samples) for arg in argv]
    with open(tmp_path / "stdout", "w") as stdout:
        monkeypatch.setattr("sys.stdout", _ClosedStdout(stdout.fileno()))
        assert run(argv) == code
        # fd 1's stand-in now discards what the interpreter flushes at exit
        assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
    assert "internal error" not in capsys.readouterr().err
    if "--out" in argv:
        assert json.loads(report.read_text())["command"] == argv[0]


# -- any argument list: a documented exit, and reports that parse -------------------------------------------

_COMPLEX = st.sampled_from(["4,0", "0,0", "0.3,0.2", "1,-2", "1,inf", "nan,0", "1e308,0", "1e-308,0", "a,b", "1", ""])
_REAL = st.sampled_from(["0.05", "0.3", "1e-8", "0", "-1", "nan", "inf", "1e300", "1e-300", "x"])
_VALUES = {
    "periods": st.sampled_from(["2,0,0,2", "1,0,0.3,1.1", "1,0,0,8", "1e-27,0,0,1e-27", "1e300,0,0,1e300",
                                "nan,0,0,1", "2,0,4,0", "1/3,0,0,1", "x"]),
    "shift_frac": st.sampled_from(["1/3,0", "0.49,0", "1/3,2/3", "0,0", "1e400,0", "1/0,0", "x"]),
    "gammas": st.sampled_from(["0.2,0,0,0.3,0.8,0.7", "0,0,0,0,0,0", "1/3,0,1/3,0,1/3,0", "1,2", "nan,0,0,0,0,0"]),
    "n": st.integers(-2, 50).map(str),
    "seed": st.one_of(st.integers(-3, 10), st.just(2**64)).map(str),
    "k": st.integers(-1, 3).map(str),
    "l": st.integers(-1, 3).map(str),
    "s": st.integers(-1, 3).map(str),
    "which": st.sampled_from(["all", "eqf", "eta,rewrites", "bogus", ""]),
    "grid": st.sampled_from(["0.5:0.6:0.02", "0.5:0.58:0.01", "0:1:0.5", "-1:1:0.3", "nan:1:0.1", "0:1:0",
                             "1:0:0.1", "0:1e-300:1e-301", "-1e308:1e308:1", "x"]),
}


def _value(verb, action, folder):
    if action.dest in ("out", "summary"):
        return st.sampled_from(["plain", "tab\tname", "line\nbreak", 'quote"s\\']).map(lambda name: str(folder / name))
    if action.dest == "input":
        return st.sampled_from(["wp\t.csv", "missing.csv", "bad.csv"]).map(lambda name: str(folder / name))
    if action.choices and action.dest != "which":
        return st.sampled_from([str(c) for c in action.choices])
    if verb == "scan" and action.dest == "grid":
        return st.integers(-1, 8).map(str)
    if action.dest in _VALUES:
        return _VALUES[action.dest]
    return _REAL if action.type is float else _COMPLEX


@st.composite
def _argument_lists(draw, verb, folder):
    """An argument list of the verb: mostly flags that the run reads, now and then one that it refuses."""
    actions = {a.dest: a for a in _verb_parsers()[verb]._actions if a.dest != "help"}
    args = argparse.Namespace(command=verb, kind=None, family=None)
    argv = [verb]
    if "kind" in actions:
        args.kind = draw(_value(verb, actions["kind"], folder))
        argv.append(args.kind)

    def given(dest):
        return actions[dest].required or draw(st.integers(0, 2 if dest in cli._reads(args) else 30)) == 0

    if "family" in actions and given("family"):
        args.family = draw(_value(verb, actions["family"], folder))
        argv += ["--family", args.family]
    for dest, action in actions.items():
        if dest not in ("kind", "family") and given(dest):
            argv += [action.option_strings[0], draw(_value(verb, action, folder))]
    return argv


@pytest.mark.parametrize("verb", ["symbolic", "verify", "fit", "scan", "gen", "eval"])
def test_any_argument_list_exits_as_documented(verb):
    """Well-formed, malformed, non-finite, huge and tiny values, and paths with control characters."""
    with tempfile.TemporaryDirectory() as name:
        folder = pathlib.Path(name)
        (folder / "bad.csv").write_text("x_re,x_im,w_re,w_im\n0,0,1,0\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["gen", "--family", "wp", "--periods", "2,0,0,2", "--grid", "0.5:0.6:0.01",
                        "--out", str(folder / "wp\t.csv")]) == 0

        @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(_argument_lists(verb, folder))
        def check(argv):
            reports = [folder / name for name in ("plain", "tab\tname", "line\nbreak", 'quote"s\\')]
            for path in reports:
                path.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(argv)
            assert code in (0, 1, 64, 65, 66), (argv, stderr.getvalue())
            for path in reports:
                # scan's --out may share the name: its CSV is no report
                if path.exists() and path.read_text().startswith("{"):
                    json.loads(path.read_text())
            if verb == "fit" and "--out" not in argv and code in (0, 1):
                json.loads(stdout.getvalue())

        check()
