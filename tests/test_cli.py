"""Exit codes, report schemas, file formats, and determinism of the CLI."""

import argparse
import json
import math
import os
import tracemalloc

import pytest

from wpfeq import cli


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
        argv = ["verify", "derived", "--family", family, "--periods", "2,0,0,2", *indices.split(), "--n", "50"]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert ("configuration error" in err) == (code == 65) and "internal error" not in err

    def test_invariants_give_their_agm_lattice(self):
        # the shift fraction is of the AGM basis: 3 * omega1/3 is a lattice point
        argv = ["verify", "theorem1", "--g2", "4,0", "--g3", "0,0", "--shift-frac", "1/3,0", "--n", "200"]
        assert run(argv) == 0
        assert run(["verify", "derived", "--family", "wp", "--g2", "4,0", "--g3", "0,0", "--n", "100"]) == 0

    def test_zero_discriminant_has_a_lattice_of_lower_rank(self, tmp_path):
        # sigma draws two lattice fractions, which a lattice of rank one lacks
        assert run(["verify", "sigma", "--g2", "3,0", "--g3", "1,0"]) == 65
        # the poles of 1/z^2 are the lattice {0}: a zero shift sum lies on it
        assert run(["verify", "theorem1", "--g2", "0,0", "--g3", "0,0", "--n", "50"]) == 0
        # an odd box grid holds the pole x = 0 of 1/z^2
        assert run(["scan", "--family", "wp", "--g2", "0,0", "--g3", "0,0", "--grid", "5",
                    "--out", str(tmp_path / "s.csv")]) == 65
        assert run(["verify", "factfun", "--family", "wp", "--g2", "3,0", "--g3", "1,0", "--n", "50"]) == 0

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

    def test_env_override_cycles(self, monkeypatch):
        monkeypatch.setenv("WPFEQ_N", "50")
        assert run(["verify", "constant", "--case", "exp"]) == 0
        monkeypatch.setenv("WPFEQ_N", "banana")
        assert run(["verify", "constant", "--case", "exp"]) == 65

    @pytest.mark.parametrize("name", ["WPFEQ_N", "WPFEQ_SEED"])
    @pytest.mark.parametrize("value", ["nan", "inf", "2.5"])
    def test_env_integer_must_be_a_finite_integer(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        assert run(["verify", "constant", "--case", "exp"]) == 65

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_seed_above_two_to_the_53_is_exact(self, monkeypatch, tmp_path, source):
        seed = 2**53 + 1  # the nearest double is 2**53
        out = tmp_path / "seed.json"
        argv = ["verify", "constant", "--case", "exp", "--n", "20", "--out", str(out)]
        if source == "flag":
            argv += ["--seed", str(seed)]
        else:
            monkeypatch.setenv("WPFEQ_SEED", str(seed))
        assert run(argv) == 0
        assert json.loads(out.read_text())["params"]["seed"] == seed

    def test_resolve_int_keeps_every_digit(self, monkeypatch):
        assert cli._resolve_int(2**53 + 1, "seed", 0) == 2**53 + 1
        monkeypatch.setenv("WPFEQ_SEED", "1e3")
        assert cli._resolve_int(None, "seed", 0) == 1000


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

    @pytest.mark.parametrize("lattice", [["--periods", "1e-27,0,0,1e-27"], ["--g2", "1e103,0", "--g3", "0,0"]])
    def test_lattice_beyond_the_float_range_exit_65(self, lattice, capsys):
        assert run(["eval", "--fn", "wp", *lattice, "--z", "1e-28,0"]) == 65
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
    ],
    ids=["periods-overflow", "g2-nan", "g3-inf", "z-nan", "z-overflow", "shift-frac-overflow", "shift-nan",
         "gammas-overflow", "grid-nan", "grid-inf", "grid-count-overflow", "delta-nan"],
)
def test_non_finite_flag_is_a_configuration_error(argv, tmp_path, capsys):
    out = tmp_path / "samples.csv"
    if argv[0] == "gen":
        argv = [*argv, "--out", str(out)]
    assert run(argv) == 65
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists()


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
    def test_floats_have_17_significant_digits(self, tmp_path):
        out = tmp_path / "r.json"
        run(["verify", "sigma", "--periods", "2,0,0,2", "--n", "20", "--out", str(out)])
        text = out.read_text()
        # 0.05 is re-emitted with the full 17 digits
        assert "0.050000000000000003" in text
        report = json.loads(text)
        assert isinstance(report["pass"], bool)
        assert isinstance(report["max_residual"], float)

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


def test_the_point_ceiling_itself_is_accepted(monkeypatch):
    assert len(cli._parse_grid(f"0:{cli.MAX_POINTS - 1}:1")) == cli.MAX_POINTS
    with pytest.raises(cli.ConfigError):
        cli._parse_grid(f"0:{cli.MAX_POINTS}:1")
    monkeypatch.setenv("WPFEQ_N", str(cli.MAX_POINTS + 1))
    assert run(["verify", "constant"]) == 65
