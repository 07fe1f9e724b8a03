"""Exit codes, report schemas, file formats, and determinism of the CLI."""

import json
import os

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

    def test_env_override_cycles(self, monkeypatch):
        monkeypatch.setenv("WPFEQ_N", "50")
        assert run(["verify", "constant", "--case", "exp"]) == 0
        monkeypatch.setenv("WPFEQ_N", "banana")
        assert run(["verify", "constant", "--case", "exp"]) == 65


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

    def test_small_lattice_overflow_exit_65(self, capsys):
        assert run(["eval", "--fn", "wp", "--periods", "0.1,0,0,0.1", "--z", "0.03,0.01"]) == 65
        assert "configuration error" in capsys.readouterr().err

    def test_needs_context(self):
        assert run(["eval", "--fn", "wp", "--z", "1,0"]) == 65


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

    def test_complex_params_serialise_as_pairs(self, tmp_path):
        out = tmp_path / "r.json"
        run(["verify", "theorem1", "--periods", "2,0,0,2", "--shift-frac", "1/3,0",
             "--n", "20", "--out", str(out)])
        report = json.loads(out.read_text())
        shift = report["params"]["shift"]
        assert isinstance(shift, list) and len(shift) == 2
