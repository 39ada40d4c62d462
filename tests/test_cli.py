import json
import subprocess
import sys

import pytest

from avesolve import gen_lattice, save_matrix_market


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "avesolve", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestSolve:
    def test_lattice_sor_optimal(self):
        r = run_cli("solve", "--lattice", "8", "--method", "sor", "--param", "optimal")
        assert r.returncode == 0
        assert "IT 11" in r.stdout
        assert "2.6003e-09" in r.stdout

    def test_fpi_param_one_matches_sor(self):
        sor = run_cli("solve", "--lattice", "8", "--method", "sor", "--param", "optimal")
        fpi = run_cli("solve", "--lattice", "8", "--method", "fpi", "--param", "1.0")
        assert "IT 11" in fpi.stdout
        assert sor.stdout.split("RES")[1] == fpi.stdout.split("RES")[1]

    def test_nonconvergent_renders_dash_exit_2(self):
        r = run_cli("solve", "--lattice", "8", "--method", "sor", "--param", "1.9")
        assert r.returncode == 2
        assert "IT -" in r.stdout

    def test_json_format(self):
        r = run_cli("solve", "--lattice", "4", "--method", "fpi", "--param", "optimal",
                    "--format", "json")
        rec = json.loads(r.stdout)
        assert rec["converged"] is True

    @pytest.mark.parametrize("flag", ["--param", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exit_1(self, flag, value):
        r = run_cli("solve", "--lattice", "4", "--method", "fpi", flag, value)
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_bad_matrix_path_exit_1(self):
        r = run_cli("solve", "--matrix", "/nonexistent.mtx", "--method", "sor",
                    "--param", "1.0")
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_matrix_problem(self, tmp_path, tref20b):
        f = tmp_path / "Trefethen_20b.mtx"
        save_matrix_market(tref20b, f)
        r = run_cli("solve", "--matrix", str(f), "--method", "sor", "--param", "optimal")
        assert r.returncode == 0
        assert "IT 15" in r.stdout


class TestRanges:
    def test_lattice8_table1(self, tmp_path):
        out = tmp_path / "r.csv"
        r = run_cli("ranges", "--lattice", "8", "--format", "csv", "--out", str(out))
        assert r.returncode == 0
        header, row = out.read_text().strip().splitlines()
        assert header == ("nu,range2_lo,range2_hi,range3_lo,range3_hi,range3_empty,"
                          "range4_lo,range4_hi,omega_chen_opt,omega_nopt,tau_opt")
        fields = dict(zip(header.split(","), row.split(",")))
        assert abs(float(fields["nu"]) - 0.2358) < 5e-4
        assert abs(float(fields["range2_hi"]) - 1.3463) < 1e-3
        assert fields["range3_empty"] == "false"
        assert fields["omega_nopt"] == "1.0000"

    def test_lattice1_closed_form(self):
        r = run_cli("ranges", "--lattice", "1", "--format", "json")
        rec = json.loads(r.stdout)
        assert rec["nu"] == pytest.approx(0.125, abs=1e-9)
        expected_hi = (2 - 2 * 0.125**0.5) / (1 - 0.125)
        assert rec["range2_hi"] == pytest.approx(expected_hi, abs=1e-9)

    def test_csv_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("ranges", "--lattice", "4", "--format", "csv", "--out", str(a))
        run_cli("ranges", "--lattice", "4", "--format", "csv", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_empty_problem_list(self):
        r = run_cli("bench", "--format", "csv")
        assert r.returncode == 0
        assert r.stdout.strip() == "problem,method,param,it,cpu,res"

    def test_lattice_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        r = run_cli("bench", "--lattice", "8", "--format", "csv", "--out", str(out))
        assert r.returncode == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        by_method = {row[1]: row for row in rows}
        assert set(by_method) == {"SORLopt", "SORLnopt", "SORLno", "FPIopt", "FPIno"}
        assert by_method["SORLnopt"][3] == "11"
        assert by_method["FPIopt"][3] == "11"
        assert by_method["SORLno"][3] == "11"
        assert by_method["FPIno"][3] == "11"

    def test_missing_matrix_skipped_with_notice(self):
        r = run_cli("bench", "--matrix", "no_such_matrix", "--format", "csv")
        assert r.returncode == 0
        assert "skipped" in r.stderr

    def test_matrix_dir_env(self, tmp_path, tref20b):
        save_matrix_market(tref20b, tmp_path / "Trefethen_20b.mtx")
        r = run_cli("bench", "--matrix", "Trefethen_20b",
                    "--matrix-dir", str(tmp_path), "--format", "csv")
        assert r.returncode == 0
        rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
        by_method = {row[1]: row for row in rows}
        assert by_method["SORLnopt"][3] == "15"
        assert by_method["FPIopt"][3] == "15"


class TestCurves:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "curves.csv"
        r = run_cli("curves", "--format", "csv", "--out", str(out))
        assert r.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "nu,sor_new_hi,fpi_new_hi,fpi_old_lo,fpi_old_hi,fpi_old_empty"
        assert len(lines) == 100  # header + nu in {0.01, ..., 0.99}
        row_76 = lines[76].split(",")  # nu = 0.76 > sqrt(2)/2
        assert row_76[5] == "true"
