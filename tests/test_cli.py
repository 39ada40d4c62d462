import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avesolve
from avesolve import SparseSpdMatrix, cli, gen_lattice, save_matrix_market
from conftest import rotated_spd

# The child process imports the same avesolve as this one, installed or not.
_SRC = str(Path(avesolve.__file__).parents[1])
DATA = Path(__file__).parent / "data"
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "avesolve", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=CHILD_ENV,
    )


def run_main(capsys, *args):
    """Run the CLI in this process: (exit code, stdout)."""
    rc = cli.main(list(args))
    return rc, capsys.readouterr().out


def _reject_constant(name):
    raise ValueError(f"not RFC 8259 JSON: {name}")


def strict_json(text):
    """Parse text as strict JSON: NaN, Infinity and -Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def write_matrix(path, dense):
    save_matrix_market(SparseSpdMatrix.from_dense(dense), path)
    return str(path)


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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_grid_without_converged_point_exit_2(self, capsys, fmt):
        rc, out = run_main(capsys, "solve", "--lattice", "8", "--method", "sor", "--param", "grid",
                           "--kmax", "1", "--format", fmt)
        assert rc == 2
        if fmt == "text":
            assert out.startswith("param -  IT -  ")
        else:
            rec = strict_json(out)
            assert (rec["param"], rec["it"], rec["converged"], rec["res_history"]) == ("-", "-", False, [])

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_sweep_without_converged_point_exit_2(self, capsys, fmt):
        rc, out = run_main(capsys, "sweep", "--lattice", "8", "--method", "sor", "--kmax", "1", "--format", fmt)
        assert rc == 2
        if fmt == "text":
            assert out == "best_param -  min_it -\n"
        elif fmt == "json":
            assert strict_json(out) == {"best_param": "-", "min_it": "-"}
        else:
            lines = out.splitlines()
            assert lines[0] == "param,it" and len(lines) == 1 + 1999
            assert all(line.endswith(",-") for line in lines[1:])

    def test_json_format(self):
        r = run_cli("solve", "--lattice", "4", "--method", "fpi", "--param", "optimal",
                    "--format", "json")
        rec = json.loads(r.stdout)
        assert rec["converged"] is True

    def test_json_res_history(self, capsys):
        # The RES after each update; csv keeps the four solve columns.
        rc, out = run_main(capsys, "solve", "--lattice", "8", "--method", "sor", "--format", "json")
        rec = strict_json(out)
        assert rc == 0 and len(rec["res_history"]) == 11 and rec["res_history"][-1] == rec["res"]
        rc, out = run_main(capsys, "solve", "--lattice", "8", "--method", "sor", "--format", "csv")
        assert out.splitlines()[0] == "param,it,cpu,res"

    @pytest.mark.parametrize("flag", ["--param", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exit_1(self, flag, value, capsys):
        r = run_cli("solve", "--lattice", "4", "--method", "fpi", flag, value)
        assert r.returncode == 1
        assert "error" in r.stderr
        if flag == "--tol":  # bench rejects it before its problem loop, not as rows of "-"
            assert cli.main(["bench", "--lattice", "4", flag, value]) == 1
            assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep", "bench"])
    @pytest.mark.parametrize("tol", ["2", "1", "0", "-1e-8"])
    def test_tol_outside_unit_interval_exit_1(self, capsys, command, tol):
        # tol = 2 used to "converge" at IT 1 with RES 0.127; the nu estimate already demanded (0, 1).
        method = [] if command == "bench" else ["--method", "fpi"]
        assert cli.main([command, "--lattice", "8", *method, f"--tol={tol}"]) == 1
        assert capsys.readouterr() == ("", "error: tol must lie in (0, 1)\n")

    @pytest.mark.parametrize("args, message", [
        (("solve", "--method", "fpi", "--tol", "2"), "tol must lie in (0, 1)"),
        (("solve", "--method", "fpi", "--kmax", "0"), "k_max must be at least 1"),
        (("solve", "--method", "sor", "--param", "-1"), "iteration parameter must be positive and finite"),
        (("solve", "--method", "sor", "--param", "abc"), "could not convert string to float: 'abc'"),
        (("sweep", "--method", "fpi", "--tol", "2"), "tol must lie in (0, 1)"),
        (("sweep", "--method", "sor", "--kmax", "0"), "k_max must be at least 1"),
    ])
    def test_bad_input_fails_before_the_problem_is_built(self, monkeypatch, capsys, args, message):
        # Lattice 256 took 0.3 s and 154 MB to build and factorize before a bad --tol was rejected.
        calls = []
        for name in ("gen_lattice", "factorize"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
        assert cli.main([args[0], "--lattice", "256", *args[1:]]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert calls == []

    @pytest.mark.parametrize("args", [("solve", "--lattice", "8"), ("bogus",),
                                      ("sweep", "--lattice", "8", "--method", "fpi", "--kmax", "2.5")],
                             ids=["no-method", "unknown-command", "float-kmax"])
    def test_usage_error_exit_1(self, capsys, args):
        # argparse's own code, 2, is this CLI's code for a grid with no converged point.
        with pytest.raises(SystemExit) as exc:
            cli.main(list(args))
        assert exc.value.code == 1
        assert re.search(r"^ave.*: error: ", capsys.readouterr().err, re.M)

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ave")

    @pytest.mark.parametrize("param, shown", [("1e308", "1.0000e+308"), ("1e-320", "9.9999e-321"),
                                              ("1e6", "1.0000e+06"), ("0.00009", "9.0000e-05"),
                                              ("0.0001", "0.0001"), ("999999", "999999.0000"), ("0.5", "0.5000")])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_extreme_param_shown_in_exponent_form(self, capsys, param, shown, fmt):
        rc, out = run_main(capsys, "solve", "--lattice", "2", "--method", "fpi", "--param", param, "--kmax", "1",
                           "--format", fmt)
        assert rc in (0, 2)
        cell = out.split()[1] if fmt == "text" else out.splitlines()[1].split(",")[0]
        assert cell == shown

    def test_bad_matrix_path_exit_1(self):
        r = run_cli("solve", "--matrix", "/nonexistent.mtx", "--method", "sor",
                    "--param", "1.0")
        assert r.returncode == 1
        assert "error" in r.stderr

    @pytest.mark.parametrize("args", [("solve", "--method", "sor", "--matrix"), ("ranges", "--lattice", "2", "--out")])
    def test_directory_path_exit_1(self, tmp_path, args):
        r = run_cli(*args, str(tmp_path))
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    def test_non_finite_matrix_entry_exit_1(self, tmp_path):
        f = tmp_path / "inf.mtx"
        f.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 inf\n2 2 1\n")
        r = run_cli("solve", "--matrix", str(f), "--method", "sor", "--param", "optimal")
        assert r.returncode == 1
        assert "matrix values must be finite" in r.stderr

    def test_overflowing_duplicates_exit_1(self, tmp_path):
        # The two entries sum to inf; the finite check reports it, with no numpy warning.
        f = tmp_path / "over.mtx"
        f.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1e308\n1 1 1e308\n2 2 1\n")
        r = run_cli("solve", "--matrix", str(f), "--method", "fpi")
        assert r.returncode == 1
        assert r.stderr == "error: matrix values must be finite\n"

    def test_matrix_problem(self, tmp_path, tref20b):
        f = tmp_path / "Trefethen_20b.mtx"
        save_matrix_market(tref20b, f)
        r = run_cli("solve", "--matrix", str(f), "--method", "sor", "--param", "optimal")
        assert r.returncode == 0
        assert "IT 15" in r.stdout


class TestSweep:
    def test_csv_lists_every_grid_point(self, capsys):
        rc, out = run_main(capsys, "sweep", "--lattice", "4", "--method", "fpi", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[:2] == ["param,it", "0.001,-"]
        assert len(lines) == 1 + 1999
        assert "0.951,11" in lines

    def test_text(self, capsys):
        rc, out = run_main(capsys, "sweep", "--lattice", "4", "--method", "fpi", "--format", "text")
        assert rc == 0
        assert out == "best_param 0.9510  min_it 11\n"


    @pytest.mark.parametrize("method", ["fpi", "sor"])
    def test_lattice8_csv_matches_golden_file(self, tmp_path, method):
        # tests/data holds this table as printed by the direct block iteration alone, before the Krylov path.
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--lattice", "8", "--method", method, "--format", "csv", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"sweep_lattice8_{method}.csv").read_bytes()


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

    def test_text_is_one_line(self, capsys):
        rc, out = run_main(capsys, "ranges", "--lattice", "8", "--format", "text")
        assert rc == 0
        assert out.count("\n") == 1
        assert out.startswith("nu 0.2358  range2_lo 0.0000")

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
        r = run_cli("bench", "--format", "text")
        assert r.returncode == 0
        assert r.stdout == "problem  method  param  it  cpu  res\n"

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

    def test_bad_kmax_exit_1(self, capsys):
        assert cli.main(["bench", "--lattice", "4", "--kmax", "0"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            # symmetric, not positive definite
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1\n2 1 2\n2 2 1\n",
            # malformed entry
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1\n2 1 x\n",
        ],
        ids=["not_spd", "malformed"],
    )
    def test_bad_matrix_costs_only_its_rows(self, tmp_path, capsys, content):
        path = tmp_path / "bad.mtx"
        path.write_text(content)
        rc = cli.main(["bench", "--lattice", "2", "--matrix", str(path), "--format", "csv"])
        out, err = capsys.readouterr()
        assert rc == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["lattice2", label] for label, _, _ in cli.BENCH_ROWS]
        assert err.startswith(f"notice: {path}: ") and err.endswith(", row skipped\n")

    def test_matrix_dir(self, tmp_path, tref20b):
        save_matrix_market(tref20b, tmp_path / "Trefethen_20b.mtx")
        r = run_cli("bench", "--matrix", "Trefethen_20b",
                    "--matrix-dir", str(tmp_path), "--format", "csv")
        assert r.returncode == 0
        rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
        by_method = {row[1]: row for row in rows}
        assert by_method["SORLnopt"][3] == "15"
        assert by_method["FPIopt"][3] == "15"

    def test_nu_at_least_one_costs_only_the_theory_row(self, tmp_path, capsys):
        # nu(M) = 2: the theory gives no SORLopt parameter, but the solvers still run.
        path = write_matrix(tmp_path / "M.mtx", [[1.0, 0.5], [0.5, 1.0]])
        rc, out = run_main(capsys, "bench", "--lattice", "4", "--matrix", path, "--format", "csv")
        assert rc == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        lattice = {row[1]: row for row in rows if row[0] == "lattice4"}
        matrix = {row[1]: row for row in rows if row[0] == path}
        assert len(rows) == 10
        assert set(lattice) == set(matrix) == {"SORLopt", "SORLnopt", "SORLno", "FPIopt", "FPIno"}
        assert all(row[3] == "11" for row in lattice.values())
        assert matrix["SORLopt"][2:] == ["-", "-", "-", "-"]
        for label in ("SORLnopt", "FPIopt"):
            assert matrix[label][2] == "1.0000"
            float(matrix[label][4])  # it ran and was timed
        assert matrix["SORLno"][3] == "15"
        assert matrix["FPIno"][3] == "12"

    def test_nu_just_above_quarter_keeps_every_row(self, tmp_path, monkeypatch, capsys):
        # nu = 0.25000001: the prior-work optimum lies within 1e-7 of 1.
        path = tmp_path / "M.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 3.99999984\n")
        rc, out = run_main(capsys, "ranges", "--matrix", str(path), "--format", "json")
        assert rc == 0
        assert 1 - 1e-7 < json.loads(out)["omega_chen_opt"] <= 1
        # Lattice 4's A.inv_norm_bound = 1/4 settles omega_Chen = 1; this file's 1/3.99999984 does not.
        estimate, estimated = cli.estimate_inv_norm, []

        def spy(A, f=None):
            estimated.append(A.n)
            return estimate(A, f=f)

        monkeypatch.setattr(cli, "estimate_inv_norm", spy)
        rc, out = run_main(capsys, "bench", "--lattice", "4", "--matrix", str(path), "--format", "csv")
        assert rc == 0
        assert estimated == [1]
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 10
        assert {row[1]: row[2] for row in rows if row[0] == str(path)}["SORLopt"] == "1.0000"

    def test_lattice8_json_matches_golden_file(self, monkeypatch, capsys):
        # tests/data holds `ave bench --lattice 8 --format json` with its timings (cpu) removed. Lattice 8's
        # A.inv_norm_bound = 1/lo = 1/4 (Gershgorin lo = 4), so omega_Chen = 1 is taken without estimating nu.
        def no_estimate(*args, **kwargs):
            raise AssertionError("nu estimated")

        monkeypatch.setattr(cli, "estimate_inv_norm", no_estimate)
        rc, out = run_main(capsys, "bench", "--lattice", "8", "--format", "json")
        assert rc == 0
        rows = [{k: v for k, v in row.items() if k != "cpu"} for row in json.loads(out)]
        assert rows == json.loads((DATA / "bench_lattice8.json").read_text())

    def test_nu_stall_costs_only_its_rows(self, tmp_path, capsys):
        # lambda_max/lambda_min = 1e9 puts the nu certificate below its rounding floor.
        path = str(tmp_path / "edge.mtx")
        save_matrix_market(rotated_spd(np.logspace(0, 9, 30)), path)
        assert cli.main(["ranges", "--matrix", path]) == 1
        assert capsys.readouterr().err.startswith("error: nu estimate stalled")
        rc = cli.main(["bench", "--lattice", "4", "--matrix", path, "--format", "csv"])
        out, err = capsys.readouterr()
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rc == 0
        assert [row[:2] for row in rows] == [["lattice4", label] for label, _, _ in cli.BENCH_ROWS]
        assert err.startswith(f"notice: {path}: nu estimate stalled") and err.count("\n") == 1


class TestStrictJson:
    def test_diverged_solve_has_null_timing(self, capsys):
        rc, out = run_main(capsys, "solve", "--lattice", "8", "--method", "sor", "--param", "10000",
                           "--format", "json")
        assert rc == 2
        rec = strict_json(out)
        assert rec["cpu"] is None and rec["res"] is None and rec["converged"] is False
        assert len(rec["res_history"]) == 42 and rec["res_history"][-1] is None

    def test_curves_empty_legacy_range_is_null(self, capsys):
        rc, out = run_main(capsys, "curves", "--format", "json")
        assert rc == 0
        rows = strict_json(out)
        empty = [row for row in rows if row["fpi_old_empty"]]
        assert empty and all(row["fpi_old_lo"] is None and row["fpi_old_hi"] is None for row in empty)

    def test_ranges_empty_legacy_range_is_null(self, tmp_path, capsys):
        # nu = 1/1.25 = 0.8 > sqrt(2)/2: the legacy FPI range is empty.
        path = write_matrix(tmp_path / "d.mtx", [[1.25, 0.0], [0.0, 2.0]])
        rc, out = run_main(capsys, "ranges", "--matrix", path, "--format", "json")
        assert rc == 0
        rec = strict_json(out)
        assert rec["range3_empty"] is True
        assert rec["range3_lo"] is None and rec["range3_hi"] is None
        assert rec["nu"] == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "args",
        [
            ("sweep", "--lattice", "4", "--method", "fpi"),
            ("bench", "--lattice", "4"),
            ("solve", "--lattice", "4", "--method", "sor", "--param", "grid"),
        ],
    )
    def test_other_commands_parse(self, args, capsys):
        rc, out = run_main(capsys, *args, "--format", "json")
        assert rc == 0
        assert strict_json(out)


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

    def test_text_columns_aligned(self, capsys):
        rc, out = run_main(capsys, "curves", "--format", "text")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 100
        starts = {tuple(m.start() for m in re.finditer(r"(?<!\S)\S", line)) for line in lines}
        assert len(starts) == 1 and len(next(iter(starts))) == 6
        assert not any(line.endswith(" ") for line in lines)
