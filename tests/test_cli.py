import csv
import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magwell import montgomery
from magwell._workers import sweep_workers
from magwell.cli import main
from magwell.sl_engine import ConvergenceError

from conftest import BLAS_THREAD_VARS, set_blas_threads

# The JSON schemas of the outputs. Most objects are written from a dataclass
# with its field names as keys, so renaming a field would change the file
# format; these sets pin it.
TABLE1_ROW_KEYS = [
    "alpha_min", "condik_holds", "condik_margin", "condik_odd_holds",
    "condik_odd_margin", "d2", "d2_lower_bound", "hf_residual", "k",
    "lambda1", "lambda2", "local_minima_scan", "norm_identity_residual",
    "nu_hat"]
FORECAST_KEYS = [
    "K_levels", "error_constant", "gap_windows", "h_values", "k",
    "lower_bounds", "nu_hat", "omega_min", "residual_constant",
    "upper_bounds", "z"]
SWEEP2D_KEYS = [
    "K_level_gaps", "K_levels", "d2", "eigenvalues", "h_values", "k",
    "leading_fit_coefficient", "leading_fit_exponent",
    "leading_ratio_smallest_h", "nu_hat", "omega_min", "skipped_h",
    "splitting_coefficients", "splitting_fit_exponent", "warnings",
    "z_predicted"]
MINIWELL_KEYS = [
    "A_imag", "A_real", "Omega", "alpha_min", "c_omega", "e_omega", "k",
    "spectrum"]
MINIWELL_SPECTRUM_KEYS = ["bottom", "branch", "imag_A_warning", "levels"]


def run_cli(args):
    return main(args)


@pytest.fixture()
def geometry_file(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({
        "n": 2,
        "omega01": [1.0],
        "domega01": [[0.0]],
        "hess_abs2": [[0.4]],
    }))
    return str(path)


@pytest.fixture()
def sweep_config_file(tmp_path):
    path = tmp_path / "cfg2d.json"
    path.write_text(json.dumps({
        "k": 1, "omega_min": 1.0, "a": 1.0, "S": 8.0, "s1": 2.4, "T": 0.8,
        "h_list": list(np.geomspace(0.2, 0.02, 5)),
    }))
    return str(path)


class TestExitCodes:
    def test_k_zero_is_usage_error(self, tmp_path):
        assert run_cli(["table1", "--k", "0", "--out", str(tmp_path)]) == 2

    def test_bad_range_is_usage_error(self, tmp_path):
        assert run_cli(["profile", "--k", "1", "--range", "nope",
                        "--out", str(tmp_path)]) == 2

    def test_missing_geometry_is_usage_error(self, tmp_path):
        assert run_cli(["miniwell", "--geometry", str(tmp_path / "absent.json"),
                        "--out", str(tmp_path)]) == 2

    def test_geometry_directory_is_usage_error(self, tmp_path):
        assert run_cli(["miniwell", "--geometry", str(tmp_path),
                        "--out", str(tmp_path / "out")]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_geometry_missing_fields_is_usage_error(self, tmp_path):
        path = tmp_path / "geom.json"
        path.write_text(json.dumps({"n": 2}))
        assert run_cli(["miniwell", "--geometry", str(path),
                        "--out", str(tmp_path)]) == 2

    def test_sweep_config_not_object_is_usage_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([1, 2]))
        assert run_cli(["validate2d", "--config", str(path),
                        "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_nonfinite_tol_is_usage_error(self, tmp_path, tol):
        assert run_cli(["table1", "--k", "1", "--tol", tol,
                        "--out", str(tmp_path)]) == 2

    def test_tol_past_the_square_range_runs(self, tmp_path):
        # 1e200 squared overflows; the band scan takes it as it takes 1e100
        for tol in ("1e200", "1e100"):
            assert run_cli(["table1", "--k", "1", "--tol", tol,
                            "--out", str(tmp_path / tol)]) == 0
        for name in ("table1.csv", "table1.json"):
            assert ((tmp_path / "1e200" / name).read_bytes()
                    == (tmp_path / "1e100" / name).read_bytes())

    def test_tight_tol_at_k5_runs(self, tmp_path):
        # every column converges in the sine basis; no resolvent solve is
        # left to stall at a grid's rounding floor
        assert run_cli(["table1", "--k", "5", "--tol", "1e-8",
                        "--out", str(tmp_path)]) == 0

    def test_negative_tol_is_usage_error_before_any_solve(self, tmp_path, capsys,
                                                          monkeypatch):
        def no_solve(k):
            raise AssertionError("the band scan ran")

        monkeypatch.setattr(montgomery, "_scan_values", no_solve)
        assert run_cli(["table1", "--k", "1..7", "--tol", "-1",
                        "--out", str(tmp_path)]) == 2
        assert "got -1.0" in capsys.readouterr().err
        assert not (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("argv,message", [
        (["predict", "--geometry", "{geometry}", "--h", "nan"], "non-finite"),
        (["predict", "--geometry", "{geometry}", "--h", "inf"], "non-finite"),
        # powers of h up to h^2 are taken
        (["predict", "--geometry", "{geometry}", "--h", "1e300"],
         "h must be positive and at most 1.34078e+154, as powers of it up to "
         "h^2 are taken, got 1e+300"),
        (["predict", "--geometry", "{geometry}", "--h", "0.01",
          "--residual-constant", "-1"], "c_res=-1.0"),
        (["predict", "--geometry", "{geometry}", "--h", "0.01",
          "--error-constant", "nan"], "C=nan"),
        (["miniwell", "--geometry", "{nan_geometry}"],
         "hess_abs2 must be a rectangular array of finite numbers, got [[nan]]"),
        (["validate2d", "--config", "{nan_sweep}"],
         "h_list must be a list of finite numbers, got [0.02, nan, 0.005, 0.002]"),
        (["profile", "--k", "1", "--range", "nan:1"], "non-finite"),
        (["profile", "--k", "1", "--range=1:-1"], "range '1:-1' has LO > HI"),
        (["table1", "--k", "3..1"], "k range '3..1' has LO > HI"),
        (["verify", "--k", "3..1"], "k range '3..1' has LO > HI"),
    ], ids=["h-nan", "h-inf", "h-overflow", "residual-constant-negative",
            "error-constant-nan", "geometry-nan", "sweep-h-nan", "range-nan",
            "range-reversed", "table1-k-reversed", "verify-k-reversed"])
    def test_nonfinite_or_negative_input_is_usage_error(self, tmp_path, capsys,
                                                         geometry_file, argv,
                                                         message):
        nan_geometry = tmp_path / "nan_geom.json"
        nan_geometry.write_text(Path(geometry_file).read_text()
                                .replace("0.4", "NaN"))
        nan_sweep = tmp_path / "nan_sweep.json"
        nan_sweep.write_text('{"k": 1, "h_list": [0.02, NaN, 0.005, 0.002]}')
        argv = [a.format(geometry=geometry_file, nan_geometry=nan_geometry,
                         nan_sweep=nan_sweep) for a in argv]
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and message in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("k", [1.7, True])
    def test_sweep_non_integral_k_is_usage_error(self, tmp_path, capsys, k):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": k}))
        assert run_cli(["validate2d", "--config", str(path),
                        "--out", str(tmp_path)]) == 2
        assert "k must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,message", [
        ('{"T": 0.0}', "T must be a finite number > 0, got 0.0"),
        ('{"S": 0}', "S must be a finite number > 0, got 0.0"),
        ('{"S": -1.0}', "S must be a finite number > 0, got -1.0"),
        ('{"T": "inf"}', "T must be a number, got 'inf'"),
        ('{"omega_min": "nan"}', "omega_min must be a number, got 'nan'"),
        ('{"S": true}', "S must be a number, got True"),
        ('{"a": " 1e3 "}', "a must be a number, got ' 1e3 '"),
        ('{"s1": 1e400}', "s1 must be a finite number, got inf"),
        ('{"h_list": [0.05, 0.0]}', "h must be a finite number > 0, got 0.0"),
    ], ids=["T-zero", "S-zero", "S-negative", "T-string", "omega_min-string",
            "S-bool", "a-string", "s1-overflow", "h-zero"])
    def test_sweep_out_of_range_or_non_number_is_usage_error(self, tmp_path, capsys,
                                                              doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        out = tmp_path / "out"
        assert run_cli(["validate2d", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and message in err
        assert not list(out.glob("*"))

    # A geometry document repeats a key of the valid one, and JSON keeps the
    # last value of a repeated key, so each case changes exactly one field.
    GEOMETRY = '"n": 2, "omega01": [1.0], "domega01": [[0.0]], "hess_abs2": [[0.4]], '

    @pytest.mark.parametrize("command,doc,message", [
        ("validate2d", '{"h_lst": [0.2]}', "unknown sweep config fields: ['h_lst']"),
        ("validate2d", '{"points_per_length": 0}', "points_per_length must be >= 1, got 0"),
        ("validate2d", '{"points_per_length": -3}', "points_per_length must be >= 1, got -3"),
        # the grid follows points_per_length alone: a pinned size is refused
        ("validate2d", '{"n_s": 32}', "unknown sweep config fields: ['n_s']"),
        ("validate2d", '{"n_t": 32}', "unknown sweep config fields: ['n_t']"),
        ("validate2d", '{"h_list": []}', "h_list must hold at least one h"),
        ("miniwell", '{' + GEOMETRY + '"domega_div": "x"}',
         "domega_div must be a number, got 'x'"),
        ("miniwell", '{' + GEOMETRY + '"domega_div": [1, 2]}',
         "domega_div must be a number, got [1, 2]"),
        ("miniwell", '{' + GEOMETRY + '"domega_div": "1"}',
         "domega_div must be a number, got '1'"),
        ("miniwell", '{' + GEOMETRY + '"omega01": [true]}',
         "omega01 must be a list of numbers, got [True]"),
        ("miniwell", '{' + GEOMETRY + '"omega01": ["1"]}',
         "omega01 must be a list of numbers, got ['1']"),
        ("miniwell", '{' + GEOMETRY + '"hess_abs2": [[1e400]]}',
         "hess_abs2 must be a rectangular array of finite numbers, got [[inf]]"),
        # the metric Christoffel data do not enter K at this order
        ("miniwell", '{' + GEOMETRY + '"gdot0j": [0.0]}', "unknown geometry fields: ['gdot0j']"),
        ("miniwell", '{' + GEOMETRY + '"gamma00": 1.0}', "unknown geometry fields: ['gamma00']"),
        ("miniwell", '{' + GEOMETRY + '"gammaj0": [1.0]}', "unknown geometry fields: ['gammaj0']"),
        # nor, by the parity of the fiber ground state, the next Taylor
        # coefficient of the vector potential or the first-order metric data
        ("miniwell", '{' + GEOMETRY + '"gdot00": 1.0}', "unknown geometry fields: ['gdot00']"),
        ("miniwell", '{' + GEOMETRY + '"omega02": [0.5]}', "unknown geometry fields: ['omega02']"),
        ("miniwell", '{' + GEOMETRY + '"gdotjl": [[0.5]]}', "unknown geometry fields: ['gdotjl']"),
    ], ids=["sweep-unknown-key", "points_per_length-zero", "points_per_length-negative",
            "n_s-pinned", "n_t-pinned", "h_list-empty", "domega_div-text",
            "domega_div-list", "domega_div-string", "omega01-bool", "omega01-string",
            "hess_abs2-overflow", "gdot0j", "gamma00", "gammaj0", "gdot00", "omega02",
            "gdotjl"])
    def test_malformed_document_field_is_usage_error(self, tmp_path, capsys,
                                                     command, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(doc)
        flag = "--config" if command == "validate2d" else "--geometry"
        out = tmp_path / "out"
        assert run_cli([command, flag, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("doc,code,message", [
        ('{"S": 1e200}', 2,
         "usage error: S must be at most 1.34078e+154, as it is squared, got 1e+200"),
        ('{"S": 1e-300}', 2,
         "usage error: S must be at least 1.49167e-154, as it divides squared, "
         "got 1e-300"),
        ('{"T": 1e308}', 1, "numerical failure: fewer than 4 usable h values"),
        ('{"h_list": [1e200, 1e190, 1e180, 1e170]}', 2,
         "usage error: h must be at most 1.34078e+154, as it is squared, got 1e+200"),
        ('{"omega_min": 1e150, "h_list": [1e-175, 1e-176, 1e-177, 1e-178]}', 1,
         "numerical failure: fewer than 4 usable h values"),
        ('{"h_list": [1e8, 1e7, 1e6, 1e5]}', 1,
         "numerical failure: fewer than 4 usable h values"),
    ], ids=["S-squared", "S-square-underflow", "T-infinite-grid", "h-squared",
            "t-length-underflow", "no-interior-t-row"])
    def test_sweep_past_the_float_range_ends_in_one_line(self, tmp_path, doc, code,
                                                         message):
        # a magwell process, so that a traceback would reach its stderr; with
        # BLAS pinned, the h of the cases that exit 1 are refused in worker
        # processes: every grid is infinite in t (T huge, or the magnetic
        # length across t underflowing to 0) or has no interior t row, so
        # each h is skipped
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        import magwell
        src = str(Path(magwell.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        child = subprocess.run(
            [sys.executable, "-m", "magwell.cli", "validate2d", "--config", str(path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True)
        assert child.returncode == code
        assert message in child.stderr and "Traceback" not in child.stderr
        assert not (tmp_path / "out").exists()

    def test_nan_profile_refused_before_any_solve(self, tmp_path):
        # pi (s - s1) overflows, so omega is NaN at every sample; pooled and in
        # process alike, the config is refused before a NaN operator reaches
        # the sparse factorisation
        path = tmp_path / "cfg.json"
        path.write_text('{"s1": 1e308, "h_list": [0.2, 0.1, 0.05, 0.02]}')
        import magwell
        src = str(Path(magwell.__file__).resolve().parents[1])
        for threads in ("1", None):
            env = {name: value for name, value in os.environ.items()
                   if name not in BLAS_THREAD_VARS}
            env["PYTHONPATH"] = src
            if threads:
                env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                           MKL_NUM_THREADS=threads)
            out = tmp_path / f"out-{threads}"
            child = subprocess.run(
                [sys.executable, "-m", "magwell.cli", "validate2d", "--config",
                 str(path), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=60)
            assert child.returncode == 2
            assert child.stderr == ("usage error: omega must be finite and >= 0 at "
                                    "every grid sample, got nan at "
                                    "s=0.01907356948228883 (h=0.2)\n")
            assert not out.exists()

    def test_sweep_h_list_not_list_is_usage_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"h_list": "abc"}))
        assert run_cli(["validate2d", "--config", str(path),
                        "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("levels", ["1", "0"])
    def test_validate2d_too_few_levels_is_usage_error(self, tmp_path, capsys,
                                                       sweep_config_file, levels):
        # the sweep fits the splitting lambda_1 - lambda_0
        assert run_cli(["validate2d", "--config", sweep_config_file,
                        "--levels", levels, "--out", str(tmp_path)]) == 2
        assert "m_count >= 2" in capsys.readouterr().err
        assert not (tmp_path / "sweep2d.json").exists()

    @pytest.mark.parametrize("argv", [
        ["miniwell", "--count", "0"],
        ["predict", "--h", "0.01", "--count", "0"],
        ["profile", "--k", "1", "--range=-1:1", "--samples", "0"],
    ], ids=["miniwell-count", "predict-count", "profile-samples"])
    def test_zero_count_is_usage_error(self, tmp_path, capsys, geometry_file,
                                       argv):
        if argv[0] != "profile":
            argv = argv + ["--geometry", geometry_file]
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert "at least one" in capsys.readouterr().err
        assert not list(out.glob("*"))


class TestTable1:
    def test_single_k(self, tmp_path, capsys):
        rc = run_cli(["table1", "--k", "1", "--tol", "1e-4",
                      "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alpha_min" in out and "0.3468" in out
        rows = (tmp_path / "table1.csv").read_text().splitlines()
        assert rows[0].startswith("k,alpha_min,nu_hat,lambda_1")
        assert len(rows) == 2
        data = json.loads((tmp_path / "table1.json").read_text())
        assert sorted(data) == ["1"]
        assert sorted(data["1"]) == TABLE1_ROW_KEYS
        manifest = json.loads((tmp_path / "table1_manifest.json").read_text())
        assert manifest["subcommand"] == "table1"
        assert manifest["parameters"] == {"k": "1", "tol": 1e-4}
        for p in manifest["outputs"]:
            assert os.path.exists(p)

    def test_failing_k_does_not_cost_the_others(self, tmp_path, monkeypatch,
                                                capsys):
        real = montgomery.minimizer_state

        def fail_at_k2(k, *args, **kwargs):
            if k == 2:
                raise ConvergenceError("forced at k=2")
            return real(k, *args, **kwargs)

        monkeypatch.setattr(montgomery, "minimizer_state", fail_at_k2)
        for threads in (1, None):
            set_blas_threads(monkeypatch, threads)
            out = tmp_path / f"threads-{threads}"
            assert run_cli(["table1", "--k", "1..3", "--out", str(out)]) == 1
            assert multiprocessing.active_children() == []
            assert capsys.readouterr().err == "k=2: FAILED (forced at k=2)\n"
            rows = (out / "table1.csv").read_text().splitlines()
            assert [row.split(",")[0] for row in rows[1:]] == ["1", "3"]
            data = json.loads((out / "table1.json").read_text())
            assert sorted(data) == ["1", "3"]

    def test_no_table_when_every_k_fails(self, tmp_path, monkeypatch, capsys):
        def fail(k, *args, **kwargs):
            raise ConvergenceError(f"forced at k={k}")

        monkeypatch.setattr(montgomery, "minimizer_state", fail)
        assert run_cli(["table1", "--k", "5", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "k=5: FAILED (forced at k=5)" in captured.err
        assert captured.out == ""

    def test_even_k_alpha_min_prints_without_sign(self, tmp_path, capsys):
        # alpha_min is 0.0 exactly for even k, so no -0.0000 in the table
        assert run_cli(["table1", "--k", "1..7", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("alpha_min"))
        assert row.split()[2::2] == ["0.0000"] * 3
        assert "-0.0000" not in out

    def test_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_cli(["table1", "--k", "2", "--out", str(out1)]) == 0
        assert run_cli(["table1", "--k", "2", "--out", str(out2)]) == 0
        assert (out1 / "table1.csv").read_bytes() == \
            (out2 / "table1.csv").read_bytes()
        assert (out1 / "table1.json").read_bytes() == \
            (out2 / "table1.json").read_bytes()


class TestKSweep:
    """table1 and verify solve their k in process, one after another,
    whether BLAS runs one thread on the two cores shown or its default."""

    @pytest.mark.parametrize("command, files", [
        ("table1", ["table1.csv", "table1.json"]),
        ("verify", ["verify.json"]),
    ])
    def test_pinned_and_unpinned_write_the_same_bytes(self, tmp_path, monkeypatch,
                                                      capsys, command, files):
        written = {}
        for threads in (1, None):
            set_blas_threads(monkeypatch, threads)
            assert sweep_workers(3) == (2 if threads else 1)
            out = tmp_path / f"threads-{threads}"
            assert run_cli([command, "--k", "1..3", "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            written[threads] = ([(out / name).read_bytes() for name in files],
                                capsys.readouterr())
        assert written[1] == written[None]

    def test_every_k_solved_in_the_calling_process(self, tmp_path, monkeypatch,
                                                   capsys):
        # every k fails naming the process that solved it
        def fail_with_pid(k, *args, **kwargs):
            raise ConvergenceError(f"pid {os.getpid()}")

        monkeypatch.setattr(montgomery, "minimizer_state", fail_with_pid)
        for threads in (1, None):
            set_blas_threads(monkeypatch, threads)
            assert run_cli(["table1", "--k", "1..3", "--out", str(tmp_path)]) == 1
            assert multiprocessing.active_children() == []
            lines = capsys.readouterr().err.splitlines()
            assert [line.split(":")[0] for line in lines] == ["k=1", "k=2", "k=3"]
            pids = {line.split("pid ")[1].rstrip(")") for line in lines}
            assert pids == {str(os.getpid())}

    @pytest.mark.parametrize("command", ["table1", "verify"])
    def test_other_error_at_one_k_exits_2(self, tmp_path, monkeypatch,
                                          capsys, command):
        # an error that is not a numerical failure is not reported per k:
        # it ends the command as a usage error at once
        real = montgomery.minimizer_state

        def bad_at_k2(k, *args, **kwargs):
            if k == 2:
                raise ValueError("forced at k=2")
            return real(k, *args, **kwargs)

        monkeypatch.setattr(montgomery, "minimizer_state", bad_at_k2)
        for threads in (1, None):
            set_blas_threads(monkeypatch, threads)
            out = tmp_path / f"threads-{threads}"
            assert run_cli([command, "--k", "1..3", "--out", str(out)]) == 2
            assert multiprocessing.active_children() == []
            err = capsys.readouterr().err
            assert err == "usage error: forced at k=2\n"
            assert not out.exists()


class TestProfile:
    def test_profile_output(self, tmp_path):
        rc = run_cli(["profile", "--k", "2", "--range=-1:1",
                      "--samples", "11", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "profile_k2.csv").read_text().splitlines()
        assert rows[0] == "alpha,lambda0,lambda_quad"
        assert len(rows) == 12
        # lambda_quad column equals nu_hat at the row nearest alpha_min = 0
        data = json.loads((tmp_path / "profile_k2.json").read_text())
        alphas = [r[0] for r in data["rows"]]
        quads = [r[2] for r in data["rows"]]
        i0 = int(np.argmin(np.abs(np.array(alphas) - data["alpha_min"])))
        assert quads[i0] == pytest.approx(data["nu_hat"], abs=1e-4)

    def test_range_excluding_minimum_warns(self, tmp_path, capsys):
        rc = run_cli(["profile", "--k", "1", "--range", "1:2",
                      "--samples", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert "does not contain" in capsys.readouterr().err


class TestVerify:
    def test_verify_k1(self, tmp_path, capsys):
        rc = run_cli(["verify", "--k", "1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "k=1: PASS" in out
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report[0]["passed"]
        assert report[0]["checks"]["condik"]
        assert report[0]["checks"]["parity"]
        manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
        assert manifest["parameters"] == {"k": "1"}

    def test_failing_k_does_not_cost_the_others(self, tmp_path, monkeypatch,
                                                capsys):
        real = montgomery.minimizer_state

        def fail_at_k2(k, *args, **kwargs):
            if k == 2:
                raise ConvergenceError("forced at k=2")
            return real(k, *args, **kwargs)

        monkeypatch.setattr(montgomery, "minimizer_state", fail_at_k2)
        for threads in (1, None):
            set_blas_threads(monkeypatch, threads)
            out = tmp_path / f"threads-{threads}"
            assert run_cli(["verify", "--k", "1..3", "--out", str(out)]) == 1
            assert multiprocessing.active_children() == []
            assert capsys.readouterr().err == "k=2: FAILED (forced at k=2)\n"
            report = json.loads((out / "verify.json").read_text())
            assert [entry["k"] for entry in report] == [1, 3]


class TestMiniwellPredict:
    def test_miniwell_spectrum(self, tmp_path, geometry_file, capsys):
        rc = run_cli(["miniwell", "--geometry", geometry_file, "--k", "1",
                      "--count", "4", "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "miniwell_spectrum.json").read_text())
        assert sorted(data) == MINIWELL_KEYS
        assert sorted(data["spectrum"]) == MINIWELL_SPECTRUM_KEYS
        assert data["spectrum"]["branch"] == "nondegenerate"
        assert len(data["spectrum"]["levels"]) == 4
        assert data["spectrum"]["bottom"] == data["spectrum"]["levels"][0]

    def test_predict_files(self, tmp_path, geometry_file):
        rc = run_cli(["predict", "--geometry", geometry_file, "--k", "1",
                      "--h", "0.01,0.005,0.002,0.001",
                      "--out", str(tmp_path)])
        assert rc == 0
        head = (tmp_path / "forecast.csv").read_text().splitlines()[0]
        assert head.startswith("h,z_0")
        data = json.loads((tmp_path / "forecast.json").read_text())
        assert sorted(data) == FORECAST_KEYS
        assert len(data["h_values"]) == 4

    def test_predict_gap_cells_are_plain_floats(self, tmp_path, geometry_file):
        # a small residual constant opens gap windows, so gap cells are written
        rc = run_cli(["predict", "--geometry", geometry_file, "--k", "1",
                      "--h", "0.01,0.005", "--residual-constant", "1e-4",
                      "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "forecast.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert "gap_lo_0" in rows[0]
        assert len(rows) == 3
        for row in rows[1:]:
            assert len(row) == len(rows[0])
            for cell in row:
                assert "np." not in cell
                if cell:
                    float(cell)
        data = json.loads((tmp_path / "forecast.json").read_text())
        lo = rows[0].index("gap_lo_0")
        assert float(rows[1][lo]) == data["gap_windows"][0][0][0]

    def test_predict_single_level_has_no_gap(self, tmp_path, geometry_file):
        # one K level bounds no gap, even with windows opened by a small
        # residual constant: only the h and z_0 columns are written
        rc = run_cli(["predict", "--geometry", geometry_file, "--h", "0.01,0.005",
                      "--count", "1", "--residual-constant", "1e-4",
                      "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "forecast.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h", "z_0"]
        assert len(rows) == 3 and all(len(row) == 2 for row in rows)
        data = json.loads((tmp_path / "forecast.json").read_text())
        assert data["gap_windows"] == [[], []]


class TestValidate2D:
    def test_validate2d_runs(self, tmp_path, sweep_config_file, capsys):
        rc = run_cli(["validate2d", "--config", sweep_config_file,
                      "--levels", "3", "--out", str(tmp_path)])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "leading exponent" in out
        assert "warning: h=0.2 outside the asymptotic window" in err
        data = json.loads((tmp_path / "sweep2d.json").read_text())
        assert sorted(data) == SWEEP2D_KEYS
        assert len(data["h_values"]) == 5
        assert len(data["eigenvalues"][0]) == 3
        assert (tmp_path / "sweep2d.csv").read_text().splitlines()[0] == \
            "h,lambda_0,lambda_1,lambda_2,z_0,z_1,z_2"

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 17: the residual bound is absolute, so at large h, whose "
        "levels are large, rounding alone exceeds it"))
    def test_large_h_sweep_runs(self, tmp_path):
        # exits 1 with "h=1000, even block: eigenpair 0 residual 2.49e-08
        # exceeds 1e-09"
        path = tmp_path / "cfg.json"
        path.write_text('{"h_list": [1e3, 1e2, 10, 1]}')
        assert run_cli(["validate2d", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 0

    def test_warnings_printed_without_source_location(self, tmp_path):
        # a magwell process on the k=3 sweep of CI: the sweep's warning
        # reaches stderr as one line, as a failure would, naming no file
        import magwell
        src = str(Path(magwell.__file__).resolve().parents[1])
        config = tmp_path / "k3-sweep.json"
        config.write_text(json.dumps({"k": 3, "S": 8.0, "s1": 2.4,
                                      "h_list": [0.2, 0.1, 0.05, 0.02]}))
        child = subprocess.run(
            [sys.executable, "-m", "magwell.cli", "validate2d", "--config",
             str(config), "--levels", "3", "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert child.returncode == 0
        assert child.stderr == ("warning: h=0.2 outside the asymptotic window: "
                                "leading term 5.185e-02 < 10 x miniwell term "
                                "1.082e-02\n")
        assert ".py:" not in child.stderr

    def test_numerical_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # the grid of every h exceeds the grid budget, so the sweep cannot
        # proceed, whether its h are refused in worker processes or in process
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "k": 1, "omega_min": 1.0, "a": 1.0, "S": 8.0, "s1": 2.4,
            "T": 0.8, "h_list": [2.4e-4, 2.2e-4, 2e-4, 1.8e-4],
        }))
        for threads in (1, None):
            set_blas_threads(monkeypatch, threads)
            rc = run_cli(["validate2d", "--config", str(path),
                          "--out", str(tmp_path)])
            assert rc == 1
            assert "numerical failure" in capsys.readouterr().err

    def test_buffered_output_of_an_earlier_command_written_once(self, tmp_path):
        # a process that runs table1 and then validate2d, its stdout a pipe
        # and so block-buffered: table1's table must not reach the pipe again
        # through the workers that the h sweep forks. A child process is
        # needed, as pytest replaces sys.stdout with an in-memory object.
        import magwell
        src = str(Path(magwell.__file__).resolve().parents[1])
        config = tmp_path / "k3-sweep.json"
        config.write_text(json.dumps({"k": 3, "S": 8.0, "s1": 2.4,
                                      "h_list": [0.2, 0.1, 0.05, 0.02]}))
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}\n"
                "from magwell.cli import main\n"
                "sys.exit(main(['table1', '--k', '1..2', '--out', sys.argv[1]])\n"
                "         or main(['validate2d', '--config', sys.argv[2],\n"
                "                  '--levels', '3', '--out', sys.argv[1]]))")
        stdout = {}
        for threads in (1, None):
            env = {name: value for name, value in os.environ.items()
                   if name not in BLAS_THREAD_VARS + ("PYTHONUNBUFFERED",)}
            env["PYTHONPATH"] = src
            if threads:
                env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                           MKL_NUM_THREADS="1")
            child = subprocess.run([sys.executable, "-c", code,
                                    str(tmp_path / f"{threads}"), str(config)],
                                   env=env, capture_output=True, text=True, check=True)
            stdout[threads] = child.stdout
        headers = [line for line in stdout[1].splitlines() if line.startswith("k ")]
        assert len(headers) == 1
        assert stdout[1] == stdout[None]


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # the 1D subcommands need numpy alone: importing the package or the CLI,
    # or running --version, table1, verify or profile, loads no scipy (nor
    # numpy.f2py and numpy.testing, which scipy's import pulls in) and no
    # process pool, whose modules an h sweep imports only when it runs one.
    # A child process is needed: the test oracles import scipy into this one.
    import magwell
    src = str(Path(magwell.__file__).resolve().parents[1])
    code = ("import json, sys\n"
            "watched = ('scipy', 'numpy.f2py', 'numpy.testing', 'multiprocessing',\n"
            "           'concurrent.futures')\n"
            "loaded = {}\n"
            "def note(step):\n"
            "    loaded[step] = [m for m in watched if m in sys.modules]\n"
            "import magwell; note('import magwell')\n"
            "import magwell.cli; note('import magwell.cli')\n"
            "assert magwell.cli.main(['--version']) == 0; note('--version')\n"
            "for argv in (['table1', '--k', '1..2'], ['verify', '--k', '1'],\n"
            "             ['profile', '--k', '2', '--range=-1:1', '--samples', '5']):\n"
            "    assert magwell.cli.main(argv + ['--out', sys.argv[1]]) == 0\n"
            "    note(argv[0])\n"
            "print(json.dumps(loaded))\n")
    env = {**os.environ, "PYTHONPATH": src}
    child = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                           capture_output=True, text=True, check=True)
    steps = ("import magwell", "import magwell.cli", "--version", "table1", "verify",
             "profile")
    assert json.loads(child.stdout.splitlines()[-1]) == {step: [] for step in steps}


# every name the package exported when it imported all five modules eagerly
PACKAGE_EXPORTS = {
    "sl_engine": ("AssemblyError", "ConvergenceError", "SineBasis", "SolverError",
                  "Spectrum1D", "eigenvalue_converged"),
    "montgomery": ("MinimizerReport", "MinimizerState", "ProfileTable", "lambda_m",
                   "minimizer_state", "profile"),
    "miniwell": ("EffectiveOperatorK", "KSpectrum", "MiniwellGeometry", "build_A",
                 "build_Omega", "build_effective_operator", "spectrum_K",
                 "spectrum_K_oracle"),
    "asymptotics": ("GapForecast", "build_forecast", "exponent_fit", "gap_intervals",
                    "ground_energy_bounds", "quasimode_energy"),
    "model2d": ("Field2DConfig", "Sweep2DReport", "assemble_2d", "lowest_eigenvalues_2d",
                "run_sweep"),
}


def test_package_exports_resolve_to_their_modules():
    import magwell
    for module, names in PACKAGE_EXPORTS.items():
        submodule = importlib.import_module(f"magwell.{module}")
        for name in names:
            assert name in dir(magwell)
            assert getattr(magwell, name) is getattr(submodule, name)
    from magwell import run_sweep
    assert run_sweep is magwell.model2d.run_sweep
    with pytest.raises(AttributeError):
        magwell.no_such_name
