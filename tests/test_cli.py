"""Tests for the command-line interface: records, formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hypergeo import cli

RECORD_KEYS = {"command", "inputs", "value_re", "value_im", "stderr",
               "samples", "seed", "pass"}


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_process(argv, optimize=False):
    """The CLI in a fresh interpreter, so real warnings reach stderr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-m", "hypergeo.cli",
                           *argv], capture_output=True, text=True, env=env,
                          timeout=120)


class TestEvalRecords:
    def test_t_zero_is_exact(self, capsys):
        code, out = run(["eval-bc", "--field", "r", "--q", "1", "--p", "3",
                         "--lambda", "2", "--t", "0"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == RECORD_KEYS
        assert rec["value_re"] == 1.0 and rec["value_im"] == 0.0
        assert rec["stderr"] == 0.0
        assert rec["pass"] is True

    def test_eval_a_closed_form(self, capsys):
        code, out = run(["eval-a", "--q", "1", "--lambda", "2",
                         "--t", "1"], capsys)
        assert code == 0
        rec = json.loads(out)
        want = np.cosh(1.0) ** 2.0j
        assert rec["value_re"] == want.real
        assert rec["value_im"] == want.imag
        assert rec["samples"] == 0

    def test_record_per_lambda_t_pair(self, capsys):
        code, out = run(["eval-bc", "--q", "1", "--p", "3",
                         "--lambda", "1,2", "--t", "0:1:3",
                         "--samples", "2000"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        for line in lines:
            assert set(json.loads(line)) == RECORD_KEYS

    def test_series_record_semantics(self, capsys):
        code, out = run(["eval-bessel-series", "--q", "1", "--p", "3",
                         "--lambda", "1", "--t", "0.8",
                         "--max-degree", "2"], capsys)
        assert code == 0
        rec = json.loads(out)
        # stderr carries the tail bound, samples the truncation degree,
        # pass the convergence flag
        assert rec["samples"] == 2
        assert rec["pass"] is False
        assert rec["stderr"] > 0.0

    def test_seed_env_fallback(self, capsys, monkeypatch):
        argv = ["eval-bc", "--q", "1", "--p", "3", "--lambda", "1.5",
                "--t", "0.5", "--samples", "4000"]
        monkeypatch.setenv("HYPERGEO_SEED", "7")
        _, out_env = run(argv, capsys)
        monkeypatch.delenv("HYPERGEO_SEED")
        _, out_seed = run(argv + ["--seed", "7"], capsys)
        assert out_env == out_seed
        _, out_zero = run(argv, capsys)
        assert out_zero != out_env

    def test_worker_invariance(self, capsys):
        argv = ["eval-bc", "--q", "2", "--p", "5", "--lambda",
                "1,0.5", "--t", "0.7,0.2", "--samples", "20000"]
        _, a = run(argv, capsys)
        _, b = run(argv + ["--workers", "4"], capsys)
        a = json.loads(a)
        b = json.loads(b)
        del a["inputs"], b["inputs"]  # workers is not an input field
        assert a == b

    def test_csv_round_trip(self, capsys):
        code, out = run(["eval-bc", "--q", "2", "--p", "5", "--lambda",
                         "1+1i,0.5", "--t", "0.9,0.3", "--samples", "2000",
                         "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        lam = [complex(z.replace("i", "j"))
               for z in row["lambda"].split(",")]
        assert lam == [1.0 + 1.0j, 0.5 + 0.0j]
        t = [float(x) for x in row["t"].split(",")]
        assert t == [0.9, 0.3]
        val = complex(row["value"].replace("i", "j"))
        assert row["q"] == "2" and row["p"] == "5.0"
        assert np.isfinite(val.real)

    def test_output_file_deterministic(self, capsys, tmp_path):
        argv = ["eval-bessel-integral", "--q", "2", "--p", "4", "--lambda",
                "1,0.5", "--t", "0.6,0.2", "--samples", "10000"]
        f1 = tmp_path / "a.jsonl"
        f2 = tmp_path / "b.jsonl"
        assert cli.main(argv + ["--output", str(f1)]) == 0
        assert cli.main(argv + ["--output", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_ho_poly_record(self, capsys):
        code, out = run(["eval-ho-poly", "--q", "1", "--p", "6",
                         "--mu", "4", "--t", "0", "--samples", "2000"],
                        capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["stderr"] == 0.0
        assert rec["value_re"] > 1.0

    def test_c_function_record(self, capsys):
        code, out = run(["c-function", "--q", "2", "--p", "5",
                         "--lambda", "3,1"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["samples"] == 0
        assert 0.0 < rec["value_re"] < 1.0


class TestExitCodes:
    def test_config_error_bad_chunk(self, capsys):
        code, _ = run(["eval-bc", "--q", "2", "--p", "5", "--lambda", "1",
                       "--t", "0.5,0.2"], capsys)
        assert code == 2

    def test_config_error_bad_field(self, capsys):
        code, _ = run(["eval-bc", "--field", "z", "--q", "1", "--p", "3",
                       "--lambda", "1", "--t", "0.5"], capsys)
        assert code == 2

    def test_config_error_bad_complex(self, capsys):
        code, _ = run(["eval-bc", "--q", "1", "--p", "3",
                       "--lambda", "1+x", "--t", "0.5"], capsys)
        assert code == 2

    def test_argparse_error(self, capsys):
        assert cli.main(["eval-bc", "--q", "one"]) == 2
        capsys.readouterr()

    def test_domain_error_small_p(self, capsys):
        code, _ = run(["eval-bc", "--q", "2", "--p", "3", "--lambda",
                       "1,0.5", "--t", "0.5,0.2"], capsys)
        assert code == 3

    def test_domain_error_chamber(self, capsys):
        code, _ = run(["eval-bc", "--q", "2", "--p", "5", "--lambda",
                       "1,0.5", "--t", "0.2,0.5"], capsys)
        assert code == 3

    def test_domain_error_pole(self, capsys):
        code, _ = run(["c-function", "--q", "2", "--p", "5",
                       "--lambda", "0,0"], capsys)
        assert code == 3

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flag,value", [
        ("--samples", "0"), ("--samples", "-3"), ("--workers", "0")])
    def test_config_error_counts_below_one(self, flag, value, capsys):
        for argv in (["eval-bc", "--q", "1", "--p", "3", "--lambda", "1",
                      "--t", "0.5"],
                     ["moment-decay", "--q", "1", "--n", "1",
                      "--p-list", "9,17"]):
            code, out = run(argv + [flag, value], capsys)
            assert code == 2 and out == ""

    def test_config_error_under_optimize(self):
        """The sample-count check is no assert, so -O keeps it."""
        proc = run_process(["eval-bc", "--q", "1", "--p", "3", "--lambda",
                            "1", "--t", "0.5", "--samples", "0"],
                           optimize=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("argv,message", [
        ("eval-bc --q 1 --p 3 --lambda 1 --t 0.5 --seed -1",
         "--seed must be nonnegative, not -1"),
        ("rate-p --q 2 --lambda 1,0.5 --t-grid 0.5,0.2 --p-list 9,5",
         "--p-list must be strictly increasing, got 9,5"),
        ("contraction --q 2 --p 5 --lambda 1 --t 1 --n-list 2,4",
         "lambda has 1 entries, expected q=2"),
        ("contraction --q 2 --p 5 --lambda 1,0 --t 1,0.5 --n-list 4,2",
         "--n-list must be strictly increasing, got 4,2"),
        ("moment-decay --q 1 --n 0 --p-list 9,17",
         "--n must be at least 1"),
    ], ids=["seed", "p-list", "lambda-length", "n-list", "moment-n"])
    def test_input_error_under_optimize(self, argv, message):
        """Bad arguments are config errors naming them, also under -O."""
        proc = run_process(argv.split(), optimize=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "config error: %s\n" % message

    @pytest.mark.parametrize("value", ["-1", "seven"])
    def test_seed_env_config_error(self, value, capsys, monkeypatch):
        monkeypatch.setenv("HYPERGEO_SEED", value)
        code, out = run(["eval-bc", "--q", "1", "--p", "3", "--lambda", "1",
                         "--t", "0.5"], capsys)
        assert (code, out) == (2, "")

    def test_domain_error_non_finite_estimate(self, capsys):
        """An overflowing integrand is a domain error, not a pass."""
        code, out = run(["eval-bc", "--q", "2", "--p", "5", "--lambda",
                         "800i,0", "--t", "2,1", "--samples", "8192"],
                        capsys)
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("argv,message", [
        ("eval-bc --q 2 --p 5 --lambda 800i,0 --t 2,1 --samples 8192",
         "Monte-Carlo estimate is not finite"),
        ("eval-bc --q 2 --p 5 --lambda 800i,0 --t 2,1 --samples 16384 "
         "--workers 2", "Monte-Carlo estimate is not finite"),
        ("rate-p --q 1 --lambda 2 --t-grid 0 --p-list 10,20",
         "summary field slope is -inf because an error is 0: a log-log "
         "fit needs every error positive"),
    ], ids=["overflow", "overflow-workers-2", "slope"])
    def test_domain_error_stderr_is_one_line(self, argv, message):
        """A domain error prints its own line and no numpy warnings."""
        proc = run_process(argv.split())
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "domain error: %s\n" % message


class TestWeylScan:
    def test_spec_pass_example(self, capsys):
        code, out = run(["weyl-scan", "--family", "b", "--rank", "2",
                         "--eps", "1.0", "--rho", "2,1"], capsys)
        assert code == 0
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["pass"] is True and summary["violations"] == 0

    def test_spec_fail_example_has_witness(self, capsys):
        code, out = run(["weyl-scan", "--family", "a", "--rank", "2",
                         "--eps", "0.6"], capsys)
        assert code == 4
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["pass"] is False
        assert "witness_vertex" in summary and "witness_rho" in summary

    def test_csv_columns(self, capsys):
        _, out = run(["weyl-scan", "--family", "b", "--rank", "2",
                      "--eps", "0.5", "--rho", "2,1"], capsys)
        header = out.split("\n")[0]
        assert header == "family,rank,rho,eps,witness,pass"


class TestEps0Command:
    def test_b2_json(self, capsys):
        code, out = run(["eps0", "--family", "b", "--rank", "2",
                         "--rho-samples", "4"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec == {"eps0": 1.0, "family": "b", "rank": 2}


class TestJackTable:
    def test_row_sum_reproduces_trace_power(self, capsys):
        code, out = run(["jack-table", "--weight", "4", "--rank", "2",
                         "--alpha", "0.5"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        seen = {}
        for row in rows:
            seen[row["partition"]] = float(row["c_at_ones"])
        np.testing.assert_allclose(sum(seen.values()), 2.0 ** 4,
                                   rtol=1e-12)

    def test_weight_zero(self, capsys):
        code, out = run(["jack-table", "--weight", "0", "--rank", "2"],
                        capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["coefficient"] == "1"

    def test_size_guard(self, capsys):
        code, _ = run(["jack-table", "--weight", "31", "--rank", "2"],
                      capsys)
        assert code == 2
        code, _ = run(["jack-table", "--weight", "4", "--rank", "7"],
                      capsys)
        assert code == 2


class TestExperimentCommands:
    def test_rate_p_files(self, tmp_path, capsys):
        out_csv = tmp_path / "rate.csv"
        code = cli.main(["rate-p", "--q", "1", "--lambda", "2",
                         "--t-grid", "0:2:5", "--p-list", "10,20,40",
                         "--output", str(out_csv)])
        assert code == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert [r["p"] for r in rows] == ["10", "20", "40"]
        summary = json.loads((tmp_path / "rate.csv.summary.json").read_text())
        assert summary["pass"] is True
        assert summary["slope"] <= -0.45

    def test_contraction_stdout(self, capsys):
        code, out = run(["contraction", "--q", "1", "--p", "3",
                         "--lambda", "1", "--t", "1",
                         "--n-list", "2,4,8"], capsys)
        assert code == 0
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["pass"] is True

    def test_moment_decay_stdout(self, capsys):
        code, out = run(["moment-decay", "--q", "1", "--n", "1",
                         "--p-list", "9,17,33", "--samples", "20000"],
                        capsys)
        assert code == 0
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["slope"] <= -0.9

    def test_boundedness_small(self, capsys):
        code, out = run(["boundedness", "--q", "1", "--p", "3",
                         "--n-lambda", "3", "--n-t", "3",
                         "--samples", "4000"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        summary = json.loads(lines[-1])
        assert summary["all_bounded"] is True
