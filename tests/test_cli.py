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

_NO_BAND = ("summary field slope_halfwidth is nan because the jackknife "
            "band needs 2 Monte-Carlo shards, so --samples above 8192, and "
            "2 finite leave-one-out slopes")


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

    def test_field_alias_is_resolved_once(self, capsys):
        """A full field name prints as its tag, byte for byte as the tag."""
        argv = ["eval-bc", "--q", "1", "--p", "3", "--lambda", "1.5",
                "--t", "0.5", "--samples", "4000", "--seed", "3"]
        _, by_name = run(argv + ["--field", "Quaternion"], capsys)
        _, by_tag = run(argv + ["--field", "h"], capsys)
        assert json.loads(by_name)["inputs"]["field"] == "h"
        assert by_name == by_tag

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
        code, _ = run(["eval-bc", "--q", "2", "--p", "2.5", "--lambda",
                       "1,0.5", "--t", "0.5,0.2"], capsys)
        assert code == 3

    def test_domain_error_chamber(self, capsys):
        """eval-ho-poly checks the chamber as eval-bc does; it used to
        print a passing record for the last two of these."""
        for argv in (["eval-bc", "--q", "2", "--p", "5", "--lambda", "1,0.5",
                      "--t", "0.2,0.5"],
                     ["eval-ho-poly", "--q", "2", "--p", "5", "--mu", "4,2",
                      "--t", "0.5,-0.2", "--samples", "2000"],
                     ["eval-ho-poly", "--q", "2", "--p", "5", "--mu", "4,2",
                      "--t", "0.2,0.5", "--samples", "2000"]):
            code, _ = run(argv, capsys)
            assert code == 3

    @pytest.mark.parametrize("t", ["0.2,0.7", "0.7,-0.2"])
    def test_domain_error_chamber_on_boundary(self, t, capsys):
        """eval-bc-degenerate checks the chamber as eval-bc does; it used
        to print a passing record for both of these t."""
        code, out = run(["eval-bc-degenerate", "--field", "r", "--q", "2",
                         "--lambda", "1,0.5", "--t", t, "--samples", "2000",
                         "--seed", "1"], capsys)
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("argv", [
        "rate-p --q 2 --lambda 1+0.5i,0.5 --t-grid 0.2,1.5 --p-list 8,16,32 "
        "--samples 2000",
        "eval-a --q 2 --lambda 1,0.5 --t 0.5,-0.2 --samples 2000",
        "eval-bessel-series --q 2 --p 5 --lambda 1,0.5 --t 0.2,0.5",
        "eval-bessel-integral --q 2 --p 5 --lambda 1,0.5 --t 0.2,0.5 "
        "--samples 2000",
        "contraction --q 2 --p 5 --lambda 1,0.5 --t 0.5,-0.2 --n-list 2,4 "
        "--samples 2000",
    ], ids=["rate-p", "eval-a", "series", "integral", "contraction"])
    def test_domain_error_chamber_everywhere(self, argv, capsys):
        """Every command that reads a cone point checks the chamber; each
        of these printed records or a summary, rate-p one whose scale
        came from t-tilde = min(t1, 1) of the unordered row."""
        code = cli.main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            3, "", "domain error: t must lie in the chamber "
            "t1 >= ... >= tq >= 0\n")

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
         "--seed must be at least 0 and whole, not -1"),
        ("rate-p --q 2 --lambda 1,0.5 --t-grid 0.5,0.2 --p-list 9,5",
         "--p-list must be strictly increasing, got 9,5"),
        ("contraction --q 2 --p 5 --lambda 1 --t 1 --n-list 2,4",
         "--lambda must have q=2 entries, got 1"),
        ("contraction --q 2 --p 5 --lambda 1,0 --t 1,0.5 --n-list 4,2",
         "--n-list must be strictly increasing, got 4,2"),
        # A divide-by-zero warning, then "t must be finite, not inf".
        ("contraction --q 1 --p 3 --lambda 1 --t 0.5 --n-list 0,1",
         "--n-list entries must be integers of at least 1, not 0"),
        # Six LAPACK DLASCL lines, then "SVD did not converge".
        ("contraction --q 2 --p 5 --lambda 1,0.5 --t 0.5,0.2 "
         "--n-list=-2,-1",
         "--n-list entries must be integers of at least 1, not -2"),
        ("moment-decay --q 1 --n 0 --p-list 9,17",
         "--n must be at least 1 and whole, not 0"),
        # A slope fitted through one point: -2.3136, -0.6588 and -0.2811,
        # the first two with "pass": true.
        ("contraction --q 1 --p 3 --lambda 1 --t 0.5 --n-list 2",
         "--n-list needs at least two entries to fit a slope, got 2"),
        ("rate-p --q 1 --lambda 2 --t-grid 0.5 --p-list 10",
         "--p-list needs at least two entries to fit a slope, got 10"),
        ("moment-decay --q 1 --n 1 --p-list 9 --samples 8192",
         "--p-list needs at least two entries to fit a slope, got 9"),
        ("boundedness --q 1 --p 3 --n-lambda 0", "--n-lambda must be at "
         "least 1 and whole, not 0"),
        ("boundedness --q 1 --p 3 --n-t 0",
         "--n-t must be at least 1 and whole, not 0"),
        ("jack-table --weight 2 --rank 2 --alpha nan",
         "--alpha must be positive and finite, not nan"),
        ("weyl-scan --family b --rank 2 --eps 1 --rho 1,2",
         "--rho must be weakly decreasing, got 1,2"),
        ("weyl-scan --family b --rank 0 --eps 1",
         "--rank must be at least 1 and whole, not 0"),
        ("weyl-scan --family b --rank 7 --eps 1 --rho-samples 1",
         "--rank must be at most 6 for vertex enumeration, got 7"),
        ("eps0 --family b --rank 5",
         "--rank must be at most 4 to estimate eps0, got 5"),
        # The bisection never ended: it cannot narrow below one float
        # spacing.
        ("eps0 --family a --rank 2 --rho-samples 0 --resolution 0",
         "--resolution must be positive and finite, not 0.0"),
        ("eps0 --family a --rank 2 --rho-samples 0 --resolution -1",
         "--resolution must be positive and finite, not -1.0"),
        # --q 0 divided by zero while chunking lambda; --q -1 reached
        # numpy's reshape as a domain error.
        ("eval-bc --q 0 --p 3 --lambda 1 --t 1",
         "--q must be at least 1 and whole, not 0"),
        ("rate-p --q 0 --lambda 1 --t-grid 1 --p-list 5,9",
         "--q must be at least 1 and whole, not 0"),
        ("rate-p --q -1 --lambda 1 --t-grid 1 --p-list 5,9",
         "--q must be at least 1 and whole, not -1"),
        # An OverflowError traceback from round(inf) in the pole test.
        ("c-function --q 2 --p inf --lambda 3,1",
         "--p must be finite, not inf"),
        # An OverflowError traceback from Generator.uniform.
        ("boundedness --q 1 --p inf --n-lambda 1 --n-t 1",
         "--p must be finite, not inf"),
        ("weyl-scan --family b --rank 2 --eps nan --rho 2,1",
         "--eps must be finite, not nan"),
        # One sample printed "stderr": 0.0 beside "pass": true, and rate-p
        # a slope halfwidth of 0.
        ("eval-bc --q 2 --p 5 --lambda 1,0.5 --t 0.8,0.4 --samples 1 "
         "--seed 1", "--samples must be at least 2 and whole, not 1"),
        ("rate-p --q 2 --lambda 1,0.5 --t-grid 0.8,0.4 --p-list 10,20 "
         "--samples 1 --seed 1",
         "--samples must be at least 2 and whole, not 1"),
        # mu's length was a config error, its other form errors domain
        # errors (exit 3), each in its own words.
        ("eval-ho-poly --q 2 --p 5 --mu 2 --t 0.5,0.2",
         "--mu must be a weakly decreasing vector of even nonnegative "
         "integers of length q=2, not [2]"),
        ("eval-ho-poly --q 2 --p 5 --mu 2,1 --t 0.5,0.2",
         "--mu must be a weakly decreasing vector of even nonnegative "
         "integers of length q=2, not [2, 1]"),
        ("contraction --q 2 --p 5 --lambda 1,0.5 --t 1 --n-list 2,4",
         "--t must have q=2 entries, got 1"),
    ], ids=["seed", "p-list", "lambda-length", "n-list", "n-list-0",
            "n-list-negative", "moment-n", "n-list-one", "p-list-one",
            "moment-p-list-one", "n-lambda", "n-t", "alpha-nan", "rho-order", "rank-0",
            "vertex-rank", "eps0-rank", "resolution-0", "resolution-neg",
            "q-0", "q-0-rate-p", "q-neg", "p-inf", "p-inf-boundedness",
            "eps-nan", "samples-1", "samples-1-rate-p", "mu-length", "mu-odd",
            "contraction-t-length"])
    def test_input_error_under_optimize(self, argv, message):
        """Bad arguments are config errors naming them, also under -O."""
        proc = run_process(argv.split(), optimize=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "config error: %s\n" % message

    @pytest.mark.parametrize("argv,message", [
        # NaN passed every range check: a non-finite estimate, or a value
        # the writer refused.
        ("eval-bc --q 2 --p 5 --lambda 1,0.5 --t nan,0.2 --samples 2000",
         "--t must be finite, not nan"),
        ("eval-bc --q 2 --p 5 --lambda nan,0.5 --t 0.7,0.2 --samples 2000",
         "--lambda must be finite, not (nan+0j)"),
        ("rate-p --q 2 --lambda 1,0.5 --t-grid nan,0.2 --p-list 5,9 "
         "--samples 2000", "--t-grid must be finite, not nan"),
        ("contraction --q 2 --p 5 --lambda nan,0.5 --t 1,0.5 --n-list 2,4 "
         "--samples 2000", "--lambda must be finite, not nan"),
        ("moment-decay --q 1 --n 1 --p-list 9,inf --samples 2000",
         "--p-list must be finite, not inf"),
        # Only the first lambda row was used, with exit 0.
        ("rate-p --q 2 --lambda 1,0.5,2,3 --t-grid 0.5,0.2 --p-list 5,9 "
         "--samples 2000", "--lambda must have q=2 entries, got 4"),
        # "pass": true after 3 shells whatever the accuracy.
        ("eval-bessel-series --q 2 --p 5 --lambda 1,0.5 --t 0.7,0.2 "
         "--rel-tol inf", "--rel-tol must be positive and finite, not inf"),
        # Every shell summed, then "pass": false with exit 0.
        ("eval-bessel-series --q 2 --p 5 --lambda 1,0.5 --t 0.7,0.2 "
         "--rel-tol 0", "--rel-tol must be positive and finite, not 0.0"),
        ("eval-bessel-series --q 2 --p 5 --lambda 1,0.5 --t 0.7,0.2 "
         "--rel-tol -1", "--rel-tol must be positive and finite, not -1.0"),
        # "samples": -1 in the record.
        ("eval-bessel-series --q 2 --p 5 --lambda 1,0.5 --t 0.7,0.2 "
         "--max-degree -1",
         "--max-degree must be at least 1 and whole, not -1"),
        # Every i was read as j: "cannot parse --lambda 'inf'".
        ("eval-bc --q 1 --p 3 --lambda inf --t 0.5",
         "--lambda must be finite, not (inf+0j)"),
        ("eval-bc --q 1 --p 3 --lambda 1+infi --t 0.5",
         "--lambda must be finite, not (1+infj)"),
        # A domain error, exit 3: "integral mode needs a real lam".
        ("eval-bessel-integral --q 1 --p 3 --lambda 1+1i --t 0.5",
         "cannot parse --lambda '1+1i'"),
    ], ids=["t-nan", "lambda-nan", "t-grid-nan", "contraction-lambda-nan",
            "p-list-inf", "rate-p-lambda-length", "rel-tol-inf",
            "rel-tol-0", "rel-tol-negative", "max-degree-neg", "lambda-inf",
            "lambda-inf-imaginary", "integral-lambda-complex"])
    def test_input_list_config_error(self, argv, message, capsys):
        """A bad entry of a list flag, or a bad series flag, is a config
        error naming the flag."""
        code = cli.main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "config error: %s\n" % message)

    def test_vertex_rank_checked_before_sampling(self, capsys, monkeypatch):
        """A rank too large to enumerate never builds its 2^rank pinches
        (rank 18 took seconds and 155 MB before the config error)."""
        def never(*args):
            raise AssertionError("rho samples built for rank 18")

        monkeypatch.setattr(cli.weyl, "_unit_rho_samples", never)
        code, out = run(["weyl-scan", "--family", "b", "--rank", "18",
                         "--eps", "1"], capsys)
        assert (code, out) == (2, "")

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
        # A RuntimeWarning, then "Out of range float values are not JSON
        # compliant".
        ("c-function --q 2 --p 5 --lambda 1e308,1",
         "the c-function's Gamma product overflows at --lambda 1e308,1 "
         "and --p 5.0"),
        # "cannot write the non-finite value nan"; at weight 2 the table
        # was written, with every C value of (2) a wrong 0.
        ("jack-table --weight 6 --rank 3 --alpha 1.7e308",
         "--alpha 1.7e+308 overflows the Jack coefficients of weight 6"),
        ("jack-table --weight 2 --rank 2 --alpha 1.7e308",
         "--alpha 1.7e+308 overflows the Jack coefficients of weight 2"),
        # The normalizing c-function of a huge --p: the same warning and
        # JSON error as c-function above.
        ("eval-ho-poly --q 1 --p 1e307 --mu 2 --t 0.5 --samples 100",
         "the c-function's Gamma product is out of float range at "
         "lam=[5e+306], k=(5e+306, 0.0, 0.5)"),
        # rho_1 - rho_2 of two floats near 5e16 rounded to 0, a phantom
        # pole at root 2e_1-2e_2.
        ("c-function --q 2 --p 1e17 --lambda 2,1",
         "the c-function's Gamma product overflows at --lambda 2,1 and "
         "--p 1e+17"),
        ("c-function --q 2 --p 1e18 --lambda 2,1",
         "the c-function's Gamma product overflows at --lambda 2,1 and "
         "--p 1e+18"),
        # RuntimeWarnings, then "Out of range float values are not JSON
        # compliant": lambda^2 / 2 or t^2 / 2 overflowed.
        ("eval-bessel-series --q 2 --p 5 --lambda 1e200,0.5 --t 0.7,0.2",
         "the Bessel series overflows at --lambda 1e200,0.5 and --t "
         "0.7,0.2"),
        ("eval-bessel-series --q 2 --p 5 --lambda 1e200,0.5 --t 1e200,0.2",
         "the Bessel series overflows at --lambda 1e200,0.5 and --t "
         "1e200,0.2"),
        ("eval-bessel-series --q 1 --p 5 --lambda 1e200 --t 0.7",
         "the Bessel series overflows at --lambda 1e200 and --t 0.7"),
        # RuntimeWarnings, then "Out of range float values are not JSON
        # compliant": cosh(t)^(i lam) overflowed.
        ("eval-a --q 1 --lambda 1 --t 800",
         "psi overflows at --lambda 1 and --t 800"),
        ("eval-a --q 1 --lambda 1e308 --t 5",
         "psi overflows at --lambda 1e308 and --t 5"),
        ("eval-a --q 1 --lambda 1-1000i --t 3",
         "psi overflows at --lambda 1-1000i and --t 3"),
        # The exact value is 1/lambda.  log Gamma(lambda) - log Gamma(
        # lambda + 1) cancelled: 1e12 printed 9.982e-13, and 1e300 printed
        # 1.0, each with "pass": true.
        ("c-function --q 1 --p 3 --lambda 1e12",
         "the c-function's log-Gamma terms, of total size 5.33e+13, cancel "
         "below 10 correct digits at lam=[(1000000000000+0j)], "
         "k=(1.0, 0.0, 0.5)"),
        ("c-function --q 1 --p 3 --lambda 1e300",
         "the c-function's log-Gamma terms, of total size 1.38e+303, cancel "
         "below 10 correct digits at lam=[(1e+300+0j)], k=(1.0, 0.0, 0.5)"),
        # Printed errors of 9.3e94 against the truncated series, exit 4.
        ("contraction --q 1 --p 5 --lambda 1 --t 1e3 --n-list 2,4",
         "the series reference phi-tilde did not converge at lam=[1.0], "
         "t=[1000.0]: tail bound 9.29e+96"),
        # Four RuntimeWarnings, then "cannot write the non-finite value
        # nan": cosh(t) overflowed in the rank-one quadrature.  Then a
        # message naming the shifted point lam=(0.001-1j), not the flags.
        ("contraction --q 1 --p 3 --lambda 0.001 --t 800 --n-list 1,2",
         "phi or the Bessel series overflows at --lambda 0.001 and --t "
         "800"),
        ("rate-p --q 1 --lambda 0.001 --t-grid 800 --p-list 3,4",
         "phi or psi overflows at --lambda 0.001 and --t-grid 800"),
        # RuntimeWarnings from scipy's Gauss-Jacobi roots, then "phi or psi
        # overflows": the rule, not the value, was out of range.
        ("rate-p --field h --q 1 --lambda 1.3 --t-grid 0.7 "
         "--p-list 100,1000",
         "the rank-one quadrature has no finite Gauss-Jacobi rule at "
         "p=1000.0 over h: (dp - 3)/2 is above about 700"),
        # phi equals phi-tilde here: errors of 1.1e-16 to 5.1e-16 gave
        # slope 0.73 and "pass": false, exit 4.
        ("contraction --field r --q 1 --p 1 --lambda 1 --t 0.8 "
         "--n-list 1,2,4,8",
         "the contraction error 1.11e-16 at n=1 is at or below the series "
         "reference's resolution 1e-12 (rel_tol max(1, |ref|) + tail "
         "bound), so it carries no rate"),
        # One shard, so no jackknife band: "slope_halfwidth": 0.0 and
        # "pass": true beside slopes of -1.090, -1.798 and -0.954.
        ("rate-p --q 2 --lambda 1,0.5 --t-grid 0.8,0.4 --p-list 10,20 "
         "--samples 4096 --seed 1", _NO_BAND),
        ("moment-decay --q 2 --n 1 --p-list 16,32 --samples 4096 --seed 1",
         _NO_BAND),
        ("contraction --q 2 --p 5 --lambda 1,0.5 --t 0.8,0.4 --n-list 2,4 "
         "--samples 4096 --seed 1", _NO_BAND),
    ], ids=["overflow", "overflow-workers-2", "slope", "c-function-lambda",
            "jack-alpha", "jack-alpha-weight-2", "ho-poly-p",
            "c-function-p-1e17", "c-function-p-1e18", "series-lambda",
            "series-t", "series-rank-one", "psi-t", "psi-lambda",
            "psi-lambda-imaginary", "c-function-cancel-1e12",
            "c-function-cancel-1e300", "contraction-series",
            "contraction-quadrature", "rate-p-quadrature",
            "rate-p-quadrature-large-p", "contraction-rounding",
            "rate-p-one-shard", "moment-decay-one-shard",
            "contraction-one-shard"])
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

    def test_overflowing_stretch_stderr_is_one_line(self):
        """A stretch that overflows fails the scan (exit 4) with its one
        line on stderr: no numpy RuntimeWarnings with source lines."""
        proc = run_process("weyl-scan --family a --rank 1 --eps 1e308 "
                           "--rho 5,-5".split())
        assert proc.returncode == 4
        assert proc.stderr == "acceptance predicate failed: no-violations\n"


class TestEps0Command:
    def test_b2_json(self, capsys):
        code, out = run(["eps0", "--family", "b", "--rank", "2",
                         "--rho-samples", "4"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec == {"eps0": 1.0, "family": "b", "rank": 2}

    @pytest.mark.parametrize("argv, count", [
        ("eps0 --family b --rank 2 --rho-samples -5", -5),
        ("weyl-scan --family a --rank 2 --eps 0.05 --rho-samples -3", -3),
        ("weyl-scan --family b --rank 2 --eps 0.5 --rho 2,1 "
         "--rho-samples -3", -3),
    ], ids=["eps0", "weyl-scan", "weyl-scan-rho"])
    def test_negative_rho_samples(self, argv, count, capsys):
        """A negative --rho-samples scanned the wall pinches alone, with
        exit 0 (eps0 printed 1.0), and weyl-scan with --rho never read
        it; it is a config error naming the flag."""
        code = cli.main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "config error: --rho-samples must be at least 0 and "
            "whole, not %d\n" % count)


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

    def test_tiny_alpha(self, capsys):
        """alpha^2 and the hook product both underflow at alpha = 1e-300,
        which divided zero by zero; the C values still sum to 2^2."""
        code, out = run(["jack-table", "--weight", "2", "--rank", "2",
                         "--alpha", "1e-300"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        at_ones = {row["partition"]: float(row["c_at_ones"]) for row in rows}
        np.testing.assert_allclose(sum(at_ones.values()), 4.0, rtol=1e-15)
        assert at_ones["1+1"] == pytest.approx(2e-300, rel=1e-15)

    def test_size_guard(self, capsys):
        code, _ = run(["jack-table", "--weight", "31", "--rank", "2"],
                      capsys)
        assert code == 2
        code, _ = run(["jack-table", "--weight", "4", "--rank", "7"],
                      capsys)
        assert code == 2


class TestExperimentCommands:
    def test_ratio_ok_without_positive_entries(self):
        """With no positive normalized error there is no ratio to test;
        otherwise the positive ones must lie within a factor of 10."""
        assert cli._ratio_ok([0.0, 0.0])
        assert cli._ratio_ok([0.0, 1.0, 9.0])
        assert not cli._ratio_ok([0.0, 1.0, 10.0])

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

    def test_boundedness_field_alias(self, capsys):
        argv = ["boundedness", "--q", "1", "--p", "3", "--n-lambda", "2",
                "--n-t", "2", "--samples", "4000", "--seed", "3"]
        code, by_name = run(argv + ["--field", "Quaternion"], capsys)
        assert code == 0
        assert by_name == run(argv + ["--field", "h"], capsys)[1]

    def test_boundedness_small(self, capsys):
        code, out = run(["boundedness", "--q", "1", "--p", "3",
                         "--n-lambda", "3", "--n-t", "3",
                         "--samples", "4000"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        summary = json.loads(lines[-1])
        assert summary["all_bounded"] is True
