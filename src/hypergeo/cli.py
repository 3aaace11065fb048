"""Command-line interface.

Evaluation subcommands emit one record per (lambda, t) pair as JSONL or
CSV; experiment subcommands emit CSV rows plus a one-line JSON summary.
Output is deterministic for a given configuration: floats print with 17
significant digits, JSON keys are sorted, and nothing timestamps.

Exit codes: 0 success, 2 configuration problems (including a count such
as --q, --n-t, --max-degree or an --n-list entry below 1, a --samples
below 2 or a --rho-samples below 0, a --p, --eps or --rel-tol or an entry of
--lambda, --t, --t-grid, --p-list or --rho that is not finite, a
--rel-tol that is not positive, or a --rho, --rank, --resolution or
--alpha that weyl-scan, eps0 or jack-table rejects), 3 domain errors (a
named precondition failed, such as a --t or --t-grid row outside the
chamber t1 >= ... >= tq >= 0 for any evaluator or experiment, an input
overflows or leaves the c-function no 10 correct digits, or an estimate
is not finite), 4 a declared acceptance predicate failed.

Record fields for the Monte-Carlo evaluators are value, stderr, and
samples; for the Bessel series the same slots carry the tail bound as
stderr, the truncation degree as samples, and convergence as pass.
c-function and eval-bessel-series draw nothing, so they take no
--samples, --seed or --workers, and their records carry seed 0.
"""

import argparse
import cmath
import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

from . import experiments, sampling, weyl
from .algebra import _check_count, field_dim, normalize_field
from .bessel import _shell, bessel_phi_tilde
from .experiments import (boundedness_sweep, contraction_experiment,
                          moment_decay_experiment, rate_p_experiment)
from .hyper_bc import (c_function, eval_phi_bc, eval_ho_polynomial,
                       eval_psi, multiplicity_bc)


class _ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


@contextlib.contextmanager
def _config_errors(prefix=""):
    """Report a ValueError raised inside as a configuration error.  The
    argument its message names first is written as its flag: the prefix,
    then the name with hyphens for underscores."""
    try:
        yield
    except ValueError as exc:
        name, space, rest = str(exc).partition(" ")
        raise _ConfigError(prefix + name.replace("_", "-") + space + rest)


def _finite(x):
    """x, if finite: no writer prints NaN or Infinity."""
    if not cmath.isfinite(x):
        raise ValueError("cannot write the non-finite value %r" % (x,))
    return x


def _fmt(x):
    return "%.17g" % _finite(float(x))


def _fmt_complex(z):
    z = _finite(complex(z))
    return "%.17g%+.17gi" % (z.real, z.imag)


def _complex(text):
    """A complex number written a+bi; only a trailing i is the imaginary
    unit, so inf and 1+infi parse."""
    text = text.strip()
    return complex(text[:-1] + "j" if text.endswith("i") else text)


def _parse_list(s, flag, entry=float):
    """The finite entries of flag, a comma list; reals may also be given
    as a start:stop:count grid.  A NaN entry would pass every range
    check, since it compares false."""
    s = str(s).strip()
    try:
        if entry is float and ":" in s:
            start, stop, count = s.split(":")
            values = np.linspace(float(start), float(stop), int(count))
        else:
            values = np.array([entry(x) for x in s.split(",")])
    except (ValueError, TypeError):
        raise _ConfigError("cannot parse %s %r" % (flag, s))
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise _ConfigError("%s must be finite, not %r" % (flag, bad[0].item()))
    return values


def _chunk(values, q, label):
    values = np.asarray(values)
    if values.size == 0 or values.size % q != 0:
        raise _ConfigError(
            "%s has %d entries, not a multiple of q=%d"
            % (label, values.size, q))
    return values.reshape(-1, q)


def _field_of(args):
    with _config_errors():
        return normalize_field(args.field)


def _seed_of(args):
    """--seed, else HYPERGEO_SEED, else 0; a nonnegative integer."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        source = "HYPERGEO_SEED"
        text = os.environ.get(source, "0")
        try:
            seed = int(text)
        except ValueError:
            raise _ConfigError("%s must be an integer, not %r"
                               % (source, text))
    if seed < 0:
        raise _ConfigError("%s must be nonnegative, not %d" % (source, seed))
    return seed


def _vector(values, q, label):
    """values, if there are exactly q of them."""
    if len(values) != q:
        raise _ConfigError("%s has %d entries, expected q=%d"
                           % (label, len(values), q))
    return values


def _increasing(values, flag):
    """values, if they strictly increase."""
    with _config_errors():
        return experiments._increasing(values, flag)


def _json_line(obj):
    """obj as one sorted JSON line; a non-finite float is a ValueError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(cols, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(rows)
    return buf.getvalue()


def _write(path, text):
    """text to the file at path, or to stdout when path is empty."""
    if path:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _mc(est):
    return est.value, est.stderr, est.samples, True


def _series(a, field, lam, t):
    """The Bessel series record at one (lambda, t) pair."""
    res = bessel_phi_tilde(field, a.p, lam, t, mode="series",
                           max_degree=a.max_degree, rel_tol=a.rel_tol)
    return res.value, res.tail_bound, res.truncation_degree, res.converged


# Each evaluator maps (args, field, lambda row, t row, seed) to the
# record's (value, stderr, samples, pass).
_EVALUATORS = {
    "eval-bc": lambda a, field, lam, t, seed: _mc(eval_phi_bc(
        field, a.p, lam, t, samples=a.samples, seed=seed,
        workers=a.workers)),
    "eval-bc-degenerate": lambda a, field, lam, t, seed: _mc(eval_phi_bc(
        field, 2 * a.q - 1, lam, t, samples=a.samples, seed=seed,
        workers=a.workers)),
    "eval-a": lambda a, field, lam, t, seed: _mc(eval_psi(
        field, lam, t, samples=a.samples, seed=seed, workers=a.workers)),
    "eval-bessel-series": lambda a, field, lam, t, seed: _series(
        a, field, lam, t),
    "eval-bessel-integral": lambda a, field, lam, t, seed: _mc(
        bessel_phi_tilde(field, a.p, lam, t, mode="integral",
                         samples=a.samples, seed=seed, workers=a.workers)),
    "eval-ho-poly": lambda a, field, lam, t, seed: _mc(eval_ho_polynomial(
        field, a.p, lam, t, samples=a.samples, seed=seed,
        workers=a.workers)),
    "c-function": lambda a, field, lam, t, seed: (c_function(
        lam, multiplicity_bc(a.p, field_dim(field), a.q), a.q), 0.0, 0, True),
}

# What overflows in a subcommand, with the flag its message names beside
# --lambda; main reports an OverflowError there as a domain error naming
# both flags as typed.
_OVERFLOWS = {"c-function": ("the c-function's Gamma product", "p"),
              "eval-a": ("psi", "t"),
              "eval-bessel-series": ("the Bessel series", "t"),
              "rate-p": ("phi or psi", "t-grid"),
              "contraction": ("phi or the Bessel series", "t")}

_RECORD_COLUMNS = ["command", "field", "q", "p", "lambda", "t", "value",
                   "stderr", "samples", "seed", "pass"]


def _cmd_eval(args):
    """One record per (lambda, t) pair of the cross product."""
    field = _field_of(args)
    q = args.q
    seed = _seed_of(args) if hasattr(args, "seed") else 0
    if hasattr(args, "mu"):
        lam_rows = [_vector(_parse_list(args.mu, "--mu", int), q, "mu")]
    else:
        lam_rows = _chunk(_parse_list(args.lam, "--lambda", _complex), q,
                          "lambda")
    t_rows = _chunk(_parse_list(args.t, "--t"), q, "t") if hasattr(args, "t") \
        else [None]
    evaluate = _EVALUATORS[args.command]
    records = []
    for lam in lam_rows:
        for t in t_rows:
            inputs = {"field": field, "q": q,
                      "lambda": ",".join(_fmt_complex(z) for z in lam)}
            if hasattr(args, "p"):
                inputs["p"] = args.p
            if t is not None:
                inputs["t"] = [float(x) for x in t]
            value, stderr, samples, ok = evaluate(args, field, lam, t, seed)
            value = complex(value)
            records.append({"command": args.command, "inputs": inputs,
                            "value_re": value.real, "value_im": value.imag,
                            "stderr": float(stderr), "samples": int(samples),
                            "seed": int(seed), "pass": bool(ok)})
    # Serializing every record first makes a non-finite value a domain
    # error before anything is written, whatever the format.
    lines = [_json_line(rec) for rec in records]
    if args.format == "jsonl":
        _write(args.output, "".join(lines))
        return 0
    rows = []
    for rec in records:
        inp = rec["inputs"]
        rows.append([rec["command"], inp["field"], inp["q"],
                     inp.get("p", ""), inp["lambda"],
                     ",".join(_fmt(x) for x in inp.get("t", [])),
                     _fmt_complex(complex(rec["value_re"], rec["value_im"])),
                     _fmt(rec["stderr"]), rec["samples"], rec["seed"],
                     rec["pass"]])
    _write(args.output, _csv_text(_RECORD_COLUMNS, rows))
    return 0


# Why a summary field can be non-finite when every estimate is finite.
_NON_FINITE_CAUSE = {
    "slope": " because an error is 0: a log-log fit needs every error "
             "positive",
    "slope_halfwidth": " because the jackknife band needs 2 Monte-Carlo "
                       "shards, so --samples above %d, and 2 finite "
                       "leave-one-out slopes" % sampling.SHARD_SIZE,
}


def _emit_experiment(args, cols, rows, summary, checks):
    """Write the CSV rows and the JSON summary line; 4 if a check failed.

    The summary's pass field is the conjunction of checks.  A non-finite
    summary field is a domain error that names the field; nothing is
    written then.
    """
    summary["pass"] = all(checks.values())
    for key in sorted(summary):
        value = summary[key]
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError("summary field %s is %r%s"
                             % (key, value, _NON_FINITE_CAUSE.get(key, "")))
    line = _json_line(summary)
    _write(args.output, _csv_text(cols, rows))
    _write(args.output and args.output + ".summary.json", line)
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print("acceptance predicate failed: %s" % ", ".join(sorted(failed)),
              file=sys.stderr)
        return 4
    return 0


def _ratio_ok(normalized):
    pos = [x for x in normalized if x > 0.0]
    if not pos:
        return True
    return max(pos) / min(pos) < 10.0


def _emit_rate(args, cols, report, checks):
    rows = [[_fmt(x) for x in row]
            for row in zip(report.params, report.errors, report.stderrs,
                           report.normalized)]
    summary = {"slope": report.slope,
               "slope_halfwidth": report.slope_halfwidth,
               "scale": report.scale, "normalized_max": max(report.normalized),
               "unbounded_regime": report.unbounded_regime}
    return _emit_experiment(args, cols, rows, summary, checks)


def _cmd_rate_p(args):
    field = _field_of(args)
    seed = _seed_of(args)
    lam = _vector(_parse_list(args.lam, "--lambda", _complex), args.q,
                  "lambda")
    t_grid = _chunk(_parse_list(args.t_grid, "--t-grid"), args.q, "t-grid")
    p_list = _increasing(_parse_list(args.p_list, "--p-list"), "--p-list")
    report = rate_p_experiment(field, args.q, lam, t_grid, p_list,
                               samples=args.samples, seed=seed,
                               workers=args.workers)
    checks = {"slope<=-0.45": report.slope <= -0.45 + report.slope_halfwidth,
              "normalized-ratio<10": _ratio_ok(report.normalized)}
    return _emit_rate(args, ["p", "error", "stderr", "normalized"], report,
                      checks)


def _cmd_contraction(args):
    field = _field_of(args)
    seed = _seed_of(args)
    lam = _vector(_parse_list(args.lam, "--lambda"), args.q, "lambda")
    t = _vector(_parse_list(args.t, "--t"), args.q, "t")
    with _config_errors():
        n_list = experiments._increasing(_check_count(
            "--n-list", _parse_list(args.n_list, "--n-list", int)),
            "--n-list")
    report = contraction_experiment(field, args.q, args.p, lam, t, n_list,
                                    samples=args.samples, seed=seed,
                                    workers=args.workers)
    checks = {"slope<=-0.8": report.slope <= -0.8 + report.slope_halfwidth,
              "normalized-ratio<10": _ratio_ok(report.normalized)}
    return _emit_rate(args, ["n", "error", "stderr", "normalized"], report,
                      checks)


def _cmd_moment_decay(args):
    field = _field_of(args)
    seed = _seed_of(args)
    p_list = _increasing(_parse_list(args.p_list, "--p-list"), "--p-list")
    report = moment_decay_experiment(field, args.q, args.n, p_list,
                                     samples=args.samples, seed=seed,
                                     workers=args.workers)
    bound = -0.9 * args.n
    checks = {"slope<=%.2g" % bound:
              report.slope <= bound + report.slope_halfwidth}
    return _emit_rate(args, ["p", "value", "stderr", "normalized"], report,
                      checks)


def _cmd_boundedness(args):
    field = _field_of(args)
    seed = _seed_of(args)
    report = boundedness_sweep(field, args.q, args.p,
                               n_lambda=args.n_lambda, n_t=args.n_t,
                               samples=args.samples, seed=seed,
                               workers=args.workers)
    rows = [[",".join(_fmt_complex(z) for z in row["lam"]),
             ",".join(_fmt(x) for x in row["t"]),
             _fmt_complex(row["value"]), _fmt(row["stderr"]),
             row["bounded"],
             "" if row["positive"] is None else row["positive"]]
            for row in report.rows]
    checks = {"bounded": report.all_bounded,
              "positive": report.all_positive,
              "out-of-hull-exceeds-1": report.out_of_hull_exceeds}
    summary = {"all_bounded": report.all_bounded,
               "all_positive": report.all_positive,
               "out_of_hull_max": report.out_of_hull_max}
    return _emit_experiment(args, ["lambda", "t", "value", "stderr",
                                   "bounded", "positive"], rows, summary,
                            checks)


# The weyl module names the bad argument first in its ValueError
# messages, and each argument has the flag of the same name.
def _cmd_weyl_scan(args):
    with _config_errors("--"):
        spec = weyl.RootSystemSpec(args.family, args.rank)
        weyl.check_vertex_rank(spec)  # before 2^rank wall pinches are built
        _check_count("rho_samples", args.rho_samples, least=0)
        if args.rho is not None:
            rhos = [_parse_list(args.rho, "--rho")]
        else:
            rhos = weyl._unit_rho_samples(spec, args.rho_samples)
        polys = [weyl.OrbitPolytope(spec, rho) for rho in rhos]
        vertices = [weyl.polytope_vertices_K(poly) for poly in polys]
    rows = []
    witness = None
    for poly, verts in zip(polys, vertices):
        for v in verts:
            ok = weyl.prop65_check(poly, args.eps, v)
            if not ok and witness is None:
                witness = (poly.rho, v)
            rows.append([spec.family, spec.rank,
                         ",".join(_fmt(x) for x in poly.rho), _fmt(args.eps),
                         ",".join(_fmt(x) for x in v), ok])
    violations = sum(not row[-1] for row in rows)
    summary = {"family": spec.family, "rank": spec.rank, "eps": args.eps,
               "violations": violations}
    if witness is not None:
        summary["witness_rho"] = [float(x) for x in witness[0]]
        summary["witness_vertex"] = [float(x) for x in witness[1]]
    return _emit_experiment(args, ["family", "rank", "rho", "eps", "witness",
                                   "pass"], rows, summary,
                            {"no-violations": violations == 0})


def _cmd_eps0(args):
    with _config_errors("--"):
        spec = weyl.RootSystemSpec(args.family, args.rank)
        value = weyl.eps0_estimate(spec, rho_samples=args.rho_samples,
                                   resolution=args.resolution)
    _write(args.output, _json_line({"family": spec.family,
                                    "rank": spec.rank, "eps0": value}))
    return 0


def _cmd_jack_table(args):
    if args.weight > 30 or args.weight < 0:
        raise _ConfigError("weight must lie in 0..30")
    if args.rank > 6 or args.rank < 1:
        raise _ConfigError("rank must lie in 1..6")
    alpha = float(args.alpha)
    if not (np.isfinite(alpha) and alpha > 0):
        raise _ConfigError("alpha must be positive and finite, not %r"
                           % alpha)
    try:
        shell = _shell(args.weight, alpha, args.rank)
    except OverflowError:
        raise ValueError("--alpha %r overflows the Jack coefficients of "
                         "weight %d" % (alpha, args.weight))
    name = ["+".join(str(x) for x in lam) for lam in shell.parts]
    alpha_text = _fmt(alpha)
    at_ones = [_fmt(x) for x in shell.at_ones]
    rows_i, cols_j = np.nonzero(shell.support)
    rows = [[name[i], name[j], _fmt(c), alpha_text, at_ones[i]]
            for i, j, c in zip(rows_i.tolist(), cols_j.tolist(),
                               shell.coeffs[shell.support].tolist())]
    _write(args.output, _csv_text(["partition", "monomial", "coefficient",
                                   "alpha", "c_at_ones"], rows))
    return 0


# Each flag's argparse keywords.  A COUNT must be at least 1 and a REAL
# finite, which main checks for every subcommand.
_FLAGS = {
    "--field": dict(default="r",
                    help="scalar field: r, c, or h (default r)"),
    "--q": dict(type=int, required=True, metavar="COUNT", help="rank q"),
    "--p": dict(type=float, required=True, metavar="REAL"),
    "--lambda": dict(dest="lam", required=True,
                     help="comma list of complex a+bi, chunked by q"),
    "--t": dict(required=True,
                help="comma list or start:stop:count grid, chunked by q"),
    "--mu": dict(required=True, help="comma list of even integers, length q"),
    "--samples": dict(type=int, default=100000, metavar="COUNT"),
    "--seed": dict(type=int, default=None,
                   help="falls back to HYPERGEO_SEED, then 0"),
    "--workers": dict(type=int, default=1, metavar="COUNT"),
    "--format": dict(choices=("jsonl", "csv"), default="jsonl"),
    "--output": dict(default=None,
                     help="file path, stdout when omitted; an experiment's "
                          "JSON summary goes to <path>.summary.json"),
    "--max-degree": dict(type=int, default=30, metavar="COUNT"),
    "--rel-tol": dict(type=float, default=1e-12, metavar="REAL"),
    "--t-grid": dict(required=True),
    "--p-list": dict(required=True),
    "--n-list": dict(required=True),
    "--n-lambda": dict(type=int, default=12, metavar="COUNT"),
    "--n-t": dict(type=int, default=7, metavar="COUNT"),
    "--n": dict(type=int, required=True, metavar="COUNT",
                help="moment exponent n"),
    "--family": dict(required=True),
    "--rank": dict(type=int, required=True),
    "--eps": dict(type=float, required=True, metavar="REAL"),
    "--rho": dict(default=None,
                  help="scan one chamber point instead of sampling"),
    "--rho-samples": dict(type=int, default=40),
    "--resolution": dict(type=float, default=1e-3),
    "--weight": dict(type=int, required=True),
    "--alpha": dict(type=float, default=1.0),
}

_EVAL = ("--field", "--q", "--lambda", "--t", "--samples", "--seed",
         "--workers", "--format", "--output")
_EXPERIMENT = ("--samples", "--seed", "--workers", "--output")

# Each subcommand's runner and flags, in help order.
_COMMANDS = {
    "eval-bc": (_cmd_eval, _EVAL + ("--p",)),
    "eval-bessel-series": (_cmd_eval, ("--field", "--q", "--lambda", "--t",
                                       "--format", "--output", "--p",
                                       "--max-degree", "--rel-tol")),
    "eval-bessel-integral": (_cmd_eval, _EVAL + ("--p",)),
    "c-function": (_cmd_eval, ("--field", "--q", "--lambda", "--format",
                               "--output", "--p")),
    "eval-bc-degenerate": (_cmd_eval, _EVAL),
    "eval-a": (_cmd_eval, _EVAL),
    "eval-ho-poly": (_cmd_eval, ("--field", "--q", "--p", "--mu", "--t",
                                 "--samples", "--seed", "--workers",
                                 "--format", "--output")),
    "rate-p": (_cmd_rate_p, ("--field", "--q", "--lambda", "--t-grid",
                             "--p-list") + _EXPERIMENT),
    "contraction": (_cmd_contraction, ("--field", "--q", "--p", "--lambda",
                                       "--t", "--n-list") + _EXPERIMENT),
    "boundedness": (_cmd_boundedness, ("--field", "--q", "--p", "--n-lambda",
                                       "--n-t") + _EXPERIMENT),
    "moment-decay": (_cmd_moment_decay, ("--field", "--q", "--n",
                                         "--p-list") + _EXPERIMENT),
    "weyl-scan": (_cmd_weyl_scan, ("--family", "--rank", "--eps", "--rho",
                                   "--rho-samples", "--output")),
    "eps0": (_cmd_eps0, ("--family", "--rank", "--rho-samples",
                         "--resolution", "--output")),
    "jack-table": (_cmd_jack_table, ("--weight", "--rank", "--alpha",
                                     "--output")),
}

# Defaults that differ from the flag table's.
_OWN_DEFAULTS = {"weyl-scan": {"rho_samples": 20}}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypergeo",
        description="Evaluators and experiments for matrix-argument "
                    "hypergeometric functions.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (run, flags) in _COMMANDS.items():
        sub = subs.add_parser(name)
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(func=run, **_OWN_DEFAULTS.get(name, {}))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        for flag, spec in _FLAGS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is None:
                continue
            least = 2 if flag == "--samples" else 1  # one draw, no stderr
            if spec.get("metavar") == "COUNT" and value < least:
                raise _ConfigError("%s must be at least %d" % (flag, least))
            if spec.get("metavar") == "REAL" and not np.isfinite(value):
                raise _ConfigError("%s must be finite, not %r" % (flag, value))
            if flag == "--rel-tol" and not value > 0:
                raise _ConfigError("--rel-tol must be positive, not %r"
                                   % (value,))
        return int(args.func(args) or 0)
    except _ConfigError as exc:
        print("config error: %s" % (exc,), file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        message = str(exc)
        if isinstance(exc, OverflowError) and args.command in _OVERFLOWS:
            what, flag = _OVERFLOWS[args.command]
            message = "%s overflows at --lambda %s and --%s %s" % (
                what, args.lam, flag, getattr(args, flag.replace("-", "_")))
        print("domain error: %s" % message, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
