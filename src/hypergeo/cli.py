"""Command-line interface.

Evaluation subcommands emit one record per (lambda, t) pair as JSONL or
CSV; experiment subcommands emit CSV rows plus a one-line JSON summary.
Output is deterministic for a given configuration: floats print with 17
significant digits, JSON keys are sorted, and nothing timestamps.

Exit codes: 0 success, 2 configuration problems (including sample or
worker counts below 1), 3 domain errors (a named precondition failed or
an estimate is not finite), 4 a declared acceptance predicate failed.

Record fields for the Monte-Carlo evaluators are value, stderr, and
samples; for the Bessel series the same slots carry the tail bound as
stderr, the truncation degree as samples, and convergence as pass.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import weyl
from .algebra import field_dim, normalize_field
from .bessel import (_c_scale, _jack_tables, bessel_phi_tilde, jack_C,
                     partitions_of_weight)
from .experiments import (boundedness_sweep, contraction_experiment,
                          moment_decay_experiment, rate_p_experiment)
from .hyper_bc import (c_function, eval_phi_bc, eval_phi_bc_degenerate,
                       eval_ho_polynomial, multiplicity_bc)
from .spherical_a import eval_psi


class _ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


def _fmt(x):
    return "%.17g" % float(x)


def _fmt_complex(z):
    z = complex(z)
    return "%.17g%+.17gi" % (z.real, z.imag)


def _parse_complex(s):
    try:
        return complex(str(s).strip().replace("i", "j"))
    except ValueError:
        raise _ConfigError("cannot parse complex number %r" % (s,))


def _parse_reals(s):
    """A comma list of reals, or a start:stop:count grid."""
    s = str(s).strip()
    try:
        if ":" in s:
            start, stop, count = s.split(":")
            return np.linspace(float(start), float(stop), int(count))
        return np.array([float(x) for x in s.split(",")])
    except (ValueError, TypeError):
        raise _ConfigError("cannot parse value list %r" % (s,))


def _chunk(values, q, label):
    values = np.asarray(values)
    if values.size == 0 or values.size % q != 0:
        raise _ConfigError(
            "%s has %d entries, not a multiple of q=%d"
            % (label, values.size, q))
    return values.reshape(-1, q)


def _parse_complex_list(s, q, label):
    vals = [_parse_complex(x) for x in str(s).split(",")]
    return _chunk(np.array(vals), q, label)


def _field_of(args):
    try:
        return normalize_field(args.field)
    except ValueError as exc:
        raise _ConfigError(str(exc))


def _seed_of(args):
    if args.seed is not None:
        return int(args.seed)
    return int(os.environ.get("HYPERGEO_SEED", "0"))


def _open_out(path):
    return open(path, "w", newline="") if path else sys.stdout


def _close_out(handle):
    if handle is not sys.stdout:
        handle.close()


def _write_records(args, records):
    """Emit evaluation records as JSONL (default) or CSV.

    Every record is serialized first, so a non-finite value is a domain
    error before anything is written, whatever the format.
    """
    lines = [json.dumps(rec, sort_keys=True, allow_nan=False) + "\n"
             for rec in records]
    out = _open_out(args.output)
    try:
        if args.format == "jsonl":
            out.writelines(lines)
        else:
            cols = ["command", "field", "q", "p", "lambda", "t",
                    "value", "stderr", "samples", "seed", "pass"]
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(cols)
            for rec in records:
                inp = rec["inputs"]
                writer.writerow([
                    rec["command"], inp.get("field", ""), inp["q"],
                    inp.get("p", ""), inp.get("lambda", ""),
                    ",".join(_fmt(x) for x in inp.get("t", [])),
                    _fmt_complex(complex(rec["value_re"], rec["value_im"])),
                    _fmt(rec["stderr"]), rec["samples"], rec["seed"],
                    rec["pass"]])
    finally:
        _close_out(out)


def _eval_record(command, inputs, seed, value, stderr, samples, ok):
    value = complex(value)
    return {"command": command, "inputs": inputs,
            "value_re": value.real, "value_im": value.imag,
            "stderr": float(stderr), "samples": int(samples),
            "seed": int(seed), "pass": bool(ok)}


def _cmd_eval(args):
    field = _field_of(args)
    q = args.q
    seed = _seed_of(args)
    lam_rows = _parse_complex_list(args.lam, q, "lambda")
    t_arg = getattr(args, "t", None)
    t_rows = _chunk(_parse_reals(t_arg), q, "t") if t_arg is not None \
        else [None]
    records = []
    for lam in lam_rows:
        for t in t_rows:
            inputs = {"field": field, "q": q,
                      "lambda": ",".join(_fmt_complex(z) for z in lam)}
            if t is not None:
                inputs["t"] = [float(x) for x in t]
            if args.command == "eval-bc":
                inputs["p"] = args.p
                est = eval_phi_bc(field, args.p, lam, t,
                                  samples=args.samples, seed=seed,
                                  workers=args.workers)
                rec = _eval_record(args.command, inputs, seed, est.value,
                                   est.stderr, est.samples, True)
            elif args.command == "eval-bc-degenerate":
                est = eval_phi_bc_degenerate(field, q, lam, t,
                                             samples=args.samples, seed=seed,
                                             workers=args.workers)
                rec = _eval_record(args.command, inputs, seed, est.value,
                                   est.stderr, est.samples, True)
            elif args.command == "eval-a":
                est = eval_psi(field, lam, t, samples=args.samples,
                               seed=seed, workers=args.workers)
                rec = _eval_record(args.command, inputs, seed, est.value,
                                   est.stderr, est.samples, True)
            elif args.command == "eval-bessel-series":
                inputs["p"] = args.p
                res = bessel_phi_tilde(field, args.p, lam, t, mode="series",
                                       max_degree=args.max_degree,
                                       rel_tol=args.rel_tol)
                rec = _eval_record(args.command, inputs, seed, res.value,
                                   res.tail_bound, res.truncation_degree,
                                   res.converged)
            elif args.command == "eval-bessel-integral":
                inputs["p"] = args.p
                est = bessel_phi_tilde(field, args.p, lam, t,
                                       mode="integral",
                                       samples=args.samples, seed=seed,
                                       workers=args.workers)
                rec = _eval_record(args.command, inputs, seed, est.value,
                                   est.stderr, est.samples, True)
            else:
                inputs["p"] = args.p
                k = multiplicity_bc(args.p, field_dim(field), q)
                val = c_function(lam, k, q)
                rec = _eval_record(args.command, inputs, seed, val,
                                   0.0, 0, True)
            records.append(rec)
    _write_records(args, records)
    return 0


def _cmd_eval_ho(args):
    field = _field_of(args)
    q = args.q
    seed = _seed_of(args)
    try:
        mu = [int(x) for x in str(args.mu).split(",")]
    except ValueError:
        raise _ConfigError("cannot parse mu %r" % (args.mu,))
    if len(mu) != q:
        raise _ConfigError("mu has %d entries, expected q=%d" % (len(mu), q))
    records = []
    for t in _chunk(_parse_reals(args.t), q, "t"):
        est = eval_ho_polynomial(field, args.p, mu, t, samples=args.samples,
                                 seed=seed, workers=args.workers)
        inputs = {"field": field, "q": q, "p": args.p,
                  "lambda": ",".join(_fmt_complex(m) for m in mu),
                  "t": [float(x) for x in t]}
        records.append(_eval_record("eval-ho-poly", inputs, seed, est.value,
                                    est.stderr, est.samples, True))
    _write_records(args, records)
    return 0


def _emit_experiment(args, rows, cols, summary):
    text = json.dumps(summary, sort_keys=True, allow_nan=False)
    out = _open_out(args.output)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow(row)
    finally:
        _close_out(out)
    if args.output:
        with open(args.output + ".summary.json", "w") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _ratio_ok(normalized):
    pos = [x for x in normalized if x > 0.0]
    if not pos:
        return True
    return max(pos) / min(pos) < 10.0


def _finish(checks):
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print("acceptance predicate failed: %s" % ", ".join(sorted(failed)),
              file=sys.stderr)
        return 4
    return 0


def _rate_rows(report):
    return [[_fmt(p), _fmt(e), _fmt(s), _fmt(c)]
            for p, e, s, c in zip(report.params, report.errors,
                                  report.stderrs, report.normalized)]


def _rate_summary(report, checks):
    return {"slope": report.slope, "slope_halfwidth": report.slope_halfwidth,
            "scale": report.scale, "normalized_max": max(report.normalized),
            "unbounded_regime": report.unbounded_regime,
            "pass": all(checks.values())}


def _cmd_rate_p(args):
    field = _field_of(args)
    seed = _seed_of(args)
    lam = _parse_complex_list(args.lam, args.q, "lambda")[0]
    t_grid = _chunk(_parse_reals(args.t_grid), args.q, "t-grid")
    p_list = [float(x) for x in _parse_reals(args.p_list)]
    report = rate_p_experiment(field, args.q, lam, t_grid, p_list,
                               samples=args.samples, seed=seed,
                               workers=args.workers)
    checks = {"slope<=-0.45": report.slope <= -0.45 + report.slope_halfwidth,
              "normalized-ratio<10": _ratio_ok(report.normalized)}
    _emit_experiment(args, _rate_rows(report),
                     ["p", "error", "stderr", "normalized"],
                     _rate_summary(report, checks))
    return _finish(checks)


def _cmd_contraction(args):
    field = _field_of(args)
    seed = _seed_of(args)
    lam = _parse_reals(args.lam)
    t = _parse_reals(args.t)
    n_list = [int(x) for x in str(args.n_list).split(",")]
    report = contraction_experiment(field, args.q, args.p, lam, t, n_list,
                                    samples=args.samples, seed=seed,
                                    workers=args.workers)
    checks = {"slope<=-0.8": report.slope <= -0.8 + report.slope_halfwidth,
              "normalized-ratio<10": _ratio_ok(report.normalized)}
    _emit_experiment(args, _rate_rows(report),
                     ["n", "error", "stderr", "normalized"],
                     _rate_summary(report, checks))
    return _finish(checks)


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
               "out_of_hull_max": report.out_of_hull_max,
               "pass": all(checks.values())}
    _emit_experiment(args, rows,
                     ["lambda", "t", "value", "stderr", "bounded",
                      "positive"], summary)
    return _finish(checks)


def _cmd_moment_decay(args):
    field = _field_of(args)
    seed = _seed_of(args)
    p_list = [float(x) for x in _parse_reals(args.p_list)]
    report = moment_decay_experiment(field, args.q, args.n, p_list,
                                     samples=args.samples, seed=seed,
                                     workers=args.workers)
    bound = -0.9 * args.n
    checks = {"slope<=%.2g" % bound:
              report.slope <= bound + report.slope_halfwidth}
    _emit_experiment(args, _rate_rows(report),
                     ["p", "value", "stderr", "normalized"],
                     _rate_summary(report, checks))
    return _finish(checks)


def _weyl_spec(args):
    try:
        return weyl.RootSystemSpec(args.family, args.rank)
    except ValueError as exc:
        raise _ConfigError(str(exc))


def _cmd_weyl_scan(args):
    spec = _weyl_spec(args)
    if args.rho is not None:
        rhos = [np.asarray(_parse_reals(args.rho), float)]
    else:
        gen = np.random.default_rng(408122)
        rhos = weyl._unit_rho_samples(spec, args.rho_samples, gen)
    rows = []
    witness = None
    violations = 0
    for rho in rhos:
        poly = weyl.OrbitPolytope(spec, rho)
        for v in weyl.polytope_vertices_K(poly):
            ok = weyl.prop65_check(poly, args.eps, v)
            if not ok:
                violations += 1
                if witness is None:
                    witness = (rho, v)
            rows.append([spec.family, spec.rank,
                         ",".join(_fmt(x) for x in rho), _fmt(args.eps),
                         ",".join(_fmt(x) for x in v), ok])
    summary = {"family": spec.family, "rank": spec.rank, "eps": args.eps,
               "violations": violations, "pass": violations == 0}
    if witness is not None:
        summary["witness_rho"] = [float(x) for x in witness[0]]
        summary["witness_vertex"] = [float(x) for x in witness[1]]
    _emit_experiment(args, rows,
                     ["family", "rank", "rho", "eps", "witness", "pass"],
                     summary)
    return _finish({"no-violations": violations == 0})


def _cmd_eps0(args):
    spec = _weyl_spec(args)
    value = weyl.eps0_estimate(spec, rho_samples=args.rho_samples,
                               resolution=args.resolution)
    text = json.dumps({"family": spec.family, "rank": spec.rank,
                       "eps0": value}, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def _cmd_jack_table(args):
    if args.weight > 30 or args.weight < 0:
        raise _ConfigError("weight must lie in 0..30")
    if args.rank > 6 or args.rank < 1:
        raise _ConfigError("rank must lie in 1..6")
    alpha = float(args.alpha)
    if alpha <= 0:
        raise _ConfigError("alpha must be positive")
    ones = np.ones(args.rank)
    rows = []
    for lam in partitions_of_weight(args.weight, args.rank):
        scale = _c_scale(lam, alpha) if lam else 1.0
        at_ones = jack_C(lam, alpha, ones)
        table = _jack_tables(args.weight, alpha, args.rank)[lam] if lam \
            else {(): 1.0}
        for mu in sorted(table, reverse=True):
            rows.append(["+".join(str(x) for x in lam),
                         "+".join(str(x) for x in mu),
                         _fmt(scale * table[mu]), _fmt(alpha),
                         _fmt(at_ones)])
    out = _open_out(args.output)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["partition", "monomial", "coefficient", "alpha",
                         "c_at_ones"])
        for row in rows:
            writer.writerow(row)
    finally:
        _close_out(out)
    return 0


def _add_common(sub, t_required=True):
    sub.add_argument("--field", default="r",
                     help="scalar field: r, c, or h (default r)")
    sub.add_argument("--q", type=int, required=True, help="rank q")
    sub.add_argument("--lambda", dest="lam", required=True,
                     help="comma list of complex a+bi, chunked by q")
    if t_required:
        sub.add_argument("--t", required=True,
                         help="comma list or start:stop:count grid, "
                              "chunked by q")
    sub.add_argument("--samples", type=int, default=100000)
    sub.add_argument("--seed", type=int, default=None,
                     help="falls back to HYPERGEO_SEED, then 0")
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sub.add_argument("--output", default=None, help="file path; stdout "
                                                    "when omitted")


def _add_experiment_common(sub):
    sub.add_argument("--samples", type=int, default=100000)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--output", default=None,
                     help="CSV path; the JSON summary goes to "
                          "<path>.summary.json (stdout when omitted)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypergeo",
        description="Evaluators and experiments for matrix-argument "
                    "hypergeometric functions.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("eval-bc", "eval-bessel-series", "eval-bessel-integral",
                 "c-function"):
        sub = subs.add_parser(name)
        _add_common(sub, t_required=(name != "c-function"))
        sub.add_argument("--p", type=float, required=True)
        if name == "eval-bessel-series":
            sub.add_argument("--max-degree", type=int, default=30)
            sub.add_argument("--rel-tol", type=float, default=1e-12)
        sub.set_defaults(func=_cmd_eval)
    sub = subs.add_parser("eval-bc-degenerate")
    _add_common(sub)
    sub.set_defaults(func=_cmd_eval)
    sub = subs.add_parser("eval-a")
    _add_common(sub)
    sub.set_defaults(func=_cmd_eval)

    sub = subs.add_parser("eval-ho-poly")
    sub.add_argument("--field", default="r")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--mu", required=True,
                     help="comma list of even integers, length q")
    sub.add_argument("--t", required=True)
    sub.add_argument("--samples", type=int, default=100000)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sub.add_argument("--output", default=None)
    sub.set_defaults(func=_cmd_eval_ho)

    sub = subs.add_parser("rate-p")
    sub.add_argument("--field", default="r")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--lambda", dest="lam", required=True)
    sub.add_argument("--t-grid", required=True)
    sub.add_argument("--p-list", required=True)
    _add_experiment_common(sub)
    sub.set_defaults(func=_cmd_rate_p)

    sub = subs.add_parser("contraction")
    sub.add_argument("--field", default="r")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--lambda", dest="lam", required=True,
                     help="real vector of length q")
    sub.add_argument("--t", required=True)
    sub.add_argument("--n-list", required=True)
    _add_experiment_common(sub)
    sub.set_defaults(func=_cmd_contraction)

    sub = subs.add_parser("boundedness")
    sub.add_argument("--field", default="r")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--n-lambda", type=int, default=12)
    sub.add_argument("--n-t", type=int, default=7)
    _add_experiment_common(sub)
    sub.set_defaults(func=_cmd_boundedness)

    sub = subs.add_parser("moment-decay")
    sub.add_argument("--field", default="r")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--n", type=int, required=True,
                     help="moment exponent n")
    sub.add_argument("--p-list", required=True)
    _add_experiment_common(sub)
    sub.set_defaults(func=_cmd_moment_decay)

    sub = subs.add_parser("weyl-scan")
    sub.add_argument("--family", required=True)
    sub.add_argument("--rank", type=int, required=True)
    sub.add_argument("--eps", type=float, required=True)
    sub.add_argument("--rho", default=None,
                     help="scan one chamber point instead of sampling")
    sub.add_argument("--rho-samples", type=int, default=20)
    sub.add_argument("--output", default=None)
    sub.set_defaults(func=_cmd_weyl_scan)

    sub = subs.add_parser("eps0")
    sub.add_argument("--family", required=True)
    sub.add_argument("--rank", type=int, required=True)
    sub.add_argument("--rho-samples", type=int, default=40)
    sub.add_argument("--resolution", type=float, default=1e-3)
    sub.add_argument("--output", default=None)
    sub.set_defaults(func=_cmd_eps0)

    sub = subs.add_parser("jack-table")
    sub.add_argument("--weight", type=int, required=True)
    sub.add_argument("--rank", type=int, required=True)
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--output", default=None)
    sub.set_defaults(func=_cmd_jack_table)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        for name in ("samples", "workers"):
            if getattr(args, name, 1) < 1:
                raise _ConfigError("--%s must be at least 1" % (name,))
        return int(args.func(args) or 0)
    except _ConfigError as exc:
        print("config error: %s" % (exc,), file=sys.stderr)
        return 2
    except ValueError as exc:
        print("domain error: %s" % (exc,), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
