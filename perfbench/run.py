"""Benchmark of hypergeo's Monte-Carlo and series evaluators.

    python3 perfbench/run.py --workload draw-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the sources under ``src`` are imported
as they are, nothing is built.  The run fixes its inputs from ``--seed``,
measures set-up in fresh processes, warms up, and then repeats the
workload's pass of fixed work for about ``--seconds`` seconds, checking
every output.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
passes only.  ``wall_s`` sums each public call's fastest time over the
passes (workloads.py says why); the median pass time is printed as
``pass_s_median``.  With ``--trace 1`` the first half of the time runs
untraced passes and the second half traced ones; the metrics are the
per-layer ones plus the tracing overhead.  Lines before the last one
print every metric with its unit, the workload's own figures, and the
machine facts.  PREDICTIONS.md says which layer should move which
metric on which workload.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env  # must come before numpy: it fixes the BLAS thread count

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("draw-sweep", "column-sweep", "point-grid")
SETUP_RUNS = 5


def _probe(*args):
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                         capture_output=True, text=True, timeout=120,
                         check=True, cwd=env.ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def _blas():
    """Vendor, core type and thread count of numpy's OpenBLAS, if found."""
    import ctypes
    import numpy as np
    facts = {"blas": np.show_config(mode="dicts")["Build Dependencies"]
             ["blas"].get("name")}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                core = getattr(lib, prefix + "get_corename" + suffix, None)
                threads = getattr(lib, prefix + "get_num_threads" + suffix,
                                  None)
                if core is not None and threads is not None:
                    core.restype = ctypes.c_char_p
                    facts["blas_core"] = core().decode()
                    facts["blas_threads"] = int(threads())
                    return facts
    return facts


def machine_facts():
    import numpy as np
    import scipy
    model = flags = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                if key.strip() == "model name" and not model:
                    model = val.strip()
                if key.strip() == "flags" and not flags:
                    flags = val.split()
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": model or platform.processor(),
            "avx512f": "avx512f" in flags,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads_fixed": env.BLAS_THREADS, **_blas()}


def run_passes(run_pass, seconds):
    """Repeat run_pass until the next one would end after ``seconds``."""
    passes, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass())
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return passes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env.add_source_path()
    import hypergeo
    env.check_source_import(hypergeo)
    import tracer
    import workloads

    facts = machine_facts()
    if args.trace:
        facts["exp_after_matmul_s"] = _probe("order", "matmul")
        facts["exp_after_reduction_s"] = _probe("order", "reduction")
        setup_s = None
    else:
        setup_s = statistics.median(
            _probe("setup", args.workload, str(args.seed))
            for _ in range(SETUP_RUNS))

    w = workloads.WORKLOADS[args.workload](args.seed)
    w.warm_up()
    if args.trace:
        passes = run_passes(w.run_pass, args.seconds / 2)
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = run_passes(
                lambda: tr.run_pass(w.run_pass), args.seconds / 2)
        finally:
            tr.uninstall()
        layer = tr.metrics(sum(workloads.best_call_s(passes).values()),
                           sum(workloads.best_call_s(traced).values()))
        units = {name: unit for name, unit, _ in tracer.per_layer_names()}
        metrics = {name: (layer[name], units[name]) for name in units}
        all_passes = passes + traced
    else:
        passes = run_passes(w.run_pass, args.seconds)
        best = workloads.best_call_s(passes)
        metrics = {
            "wall_s": (sum(best.values()), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        all_passes = passes

    checks = workloads.Checks()
    w.check(all_passes, checks)

    print("perfbench %s seed=%d trace=%d passes=%d (%d traced)"
          % (args.workload, args.seed, args.trace, len(all_passes),
             len(all_passes) - len(passes)))
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    if args.trace:
        print("  absent hooks: %s" % (", ".join(tr.absent) or "none"))
    else:
        for name, (value, unit) in w.extras(passes, best).items():
            print("  %-40s %14.6g %s" % (name, value, unit))
    print("  %-40s %14.6g %s  (%d of %d checks failed)"
          % ("fail_rate", checks.failed / checks.attempted, "ratio",
             checks.failed, checks.attempted))
    for what in checks.examples:
        print("  FAILED: " + what)
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
