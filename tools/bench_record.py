"""Record one checkout's benchmark as BENCH_<label>.json.

    python3 tools/bench_record.py --label LABEL [--root CHECKOUT]
        [--output PATH]

Runs the checkout's own benchmark command, as BENCHMARK.json declares it
(perfbench/run.py, unedited), on every declared workload for its
``run_seconds``: five untraced runs at the fixed seeds 1 .. 5, then one
traced run at seed 1.  Every file is recorded the same way, so any two
compare run for run.  It then times, in the same checkout, the tier-1
test command once, and five times each the slowest acceptance checks by
pytest node id and a fixed list of CLI commands (the README examples
and one multi-point eval-bessel-integral command).  The file holds, for
each workload, the median, min and max of every end-to-end metric over
the untraced runs (with the values themselves), the traced run's
per-layer metrics (ms per shard for each (field, q), stream reuse and
the rest), and the check counts of every run; and, once, the
``machine`` line run.py prints, the tier-1 wall time, and the median,
min and max wall time and the exit codes of each timed check and
command.
Two files recorded on one machine, before and after a change, back a
speed claim; the min-max spread shows how far one run moves alone.
The runs are sequential, so nothing else of the record competes for the
cores while one is measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
SEEDS = [1, 2, 3, 4, 5]
RUNS = 5  # timed runs of each slow check and CLI command

SLOW_TESTS = ["tests/test_acceptance.py::test_06_bessel_duality",
              "tests/test_acceptance.py::test_03_rate_in_p",
              "tests/test_acceptance.py::test_07_weyl_polytope_suite"]

# The README's examples, then 3 lambda rows x 3 t rows of the phase
# integral, each point one Monte-Carlo call on the same draws.
CLI = ["eval-bc --field c --q 2 --p 5 --lambda 1+0.5i,0.5 --t 0.8,0.4 "
       "--samples 200000 --seed 1",
       "rate-p --q 1 --lambda 2 --t-grid 0:2:9 --p-list 10,20,40,80,160,320",
       "weyl-scan --family b --rank 3 --eps 1 --rho 2,1.9,0.1",
       "jack-table --weight 3 --rank 2",
       "eval-bessel-integral --field r --q 2 --p 3 --lambda 1,0.5,2,1,0.5,0.25"
       " --t 0.9,0.4,0.6,0.3,1.2,0.2 --samples 100000 --seed 1"]


def _run_bench(root, command, workload, seed, seconds, trace):
    """The last-line JSON object and the machine facts of one run."""
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    machine = next(json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine "))
    return json.loads(lines[-1]), machine


def _spread(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "values": values}


def record_workload(root, command, workload, seeds, seconds):
    runs = [_run_bench(root, command, workload, seed, seconds, 0)[0]
            for seed in seeds]
    traced, machine = _run_bench(root, command, workload, seeds[0], seconds,
                                 1)
    end_to_end = {
        name: dict(unit=metric["unit"], **_spread(
            [run["metrics"][name]["value"] for run in runs]))
        for name, metric in runs[0]["metrics"].items()}
    checks = [{"seed": seed, "attempted": run["attempted"],
               "failed": run["failed"]} for seed, run in zip(seeds, runs)]
    checks.append({"seed": seeds[0], "trace": 1,
                   "attempted": traced["attempted"],
                   "failed": traced["failed"]})
    per_layer = {name: metric["value"]
                 for name, metric in traced["metrics"].items()}
    return {"end_to_end": end_to_end, "per_layer": per_layer,
            "checks": checks}, machine


def _env(root):
    """The environment that runs the checkout's own package."""
    src = str(Path(root) / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def record_timed(root, argv):
    """Median, min and max wall time of RUNS runs of one command in the
    checkout, with each run's exit code (weyl-scan's example exits 4)."""
    times, codes = [], []
    for _ in range(RUNS):
        start = time.perf_counter()
        out = subprocess.run([sys.executable] + argv, cwd=root,
                             env=_env(root), capture_output=True)
        times.append(time.perf_counter() - start)
        codes.append(out.returncode)
    return dict(_spread(times), exit_codes=codes)


def record_tier1(root):
    """Wall time and pytest's summary line of the tier-1 command."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable] + TIER1, cwd=root, env=_env(root),
                         capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = out.stdout.splitlines()
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1),
            "wall_s": wall, "exit_code": out.returncode,
            "summary": lines[-1] if lines else ""}


def _commit(root):
    """HEAD of the checkout, and whether its tracked files differ; a
    ValueError holds git's message if a git call fails, as it does
    outside a git work tree, whose empty output would read as clean."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True)
        if proc.returncode:
            raise ValueError(proc.stderr.strip())
        return proc.stdout.strip()
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                    type=Path, help="checkout to measure (default: this one)")
    ap.add_argument("--output", type=Path,
                    help="default: BENCH_<label>.json in the current directory")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    try:
        commit = _commit(root)
    except ValueError as exc:
        ap.error("--root %s has no git commit to record: %s" % (root, exc))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = {}
    machine = None
    for workload in bench["workloads"]:
        name = workload["name"]
        print("recording %s ..." % name, file=sys.stderr, flush=True)
        workloads[name], machine = record_workload(
            root, bench["command"], name, SEEDS, seconds)
    print("timing tier-1, slow checks and CLI ...", file=sys.stderr,
          flush=True)
    out = {"label": args.label, **commit, "seconds": seconds,
           "seeds": SEEDS, "traced_seed": SEEDS[0], "machine": machine,
           "workloads": workloads, "tier1": record_tier1(root),
           "slow_tests": {node: record_timed(root, ["-m", "pytest", "-q",
                                                    node])
                          for node in SLOW_TESTS},
           "cli": {cmd: record_timed(root, ["-m", "hypergeo.cli"]
                                     + cmd.split()) for cmd in CLI}}
    path = args.output or Path("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path, file=sys.stderr)


if __name__ == "__main__":
    main()
