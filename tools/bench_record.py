"""Record one checkout's benchmark as BENCH_<label>.json.

    python3 tools/bench_record.py --label LABEL [--root CHECKOUT]
        [--output PATH]

Runs the checkout's own benchmark command, as BENCHMARK.json declares it
(perfbench/run.py, unedited), on every declared workload for its
``run_seconds``: five untraced runs at the fixed seeds 1 .. 5, then one
traced run at seed 1.  Every file is recorded the same way, so any two
compare run for run.  It then times the tier-1 test command in the same
checkout.  The file holds, for each workload, the median, min and max
of every end-to-end metric over the untraced runs (with the values
themselves), the traced run's per-layer metrics (ms per shard for each
(field, q), stream reuse and the rest), and the check counts of every
run; and, once, the ``machine`` line run.py prints and the tier-1 wall
time.
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


def record_tier1(root):
    """Wall time and pytest's summary line of the tier-1 command."""
    src = str(Path(root) / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    out = subprocess.run([sys.executable] + TIER1, cwd=root, env=env,
                         capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = out.stdout.splitlines()
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1),
            "wall_s": wall, "exit_code": out.returncode,
            "summary": lines[-1] if lines else ""}


def _commit(root):
    """HEAD of the checkout, and whether its tracked files differ."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True).stdout.strip()
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
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = {}
    machine = None
    for workload in bench["workloads"]:
        name = workload["name"]
        print("recording %s ..." % name, file=sys.stderr, flush=True)
        workloads[name], machine = record_workload(
            root, bench["command"], name, SEEDS, seconds)
    print("timing tier-1 ...", file=sys.stderr, flush=True)
    out = {"label": args.label, **_commit(root), "seconds": seconds,
           "seeds": SEEDS, "traced_seed": SEEDS[0], "machine": machine,
           "workloads": workloads, "tier1": record_tier1(root)}
    path = args.output or Path("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path, file=sys.stderr)


if __name__ == "__main__":
    main()
