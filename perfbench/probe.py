"""Measurements that need a fresh process; run.py starts one per probe.

    python3 perfbench/probe.py setup <workload> <seed>
        seconds to import hypergeo and run the workload's warm-up calls.
    python3 perfbench/probe.py order <matmul|reduction>
        seconds of one 8192 x 256 complex np.exp, right after the BLAS
        matmul that made its argument, or with a numpy reduction between.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import env  # noqa: E402  (fixes the BLAS threads before numpy loads)


def setup(workload, seed):
    env.add_source_path()
    import hypergeo
    env.check_source_import(hypergeo)
    import workloads
    workloads.WORKLOADS[workload](int(seed)).warm_up()
    return time.perf_counter() - T0


def order(between):
    import numpy as np
    rng = np.random.default_rng(0)
    dlog = rng.standard_normal((8192, 2))
    nu = 0.1 * (rng.standard_normal((2, 256))
                + 1j * rng.standard_normal((2, 256)))
    z = dlog @ nu
    if between == "reduction":
        z.real.sum()
    t0 = time.perf_counter()
    np.exp(z)
    return time.perf_counter() - t0


if __name__ == "__main__":
    kind, *rest = sys.argv[1:]
    print(repr({"setup": setup, "order": order}[kind](*rest)))
