"""Process set-up shared by run.py and the probes it starts.

Importing this module fixes the BLAS thread count and puts the
checkout's own ``src`` first on the import path, so the benchmark always
measures the sources next to it and never an installed copy.  It must be
imported before numpy.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: the workloads run at most two Python worker threads on
# a two-core machine, and OpenBLAS at its default count oversubscribes it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_source_path():
    """Make ``import hypergeo`` load ROOT/src/hypergeo; exit 2 if it is absent."""
    if not (SRC / "hypergeo" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no hypergeo sources under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def check_source_import(module):
    """Exit 2 unless ``module`` was loaded from the checkout's sources."""
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write("perfbench: hypergeo was imported from %s, not %s\n"
                         % (module.__file__, SRC))
        sys.exit(2)
