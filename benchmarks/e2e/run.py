"""Entry point named by ``BENCHMARK.json``: one workload, one process.

Usage (from the root of a checkout)::

    python3 benchmarks/e2e/run.py --workload solo_chain --seed 0 --seconds 15 --trace 0

Pins BLAS to one thread (the scheduler is single-threaded and the GEMMs are
dim-96, so extra threads only add noise), puts the checkout's ``src/`` first
on the import path, and hands over to :mod:`benchmarks.e2e.worker`.
"""

import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    started = time.perf_counter()
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"{root}: no src/repro here, nothing to benchmark")
    sys.path[0] = str(root)
    sys.path.insert(1, str(root / "src"))
    from benchmarks.e2e.worker import main

    sys.exit(main(sys.argv[1:], time.perf_counter() - started))
