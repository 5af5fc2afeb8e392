"""magrev benchmark: four workloads, an untraced and a traced run.

    python3 perfbench/run.py --workload stream-1s --seed 1 --seconds 20 --trace 0

Run from the repository root; magrev is imported from ``src/`` of the same
checkout, and the run exits with code 2 when it is missing.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Pinned before NumPy loads: ppsp.conv1d_forward reaches OpenBLAS through
# einsum, and with one caller a single BLAS thread keeps timings steadier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    if not (SRC / "magrev" / "__init__.py").is_file():
        print(f"perfbench: no magrev sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import harness

    return harness.main(T_START)


if __name__ == "__main__":
    sys.exit(main())
