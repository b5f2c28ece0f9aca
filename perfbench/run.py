"""Benchmark of the lrvga filters: three workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``lrvga`` from ``src/``.
The workloads, the reference clock and the tracing are described in
perfbench/README.md. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics, with ``--trace 1`` one with
the per-layer metrics. Details and spans are written to perfbench/out/.
"""

from __future__ import annotations

import os
import sys

# Thread pins for this process only, set before numpy loads OpenBLAS.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="linear-d100, linear-d100k or nonlinear-cli")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC_DIR / "lrvga" / "__init__.py").is_file():
        print(f"error: no lrvga sources under {SRC_DIR}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import workloads  # loads numpy, scipy and lrvga

    if args.workload not in workloads.CONFIGS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.CONFIGS)}", file=sys.stderr)
        return 2
    return workloads.run(args, THREAD_PINS)


if __name__ == "__main__":
    sys.exit(main())
