"""Benchmark of the hittime CLI; see perfbench/README.md for the metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kraus-sweep --seed 1 --seconds 25 --trace 0

Prints a detail record (provenance, all end-to-end metrics with sample
counts, known defects) and, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits nonzero
without a result when the checkout holds no ``src/hittime``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kraus-sweep", "query-fanout", "classical-chain")
# One BLAS thread: multi-threaded BLAS start-up costs more than these
# matrices take (0.156 s against 0.004 s for a first n = 8 solve), and the
# machine's other tenants make extra threads noisy.
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hittime", "cli.py")):
        print(f"error: no hittime sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # Before numpy is first imported, by harness below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness

    detail, result = harness.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), ROOT)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
