#!/usr/bin/env python3
"""Reproduce the classification table for small groups.

Covers the m = n quintet, the m = 2n results (including the certified empty
cases), and prints the refutation ledger for the zero-counts.
"""

import argparse
import os
import time

# the package's numpy work is on arrays of a few dozen entries, where a
# second OpenBLAS thread only spins; this must run before numpy is imported
if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from neargroup.abelian import FiniteAbelianGroup  # noqa: E402
from neargroup.solvers import SolveConfig, classify  # noqa: E402

TABLE = [
    ((2,), 2), ((3,), 3), ((4,), 4), ((2, 2), 4), ((5,), 5),
    ((2,), 4), ((3,), 6), ((4,), 8), ((2, 2), 8),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--starts", type=int, default=SolveConfig().random_starts,
                    help="random starts per m = 2n case tag (m = n rows draw none)")
    ap.add_argument("--seed", type=int, default=SolveConfig().seed)
    ap.add_argument("--refutations", action="store_true",
                    help="print the per-case refutation lemmas")
    args = ap.parse_args()
    cfg = SolveConfig(seed=args.seed, random_starts=args.starts)
    for factors, m in TABLE:
        G = FiniteAbelianGroup(factors)
        t0 = time.perf_counter()
        res = classify(G, m, cfg)
        print(res.summary() + f"  ({time.perf_counter()-t0:.1f}s)")
        if args.refutations and res.refutations:
            seen = set()
            for f in res.refutations:
                line = f"    {f.tag}: {f.refuted_by}"
                if line not in seen:
                    seen.add(line)
                    print(line)


if __name__ == "__main__":
    main()
