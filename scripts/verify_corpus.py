#!/usr/bin/env python3
"""Run the full verification stack on the bundled corpus.

For every bundled solution: the residual system, the admissible-tuple
equations, and (for alphabets up to the configured bound) the Cuntz word
oracle.  Prints one line per solution per layer.
"""

import argparse
import os
import time

# the package's numpy work is on arrays of a few dozen entries, where a
# second OpenBLAS thread only spins; this must run before numpy is imported
if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from neargroup.config import Config  # noqa: E402
from neargroup.corpus import corpus_all  # noqa: E402
from neargroup.cuntz import fs_indicators, oracle_check  # noqa: E402
from neargroup.solutions import residual  # noqa: E402
from neargroup.tuples import to_tuple, verify_admissible  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-alphabet", type=int, default=10,
                    help="run the word oracle up to this alphabet size")
    ap.add_argument("--tolerance", type=float, default=Config().tolerance)
    ap.add_argument("--oracle-tolerance", type=float, default=Config().oracle_tolerance)
    args = ap.parse_args()

    failures = 0
    for name, s in corpus_all().items():
        rep = residual(s, args.tolerance)
        print(f"{name:12s} residuals  max={rep.max_residual:.2e} "
              f"{'pass' if rep.passed else 'FAIL'}")
        failures += not rep.passed
        t = to_tuple(s, check=False)
        t0 = time.perf_counter()
        rep = verify_admissible(t, args.oracle_tolerance)
        print(f"{name:12s} admissible max={rep.max_residual:.2e} "
              f"{'pass' if rep.passed else 'FAIL'} ({time.perf_counter()-t0:.3f}s)")
        failures += not rep.passed
        if t.alphabet <= args.max_alphabet:
            t0 = time.perf_counter()
            rep = oracle_check(t, args.oracle_tolerance)
            print(f"{name:12s} oracle     max={rep.max_residual:.2e} "
                  f"{'pass' if rep.passed else 'FAIL'} ({time.perf_counter()-t0:.3f}s)")
            failures += not rep.passed
        (nu21, nu31, nu41), rep = fs_indicators(t, args.oracle_tolerance)
        print(f"{name:12s} indicators nu21={nu21.real:+.0f} nu31={nu31:.4f} "
              f"checks {'pass' if rep.passed else 'FAIL'}")
        failures += not rep.passed
    print("corpus:", "all layers pass" if failures == 0 else f"{failures} FAILURES")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
