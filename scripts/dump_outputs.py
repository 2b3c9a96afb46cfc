#!/usr/bin/env python3
"""Print the CLI's ``--json`` answers on the classification table and corpus.

Runs ``neargroup --json classify`` on every row of
``run_classification.TABLE`` (plus any ``--row GROUP M``), then
``neargroup --json out`` on every bundled solution, in-process through
``cli.main``.  Each answer is preceded by a ``# <command>`` line.  The output
is deterministic, so two checkouts give the same answers exactly when

    PYTHONPATH=src python3 scripts/dump_outputs.py > before.txt   # checkout 1
    PYTHONPATH=src python3 scripts/dump_outputs.py > after.txt    # checkout 2
    cmp before.txt after.txt

succeeds.
"""

import argparse
import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_classification import TABLE  # noqa: E402

from neargroup import cli  # noqa: E402


def run(argv: list[str]) -> None:
    print("# " + " ".join(argv))
    code = cli.main(["--json"] + argv)
    if code:
        sys.exit(f"{' '.join(argv)} exited with {code}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--row", nargs=2, action="append", default=[],
                    metavar=("GROUP", "M"),
                    help="also classify this row, e.g. --row Z5 10")
    args = ap.parse_args()
    rows = [("x".join(f"Z{f}" for f in factors), str(m)) for factors, m in TABLE]
    for group, m in rows + args.row:
        run(["classify", group, m])
    bundled = resources.files("neargroup") / "bundled"
    for name in sorted(p.name for p in bundled.iterdir() if p.name.endswith(".json")):
        run(["out", f"bundled/{name}"])


if __name__ == "__main__":
    main()
