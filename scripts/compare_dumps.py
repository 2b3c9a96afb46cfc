#!/usr/bin/env python3
"""Compare two outputs of ``dump_outputs.py`` up to the last bits of floats.

    python3 scripts/compare_dumps.py before.txt after.txt --rtol 1e-9

Every line is split into float tokens (a number with a decimal point or an
exponent, not part of a word) and the text between them.  Two lines match
when their texts are byte-equal, integers included, and each pair of floats
lies within the tolerance: |a - b| <= rtol * max(1, |a|, |b|), relative for
values above 1 and absolute below, so that residuals near 1e-16 may move.
Every line that differs is listed under the last ``# <command>`` line above
it: with its float moves when only floats moved, or with both texts from
the first difference.  Exits 0 when every difference is a float move
within the tolerance, 1 otherwise.
"""

import argparse
import re
import sys

FLOAT = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?"
                   r"|\d+[eE][-+]?\d+)(?![\w.])")


def split(line: str) -> tuple[list[str], list[float]]:
    """The texts around the float tokens of ``line``, and the floats."""
    return FLOAT.split(line), [float(x) for x in FLOAT.findall(line)]


def compare(before: list[str], after: list[str], rtol: float) -> tuple[list[str], bool]:
    """The report lines for every differing line, and whether all of the
    differences are float moves within ``rtol``."""
    report, ok, section = [], True, ""
    if len(before) != len(after):
        report.append(f"line counts differ: {len(before)} against {len(after)}")
        ok = False
    for i, (old, new) in enumerate(zip(before, after), 1):
        if old.startswith("# "):
            section = old.rstrip("\n")
        if old == new:
            continue
        (text_a, xs), (text_b, ys) = split(old), split(new)
        if text_a != text_b:
            ok = False
            at = next((j for j, (p, q) in enumerate(zip(old, new)) if p != q),
                      min(len(old), len(new)))
            report.append(f"line {i} ({section}): text differs at column {at + 1}:\n"
                          f"  - {old[max(0, at - 40):at + 80].rstrip()}\n"
                          f"  + {new[max(0, at - 40):at + 80].rstrip()}")
            continue
        moves = [(x, y) for x, y in zip(xs, ys) if x != y]
        worst = max(abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in moves)
        within = worst <= rtol
        ok = ok and within
        report.append(f"line {i} ({section}): {len(moves)} float(s) moved, largest scaled "
                      f"move {worst:.2e} {'within' if within else 'BEYOND'} rtol")
        report += [f"    {x!r} -> {y!r}" for x, y in moves]
    return report, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--rtol", type=float, required=True,
                    help="largest |a - b| / max(1, |a|, |b|) of a float move")
    args = ap.parse_args()
    with open(args.before) as f:
        before = f.readlines()
    with open(args.after) as f:
        after = f.readlines()
    report, ok = compare(before, after, args.rtol)
    print("\n".join(report) if report else "identical")
    print("only float moves within rtol" if ok else "DIFFERENT")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
