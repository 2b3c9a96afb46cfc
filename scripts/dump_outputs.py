#!/usr/bin/env python3
"""Print the CLI's ``--json`` answers on the classification table and corpus.

Runs ``neargroup --json classify`` on every row of
``run_classification.TABLE``, then on the m = n rows of ``MATCHING_ROWS``
(Z3xZ3/9 and Z2xZ4/8, whose dedupe compares solutions under 48 and 8
automorphisms, most of which move the form, so the automorphism matching of
the gauge search is compared too), plus any ``--row GROUP M``; then prints the
exact m = 2|G| case analysis of every group in ``CASE_GROUPS``: ``str(f)``
of each ``Feasibility`` of each ``pair_classes`` pair, so the witnesses and
details of the ``cases`` layer are compared too, whatever rows are
classified, each pair followed by its exact eigenspace data ``ctx.eig(k)``,
k = 0, 1, 2: ``dim`` and the terms ``(x.t, x.d)`` of every entry of ``f0``,
``norm_f0`` and ``f0p``; each group's analysis is preceded by
``neargroup --json forms GROUP --all``, every bicharacter's Gram phases and
its even forms' values, so the exact phases that JSON and the CLI print are
compared too, and followed by its subgroup layer: the ``elements`` of
every subgroup of ``subgroups(G)``, in order, and for each ``pair_classes``
pair and each subgroup H the ``elements`` of H's perp and whether H is
isotropic and Lagrangian (``orthogonal_and_lagrangian``).  Then comes
``neargroup --json out`` on every
bundled solution, then the README's fusion commands (``FUSION``), and last
``equivalent(s, t)`` for every ordered pair of bundled solutions, as a
boolean (or ``inconclusive``), so the gauge search is compared too (a pair
of different groups or L is told apart before any search), and for every
ordered pair of ``z3_m6_variants()``: points of the z3_m6 family and moved,
conjugated and perturbed copies, whose searches cross entries on a
1-dimensional gauge algebra and reach both a match and a "distinct" verdict.
Commands run in-process through ``cli.main``, and each answer is preceded
by a ``# <command>`` line.  The output is deterministic, so two checkouts
give the same answers exactly when

    PYTHONPATH=src python3 scripts/dump_outputs.py > before.txt   # checkout 1
    PYTHONPATH=src python3 scripts/dump_outputs.py > after.txt    # checkout 2
    cmp before.txt after.txt

succeeds.  Where a change may move the last bits of floats only,

    python3 scripts/compare_dumps.py before.txt after.txt --rtol 1e-9

checks that every other token is byte-equal and lists each line that
differs.
"""

import argparse
import math
import os
import sys
from importlib import resources
from pathlib import Path

# the package's numpy work is on arrays of a few dozen entries, where a
# second OpenBLAS thread only spins; this must run before numpy is imported
if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_classification import TABLE  # noqa: E402

import numpy as np  # noqa: E402

from neargroup import cli  # noqa: E402
from neargroup.abelian import (  # noqa: E402
    GroupAutomorphism,
    orthogonal_and_lagrangian,
    subgroups,
)
from neargroup.cases import ExactContext, all_case_feasibilities  # noqa: E402
from neargroup.io import load_bundled  # noqa: E402
from neargroup.corpus import z3_m6  # noqa: E402
from neargroup.solutions import (  # noqa: E402
    GeneralSolution,
    aut_act,
    equivalent,
    gauge_act,
    sample_gauge,
)
from neargroup.solvers import pair_classes  # noqa: E402

MATCHING_ROWS = [("Z3xZ3", "9"), ("Z2xZ4", "8")]
CASE_GROUPS = ["Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z12",
               "Z2xZ2", "Z2xZ4", "Z2xZ6", "Z3xZ3", "Z2xZ2xZ2"]
FUSION = [["dequiv", "bundled/z2z2_m4.json", "--subgroup", "1,1"],
          ["equiv", "bundled/z3_m6.json", "--gamma", "D8"],
          ["equiv", "bundled/z5_m5.json", "--aut", "4"],
          ["graph", "Z3", "2"]]


def run(argv: list[str]) -> None:
    print("# " + " ".join(argv))
    code = cli.main(["--json"] + argv)
    if code:
        sys.exit(f"{' '.join(argv)} exited with {code}")


def terms(x):
    """The exact terms of a field element, a list of them, or None."""
    if x is None:
        return None
    if isinstance(x, list):
        return [terms(y) for y in x]
    return (x.t, x.d)


def case_analysis(group: str) -> None:
    """Print every case tag's feasibility for every pair of ``group``, and
    the pair's eigenspace data."""
    G = cli.parse_group(group)
    print(f"# cases {group}")
    for i, (b, a, _) in enumerate(pair_classes(G)):
        ctx = ExactContext(G, b, a, 2 * G.order)
        for f in all_case_feasibilities(G, b, a, ctx=ctx):
            print(f"pair {i}: {f}")
        for k in range(3):
            e = ctx.eig(k)
            print(f"pair {i} eig {k}: dim {e['dim']} f0 {terms(e['f0'])} "
                  f"norm_f0 {terms(e['norm_f0'])} f0p {terms(e['f0p'])}")


def subgroup_layer(group: str) -> None:
    """Print every subgroup of ``group``, then each pair's perp, isotropic
    and Lagrangian answers for every subgroup."""
    G = cli.parse_group(group)
    print(f"# subgroups {group}")
    subs = subgroups(G)
    for j, H in enumerate(subs):
        print(f"subgroup {j}: {H.elements}")
    for i, (b, a, _) in enumerate(pair_classes(G)):
        for j, H in enumerate(subs):
            perp, isotropic, lagrangian = orthogonal_and_lagrangian(G, b, a, H)
            print(f"pair {i} subgroup {j}: perp {perp.elements} "
                  f"isotropic {isotropic} lagrangian {lagrangian}")


def z3_m6_variants() -> dict:
    """Two points of the z3_m6 family (x + iy at angles 0.4 and 2.1 on its
    circle, one gauge orbit) and, of the first, a copy moved by a seeded
    gauge, its image under the negation automorphism, its conjugate (another
    c_t: no theta is kept) and a copy with b perturbed by 1e-2 (the same
    normal form at orbit distance 1e-2: "distinct" after the full grid)."""
    r = math.sqrt(math.sqrt(3) / 24)
    s, t = (z3_m6(x=r * math.cos(a), y=r * math.sin(a)) for a in (0.4, 2.1))
    return {"z3_m6@0.4": s, "z3_m6@2.1": t,
            "gauge": gauge_act(sample_gauge(s.acj, np.random.default_rng(40)), s),
            "negation": aut_act(GroupAutomorphism(s.group, ((2,),)), s),
            "conj": s.conj(),
            "perturbed": GeneralSolution(s.acj, s.btensor + 1e-2)}


def equivalences(sols: dict) -> None:
    """Print ``equivalent(s, t)`` for every ordered pair of the named
    solutions."""
    for a, s in sols.items():
        for b, t in sols.items():
            try:
                answer = equivalent(s, t)
            except ArithmeticError:
                answer = "inconclusive"
            print(f"{a} {b}: {answer}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--row", nargs=2, action="append", default=[],
                    metavar=("GROUP", "M"),
                    help="also classify this row, e.g. --row Z5 10")
    args = ap.parse_args()
    rows = [("x".join(f"Z{f}" for f in factors), str(m)) for factors, m in TABLE]
    for group, m in rows + MATCHING_ROWS + args.row:
        run(["classify", group, m])
    for group in CASE_GROUPS:
        run(["forms", group, "--all"])
        case_analysis(group)
        subgroup_layer(group)
    bundled = resources.files("neargroup") / "bundled"
    names = sorted(p.name for p in bundled.iterdir() if p.name.endswith(".json"))
    for name in names:
        run(["out", f"bundled/{name}"])
    for argv in FUSION:
        run(argv)
    print("# equivalent")
    equivalences({name: load_bundled(name) for name in names})
    equivalences(z3_m6_variants())


if __name__ == "__main__":
    main()
