"""The benchmark's workloads: their inputs, their jobs and the checks on each
job's output.

Every job calls the package through the module attribute a user would
(``neargroup.solvers.classify``, ``neargroup.cuntz.oracle_check``, ...), so
the tracer's wrappers see it.  ``build(workload, seed)`` is the input
preparation that ``setup_s`` times; it must leave the package's caches
(``solutions._GAUGE_CACHE``) as a fresh CLI process has them.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("m2n_solve", "table_small", "corpus_deep", "smoke")

# table_small: (factors, m, expected num_classes).  The rows of the
# classification table that fit one pass; see README.md for the rows left out.
TABLE_ROWS = [((2,), 2, 1), ((3,), 3, 1), ((4,), 4, 1), ((2,), 4, 0), ((2, 2), 8, 0)]

CORPUS = ("z2_m2", "z3_m3", "z4_m4", "z2z2_m4", "z5_m5", "z2z2z3_m12", "z3_m6")
# Word-oracle rows timed in corpus_deep (alphabets 4, 6 and 8).
ORACLE_ROWS = ("z2_m2", "z3_m3", "z4_m4")
# Out(C) order and isomorphism type of each bundled solution.
OUT_EXPECTED = {"z2_m2": (1, "1"), "z3_m3": (1, "1"), "z4_m4": (1, "1"),
                "z2z2_m4": (1, "1"), "z5_m5": (2, "Z2"),
                "z2z2z3_m12": (2, "Z2"), "z3_m6": (8, "D8")}
OUT_GRID = {"z3_m6": 32}

RESIDUAL_TOL = 1e-10
ORACLE_TOL = 1e-9


@dataclass
class Job:
    name: str
    label: str  # corpus entry for the per-entry trace figures, else ""
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def import_package():
    """Import neargroup, every layer module and so its numerical stack
    (numpy, scipy, sympy), from this checkout's ``src`` and nowhere else."""
    if not (SRC / "neargroup" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import neargroup
    import neargroup.cuntz
    import neargroup.fusion
    import neargroup.io
    import neargroup.solvers
    import neargroup.tuples  # noqa: F401

    if Path(neargroup.__file__).resolve().parent != SRC / "neargroup":
        raise SystemExit(f"perfbench: imported neargroup from {neargroup.__file__}")
    return neargroup


def build(workload: str, seed: int) -> list[Job]:
    if workload == "m2n_solve":
        return _m2n_solve(seed)
    if workload == "table_small":
        return [classify_job(f, m, k, seed) for f, m, k in TABLE_ROWS]
    if workload == "corpus_deep":
        return _corpus_deep(seed)
    if workload == "smoke":
        return [classify_job((2,), 2, 1, seed)] + corpus_entry_jobs(
            *_load_entry("z2_m2"), oracle=True)
    raise SystemExit(f"perfbench: unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# classification jobs


def classify_job(factors, m: int, expected: int, seed: int) -> Job:
    from neargroup import solvers
    from neargroup.abelian import FiniteAbelianGroup

    G = FiniteAbelianGroup(factors)
    config = solvers.SolveConfig(seed=seed)
    name = "x".join(f"Z{f}" for f in factors) + f"/{m}"
    return Job(f"classify {name}", "", lambda: solvers.classify(G, m, config),
               lambda res: check_classification(res, expected))


def check_classification(res, expected: int) -> list[str]:
    from neargroup import solutions

    problems = []
    if res.num_classes != expected:
        problems.append(f"{res.num_classes} classes, expected {expected}")
    n = res.group.order
    if expected == 0 and res.m == 2 * n and not res.certified_empty:
        problems.append("zero count not certified_empty")
    if res.m == n and res.completeness != "COMPLETE":
        problems.append(f"labelled {res.completeness}")
    if res.provenance.get("warnings"):
        problems.append(f"warnings: {res.provenance['warnings']}")
    for cls in res.classes:
        s = cls.solution
        rep = (solutions.residual_mn(s, RESIDUAL_TOL)
               if isinstance(s, solutions.MNSolution)
               else solutions.residual_general(s, RESIDUAL_TOL))
        if not rep.passed:
            problems.append(f"class residual {rep.max_residual:.2e}")
    return problems


# ---------------------------------------------------------------------------
# m = 2n: the Levenberg-Marquardt solve and the gauge-orbit equivalence


def _m2n_solve(seed: int) -> list[Job]:
    import numpy as np

    from neargroup import solutions, solvers
    from neargroup.abelian import FiniteAbelianGroup, GroupAutomorphism
    from neargroup.corpus import z3_m6

    G = FiniteAbelianGroup((3,))
    # The solver keeps the package's default seed: one LM start either
    # converges in ~0.03 s or runs to its evaluation cap in ~4 s, so a few
    # seed-chosen starts would swing the pass time several-fold.  These four
    # starts are three capped runs and one converged one.
    lm_config = solvers.SolveConfig(random_starts=4)

    def solve():
        pairs = solvers.pair_classes(G)
        b, a, _ = pairs[0]
        sols, feas = solvers.solve_m2n(G, b, a, lm_config)
        return len(pairs), sols, feas

    def check_solve(out):
        npairs, sols, feas = out
        problems = []
        if npairs != 2:
            problems.append(f"{npairs} (bicharacter, form) pairs, expected 2")
        kinds = [f.tag.kind for f in feas if f.feasible]
        if kinds != ["I"]:
            problems.append(f"feasible cases {kinds}, expected one Case I")
        if not sols:
            problems.append("no solution found")
        for s in sols:
            rep = solutions.residual_general(s, RESIDUAL_TOL)
            if not rep.passed:
                problems.append(f"solution residual {rep.max_residual:.2e}")
        return problems

    # Points of the Z3, m = 6 family z3_m6(x, y), x^2 + y^2 = sqrt(3)/24, are
    # one gauge orbit; the seed picks where on it each comparison starts.
    radius = math.sqrt(math.sqrt(3) / 24)
    angles = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, size=8)
    pts = [z3_m6(radius * math.cos(t), radius * math.sin(t)) for t in angles]
    negation = GroupAutomorphism(G, ((2,),))
    comparisons = [
        ("equivalent orbit 1", pts[0], pts[1], True),
        ("equivalent orbit 2", pts[2], pts[3], True),
        ("equivalent orbit 3", pts[4], pts[5], True),
        ("equivalent aut", pts[6], solutions.aut_act(negation, pts[7]), True),
        ("equivalent conjugate", pts[0], pts[7].conj(), False),
    ]

    def equivalence_job(name, s1, s2, expected):
        def check(out):
            return [] if out is expected else [f"equivalent -> {out}, expected {expected}"]
        return Job(name, "", lambda: solutions.equivalent(s1, s2), check)

    return [Job("solve_m2n Z3/6", "", solve, check_solve)] + [
        equivalence_job(*c) for c in comparisons]


# ---------------------------------------------------------------------------
# corpus verification and invariants


def _load_entry(name: str):
    from neargroup import io, tuples

    s = io.load_bundled(name)
    return name, s, tuples.to_tuple(s, check=False)


def _corpus_deep(seed: int) -> list[Job]:
    entries = [_load_entry(name) for name in CORPUS]
    random.Random(seed).shuffle(entries)
    jobs = []
    for name, s, t in entries:
        jobs += corpus_entry_jobs(name, s, t, oracle=name in ORACLE_ROWS)
    return jobs


def _passed(rep) -> list[str]:
    return [] if rep.passed else [f"max residual {rep.max_residual:.2e}"]


def corpus_entry_jobs(name: str, s, t, oracle: bool) -> list[Job]:
    """Residuals, admissibility, word oracle, FS indicators and Out(C) of one
    solution; the expected Out(C) comes from ``OUT_EXPECTED``."""
    from neargroup import cuntz, fusion, solutions, tuples

    def residual():
        if isinstance(s, solutions.MNSolution):
            return solutions.residual_mn(s, RESIDUAL_TOL)
        return solutions.residual_general(s, RESIDUAL_TOL)

    def check_out(res):
        want = OUT_EXPECTED[name]
        got = (res.order, res.isomorphism_type)
        return [] if got == want else [f"Out = {got}, expected {want}"]

    jobs = [
        Job(f"{name} residual", name, residual, _passed),
        Job(f"{name} admissible", name,
            lambda: tuples.verify_admissible(t, ORACLE_TOL), _passed),
    ]
    if oracle:
        jobs.append(Job(f"{name} oracle", name,
                        lambda: cuntz.oracle_check(t, ORACLE_TOL), _passed))
    grid = {"grid": OUT_GRID[name]} if name in OUT_GRID else {}
    jobs += [
        Job(f"{name} fs_indicators", name,
            lambda: cuntz.fs_indicators(t, ORACLE_TOL)[1], _passed),
        Job(f"{name} out_group", name, lambda: fusion.out_group(s, **grid),
            check_out),
    ]
    return jobs
