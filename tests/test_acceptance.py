"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run standalone with  pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import time

import numpy as np
import pytest

from neargroup.abelian import (
    Bicharacter,
    FiniteAbelianGroup,
    GroupAutomorphism,
    Phase,
    QuadraticForm,
    automorphisms,
    enumerate_bicharacters,
    enumerate_quadratic_forms,
    even_quadratic_forms,
    fourier,
    lagrangian_subgroups,
    reflection,
    subgroup_generated_by,
)
from neargroup.corpus import corpus_all, z2z2z3_m12, z3_m6
from neargroup.cuntz import CuntzElement, fs_indicators, normalize_residual, oracle_check
from neargroup.fusion import (
    d8_rep_data,
    dequiv_fusion,
    dequiv_twisted,
    equiv_fusion,
    find_near_group_subring,
    near_group_ring,
    out_group,
    principal_graph,
)
from neargroup.solutions import (
    aut_act,
    dimension_d,
    fs_nu31_from_data,
    gauge_act,
    gauge_group_basis,
    residual,
    residual_general,
)
from neargroup.solvers import SolveConfig, classify
from neargroup.spectral import ZETA3, conjugation, cube_root_scalars, rotation
from neargroup.tuples import (
    build_extraspecial_tuple,
    build_z2_m1_tuple,
    to_tuple,
    verify_admissible,
)

CFG = SolveConfig(random_starts=40)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# -----------------------------------------------------------------------------
def test_criterion_1_verification_corpus():
    """Bundled solutions pass solutions.residual < 1e-10, < 1s each."""
    worst = 0.0
    for name, s in corpus_all().items():
        t0 = time.time()
        rep = residual(s, 1e-10)
        dt = time.time() - t0
        assert rep.passed, f"{name}:\n{rep}"
        assert dt < 1.0, f"{name} took {dt:.2f}s"
        worst = max(worst, rep.max_residual)
    _report("criterion 1 (verification corpus)", True,
            f"7 solutions, worst residual {worst:.2e}")


def test_criterion_2_cross_system_oracle(corpus_tuples):
    """verify_admissible and the Cuntz oracle pass at 1e-9 for every corpus
    solution with alphabet <= 10; total runtime < 15 s."""
    t0 = time.time()
    checked = []
    for name, t in corpus_tuples.items():
        rep_t = verify_admissible(t, tolerance=1e-9)
        assert rep_t.passed, f"{name} admissible:\n{rep_t}"
        if t.alphabet <= 10:
            rep_o = oracle_check(t, tolerance=1e-9)
            assert rep_o.passed, f"{name} oracle:\n{rep_o}"
            checked.append((name, t.alphabet))
    dt = time.time() - t0
    assert dt < 15.0, f"oracle suite took {dt:.1f}s"
    assert max(a for _, a in checked) == 10  # (Z5, m=5)
    _report("criterion 2 (cross-system oracle)", True,
            f"oracles on {checked} in {dt:.1f}s")


def test_criterion_3_classification_counts():
    """classify reproduces the classification counts; the m=2n zero-counts are
    certified by the exact case-feasibility lemmas."""
    t0 = time.time()
    expected = {((2,), 2): 1, ((3,), 3): 1, ((4,), 4): 1, ((2, 2), 4): 1,
                ((5,), 5): 1, ((3,), 6): 2, ((2,), 4): 0, ((4,), 8): 0,
                ((2, 2), 8): 0}
    lines = []
    for (factors, m), want in expected.items():
        G = FiniteAbelianGroup(factors)
        t1 = time.time()
        res = classify(G, m, CFG)
        dt = time.time() - t1
        assert dt < 30.0, f"classify({G},{m}) took {dt:.0f}s"
        assert res.num_classes == want, f"classify({G},{m}) = {res.num_classes}, want {want}"
        if want == 0:
            assert res.certified_empty, f"({G},{m}) empty but not certified"
        lines.append(f"{G} m={m}: {res.num_classes}")
    _report("criterion 3 (classification counts)", True,
            "; ".join(lines) + f" [total {time.time()-t0:.0f}s]")


def test_criterion_4_gauge_aut_invariance(rng):
    """Residual pass status unchanged under 10^3 random gauge elements and all
    automorphisms, drift < 1e-12, for every corpus solution."""
    from scipy.linalg import expm

    for name, s in corpus_all().items():
        base = residual_general(s)
        assert base.passed
        algebra, comps = gauge_group_basis(s.acj)
        worst_drift = 0.0
        for _ in range(1000):
            X = (sum(rng.normal() * Xb for Xb in algebra)
                 if algebra else np.zeros((s.L, s.L)))
            u = comps[rng.integers(len(comps))] @ (expm(X) if algebra else np.eye(s.L))
            moved = gauge_act(u, s, check=False)
            rep = residual_general(moved)
            worst_drift = max(worst_drift, abs(
                max(v for k, v in rep.per_equation.items() if k != "p10")
                - max(v for k, v in base.per_equation.items() if k != "p10")))
            assert rep.passed
        for th in automorphisms(s.group):
            rep = residual_general(aut_act(th, s))
            assert rep.passed, f"{name} under {th.images}"
        assert worst_drift < 1e-12, f"{name}: drift {worst_drift:.2e}"
    _report("criterion 4 (gauge/automorphism invariance)", True,
            "10^3 gauge elements x 7 solutions, drift < 1e-12")


def test_criterion_5_fs_indicators(corpus_tuples):
    """nu21 = +-1 for D8/Q8; nu31 separates the three Z2 m=1 tuples; trace vs
    word nu31 agree < 1e-9 on the corpus."""
    (nu21_d, _, _), rep_d = fs_indicators(build_extraspecial_tuple(1, "D", 1.0))
    (nu21_q, _, _), rep_q = fs_indicators(build_extraspecial_tuple(1, "Q", 1.0))
    assert nu21_d == 1 and nu21_q == -1 and rep_d.passed and rep_q.passed
    vals = []
    for zeta in (1.0, ZETA3, ZETA3**2):
        (_, nu31, _), rep = fs_indicators(build_z2_m1_tuple(zeta))
        assert rep.passed
        vals.append(complex(np.round(nu31, 9)))
        assert abs(nu31**3 - 1) < 1e-9  # cube-root-related values
    assert len(set(vals)) == 3
    worst = 0.0
    for name, t in corpus_tuples.items():
        (_, nu31, _), rep = fs_indicators(t)
        worst = max(worst, rep.per_equation["nu31_trace_vs_word"])
        assert rep.per_equation["nu31_trace_vs_word"] < 1e-9, name
    _report("criterion 5 (FS indicators)", True,
            f"D8/Q8 signs, 3 distinct cube roots, trace-vs-word <= {worst:.1e}")


def test_criterion_6_fusion_layer():
    """d^2 = n + m d on all rings; graph norms; Out groups."""
    for name, s in corpus_all().items():
        ring = near_group_ring(s.group, s.m)
        d = ring.dimension_of(("rho",))
        assert abs(d * d - (s.n + s.m * d)) < 1e-12, name
        l = s.m // s.n
        gr = principal_graph(s.group, l)
        dd = dimension_d(s.n, s.m).value
        assert abs(gr.norm_squared() - (1 + l * dd)) < 1e-9, name
    cor = corpus_all()
    assert out_group(cor["z5_m5"]).order == 2
    assert out_group(cor["z5_m5"]).isomorphism_type == "Z2"
    for nm in ("z2_m2", "z3_m3", "z4_m4"):
        assert out_group(cor[nm]).order == 1, nm
    res = out_group(cor["z3_m6"], grid=120)
    assert res.order == 8 and res.isomorphism_type == "D8"
    _report("criterion 6 (fusion layer)", True,
            "d^2 = n + m d, |Gamma|^2 = 1 + l d, Out: Z2 / trivial^3 / D8")


def test_criterion_7_de_equivariantization():
    """Lagrangians, Haagerup pattern, twisted round trip, equivariantization."""
    t0 = time.time()
    Z33 = FiniteAbelianGroup((3, 3))
    b33 = Bicharacter(Z33, ((Phase(1, 3), Phase(0)), (Phase(0), Phase(2, 3))))
    a33 = QuadraticForm(b33, tuple(Phase((g[0]**2 - g[1]**2) % 3, 3) for g in Z33))
    lags = lagrangian_subgroups(Z33, b33, a33)
    assert len(lags) == 2
    for H in lags:
        t1 = time.time()
        ring = dequiv_fusion(Z33, b33, a33, H)
        s0 = ring.index[("sigma", (0, 0))]
        unit = ring.index[ring.unit_label()]
        row = ring.N[s0, s0]
        sig = [ring.index[l] for l in ring.labels if l[0] == "sigma"]
        assert row[unit] == 1 and all(row[i] == 1 for i in sig)
        assert time.time() - t1 < 5.0

    s12 = z2z2z3_m12()
    H = subgroup_generated_by(s12.group, [(1, 0, 0), (0, 1, 0)])
    two = {
        ((0, 0), (0, 0)): 1, ((0, 0), (1, 0)): 1, ((0, 0), (0, 1)): 1, ((0, 0), (1, 1)): 1,
        ((1, 0), (0, 0)): 1, ((1, 0), (1, 0)): 1, ((1, 0), (0, 1)): 1j, ((1, 0), (1, 1)): -1j,
        ((0, 1), (0, 0)): 1, ((0, 1), (1, 0)): -1j, ((0, 1), (0, 1)): 1, ((0, 1), (1, 1)): 1j,
        ((1, 1), (0, 0)): 1, ((1, 1), (1, 0)): 1j, ((1, 1), (0, 1)): -1j, ((1, 1), (1, 1)): 1,
    }
    omega = {((h[0], h[1], 0), (k[0], k[1], 0)): v for (h, k), v in two.items()}
    t1 = time.time()
    ring = dequiv_twisted(s12.group, s12.bichar, s12.form, H, omega)
    assert ring.isomorphic_to(near_group_ring(FiniteAbelianGroup((3,)), 6))
    assert time.time() - t1 < 5.0

    t1 = time.time()
    ring = equiv_fusion(FiniteAbelianGroup((3,)), 6, d8_rep_data())
    sub = find_near_group_subring(ring)
    assert sub is not None
    assert sub.isomorphic_to(near_group_ring(FiniteAbelianGroup((2, 2, 3)), 12))
    assert time.time() - t1 < 5.0
    _report("criterion 7 (de-/equivariantization)", True,
            f"2 lagrangians, Haagerup rules, twisted -> K(Z3,6), "
            f"equiv contains K(Z2xZ2xZ3,12) [{time.time()-t0:.1f}s]")


def test_criterion_8a_abelian_exhaustive():
    """Exhaustive bicharacter/form identities for every |G| <= 12."""
    families = [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4),
                (2, 2, 2), (9,), (3, 3), (10,), (11,), (12,), (2, 6)]
    for factors in families:
        G = FiniteAbelianGroup(factors)
        for b in enumerate_bicharacters(G):
            els = G.elements()
            for g in els:
                for h in els:
                    assert b.phase(g, h) == b.phase(h, g)
            for g in els[:4]:
                for gp in els[:4]:
                    for h in els:
                        assert b.phase(G.add(g, gp), h) == b.phase(g, h) * b.phase(gp, h)
            forms = enumerate_quadratic_forms(b)
            assert len(forms) == G.order
            for a in forms:
                for g in els:
                    for h in els:
                        assert (a.phase(G.add(g, h)) * b.phase(g, h)
                                == a.phase(g) * a.phase(h))
            for a in forms:
                if a.is_even():
                    assert all(a.phase(G.neg(g)) == a.phase(g) for g in els)
            if b.is_nondegenerate():
                for a in forms:
                    if a.is_even():
                        assert abs(abs(a.gauss_sum()) - 1) < 1e-10
    _report("criterion 8a (abelian exhaustive |G| <= 12)", True,
            f"{len(families)} groups")


def test_criterion_8b_spectral_all_pairs():
    """R^3 = I and J R J^{-1} = R^2 over all (b, a) pairs for |G| <= 8."""
    families = [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)]
    count = 0
    for factors in families:
        G = FiniteAbelianGroup(factors)
        for b in enumerate_bicharacters(G, nondegenerate_only=True):
            for a in even_quadratic_forms(b):
                c = cube_root_scalars(a)[0]
                R = rotation(b, a, c)
                J = conjugation(a)
                assert R.is_cube_root_of_identity(tol=1e-12)
                JRJ = J.matrix @ np.conj(R.matrix) @ np.conj(J.matrix)
                assert np.linalg.norm(JRJ - R.matrix @ R.matrix) < 1e-12
                count += 1
    _report("criterion 8b (spectral identities |G| <= 8)", True,
            f"{count} (bicharacter, form) pairs")


def test_criterion_8c_cuntz_laws(rng):
    """Engine algebra laws on 10^4 random bounded elements."""
    N = 4
    els = []
    for _ in range(10**4):
        mu = tuple(rng.integers(0, N, size=rng.integers(0, 3)))
        nu = tuple(rng.integers(0, N, size=rng.integers(0, 3)))
        els.append(CuntzElement.word(N, mu, nu, complex(rng.normal(), rng.normal())))
    worst = 0.0
    for i in range(0, len(els) - 2, 3):
        x, y, z = els[i], els[i + 1], els[i + 2]
        worst = max(worst, normalize_residual((x * y) * z - x * (y * z)))
        worst = max(worst, normalize_residual(
            (x * y).adjoint() - y.adjoint() * x.adjoint()))
    assert worst < 1e-12
    _report("criterion 8c (cuntz engine laws)", True,
            f"10^4 random elements, worst residual {worst:.1e}")
