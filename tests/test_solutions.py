import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import neargroup
from neargroup.abelian import (
    FiniteAbelianGroup,
    GroupAutomorphism,
    automorphisms,
    enumerate_bicharacters,
    enumerate_quadratic_forms,
)
from neargroup.cases import CaseTag
from neargroup.corpus import corpus_mn, z2_m2, z3_m6, z5_m5
from neargroup.solutions import (
    GeneralSolution,
    MNSolution,
    LM_LAMBDA0,
    LM_LAMBDA_MAX,
    QuadraticIrrational,
    _batched_lm,
    _gauge_stack,
    _refine_gauges,
    aut_act,
    dimension_d,
    equivalent,
    fingerprint,
    _expm_ah,
    gauge_act,
    gauge_group_basis,
    gauge_orbit_search,
    in_gauge_group,
    mn_to_general,
    residual_general,
    residual_mn,
    sample_gauge,
)
from neargroup.solvers import _acj_for_case


def test_dimension_d_exact_forms():
    d = dimension_d(2, 2)
    assert (d.p, d.q, d.D, d.r) == (1, 1, 3, 1)  # 1 + sqrt 3
    assert abs(d.value - (1 + math.sqrt(3))) < 1e-15
    d5 = dimension_d(5, 5)
    assert abs(d5.value - (5 + 3 * math.sqrt(5)) / 2) < 1e-15
    assert dimension_d(3, 2).is_rational  # d = 3


def test_corpus_residuals_pass(corpus_mn):
    for name, s in corpus_mn.items():
        rep = residual_mn(s)
        assert rep.passed, f"{name}:\n{rep}"
        assert rep.max_residual < 1e-12


def test_z2_solution_values():
    s = z2_m2()
    assert abs(s.c_prime - np.exp(-7j * np.pi / 12) / math.sqrt(2)) < 1e-15
    assert abs(s.d - (1 + math.sqrt(3))) < 1e-15
    assert abs(s.b[1] - (1 - 1j) / 2) < 1e-15


def test_perturbation_breaks_gal5():
    s = z2_m2()
    b = s.b.copy()
    b[1] += 1e-3
    rep = residual_mn(MNSolution(s.group, s.bichar, s.form, b, s.c))
    assert rep.per_equation["gal5"] >= 1e-4
    assert not rep.passed


def test_z3_m6_residuals_and_family():
    s = z3_m6()
    rep = residual_general(s)
    assert rep.passed and rep.max_residual < 1e-10
    # any point on the circle x^2 + y^2 = sqrt(3)/24 solves the system
    r = math.sqrt(math.sqrt(3) / 24)
    from neargroup.corpus import z3_m6 as build

    for ang in (0.3, 1.2):
        s2 = build(x=r * math.cos(ang), y=r * math.sin(ang))
        assert residual_general(s2).passed


def test_zero_btensor_p2_residual():
    s = z3_m6()
    z = GeneralSolution(s.group, s.acj, np.zeros_like(s.btensor))
    rep = residual_general(z)
    assert abs(rep.per_equation["p2"] - 1 / s.d) < 1e-12


def test_rescaled_btensor_breaks_unitarity():
    s = z3_m6()
    bad = GeneralSolution(s.group, s.acj, 1.01 * s.btensor)
    rep = residual_general(bad)
    assert rep.per_equation["p4"] >= 1e-3


def test_minus_identity_gauge_trivial():
    s = z3_m6()
    moved = gauge_act(-np.eye(2), s)
    assert np.max(np.abs(moved.btensor - s.btensor)) < 1e-15


def test_rotation_gauge_moves_xy_parameter():
    import math as _m

    from neargroup.corpus import z3_m6 as build

    r = _m.sqrt(_m.sqrt(3) / 24)
    s = build(x=r, y=0.0)
    th = 0.37
    u = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    assert in_gauge_group(u, s.acj)
    moved = gauge_act(u, s)
    target = build(x=r * math.cos(4 * th) + 0.0, y=-r * math.sin(4 * th))
    assert np.max(np.abs(moved.btensor - target.btensor)) < 1e-12
    assert residual_general(moved).passed


def test_aut_act_preserves_residual_status():
    s = z5_m5()
    for th in automorphisms(s.group):
        moved = aut_act(th, s)
        rep = residual_mn(moved)
        assert rep.passed
    s6 = z3_m6()
    th = GroupAutomorphism(s6.group, ((2,),))
    rep = residual_general(aut_act(th, s6))
    assert rep.passed


def test_aut_act_negation_flips_xy():
    import math as _m

    from neargroup.corpus import z3_m6 as build

    r = _m.sqrt(_m.sqrt(3) / 24)
    s = build(x=r * 0.6, y=r * 0.8)
    th = GroupAutomorphism(s.group, ((2,),))  # g -> -g
    moved = aut_act(th, s)
    target = build(x=-r * 0.6, y=-r * 0.8)
    assert np.max(np.abs(moved.btensor - target.btensor)) < 1e-12


def test_random_gauge_keeps_residuals(rng):
    s = z3_m6()
    base = residual_general(s).max_residual
    for _ in range(25):
        u = sample_gauge(s.acj, rng)
        assert in_gauge_group(u, s.acj)
        rep = residual_general(gauge_act(u, s))
        assert rep.passed
        assert abs(rep.max_residual - base) < 1e-12


def test_equivalence_reflexive_and_circle():
    s = z3_m6()
    assert equivalent(s, s)
    import math as _m

    from neargroup.corpus import z3_m6 as build

    r = _m.sqrt(_m.sqrt(3) / 24)
    other = build(x=r * math.cos(0.9), y=r * math.sin(0.9))
    assert equivalent(s, other, grid=200)
    assert not equivalent(s, s.conj())  # opposite bicharacter classes


def test_mn_equivalence_via_automorphism():
    s = z5_m5()
    th = GroupAutomorphism(s.group, ((2,),))
    assert equivalent(aut_act(th, s), s)
    # conjugate of the z5 solution is automorphism-equivalent to itself
    assert equivalent(s.conj(), s)
    assert not equivalent(z2_m2().conj(), z2_m2())


def test_mn_equivalence_checks_c():
    """Same b, c multiplied by a cube root of unity: a different solution."""
    s = z5_m5()
    rotated = MNSolution(s.group, s.bichar, s.form, s.b, s.c * np.exp(2j * np.pi / 3))
    assert not equivalent(s, rotated)


def test_fingerprints_invariant(rng, corpus_all):
    s = z3_m6()
    u = sample_gauge(s.acj, rng)
    assert fingerprint(gauge_act(u, s)) == fingerprint(s)
    for name, s in corpus_all.items():
        for th in automorphisms(s.group):
            assert fingerprint(aut_act(th, s)) == fingerprint(s), (name, th)


def test_mn_to_general_consistency():
    s = z2_m2()
    g = mn_to_general(s)
    rep = residual_general(g)
    assert rep.passed
    assert g.m == 2 and g.L == 1


def test_bmatrix_delta_eigenvector():
    """sqrt(n) B(g) unitary off 0; delta is a -1/d eigenvector of B(0)."""
    s = z3_m6()
    from neargroup.solutions import tables

    T = tables(s.group)
    L = s.L
    delta = np.array([1.0 if r == t else 0.0 for r in range(L) for t in range(L)])
    for gi in range(s.n):
        M = s.bmatrix(gi)
        if gi != T.zero:
            U = math.sqrt(s.n) * M
            assert np.linalg.norm(U.conj().T @ U - np.eye(L * L)) < 1e-12
    M0 = s.bmatrix(T.zero)
    assert np.linalg.norm(M0 @ delta + delta / s.d) < 1e-12
    assert np.linalg.norm(M0.conj().T @ delta + delta / s.d) < 1e-12


def test_equivalence_symmetric_on_corpus(corpus_mn):
    sols = list(corpus_mn.values())
    for s in sols:
        assert equivalent(s, s)
    for s1 in sols:
        for s2 in sols:
            assert equivalent(s1, s2) == equivalent(s2, s1)


def test_gauge_components_distinct_up_to_sign(corpus_all):
    """-1 acts trivially, so no finite gauge component is the negative of
    another one."""
    for name, s in corpus_all.items():
        gen = mn_to_general(s) if isinstance(s, MNSolution) else s
        _, comps = gauge_group_basis(gen.acj)
        for i, P in enumerate(comps):
            assert not any(np.allclose(-P, Q) for Q in comps[:i]), name


def test_gauge_components_one_per_connected_component():
    """z3_m6's gauge group is O(2) (algebra so(2)): the rotations are one
    connected component, the reflections the other."""
    algebra, comps = gauge_group_basis(z3_m6().acj)
    assert len(algebra) == 1
    assert sorted(round(np.linalg.det(P)) for P in comps) == [-1, 1]


def _case_normal_forms(factors):
    """(tag, ACJData) for every Case I and II tag over every nondegenerate
    bicharacter and even form of the group; the gauge group depends only on
    the pattern of the c_t, so c = 1 stands for every cube root."""
    G = FiniteAbelianGroup(factors)
    tags = ([CaseTag("I", omegas=w) for w in itertools.product(range(3), repeat=2)]
            + [CaseTag("II", omega=w) for w in range(3)])
    for b in enumerate_bicharacters(G):
        if not b.is_nondegenerate():
            continue
        for a in enumerate_quadratic_forms(b):
            for tag in tags:
                yield tag, _acj_for_case(G, b, a, 1.0, tag)


def test_expm_ah_matches_scipy(rng):
    """The closed-form exponential of anti-Hermitian stacks against scipy's
    Pade expm, kept here as an independent reference; 0 and i*theta*I have
    repeated eigenvalues."""
    for L in range(1, 5):
        Z = rng.normal(size=(6, L, L)) + 1j * rng.normal(size=(6, L, L))
        X = np.concatenate([Z - Z.conj().swapaxes(1, 2), np.zeros((1, L, L)),
                            1j * 2.3 * np.eye(L)[None]])
        got = _expm_ah(X)
        assert got.shape == X.shape
        for x, e in zip(X, got):
            assert np.max(np.abs(e - expm(x))) < 1e-13, L


def test_batched_lm_converges_and_stalls():
    """The shared LM loop.  Starts on r(x, y) = (x^2 - 4, xy - 2) reach its
    real roots +-(2, 1) with cost <= floor.  Starts on r(x) = (x^2, 1),
    whose least cost is 1 at x = 0, stop on the stall rule: they never reach
    ``floor``, stop long before ``max_iter``, and in fewer iterations than
    lambda needs to pass LM_LAMBDA_MAX even if every step were rejected.
    The model is called once on the starts and then once per batch of trial
    points, which ``move`` makes; the returned rows are the final starts'."""
    evaluated, moved = [], []

    def model(X):
        evaluated.append(len(X))
        x, y = X.T
        return (np.stack([x * x - 4, x * y - 2], 1),
                np.stack([np.stack([2 * x, 0 * x], 1), np.stack([y, x], 1)], 1))

    def move(X, step):
        moved.append(len(X))
        return X + step

    rng = np.random.default_rng(5)
    X0 = rng.uniform(0.5, 3.0, size=(16, 2)) * rng.choice([-1.0, 1.0], size=(16, 1))
    X, cost, R = _batched_lm(X0, model, 200, 1e-24, move=move)
    assert np.all(cost <= 1e-24)
    assert np.max(np.abs(X - np.sign(X0[:, :1]) * [2.0, 1.0])) < 1e-12
    assert evaluated == [len(X0)] + moved
    assert np.array_equal(R, model(X)[0]) and np.array_equal(cost, np.sum(R * R, 1))

    calls = 0

    def model_min1(X):
        nonlocal calls
        calls += 1
        return np.concatenate([X * X, np.ones_like(X)], 1), np.stack([2 * X, 0 * X], 1)

    max_iter = 1000
    X, cost, _ = _batched_lm(np.array([[3.0], [-0.5], [1e-2]]), model_min1, max_iter, 1e-24)
    assert np.all(np.abs(cost - 1) < 1e-13) and np.max(np.abs(X)) < 1e-3
    rejections_to_give_up = math.log10(LM_LAMBDA_MAX / LM_LAMBDA0)
    assert calls - 1 < rejections_to_give_up < max_iter


def test_gauge_group_shapes_of_case_normal_forms():
    """(algebra dimension, components) of G(A,C,J): O(2) for Case I with
    equal c_t, {1, diag(1, -1)} for Case I with distinct c_t, and a
    connected 3-dimensional group for Case II."""
    for factors in ((3,), (2, 2), (4,), (5,)):
        for tag, acj in _case_normal_forms(factors):
            algebra, comps = gauge_group_basis(acj)
            want = ((3, 1) if tag.kind == "II"
                    else (1, 2) if tag.omegas[0] == tag.omegas[1] else (0, 2))
            assert (len(algebra), len(comps)) == want, (factors, str(tag))


def test_gauge_orbit_search_finds_random_gauge_moves(rng):
    """On random b-tensors over the Z3 Case II normal form (3-dimensional
    gauge algebra) and a Case I one (1-dimensional), each moved by a random
    gauge element, the search gets back to within 1e-10 of the move."""
    forms = {str(tag): acj for tag, acj in _case_normal_forms((3,))}
    t0 = time.perf_counter()
    for key, kdim in (("II(z3^0)", 3), ("I(z3^1, z3^1)", 1)):
        acj = forms[key]
        assert len(gauge_group_basis(acj)[0]) == kdim
        for _ in range(20):
            bt = rng.normal(size=(2, 2, 2, 2, 3)) + 1j * rng.normal(size=(2, 2, 2, 2, 3))
            s1 = GeneralSolution(acj.group, acj, bt)
            s2 = gauge_act(sample_gauge(acj, rng), s1)
            best = min(dist for dist, _, _ in gauge_orbit_search(s1, s2))
            assert best < 1e-10, key
    assert time.perf_counter() - t0 < 15.0


def test_refine_gauges_distances_are_those_of_its_gauges(rng):
    """The refine reads its distances off the LM loop's final rows: they are
    max |b(u . bt) - target| of the gauges it returns, exactly.  z3_m6 against
    a gauge-moved copy, from 8 points on each component; some start reaches
    the move."""
    s = z3_m6()
    algebra, comps = gauge_group_basis(s.acj)
    X = np.array(algebra)
    target = gauge_act(sample_gauge(s.acj, rng), s).btensor
    pts = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)[:, None] * np.ones(len(X))
    U0 = np.concatenate([comp @ _expm_ah(np.tensordot(pts, X, 1)) for comp in comps])
    dist, U = _refine_gauges(U0, X, s.btensor, target)
    want = np.abs(_gauge_stack(U, s.btensor) - target).reshape(len(U), -1).max(1)
    assert np.array_equal(dist, want)
    assert dist.min() < 1e-10


def test_package_loads_no_scipy_optimize_or_linalg():
    """Importing every layer module and running the gauge search
    (``equivalent``, ``out_group``), ``classify``, the word oracle and the FS
    indicators leaves scipy (every submodule) and sympy unloaded: the package
    needs numpy only."""
    src = str(Path(neargroup.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = """
import math, sys
import neargroup
from neargroup import (abelian, cases, cli, config, corpus, cuntz, fusion, io,
                       solutions, solvers, spectral, tuples)
r = math.sqrt(math.sqrt(3) / 24)
s = corpus.z3_m6()
assert solutions.equivalent(s, corpus.z3_m6(x=r * math.cos(0.9), y=r * math.sin(0.9)))
assert fusion.out_group(s, grid=32).order == 8
assert solvers.classify(abelian.FiniteAbelianGroup((3,)), 3).num_classes == 1
t = tuples.to_tuple(corpus.z3_m3())
assert cuntz.oracle_check(t).passed and cuntz.fs_indicators(t)[1].passed
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy")))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
