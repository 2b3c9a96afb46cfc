import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import neargroup
from neargroup import solutions
from neargroup.abelian import (
    FiniteAbelianGroup,
    GroupAutomorphism,
    automorphisms,
    enumerate_bicharacters,
    enumerate_quadratic_forms,
)
from neargroup.cases import CaseTag
from neargroup.corpus import corpus_mn, z2_m2, z3_m6, z5_m5
from neargroup.io import load_bundled, solution_to_json
from neargroup.solutions import (
    COARSE_AXIS_POINTS,
    DEFAULT_GRID,
    EQUAL_TOL,
    ACJData,
    GeneralSolution,
    MNSolution,
    LM_LAMBDA0,
    LM_LAMBDA_MAX,
    QuadraticIrrational,
    _batched_lm,
    _gauge_model,
    _gauge_stack,
    _one_parameter_exps,
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
    mn_normal_form,
    normal_form,
    residual_general,
    residual_mn,
    sample_gauge,
)
from neargroup.solvers import SolveConfig, _acj_for_case, pair_classes, solve_mn


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
    c_prime = np.conj(s.c) / math.sqrt(2)
    assert abs(c_prime - np.exp(-7j * np.pi / 12) / math.sqrt(2)) < 1e-15
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
    z = GeneralSolution(s.acj, np.zeros_like(s.btensor))
    rep = residual_general(z)
    assert abs(rep.per_equation["p2"] - 1 / s.d) < 1e-12


def test_rescaled_btensor_breaks_unitarity():
    s = z3_m6()
    bad = GeneralSolution(s.acj, 1.01 * s.btensor)
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
    assert equivalent(s, other)
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


def test_fingerprint_traces_match_the_matrix_loop(corpus_all):
    """The general fingerprint's traces, read off one Gram matrix of the
    b-tensor's g-slices, are the rounded tr(B(g) B(h)*) of every pair."""
    general = {name: s for name, s in corpus_all.items() if not s.is_mn}
    assert general
    for name, s in general.items():
        loop = sorted((round(float(t.real), 7) + 0.0, round(float(t.imag), 7) + 0.0)
                      for g in range(s.n) for h in range(s.n)
                      for t in [np.trace(s.bmatrix(g) @ s.bmatrix(h).conj().T)])
        assert np.allclose(fingerprint(s)[4], loop, rtol=0, atol=2e-7), name


def test_mn_solution_is_the_l1_general_solution():
    """Every bundled m = n entry is the L = 1 normal form of its (<.,.>, a, c)
    with b as its b-tensor, passes ``residual_general`` as it is, gives b and
    c back bit for bit through ``MNSolution(group, bichar, form, b, c)``, and
    keeps the m = n schema and the ``"mn"`` fingerprint under ``aut_act`` and
    ``conj``."""
    for name in corpus_mn():
        s = load_bundled(name)
        assert s.is_mn, name
        assert s.acj == mn_normal_form(s.form, s.c), name
        assert s.btensor.shape == (1, 1, 1, 1, s.n), name
        assert s.L == 1 and s.m == s.n, name
        assert residual_general(s).passed, name
        t = MNSolution(s.group, s.bichar, s.form, s.b, s.c)
        assert t.b.tobytes() == s.b.tobytes(), name
        assert np.array(t.c).tobytes() == np.array(s.c).tobytes(), name
        images = [aut_act(th, s) for th in automorphisms(s.group)] + [s.conj()]
        for t in images:
            assert t.is_mn and t.btensor.shape == (1, 1, 1, 1, s.n), name
            assert solution_to_json(t)["kind"] == "mn", name
            assert fingerprint(t)[0] == "mn", name


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
        _, comps = gauge_group_basis(s.acj)
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
                yield tag, _acj_for_case(a, 1.0, tag)


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
    gauge element, the search gets back to within 1e-10 of the move, both on
    the default grid and on ``equivalent``'s coarse grid of
    COARSE_AXIS_POINTS points per direction alone."""
    forms = {str(tag): acj for tag, acj in _case_normal_forms((3,))}
    t0 = time.perf_counter()
    for key, kdim in (("II(z3^0)", 3), ("I(z3^1, z3^1)", 1)):
        acj = forms[key]
        assert len(gauge_group_basis(acj)[0]) == kdim
        for _ in range(20):
            bt = rng.normal(size=(2, 2, 2, 2, 3)) + 1j * rng.normal(size=(2, 2, 2, 2, 3))
            s1 = GeneralSolution(acj, bt)
            s2 = gauge_act(sample_gauge(acj, rng), s1)
            for per_axis in (None, COARSE_AXIS_POINTS):
                best = min(dist for dist, _, _ in gauge_orbit_search(s1, s2, per_axis=per_axis))
                assert best < 1e-10, (key, per_axis)
    assert time.perf_counter() - t0 < 15.0


def _spy_searches(monkeypatch) -> list:
    """Record (grid, per_axis) of every ``gauge_orbit_search`` that
    ``equivalent`` starts."""
    calls = []
    search = solutions.gauge_orbit_search

    def spy(s1, s2, grid=DEFAULT_GRID, per_axis=None):
        calls.append((grid, per_axis))
        return search(s1, s2, grid, per_axis)
    monkeypatch.setattr(solutions, "gauge_orbit_search", spy)
    return calls


COARSE = (DEFAULT_GRID, COARSE_AXIS_POINTS)
FINE = (DEFAULT_GRID, None)


def test_equivalent_matches_equal_pairs_on_the_coarse_grid(monkeypatch):
    """An equal pair on a gauge algebra of dimension k >= 1 is matched by the
    first, coarse stage, and no 720-point grid is evaluated: z3_m6 (k = 1)
    against a gauge- and automorphism-moved copy, and random b-tensors over
    the Z3 Case II normal form (k = 3) against random gauge moves."""
    rng = np.random.default_rng(4001)
    calls = _spy_searches(monkeypatch)
    s = z3_m6()
    negation = GroupAutomorphism(s.group, ((2,),))
    assert equivalent(s, aut_act(negation, gauge_act(sample_gauge(s.acj, rng), s)))
    assert calls == [COARSE]
    acj = {str(tag): acj for tag, acj in _case_normal_forms((3,))}["II(z3^0)"]
    assert len(gauge_group_basis(acj)[0]) == 3
    for _ in range(5):
        calls.clear()
        bt = rng.normal(size=(2, 2, 2, 2, 3)) + 1j * rng.normal(size=(2, 2, 2, 2, 3))
        s1 = GeneralSolution(acj, bt)
        assert equivalent(s1, gauge_act(sample_gauge(acj, rng), s1))
        assert calls == [COARSE]


def test_equivalent_runs_the_full_grid_only_for_a_distinct_candidate(monkeypatch):
    """A pair that passes the theta and c_t filters but does not match is
    told "distinct" after the ``DEFAULT_GRID`` stage: z3_m6 against a copy
    with b perturbed by 1e-2.  No second stage runs where it would repeat the
    first: z3_m6 against its conjugate yields no candidate, and an L = 1 pair
    (z5_m5 against a perturbed copy) has no gauge grid."""
    calls = _spy_searches(monkeypatch)
    s = z3_m6()
    assert not equivalent(s, GeneralSolution(s.acj, s.btensor + 1e-2))
    assert calls == [COARSE, FINE]
    calls.clear()
    assert not equivalent(s, s.conj())
    assert calls == [COARSE]
    t = z5_m5()
    moved = MNSolution(t.group, t.bichar, t.form, t.b + 1e-2, t.c)
    assert list(solutions.gauge_orbit_search(t, moved))
    calls.clear()
    assert not equivalent(t, moved)
    assert calls == [COARSE]


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


def _index_contraction(U, bt):
    """The gauge move as four index contractions, one per index of b."""
    b = np.einsum("par,rstug->pastug", U, bt)
    b = np.einsum("pbs,pastug->pabtug", U, b)
    b = np.einsum("pct,pabtug->pabcug", U.conj(), b)
    return np.einsum("pdu,pabcug->pabcdg", U.conj(), b)


def test_gauge_stack_matches_index_contraction(rng):
    """W = U ⊗ U on the (r, s) pair and its conjugate on the (t, u) pair move
    the b-tensor as u, u, conj(u), conj(u) on its four indices: random
    unitary stacks of P = 1, 8, 720 gauges, L = 1, 2, 3, random complex
    b-tensors, agreeing to 1e-13 max|b|."""
    for P in (1, 8, 720):
        for L in (1, 2, 3):
            Z = rng.normal(size=(P, L, L)) + 1j * rng.normal(size=(P, L, L))
            U = np.linalg.qr(Z)[0]
            bt = rng.normal(size=(L,) * 4 + (3,)) + 1j * rng.normal(size=(L,) * 4 + (3,))
            got = _gauge_stack(U, bt)
            assert got.shape == (P, L, L, L, L, 3)
            err = np.abs(got - _index_contraction(U, bt)).max()
            assert err <= 1e-13 * np.abs(bt).max(), (P, L, err)


def test_gauge_model_jacobian_matches_central_differences(rng):
    """The refine's Jacobian Y_k M + M Y_k^H is the derivative of its rows
    along each left-trivialised direction u -> exp(h X_k) u: central
    differences agree to 1e-6 on z3_m6 (kdim 1) and on a random b-tensor of
    the Z3 Case II normal form II(z3^0) (kdim 3)."""
    forms = {str(tag): acj for tag, acj in _case_normal_forms((3,))}
    acj = forms["II(z3^0)"]
    bt = rng.normal(size=(2, 2, 2, 2, 3)) + 1j * rng.normal(size=(2, 2, 2, 2, 3))
    h = 1e-5
    for s, kdim in ((z3_m6(), 1), (GeneralSolution(acj, bt), 3)):
        X = np.array(gauge_group_basis(s.acj)[0])
        assert len(X) == kdim
        target = gauge_act(sample_gauge(s.acj, rng), s).btensor
        U = np.stack([sample_gauge(s.acj, rng) for _ in range(4)])
        model = _gauge_model(X, s.btensor, target)
        R, J = model(U)
        assert J.shape == R.shape + (kdim,)
        for k in range(kdim):
            plus = model(_expm_ah(h * X[k]) @ U)[0]
            minus = model(_expm_ah(-h * X[k]) @ U)[0]
            assert np.abs((plus - minus) / (2 * h) - J[..., k]).max() < 1e-6, (kdim, k)


def test_one_parameter_exps_match_expm_ah(rng):
    """One eigh per direction gives exp(t X_k) for every t: z3_m6's so(2)
    direction and each direction of II(z3^0), at t = 0, 2 pi and random t,
    against ``_expm_ah(t X_k)``; commuting (diagonal) directions give the
    exponential of the sum; the kdim-1 grid of the search is the old one to
    1e-15."""
    forms = {str(tag): acj for tag, acj in _case_normal_forms((3,))}
    X6 = np.array(gauge_group_basis(z3_m6().acj)[0])
    XII = np.array(gauge_group_basis(forms["II(z3^0)"])[0])
    assert (len(X6), len(XII)) == (1, 3)
    for Xk in list(X6) + list(XII):
        exps = _one_parameter_exps(Xk[None])
        for t in (0.0, 2 * np.pi, *rng.uniform(-7.0, 7.0, 4)):
            got = exps(np.array([t]))
            assert got.shape == (2, 2)
            assert np.abs(got - _expm_ah(t * Xk)).max() < 1e-14, t
    for L, k in ((2, 2), (3, 3), (4, 2)):
        X = 1j * np.stack([np.diag(rng.normal(size=L)) for _ in range(k)])
        T = rng.uniform(-7.0, 7.0, size=(5, k))
        got = _one_parameter_exps(X)(T)
        assert got.shape == (5, L, L)
        assert np.abs(got - _expm_ah(np.tensordot(T, X, 1))).max() < 1e-13, (L, k)
    pts = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)[:, None]
    grid = _one_parameter_exps(X6)(pts)
    assert np.abs(grid - _expm_ah(np.tensordot(pts, X6, 1))).max() <= 1e-15


def _sequential_gauge(acj):
    """G(A,C,J)'s (algebra, components) as built one basis element and one
    signed permutation at a time, kept as the reference of the array-wise
    ``NormalForm.gauge``."""
    L = acj.L
    mats, Jm = normal_form(acj).constraints

    def real_flat(X):
        return np.concatenate([X.real.ravel(), X.imag.ravel()])

    basis_real = [E * z for E in np.eye(L * L, dtype=complex).reshape(-1, L, L)
                  for z in (1.0, 1j)]
    rows = [np.concatenate([real_flat(X @ M - M @ X) for M in mats]
                           + [real_flat(X @ Jm - Jm @ np.conj(X)),
                              real_flat(X + X.conj().T)])
            for X in basis_real]
    _, sv, vt = np.linalg.svd(np.array(rows).T)
    null = [vt[k] for k in range(len(sv), len(basis_real))] + [
        vt[k] for k in range(len(sv)) if sv[k] < 1e-10]
    algebra = []
    for coeffs in null:
        X = sum(c * Xb for c, Xb in zip(coeffs, basis_real))
        if np.linalg.norm(X) > 1e-10:
            algebra.append(X)
    Xs = np.reshape(algebra, (-1, L, L))
    F = np.reshape([real_flat(X) for X in Xs], (len(Xs), 2 * L * L))

    def connected(u):
        w, V = np.linalg.eig(u)
        logu = (V * np.log(w.astype(complex))) @ np.linalg.inv(V)
        X = np.tensordot(F @ real_flat(logu), Xs, 1)
        return np.max(np.abs(_expm_ah(X) - u)) < 1e-10

    comps = [np.eye(L)]
    for perm in itertools.permutations(range(L)):
        for signs in itertools.product((1.0, -1.0), repeat=L):
            P = np.zeros((L, L))
            P[perm, range(L)] = signs
            if in_gauge_group(P, acj) and not any(
                    connected(sign * Q.T @ P) for Q in comps for sign in (1, -1)):
                comps.append(P)
    return algebra, comps


def test_gauge_matches_sequential_component_loop(corpus_all):
    """The array-wise ``NormalForm.gauge`` gives the algebra and the
    components of the sequential build, byte for byte and in the same order,
    on every Case I/II normal form of Z3, Z2 x Z2 and Z5 and on every bundled
    entry."""
    acjs = [(f"{factors} {tag}", acj) for factors in ((3,), (2, 2), (5,))
            for tag, acj in _case_normal_forms(factors)]
    acjs += [(name, s.acj) for name, s in corpus_all.items()]
    for key, acj in acjs:
        got = gauge_group_basis(acj)
        for ref, new in zip(_sequential_gauge(acj), got):
            assert len(ref) == len(new), key
            for x, y in zip(ref, new):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), key


def test_gauge_search_crosses_automorphisms_and_gauges(corpus_all):
    """Cross-entry searches: every bundled entry s is ``equivalent`` to
    aut_act(theta, gauge_act(u, s)) for every theta in Aut(G) and random
    gauges u, whose normal form differs from s's whenever theta moves the
    bicharacter, form or characters; z3_m6 at a generic point of its family
    is not ``equivalent`` to its conjugate."""
    rng = np.random.default_rng(3001)
    for name, s in corpus_all.items():
        for th in automorphisms(s.group):
            for _ in range(2):
                moved = aut_act(th, gauge_act(sample_gauge(s.acj, rng), s))
                assert equivalent(s, moved), (name, th)
    r = math.sqrt(math.sqrt(3) / 24)
    s = z3_m6(x=r * math.cos(0.7), y=r * math.sin(0.7))
    assert not equivalent(s, s.conj())


def _element_wise_thetas(s1, s2, images):
    """The reference automorphism test: theta is kept when aut_act(theta, s1)
    (given as ``images``, one per theta of ``automorphisms``) matches s2 in
    its Gram phases, its form values phase by phase, its sorted g_t and
    its c_t."""
    if s1.group.factors != s2.group.factors or s1.L != s2.L:
        return []
    ref = s2.acj
    return [th for th, t in zip(automorphisms(s1.group), images)
            if t.acj.bichar.gram == ref.bichar.gram
            and all(p == q for p, q in zip(t.acj.form.values, ref.form.values))
            and sorted(t.acj.g_t) == sorted(ref.g_t)
            and np.max(np.abs(np.subtract(t.acj.c_t, ref.c_t))) < EQUAL_TOL]


def _matching_pool(corpus_all):
    """Solutions grouped by their group: every bundled entry, its image
    under every automorphism and its conjugate; the m = n solutions of one
    Z3xZ3 pair and one Z2xZ4 pair, the first one's images under every
    automorphism, and their conjugates."""
    pool: dict = {}
    for s in corpus_all.values():
        pool.setdefault(s.group, []).extend(
            [s, s.conj()] + [aut_act(th, s) for th in automorphisms(s.group)])
    for factors, pair in (((3, 3), 0), ((2, 4), 2)):
        G = FiniteAbelianGroup(factors)
        b, a, _ = pair_classes(G)[pair]
        sols = solve_mn(G, b, a, SolveConfig(random_starts=100))
        assert sols, factors
        pool[G] = (sols + [s.conj() for s in sols]
                   + [aut_act(th, sols[0]) for th in automorphisms(G)])
    return pool


def test_gauge_orbit_search_keeps_the_element_wise_thetas(corpus_all):
    """The theta that ``gauge_orbit_search(s, t, grid=8)`` yields, in order,
    are those of the element-wise test, for every ordered pair (s, t) of
    solutions on one group in ``_matching_pool``; on Z3xZ3 and Z2xZ2xZ3 most
    automorphisms move the form."""
    for G, sols in _matching_pool(corpus_all).items():
        kept_any = moved_any = False
        for s in sols:
            images = [aut_act(th, s) for th in automorphisms(G)]
            for t in sols:
                want = _element_wise_thetas(s, t, images)
                got = []
                for _, th, _ in gauge_orbit_search(s, t, grid=8):
                    if not got or got[-1] is not th:
                        got.append(th)
                assert got == want, (G, s.acj, t.acj)
                kept_any |= bool(want)
                moved_any |= len(want) < len(images) and s.L == t.L
        assert kept_any and moved_any, G


def test_gauge_orbit_search_moves_only_the_kept_thetas(monkeypatch):
    """A fully consumed search on a Z3xZ3 pair calls ``aut_act`` once for
    each theta that passes the array test, not once for each of the 48
    automorphisms."""
    G = FiniteAbelianGroup((3, 3))
    b, a, _ = pair_classes(G)[0]
    s = solve_mn(G, b, a, SolveConfig(random_starts=100))[0]
    auts = automorphisms(G)
    t = aut_act(auts[7], s)
    want = _element_wise_thetas(s, t, [aut_act(th, s) for th in auts])
    assert len(auts) == 48 and 0 < len(want) < len(auts)
    calls = []

    def counting(th, sol):
        calls.append(th)
        return aut_act(th, sol)
    monkeypatch.setattr(solutions, "aut_act", counting)
    assert min(dist for dist, _, _ in gauge_orbit_search(s, t)) < EQUAL_TOL
    assert calls == want


def test_solutions_read_group_and_bicharacter_off_the_form():
    """``ACJData`` stores no bicharacter and ``GeneralSolution`` no group:
    both are read off the form.  ``MNSolution`` refuses a form over another
    bicharacter, and a bicharacter over another group."""
    assert "bichar" not in {f.name for f in fields(ACJData)}
    assert "group" not in {f.name for f in fields(GeneralSolution)}
    s = load_bundled("z2z2_m4")
    assert s.acj.bichar is s.acj.form.bichar and s.group is s.acj.form.bichar.group
    other = next(b for b in enumerate_bicharacters(s.group, nondegenerate_only=True)
                 if b != s.bichar)
    with pytest.raises(ValueError):
        MNSolution(s.group, other, s.form, s.b, s.c)
    with pytest.raises(ValueError):
        MNSolution(FiniteAbelianGroup((4,)), s.bichar, s.form, s.b, s.c)
    t = MNSolution(s.group, s.bichar, s.form, s.b, s.c)
    assert t.acj == s.acj


def test_package_loads_no_scipy_optimize_or_linalg():
    """Importing every layer module and running the gauge search
    (``equivalent``, ``out_group``), ``classify``, the tuple equations, the
    word oracle and the FS indicators leaves scipy (every submodule) and sympy
    unloaded: the package needs numpy only.  ``numpy.ma``, which a plain
    ``np.unique`` imports, stays unloaded too."""
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
assert tuples.verify_admissible(t).passed
assert cuntz.oracle_check(t).passed and cuntz.fs_indicators(t)[1].passed
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy")
             or m == "numpy.ma"))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _acjs(corpus_all):
    """The corpus normal forms, and one Z3 normal form with nontrivial
    characters chi_1 = <., 1>, chi_2 = <., 2>."""
    for name, s in corpus_all.items():
        yield name, s.acj
    yield "z3 chi", ACJData(form=s.acj.form, bar=(1, 0), g_t=((1,), (2,)),  # z3_m6's form
                            c_t=(1.0, 1.0), eps_t=(1, 1), eps=1)


def test_normal_form_chi_is_the_per_entry_character_table(corpus_all):
    """chi, read off the bicharacter table, equals chi_t(g) = <g, g_t>
    computed entry by entry, bit for bit."""
    for name, acj in _acjs(corpus_all):
        ref = np.array([[acj.bichar(g, gt) for g in acj.group] for gt in acj.g_t])
        assert np.array_equal(normal_form(acj).chi.view(np.uint64), ref.view(np.uint64)), name


def test_normal_form_is_built_once_per_acj():
    """Equal ACJ data share one normal form, whose tables are read-only; a
    residual leaves its gauge group unbuilt."""
    normal_form.cache_clear()
    s = z3_m6()
    nf = normal_form(s.acj)
    assert normal_form(s.acj) is nf
    twin = z3_m6().acj
    assert twin is not s.acj and normal_form(twin) is nf
    with pytest.raises(ValueError):
        nf.B[0, 0] = 0
    assert residual_general(s).passed
    assert "equations" in vars(nf) and "gauge" not in vars(nf)
