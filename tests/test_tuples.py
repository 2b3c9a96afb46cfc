from dataclasses import replace

import numpy as np
import pytest

from neargroup.corpus import z2_m2, z3_m6
from neargroup.solutions import MNSolution
from neargroup.tuples import (
    AdmissibleTuple,
    build_extraspecial_tuple,
    build_z2_m1_tuple,
    to_tuple,
    verify_admissible,
)

ZETA3 = np.exp(2j * np.pi / 3)


def test_corpus_tuples_pass(corpus_tuples):
    for name, t in corpus_tuples.items():
        rep = verify_admissible(t, tolerance=1e-10)
        assert rep.passed, f"{name}:\n{rep}"


def test_z2_export_j1_phases():
    t = to_tuple(z2_m2())
    # j1(T_h) = a(h) T_{-h}: diagonal permutation with phases (1, i) on Z2
    assert np.allclose(t.M1, np.diag([1, 1j]))


def test_mn_l_tensor_closed_form():
    s = z2_m2()
    t = to_tuple(s)
    G, T = s.group, None
    from neargroup.solutions import tables

    T = tables(G)
    n = 2
    a, b = s.form.table(), s.b
    B = s.bichar.matrix()
    for g in range(n):
        expected = np.zeros((n, n, n), dtype=complex)
        for h in range(n):
            for k in range(n):
                expected[T.add[h, k], T.neg[h], k] += a[h] * b[T.add[h, g]] * B[g, k]
        assert np.allclose(t.ltensor[g], expected)


def test_period3_for_all_exports(corpus_tuples):
    for name, t in corpus_tuples.items():
        R = t.rotation_matrix()
        assert np.linalg.norm(R @ R @ R - np.eye(t.m)) < 1e-12, name
        assert np.linalg.norm(R.conj().T @ R - np.eye(t.m)) < 1e-12, name


def test_extraspecial_tuples():
    for kind, eps in (("D", 1), ("Q", -1)):
        t = build_extraspecial_tuple(1, kind, 1.0)
        assert (t.n, t.m, t.eps, t.d) == (8, 2, eps, 4.0)
        rep = verify_admissible(t)
        assert rep.passed, f"{kind}:\n{rep}"
        # l = 0 makes (l2) vacuous
        assert rep.per_equation["l2"] == 0.0
    t = build_extraspecial_tuple(2, "D", ZETA3)
    assert (t.n, t.m) == (32, 4)
    assert verify_admissible(t).passed


def test_extraspecial_invalid_args():
    with pytest.raises(ValueError):
        build_extraspecial_tuple(5, "D")
    with pytest.raises(ValueError):
        build_extraspecial_tuple(1, "X")
    with pytest.raises(ValueError):
        build_extraspecial_tuple(1, "D", 1j)


def test_negated_j2_breaks_period3():
    t = build_extraspecial_tuple(1, "D", ZETA3)
    bad = AdmissibleTuple(t.mult, t.inv, t.chi, t.V, t.U, t.M1, -t.M2,
                          t.ltensor, t.eps, t.d)
    rep = verify_admissible(bad)
    assert rep.per_equation["period3"] >= 0.1


def test_z2_m1_tuples():
    for zeta in (1.0, ZETA3, ZETA3**2):
        t = build_z2_m1_tuple(zeta)
        rep = verify_admissible(t)
        assert rep.passed
        assert np.allclose(t.M1 @ np.conj(t.M1), np.eye(1))  # j1^2 = 1
    with pytest.raises(ValueError):
        build_z2_m1_tuple(1j)


def test_to_tuple_refuses_failing_solution():
    s = z2_m2()
    bad = MNSolution(s.group, s.bichar, s.form, s.b + 1e-3, s.c)
    with pytest.raises(ValueError):
        to_tuple(bad)


def test_cross_system_consistency(corpus_all, corpus_tuples):
    """to_tuple o verify_admissible passes iff the residual system passes."""
    from neargroup.solutions import residual

    for name, s in corpus_all.items():
        direct = residual(s)
        via_tuple = verify_admissible(corpus_tuples[name], tolerance=1e-9)
        assert direct.passed == via_tuple.passed, name


def _l3_reference(t):
    """The l3 residual as one dense m^6 identity."""
    L, M1, U, V, W1 = t.ltensor, t.M1, t.U, t.V, t.w_matrix()
    lhs = np.einsum("qpbc,tbyz->tpqcyz", np.conj(L), L, optimize=True)
    K = np.einsum("tqbi,bxyc->tqixyc", L, L, optimize=True)
    rhs1 = np.einsum("tqixyc,ipbc->tpqxyb", K, np.conj(L), optimize=True)
    s2 = np.einsum("hij,jt->hit", V, W1)
    wvecs = np.einsum("hxi,yi->hxy", U, M1)
    vvecs = np.einsum("zj,hpj->hpz", M1, U)
    rhs2 = np.einsum("hqt,hxy,hpz->tpqxyz", s2, wvecs, np.conj(vvecs),
                     optimize=True) / t.d
    return float(np.max(np.abs(lhs - rhs1 - rhs2)))


def test_l3_matches_dense_reference(corpus_tuples):
    rng = np.random.default_rng(11)
    cases = {name: corpus_tuples[name] for name in ("z3_m6", "z2z2_m4")}
    cases["extraspecial-2D"] = build_extraspecial_tuple(2, "D", ZETA3)
    for name in ("z3_m6", "z2z2_m4"):
        L = cases[name].ltensor
        noise = rng.normal(size=L.shape) + 1j * rng.normal(size=L.shape)
        cases[name + "+noise"] = replace(cases[name], ltensor=L + 1e-3 * noise)
    for name, t in cases.items():
        l3 = verify_admissible(t).per_equation["l3"]
        assert abs(l3 - _l3_reference(t)) <= 1e-15, name
        if name.endswith("+noise"):
            assert l3 > 1e-4, name


def test_verify_admissible_memory_bound(corpus_tuples, traced_peak_mb):
    """l3 is evaluated one T at a time: the m = 12 entry stays far below its
    m^6 arrays (48 MB each)."""
    assert traced_peak_mb(verify_admissible, corpus_tuples["z2z2z3_m12"]) < 64
