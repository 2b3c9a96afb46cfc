from dataclasses import replace

import numpy as np
import pytest

from neargroup.corpus import z2_m2, z3_m6
from neargroup.solutions import MNSolution
from neargroup.tuples import (
    AdmissibleTuple,
    _l3_blocks,
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


def _ltensor_reference(s):
    """to_tuple's l tensor filled term by term, as a seven-deep loop."""
    from neargroup.solutions import normal_form

    nf = normal_form(s.acj)
    T, B, a, chi_t, bt = nf.T, nf.B, nf.a, nf.chi, s.btensor
    n, L = s.n, s.L
    m = n * L
    lt = np.zeros((m, m, m, m), dtype=complex)
    for g in range(n):
        for u in range(L):
            for h in range(n):
                gh = T.add[g, h]
                for k in range(n):
                    pref = B[g, k]
                    for r in range(L):
                        coef0 = pref * a[h] * chi_t[r, h]
                        for ss in range(L):
                            for t in range(L):
                                v = coef0 * bt[r, ss, t, u, gh]
                                if v != 0:
                                    lt[g * L + u, T.add[h, k] * L + r,
                                       T.neg[h] * L + ss, k * L + t] += v
    return lt


def test_ltensor_matches_loop_reference(corpus_all, corpus_tuples):
    """Byte for byte, signed zeros included."""
    for name, s in corpus_all.items():
        assert corpus_tuples[name].ltensor.tobytes() == _ltensor_reference(s).tobytes(), name


def _wh(t):
    return (t.U @ t.M1.T).reshape(t.n, t.m * t.m)  # wh[h, (x, y)] = (U(h) M1^T)[x, y]


def _planted(t, index, value=0.01):
    L = t.ltensor.copy()
    L[index] += value
    return replace(t, ltensor=L)


def _check_cases(corpus_tuples, max_m=6):
    """Bundled tuples up to m = max_m, each also with dense noise, planted
    single-entry defects, extra-special tuples and the Z2, m = 1 tuple."""
    rng = np.random.default_rng(11)
    cases = {name: t for name, t in corpus_tuples.items() if t.m <= max_m}
    for name in list(cases):
        L = cases[name].ltensor
        noise = rng.normal(size=L.shape) + 1j * rng.normal(size=L.shape)
        cases[name + "+noise"] = replace(cases[name], ltensor=L + 1e-3 * noise)
    cases["z2z2_m4+planted"] = _planted(corpus_tuples["z2z2_m4"], (0, 0, 0, 1))
    cases["z3_m6+planted"] = _planted(corpus_tuples["z3_m6"], (1, 2, 3, 4))
    cases["extraspecial-1Q"] = build_extraspecial_tuple(1, "Q", ZETA3)
    cases["extraspecial-2D"] = build_extraspecial_tuple(2, "D", ZETA3)
    cases["z2_m1"] = build_z2_m1_tuple(ZETA3)
    return cases


def _l3_terms(t):
    """LHS, RHS1 and RHS2 of l3 as dense m^6 arrays [t, p, q, x, y, z]."""
    L, M1, U, V, W1 = t.ltensor, t.M1, t.U, t.V, t.w_matrix()
    lhs = np.einsum("qpbc,tbyz->tpqcyz", np.conj(L), L, optimize=True)
    K = np.einsum("tqbi,bxyc->tqixyc", L, L, optimize=True)
    rhs1 = np.einsum("tqixyc,ipbc->tpqxyb", K, np.conj(L), optimize=True)
    s2 = np.einsum("hij,jt->hit", V, W1)
    wvecs = np.einsum("hxi,yi->hxy", U, M1)
    vvecs = np.einsum("zj,hpj->hpz", M1, U)
    rhs2 = np.einsum("hqt,hxy,hpz->tpqxyz", s2, wvecs, np.conj(vvecs),
                     optimize=True) / t.d
    return lhs, rhs1, rhs2


def _l3_reference(t):
    """The l3 residual as one dense m^6 identity."""
    lhs, rhs1, rhs2 = _l3_terms(t)
    return float(np.max(np.abs(lhs - rhs1 - rhs2)))


def test_l3_matches_dense_reference(corpus_tuples):
    for name, t in _check_cases(corpus_tuples).items():
        l3 = verify_admissible(t).per_equation["l3"]
        assert abs(l3 - _l3_reference(t)) <= 1e-15, name
        if name.endswith(("+noise", "+planted")):
            assert l3 > 1e-4, name


def test_l3_blocks_are_exact(corpus_tuples):
    """Every dense l3 term is exactly 0 off the diagonal blocks, and graded
    tuples split into one block per grade."""
    cases = _check_cases(corpus_tuples)
    for name, t in cases.items():
        m = t.m
        label = np.full(m * m, -1)
        for i, (pairs, _) in enumerate(_l3_blocks(t.ltensor, _wh(t))):
            assert (label[pairs] == -1).all(), name
            label[pairs] = i
        on = (label[:, None] == label[None, :]) & (label[:, None] >= 0)
        # [x, y, p, z] -> the [p, x, y, z] axes of the terms' [t, p, q, x, y, z]
        off = ~on.reshape(m, m, m, m).transpose(2, 0, 1, 3)[None, :, None]
        for term in _l3_terms(t):
            assert not np.broadcast_to(off, term.shape)[term != 0].any(), name

    def sizes(t):
        return sorted(len(pairs) for pairs, _ in _l3_blocks(t.ltensor, _wh(t)))

    for name, t in corpus_tuples.items():
        L = t.meta["L"]
        assert sizes(t) == [L * L * t.n] * t.n, name  # one block per grade
    assert sizes(cases["z2z2_m4+planted"]) == [8, 8]
    assert sizes(cases["z3_m6+noise"]) == [36]


def _invariance_reference(t):
    L, V = t.ltensor, t.V
    return max(float(np.max(np.abs(
        np.einsum("xa,yb,zc,tabc->txyz", V[g], V[g], np.conj(V[g]), L, optimize=True) - L)))
        for g in range(t.n))


def _orthogonality2_reference(t):
    L, eye = t.ltensor, np.eye(t.m)
    A = np.einsum("gij,jt->git", t.V, t.M2)
    term1 = np.einsum("gls,gkt->stlk", A, np.conj(A)) / t.d
    term2 = np.einsum("sijl,tijk->stlk", np.conj(L), L)
    target = np.einsum("st,lk->stlk", eye, eye)
    return float(np.max(np.abs(term1 + term2 - target)))


def _equivariance_reference(t):
    L, U, V = t.ltensor, t.U, t.V
    return max(float(np.max(np.abs(
        np.einsum("pt,pxyz->txyz", V[g], L)
        - np.einsum("xa,zc,tayc->txyz", U[g], np.conj(U[g]), L, optimize=True))))
        for g in range(t.n))


def _rhou2_reference(t):
    n, m, L, U = t.n, t.m, t.ltensor, t.U
    W = t.w_matrix()
    wh = np.einsum("hxi,yi->hxy", U, t.M1).reshape(n, m * m)
    worst = 0.0
    for g in range(n):
        lhsM = np.kron(W @ U[g] @ np.conj(W.T), U[g])
        rhs1M = (wh.T * t.chi[:, g]) @ np.conj(wh) / t.d
        LU = np.einsum("pi,pxyk->ixyk", U[g], L)
        rhs2M = np.einsum("ixyk,iabk->xyab", LU, np.conj(L),
                          optimize=True).reshape(m * m, m * m)
        worst = max(worst, float(np.max(np.abs(lhsM - rhs1M - rhs2M))))
    return worst


def test_identities_match_einsum_references(corpus_tuples):
    references = {"invariance": _invariance_reference,
                  "orthogonality2": _orthogonality2_reference,
                  "equivariance": _equivariance_reference,
                  "rhoU2": _rhou2_reference}
    cases = _check_cases(corpus_tuples)
    cases["z2z2z3_m12"] = corpus_tuples["z2z2z3_m12"]
    for name, t in cases.items():
        per_equation = verify_admissible(t).per_equation
        for eq, reference in references.items():
            assert abs(per_equation[eq] - reference(t)) <= 1e-15, (name, eq)


def test_verify_admissible_memory_bound(corpus_tuples, traced_peak_mb):
    """l3 is evaluated on the diagonal blocks of pair space: the m = 12
    entry's 12 blocks of 12 pairs stay far below its m^6 arrays (48 MB
    each), and a block's rows are chunked so that no array exceeds m^5.
    orthogonality2's and the Frobenius identities' m^4 arrays are released
    once read, so they are not held under rhoU2's (6.5 MB in all)."""
    assert traced_peak_mb(verify_admissible, corpus_tuples["z2z2z3_m12"]) < 7.5
