"""Admissible tuples (K, j1, j2, V, U_K, chi, l) as finite matrix data.

A tuple packages everything needed to reconstruct a category through Cuntz
algebra endomorphisms: unitary representations V, U_K of the group on K, two
anti-unitaries j1, j2, the character table chi_h(g), the sign eps, and the
coefficient tensor of the map l: K -> K (x) K (x) K^*.

Conventions.  ``K`` carries a fixed orthonormal basis (T_0 ... T_{m-1}); an
element of K^2 K^* with Cuntz word T_x T_y T_z^* is stored at ``L[x, y, z]``,
so ``l(T_t)`` is the slice ``ltensor[t]``.  Anti-unitaries act as
``v -> M conj(v)``.  The group enters through a multiplication table so that
nonabelian (extra-special) groups use the same container.

``verify_admissible`` evaluates each defining equation as a dense identity,
except l3, whose m^6 identity it evaluates one T (one m^5 slice) at a time,
and reports one residual per equation name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solutions import (
    GeneralSolution,
    MNSolution,
    ResidualReport,
    mn_to_general,
    normal_form,
    residual,
)

__all__ = [
    "AdmissibleTuple",
    "to_tuple",
    "verify_admissible",
    "build_extraspecial_tuple",
    "build_z2_m1_tuple",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class AdmissibleTuple:
    mult: np.ndarray  # (n, n) group multiplication table of indices, 0 = identity
    inv: np.ndarray  # (n,) inverses
    chi: np.ndarray  # (n, n) chi[h, g] = chi_h(g)
    V: np.ndarray  # (n, m, m)
    U: np.ndarray  # (n, m, m) the K-part of U(g)
    M1: np.ndarray  # (m, m) anti-unitary matrix of j1
    M2: np.ndarray  # (m, m) anti-unitary matrix of j2
    ltensor: np.ndarray  # (m, m, m, m): ltensor[t, x, y, z]
    eps: int
    d: float
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        return self.mult.shape[0]

    @property
    def m(self) -> int:
        return self.M1.shape[0]

    @property
    def alphabet(self) -> int:
        return self.n + self.m

    def w_matrix(self) -> np.ndarray:
        """Linear matrix of j2 o j1^{-1} (= eps * j2 o j1)."""
        return self.eps * self.M2 @ np.conj(self.M1)

    def rotation_matrix(self) -> np.ndarray:
        """Linear matrix of j2 o j1."""
        return self.M2 @ np.conj(self.M1)


def to_tuple(s: MNSolution | GeneralSolution, check: bool = True) -> AdmissibleTuple:
    """Export a verified solution to explicit tuple matrices.

    K is l^2(G) (x) K0 with basis T_h(e_t) at index ``h_index * L + t``:

        V(g) T_h(e_t)   = <g,h> T_h(e_t)
        U_K(g) T_h(e_t) = T_{h-g}(e_t)
        j1 T_h(e_t)     = eps_t a(h) chi_t(h) T_{-h}(e_{bar t})
        j2 T_h(e_t)     = eps eps_t conj(c_t) n^{-1/2} sum_k conj<h,k> T_k(e_{bar t})
        l(T_g(e_u))     = sum_{h,k,r,s,t} <g,k> a(h) chi_r(h) b^{r,s}_{t,u}(g+h)
                          T_{h+k}(e_r) T_{-h}(e_s) T_k(e_t)^*
    """
    if check:
        rep = residual(s, DEFAULT_TOL)
        if not rep.passed:
            raise ValueError(f"refusing to export a failing solution:\n{rep}")
    if isinstance(s, MNSolution):
        s = mn_to_general(s)
    nf = normal_form(s.acj)
    T, B, a, chi_t = nf.T, nf.B, nf.a, nf.chi  # chi_t[t, g]
    bar, c_t, eps_t, eps = nf.bar, nf.c_t, nf.eps_t, s.acj.eps
    n, L = s.n, s.L
    m = n * L

    def idx(h: int, t: int) -> int:
        return h * L + t

    V = np.zeros((n, m, m), dtype=complex)
    U = np.zeros((n, m, m), dtype=complex)
    M1 = np.zeros((m, m), dtype=complex)
    M2 = np.zeros((m, m), dtype=complex)
    for g in range(n):
        for h in range(n):
            for t in range(L):
                V[g, idx(h, t), idx(h, t)] = B[g, h]
                U[g, idx(T.add[h, T.neg[g]], t), idx(h, t)] = 1.0
    for h in range(n):
        for t in range(L):
            M1[idx(T.neg[h], bar[t]), idx(h, t)] = eps_t[t] * a[h] * chi_t[t, h]
            for k in range(n):
                M2[idx(k, bar[t]), idx(h, t)] = (
                    eps * eps_t[t] * np.conj(c_t[t]) * np.conj(B[h, k]) / math.sqrt(n)
                )

    lt = np.zeros((m, m, m, m), dtype=complex)
    bt = s.btensor
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
                                    lt[idx(g, u), idx(T.add[h, k], r),
                                       idx(T.neg[h], ss), idx(k, t)] += v

    return AdmissibleTuple(
        mult=T.add.copy(), inv=T.neg.copy(), chi=B.copy(), V=V, U=U, M1=M1, M2=M2,
        ltensor=lt, eps=eps, d=float(s.d),
        meta={"group": s.group.factors, "L": L, "source": "to_tuple",
              "provenance": dict(s.provenance)},
    )


# ---------------------------------------------------------------------------
# special tuples with rational dimension


def build_z2_m1_tuple(zeta: complex) -> AdmissibleTuple:
    """The 1-dimensional tuples for G = Z2, m = 1: j1(T) = T, j2(T) = zeta T."""
    if abs(zeta**3 - 1) > 1e-12:
        raise ValueError("zeta must be a cube root of unity")
    mult = np.array([[0, 1], [1, 0]])
    inv = np.array([0, 1])
    chi = np.ones((2, 2), dtype=complex)  # all chi_h trivial (rational case t=1)
    V = np.array([[[1.0]], [[-1.0]]], dtype=complex)  # 1 (+) V = regular rep
    U = V.copy()
    M1 = np.array([[1.0]], dtype=complex)
    M2 = np.array([[zeta]], dtype=complex)
    lt = np.zeros((1, 1, 1, 1), dtype=complex)
    return AdmissibleTuple(mult, inv, chi, V, U, M1, M2, lt, eps=1, d=2.0,
                           meta={"kind": "z2_m1", "zeta": complex(zeta)})


_D8_GENS = [np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, -1.0]])]
_Q8_GENS = [np.array([[1j, 0.0], [0.0, -1j]]), np.array([[0.0, -1.0], [1.0, 0.0]])]


def _matrix_group(gens: list[np.ndarray]) -> list[np.ndarray]:
    def key(M):
        return tuple(np.round(M, 9).ravel().tolist())

    dim = gens[0].shape[0]
    els = {key(np.eye(dim, dtype=complex)): np.eye(dim, dtype=complex)}
    frontier = list(els.values())
    while frontier:
        new = []
        for A in frontier:
            for g in gens:
                Bm = g @ A
                k = key(Bm)
                if k not in els:
                    els[k] = Bm
                    new.append(Bm)
        frontier = new
    return list(els.values())


def build_extraspecial_tuple(k: int, kind: str = "D", zeta: complex = 1.0) -> AdmissibleTuple:
    """Tuple for an extra-special 2-group of order 2^(2k+1):

    K = K_pi (dimension 2^k), V = U_K = pi the unique large irrep, j1 = j the
    (anti-unitary) real/quaternionic structure, j2 = eps * zeta * j, chi the
    commutator pairing, l = 0.  kind "D" is the central product of k dihedral
    factors (eps = +1); kind "Q" replaces one factor by the quaternion group
    (eps = -1).
    """
    if k < 1 or k > 3:
        raise ValueError("k must be between 1 and 3")
    if kind not in ("D", "Q"):
        raise ValueError("kind must be 'D' or 'Q'")
    if abs(zeta**3 - 1) > 1e-12:
        raise ValueError("zeta must be a cube root of unity")
    factors = [_D8_GENS] * (k - 1 if kind == "Q" else k)
    if kind == "Q":
        factors = factors + [_Q8_GENS]
    dim = 2**k
    gens = []
    for i, fgens in enumerate(factors):
        for gmat in fgens:
            ops = [np.eye(2, dtype=complex)] * len(factors)
            ops[i] = gmat.astype(complex)
            full = ops[0]
            for op in ops[1:]:
                full = np.kron(full, op)
            gens.append(full)
    els = _matrix_group(gens)
    n = len(els)
    assert n == 2 ** (2 * k + 1), f"central product closure has order {n}"

    def key(M):
        r = np.round(M, 9).ravel()
        return tuple(zip(r.real.tolist(), r.imag.tolist()))

    # order with identity first
    els.sort(key=lambda M: (float(np.round(np.linalg.norm(M - np.eye(dim)), 9)), key(M)))
    index = {key(M): i for i, M in enumerate(els)}
    mult = np.empty((n, n), dtype=int)
    inv = np.empty(n, dtype=int)
    for i, A in enumerate(els):
        inv[i] = index[key(np.conj(A.T))]
        for j, Bm in enumerate(els):
            mult[i, j] = index[key(A @ Bm)]
    chi = np.empty((n, n), dtype=complex)
    for hi, H in enumerate(els):
        for gi, Gm in enumerate(els):
            chi[hi, gi] = np.trace(Gm @ H @ np.conj(Gm.T) @ np.conj(H.T)) / dim
    V = np.stack(els)
    eps = 1 if kind == "D" else -1
    if kind == "D":
        M1 = np.eye(dim, dtype=complex)
    else:
        J2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        M1 = np.eye(2 ** (k - 1), dtype=complex)
        M1 = np.kron(M1, J2)
    M2 = eps * zeta * M1
    lt = np.zeros((dim,) * 4, dtype=complex)
    return AdmissibleTuple(mult, inv, chi, V, V.copy(), M1, M2, lt, eps=eps,
                           d=float(2 ** (k + 1)),
                           meta={"kind": f"extraspecial-{kind}", "k": k,
                                 "zeta": complex(zeta)})


# ---------------------------------------------------------------------------
# verification


def verify_admissible(t: AdmissibleTuple, tolerance: float = DEFAULT_TOL) -> ResidualReport:
    """One residual per defining equation of admissibility."""
    n, m, d, eps = t.n, t.m, t.d, t.eps
    M1, M2, V, U, chi, L = t.M1, t.M2, t.V, t.U, t.chi, t.ltensor
    if V.shape != (n, m, m) or U.shape != (n, m, m) or L.shape != (m,) * 4:
        raise ValueError("tuple dimensions are inconsistent")
    out: dict[str, float] = {}
    eye = np.eye(m)

    out["involution"] = max(
        float(np.max(np.abs(M1 @ np.conj(M1) - eps * eye))),
        float(np.max(np.abs(M2 @ np.conj(M2) - eps * eye))),
    )
    out["j1"] = float(np.max(np.abs(np.einsum("gij,jk->gik", V, M1)
                                    - np.einsum("ij,gjk->gik", M1, np.conj(V)))))
    out["j2"] = float(np.max(np.abs(np.einsum("gij,jk->gik", U, M2)
                                    - np.einsum("ij,gjk->gik", M2, np.conj(V)))))
    R = t.rotation_matrix()
    out["period3"] = float(np.max(np.abs(R @ R @ R - eye)))
    out["weyl"] = float(np.max(np.abs(
        np.einsum("gij,hjk->ghik", U, V)
        - chi.T[:, :, None, None].transpose(1, 0, 2, 3) * np.einsum("hij,gjk->ghik", V, U)
    )))
    out["symmetric"] = float(np.max(np.abs(chi - chi.T)))
    # character identity n delta_{g,e} = (n/d^2) sum_h chi_h(g) + (n/d) Tr U(g)
    lhs = np.zeros(n)
    lhs[0] = n
    rep = (n / d**2) * chi.sum(axis=0) + (n / d) * np.einsum("gii->g", U)
    out["representation"] = float(np.max(np.abs(lhs - rep)))

    # invariance: (V(g) (x) V(g)) l(T) V(g)^* = l(T)
    worst = 0.0
    for g in range(n):
        moved = np.einsum("xa,yb,zc,tabc->txyz", V[g], V[g], np.conj(V[g]), L,
                          optimize=True)
        worst = max(worst, float(np.max(np.abs(moved - L))))
    out["invariance"] = worst

    # orthogonality1: (eps/d) sum_g (V(g) j2 T)^* + sum_i j1(T_i)^* T_i^* l(T) = 0
    VM2 = np.einsum("gij,jt->git", V, M2)
    row0 = (eps / d) * np.conj(VM2).sum(axis=0).T  # [t, k]
    row1 = np.einsum("tijk,ji->tk", L, np.conj(M1))
    out["orthogonality1"] = float(np.max(np.abs(row0 + row1)))

    # orthogonality2: (1/d) sum_h |V(h) j2 T'><V(h) j2 T| + l(T')^* l(T) = <T,T'> Q
    A = VM2  # [g, k, t] = (V(g) j2 T_t)[k]
    term1 = np.einsum("gls,gkt->stlk", A, np.conj(A)) / d  # [T', T, row, col]
    term2 = np.einsum("sijl,tijk->stlk", np.conj(L), L)
    target = np.einsum("st,lk->stlk", eye, eye)
    out["orthogonality2"] = float(np.max(np.abs(term1 + term2 - target)))

    # Frobenius1 / Frobenius2
    lhs1 = np.einsum("pt,pxyz->txyz", M1, L)
    rhs1 = np.einsum("tzjx,yj->txyz", np.conj(L), M1)
    out["frobenius1"] = float(np.max(np.abs(lhs1 - rhs1)))
    lhs2 = np.einsum("pt,pxyz->txyz", M2, L)
    rhs2 = np.einsum("tazy,ax->txyz", np.conj(L), M1)
    out["frobenius2"] = float(np.max(np.abs(lhs2 - rhs2)))

    # equivariance: l(V(g)T) = U(g) l(T) U(g)^*; conjugation by the grade-0
    # element U(g) dresses only the outer letters of each word
    worst = 0.0
    for g in range(n):
        lhs = np.einsum("pt,pxyz->txyz", V[g], L)
        rhs = np.einsum("xa,zc,tayc->txyz", U[g], np.conj(U[g]), L, optimize=True)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out["equivariance"] = worst

    # rhoU2
    W = t.w_matrix()
    wh = np.einsum("hxi,yi->hxy", U, M1).reshape(n, m * m)  # (U(h) M1^T).ravel()
    worst = 0.0
    for g in range(n):
        lhsM = np.kron(W @ U[g] @ np.conj(W.T), U[g])
        rhs1M = (wh.T * chi[:, g]) @ np.conj(wh) / d
        LU = np.einsum("pi,pxyk->ixyk", U[g], L)
        rhs2M = np.einsum("ixyk,iabk->xyab", LU, np.conj(L),
                          optimize=True).reshape(m * m, m * m)
        worst = max(worst, float(np.max(np.abs(lhsM - rhs1M - rhs2M))))
    out["rhoU2"] = worst

    # S*rho2S: (1/d) sum_{i,j} j2(T_i)^* l(l2_{ij}(T)) j2(T_j) = (1 - 2n/d^2) T
    Q = np.einsum("xi,bxyz,zj->bijy", np.conj(M2), L, M2, optimize=True)
    v = np.einsum("tibj,bijy->ty", L, Q, optimize=True) / d
    out["s_rho2_s"] = float(np.max(np.abs(v - (1 - 2 * n / d**2) * eye)))

    # l1: sum_i T'* l(T_i) j2(l(T)* j2(T'') T_i)
    #     = eps <T'',T'> T - (1/d) sum_h <j1(T), U(h)T''> j1(U(h) T')
    # (conjugation placement in the pairing fixed against the worked tuples;
    # for real U and real M1 all readings agree)
    Y = np.einsum("tabc,aq->tqcb", np.conj(L), M2, optimize=True)
    v1 = np.einsum("kc,tqci->tqik", M2, np.conj(Y), optimize=True)
    term2 = np.einsum("ipyk,tqik->tqpy", L, v1, optimize=True)
    s_h = np.einsum("hiq,it->hqt", U, np.conj(M1))
    u_h = np.einsum("hap,ya->hpy", np.conj(U), M1)
    term3 = np.einsum("hqt,hpy->tqpy", s_h, u_h)
    target = np.einsum("qp,ty->tqpy", eye, eye)
    out["l1"] = float(np.max(np.abs(term2 - eps * target + term3 / d)))

    # l2
    W1 = W
    Z = np.einsum("qabc,ap->qpcb", np.conj(L), W1, optimize=True)
    lhs = np.einsum("qpcb,bt->qptc", Z, W1, optimize=True)
    rhs = np.einsum("cb,tqbp->qptc", W1, L, optimize=True)
    out["l2"] = float(np.max(np.abs(lhs - rhs)))

    # l3 (the pairing against T'' evaluates as T''^* V(h) W1 T, matching l1's
    # convention above), one T at a time on m^5 slices [q x y, p z]:
    #   sum_b conj(L)[q,p,b,x] L[t,b,y,z] = sum_{b,i,c} L[t,q,b,i] L[b,x,y,c]
    #   conj(L)[i,p,z,c] + (1/d) sum_h (V(h) W1)[q,t] wh[h,x,y] conj(wh[h,p,z])
    cL = np.conj(L).transpose(0, 3, 1, 2).copy()  # [q, x, p, b] = [i, c, p, z]
    s2 = np.einsum("hij,jt->hit", V, W1)  # s2[h, q, t] = (V(h) W1)[q, t]
    worst = 0.0
    for tt in range(m):
        K = np.einsum("qbi,bxyc->qxyic", L[tt], L, optimize=True).reshape(m**3, m * m)
        r = K @ cL.reshape(m * m, m * m)
        r += (s2[:, :, tt, None] * wh[:, None, :]).reshape(n, m**3).T @ np.conj(wh) / d
        r -= np.einsum("qxpb,byz->qxypz", cL, L[tt], optimize=True).reshape(m**3, m * m)
        worst = max(worst, float(np.max(np.abs(r))))
    out["l3"] = worst

    return ResidualReport(out, tolerance)
