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
except l3 and the right-hand side of rhoU2.  l3 is an m^6 identity in T, q
and two pairs of letters (x, y), (p, z).  Its terms vanish between pairs
that the supports of l and of U(h) M1^T do not link, so it is evaluated only
on the diagonal blocks of that partition of pair space (``_l3_blocks``),
every T at once and in row chunks of at most m^5 entries; its rank-n term
is one GEMM per chunk, the n matrices V(h) W1 against the products
wh[h, (x, y)] conj(wh[h, (p, z)]) of the chunk's pairs with the block's.
rhoU2 is an m^2 x m^2 identity per g over pairs whose right-hand terms
vanish off the same blocks; they are evaluated per block, and the left side
off the blocks is compared with 0.  A graded export splits into one block
per grade; a tuple whose supports link every pair is one block.  One
residual is reported per equation name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solutions import GeneralSolution, ResidualReport, normal_form, residual

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


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y with each real product rounded on its own, as numpy's complex
    scalar product has it (its array product may fuse them into one FMA)."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def to_tuple(s: GeneralSolution, check: bool = True) -> AdmissibleTuple:
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
    nf = normal_form(s.acj)
    T, B, a, chi_t = nf.T, nf.B, nf.a, nf.chi  # chi_t[t, g]
    bar, c_t, eps_t, eps = nf.bar, nf.c_t, nf.eps_t, s.acj.eps
    n, L = s.n, s.L
    m = n * L

    def idx(h, t):  # ints or index arrays
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

    # l(T_g(e_u)) term by term over the axes (g, u, h, k, r, s, t); every
    # target index is hit once, so += adds each product to a zero once
    g, u, h, k, r, ss, tt = np.ogrid[:n, :L, :n, :n, :L, :L, :L]
    coef = _cmul(_cmul(_cmul(B[g, k], a[h]), chi_t[r, h]),
                 s.btensor[r, ss, tt, u, T.add[g, h]])
    lt = np.zeros((m, m, m, m), dtype=complex)
    lt[idx(g, u), idx(T.add[h, k], r), idx(T.neg[h], ss), idx(k, tt)] += coef

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


def _l3_blocks(L: np.ndarray, wh: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The finest partition of the pairs (x, y), flat index x m + y, that all
    three l3 terms respect: one (pairs, letters) per block.

    RHS1 links a pair (x, y) to a letter c when some L[b, x, y, c] != 0; LHS
    links (x, y) to (p, z) when some b has L[., p, b, x] != 0 and
    L[., b, y, z] != 0; RHS2 links them when some h has wh[h, xy] != 0 and
    wh[h, pz] != 0.  A block is a connected component of these links over
    pairs and letters.  A pair with no link, not even to itself, is in no
    block: every l3 term vanishes on its row and column.
    """
    m = L.shape[0]
    mm = m * m
    nz = (L != 0).any(axis=0)  # nz[a, b, c]: some L[., a, b, c] != 0
    f = nz.astype(float)  # lhs[xy, pz] = sum_b nz[p, b, x] nz[b, y, z] > 0
    lhs = np.tensordot(f, f, axes=(1, 0)).transpose(1, 2, 0, 3).reshape(mm, mm) > 0
    w = (wh != 0).astype(float)
    adj = np.zeros((mm + m, mm + m), dtype=bool)
    adj[:mm, :mm] = lhs | lhs.T | (w.T @ w > 0)
    adj[:mm, mm:] = nz.reshape(mm, m)
    adj[mm:, :mm] = adj[:mm, mm:].T
    # label propagation: each node takes its least neighbour's label, then
    # its label's label, until every component carries one label
    label = np.arange(mm + m)
    while True:
        new = np.minimum(label, np.where(adj, label, mm + m).min(axis=1))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    linked = adj.any(axis=1)
    blocks = []
    # the distinct labels, ascending; np.unique would import numpy.ma on first use
    for lab in np.flatnonzero(np.bincount(label[:mm][linked[:mm]])):
        members = np.flatnonzero(label == lab)
        blocks.append((members[members < mm], members[members >= mm] - mm))
    return blocks


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
    # U(g) V(h) - chi[g, h] V(h) U(g) at [g, h], by broadcasting
    out["weyl"] = float(np.max(np.abs(
        U[:, None] @ V - chi[:, :, None, None] * (V @ U[:, None]))))
    out["symmetric"] = float(np.max(np.abs(chi - chi.T)))
    # character identity n delta_{g,e} = (n/d^2) sum_h chi_h(g) + (n/d) Tr U(g)
    lhs = np.zeros(n)
    lhs[0] = n
    rep = (n / d**2) * chi.sum(axis=0) + (n / d) * np.einsum("gii->g", U)
    out["representation"] = float(np.max(np.abs(lhs - rep)))

    # invariance: (V(g) (x) V(g)) l(T) V(g)^* = l(T), one letter at a time
    worst = 0.0
    for g in range(n):
        moved = V[g] @ (L @ np.conj(V[g]).T)  # [t, a, y, z]
        moved = V[g] @ moved.reshape(m, m, m * m)  # [t, x, (y, z)]
        worst = max(worst, float(np.max(np.abs(moved.reshape(L.shape) - L))))
    out["invariance"] = worst

    # orthogonality1: (eps/d) sum_g (V(g) j2 T)^* + sum_i j1(T_i)^* T_i^* l(T) = 0
    VM2 = np.einsum("gij,jt->git", V, M2)
    row0 = (eps / d) * np.conj(VM2).sum(axis=0).T  # [t, k]
    row1 = np.einsum("tijk,ji->tk", L, np.conj(M1))
    out["orthogonality1"] = float(np.max(np.abs(row0 + row1)))

    # orthogonality2: (1/d) sum_h |V(h) j2 T'><V(h) j2 T| + l(T')^* l(T) = <T,T'> Q
    A = VM2  # [g, k, t] = (V(g) j2 T_t)[k]
    term1 = np.tensordot(A, np.conj(A), axes=(0, 0)).transpose(1, 3, 0, 2) / d
    term2 = np.tensordot(np.conj(L), L, axes=([1, 2], [1, 2])).transpose(0, 2, 1, 3)
    target = np.einsum("st,lk->stlk", eye, eye)  # [T', T, row, col]
    out["orthogonality2"] = float(np.max(np.abs(term1 + term2 - target)))
    del term1, term2, target  # m^4 entries each, not to be held through rhoU2

    # Frobenius1 / Frobenius2
    #   sum_p M1[p, t] L[p, x, y, z] = sum_j conj(L)[t, z, j, x] M1[y, j]
    #   sum_p M2[p, t] L[p, x, y, z] = sum_a conj(L)[t, a, z, y] M1[a, x]
    # lhs1 has one term per entry (an export's M1 has one entry per column),
    # so BLAS gives einsum's values; lhs2 sums over a dense M2 (the j2 of a
    # Z_n export) and keeps einsum's order, so that the reported residuals
    # keep their last bits
    cL = np.conj(L)
    lhs1 = (M1.T @ L.reshape(m, m**3)).reshape(L.shape)
    rhs1 = np.tensordot(cL, M1, axes=(2, 1)).transpose(0, 2, 3, 1)  # from [t, z, x, y]
    out["frobenius1"] = float(np.max(np.abs(lhs1 - rhs1)))
    lhs2 = np.einsum("pt,pxyz->txyz", M2, L)
    rhs2 = np.tensordot(cL, M1, axes=(1, 0)).transpose(0, 3, 2, 1)  # from [t, z, y, x]
    out["frobenius2"] = float(np.max(np.abs(lhs2 - rhs2)))
    del cL, lhs1, rhs1, lhs2, rhs2

    # equivariance: l(V(g)T) = U(g) l(T) U(g)^*; conjugation by the grade-0
    # element U(g) dresses only the outer letters of each word
    worst = 0.0
    for g in range(n):
        lhs = V[g].T @ L.reshape(m, m**3)
        rhs = U[g] @ (L @ np.conj(U[g]).T).reshape(m, m, m * m)  # [t, x, (y, z)]
        worst = max(worst, float(np.max(np.abs(lhs - rhs.reshape(m, m**3)))))
    out["equivariance"] = worst

    # rhoU2: kron(W U(g) W^*, U(g)) = RHS1 + RHS2 over pairs (x, y), (a, b),
    #   RHS1 = (1/d) sum_h chi_h(g) wh[h, x, y] conj(wh[h, a, b]),
    #   RHS2 = sum_{t,i,c} L[t, x, y, c] U(g)[t, i] conj(L)[i, a, b, c].
    # Both right-hand terms link only pairs of one block of _l3_blocks, so
    # they are taken from the left side per block, for every g at once, and
    # off the blocks the left side is compared with 0.
    W = t.w_matrix()
    wh = np.einsum("hxi,yi->hxy", U, M1).reshape(n, m * m)  # (U(h) M1^T).ravel()
    blocks = _l3_blocks(L, wh)
    WUW = W @ U @ np.conj(W.T)
    r = (WUW[:, :, None, :, None] * U[:, None, :, None, :]).reshape(n, m * m, m * m)
    for pairs, letters in blocks:
        Lb = L.reshape(m, m * m, m)[:, pairs][:, :, letters]  # [t, (x, y), c]
        LU = np.tensordot(U, Lb, axes=(1, 0)).transpose(0, 2, 1, 3)  # [g, (x, y), i, c]
        cLb = np.conj(Lb).transpose(0, 2, 1).reshape(-1, len(pairs))  # [(i, c), (a, b)]
        rhs = LU.reshape(n, len(pairs), -1) @ cLb
        rhs += (wh[:, pairs].T * chi.T[:, None]) @ np.conj(wh[:, pairs]) / d
        r[:, pairs[:, None], pairs] -= rhs
    out["rhoU2"] = float(np.max(np.abs(r)))
    del r  # n m^4 entries, not to be held through l1 and l3

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
    s_h = U.transpose(0, 2, 1) @ np.conj(M1)  # [h, q, t] = (U(h)^T conj(M1))[q, t]
    u_h = np.conj(U).transpose(0, 2, 1) @ M1.T  # [h, p, y] = (U(h)^* M1^T)[p, y]
    term3 = np.tensordot(s_h, u_h, axes=(0, 0)).transpose(1, 0, 2, 3)  # from [q, t, p, y]
    target = np.einsum("qp,ty->tqpy", eye, eye)
    out["l1"] = float(np.max(np.abs(term2 - eps * target + term3 / d)))

    # l2
    W1 = W
    Z = np.einsum("qabc,ap->qpcb", np.conj(L), W1, optimize=True)
    lhs = np.einsum("qpcb,bt->qptc", Z, W1, optimize=True)
    rhs = np.einsum("cb,tqbp->qptc", W1, L, optimize=True)
    out["l2"] = float(np.max(np.abs(lhs - rhs)))

    # l3 (the pairing against T'' evaluates as T''^* V(h) W1 T, matching l1's
    # convention above), for all T, q and pairs (x, y), (p, z):
    #   sum_b conj(L)[q,p,b,x] L[t,b,y,z] = sum_{b,i,c} L[t,q,b,i] L[b,x,y,c]
    #   conj(L)[i,p,z,c] + (1/d) sum_h (V(h) W1)[q,t] wh[h,x,y] conj(wh[h,p,z]).
    # Every term vanishes unless (x, y) and (p, z) lie in one block of
    # _l3_blocks, so only the diagonal blocks are evaluated, every T at once
    # and a chunk of a block's rows at a time, each array at most m^5 entries.
    # RHS2 is one GEMM per chunk: s2 [(t, q), h] times the products
    # wh[h, (x, y)] conj(wh[h, (p, z)]) of the chunk's rows and the block's
    # pairs, with 1/d taken into s2.
    s2 = (V @ W1).transpose(2, 1, 0).reshape(m * m, n) / d  # [(t, q), h] = (V(h) W1)[q, t] / d
    Lt = L.transpose(0, 1, 3, 2).reshape(m**3, m)  # [(t, q, i), b]
    cLx = np.conj(L).transpose(3, 1, 0, 2)  # [x, p, q, b] = conj(L)[q, p, b, x]
    Ly = L.transpose(2, 3, 1, 0)  # [y, z, b, t] = L[t, b, y, z]
    worst = 0.0
    for pairs, letters in blocks:
        x, y = np.divmod(pairs, m)
        p, c = len(pairs), len(letters)
        Lb = L.reshape(m, m * m, m)[:, pairs][:, :, letters]  # [b, (x, y), c]
        cLb = np.conj(Lb).transpose(0, 2, 1).reshape(m * c, p)  # [(i, c), (p, z)]
        cwhb = np.conj(wh[:, pairs])
        step = max(1, m**3 // max(p, n, m * c))
        for lo in range(0, p, step):
            rows = slice(lo, lo + step)
            k = len(pairs[rows])
            r = (Lt @ Lb[:, rows].reshape(m, k * c)).reshape(m * m, m, k, c)  # [(t, q), i, xy, c]
            r = r.transpose(0, 2, 1, 3).reshape(m * m * k, m * c) @ cLb  # RHS1
            r += (s2 @ (wh[:, pairs[rows], None] * cwhb[:, None]).reshape(n, k * p)).reshape(
                m * m * k, p)  # RHS2
            r = r.reshape(m, m, k, p)  # [t, q, (x, y), (p, z)]
            r -= (cLx[x[rows, None], x] @ Ly[y[rows, None], y]).transpose(3, 2, 0, 1)
            worst = max(worst, float(np.max(np.abs(r))))
    out["l3"] = worst

    return ResidualReport(out, tolerance)
