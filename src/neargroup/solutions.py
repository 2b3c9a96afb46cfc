"""Solution data for the classification systems and their residual checks.

Two regimes are covered:

* ``MNSolution`` (m = |G|): the tuple (<.,.>, a, b, c) of the m=n theorem,
  checked against both the Galois-form system (Gal1)-(Gal8), written with
  c' = conj(c)/sqrt(n), and the original five m=n equations.  The two systems
  are redundant on purpose; they cross-check each other's transcription.
* ``GeneralSolution`` (m a multiple of |G|, d irrational): the normal form
  (eps, <.,.>, Lambda, chi_t, c_t, eps_t, a, b^{r,s}_{t,u}(g)) together with
  the ten tensor equations (p1)-(p10), the derived (p11), and the unitarity
  of the matrices B(g).

Residual evaluation never raises on a math failure; it returns a
:class:`ResidualReport` with one maximum absolute residual per equation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .abelian import (
    Bicharacter,
    FiniteAbelianGroup,
    GroupAutomorphism,
    QuadraticForm,
    _squarefree,
)

__all__ = [
    "QuadraticIrrational",
    "dimension_d",
    "ResidualReport",
    "MNSolution",
    "ACJData",
    "GeneralSolution",
    "residual_mn",
    "residual_general",
    "residual",
    "mn_normal_form",
    "mn_to_general",
    "gauge_act",
    "aut_act",
    "gauge_group_basis",
    "sample_gauge",
    "gauge_orbit_search",
    "equivalent",
    "fingerprint",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class QuadraticIrrational:
    """Exact (p + q*sqrt(D))/r with D squarefree (rational iff D == 1)."""

    p: int
    q: int
    D: int
    r: int = 1

    @property
    def value(self) -> float:
        return (self.p + self.q * math.sqrt(self.D)) / self.r

    @property
    def is_rational(self) -> bool:
        return self.D == 1 or self.q == 0

    def __float__(self) -> float:
        return self.value


def dimension_d(n: int, m: int) -> QuadraticIrrational:
    """d = (m + sqrt(m^2 + 4n)) / 2, the dimension solving d^2 = n + m d."""
    D = m * m + 4 * n
    D0 = _squarefree(D)
    s = math.isqrt(D // D0)
    if D0 == 1:
        p, q, r = m + s, 0, 2
    else:
        p, q, r = m, s, 2
    g = math.gcd(p, q, r)
    return QuadraticIrrational(p // g, q // g, D0, r // g)


@dataclass
class ResidualReport:
    per_equation: dict[str, float]
    tolerance: float = DEFAULT_TOL
    errors: list[str] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(self.per_equation.values()) if self.per_equation else 0.0

    @property
    def passed(self) -> bool:
        return not self.errors and self.max_residual < self.tolerance

    def worst(self, k: int = 3) -> list[tuple[str, float]]:
        return sorted(self.per_equation.items(), key=lambda kv: -kv[1])[:k]

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        lines = [f"[{status}] max residual {self.max_residual:.3e} (tol {self.tolerance:.1e})"]
        for name, val in sorted(self.per_equation.items()):
            lines.append(f"  {name:16s} {val:.3e}")
        lines.extend(f"  error: {e}" for e in self.errors)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# index tables


class GroupTables:
    """Dense index tables for one group, shared by the residual evaluators."""

    def __init__(self, G: FiniteAbelianGroup):
        self.G = G
        els = G.elements()
        self.n = G.order
        self.add = np.empty((self.n, self.n), dtype=int)
        self.neg = np.empty(self.n, dtype=int)
        for g in els:
            ig = G.index_of(g)
            self.neg[ig] = G.index_of(G.neg(g))
            for h in els:
                self.add[ig, G.index_of(h)] = G.index_of(G.add(g, h))
        self.zero = G.index_of(G.zero())


_TABLE_CACHE: dict[tuple[int, ...], GroupTables] = {}


def tables(G: FiniteAbelianGroup) -> GroupTables:
    key = G.factors
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = GroupTables(G)
    return _TABLE_CACHE[key]


# ---------------------------------------------------------------------------
# m = n solutions


@dataclass(frozen=True)
class MNSolution:
    """Data (<.,.>, a, b, c) for m = |G|; d is pinned by d^2 = n + n d."""

    group: FiniteAbelianGroup
    bichar: Bicharacter
    form: QuadraticForm
    b: np.ndarray  # complex, indexed like group.elements()
    c: complex
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=complex))

    @property
    def n(self) -> int:
        return self.group.order

    @property
    def m(self) -> int:
        return self.group.order

    @cached_property
    def d_exact(self) -> QuadraticIrrational:
        return dimension_d(self.n, self.m)

    @property
    def d(self) -> float:
        return self.d_exact.value

    @property
    def c_prime(self) -> complex:
        return np.conj(self.c) / math.sqrt(self.n)

    def conj(self) -> "MNSolution":
        return MNSolution(self.group, self.bichar.conj(), self.form.conj(),
                          np.conj(self.b), np.conj(self.c))


def residual_mn(s: MNSolution, tolerance: float = DEFAULT_TOL) -> ResidualReport:
    """All eight Galois-form equations plus the five original m=n equations."""
    G, n, d = s.group, s.n, s.d
    T = tables(G)
    B = s.bichar.matrix()
    a = s.form.table()
    b = s.b
    cp = s.c_prime
    cc = s.c
    out: dict[str, float] = {}

    delta0 = np.zeros(n)
    delta0[T.zero] = 1.0

    out["gal1"] = abs(cp**3 - a.sum() / n**2)
    out["gal2"] = abs(d * d - d * n - n)
    Rb = cp * np.conj(a) * (B @ b)
    out["gal3"] = float(np.max(np.abs(Rb - b)))
    out["gal4"] = abs(b[T.zero] + 1 / d)
    out["gal5"] = float(np.max(np.abs(a * b * b[T.neg] - (1 / n - delta0 / d))))
    lhs6 = np.einsum("g,g,gh,gk->hk", a, b[T.neg], b[T.add], b[T.add])
    rhs6 = np.conj(B) * np.outer(b, b) - 1 / (cp * d * n)
    out["gal6"] = float(np.max(np.abs(lhs6 - rhs6)))
    Jb = np.conj(a * b[T.neg])
    out["gal7"] = float(np.max(np.abs(Jb - b)))
    out["gal8"] = 0.0 if d > 0 else float(abs(d))

    bhat = np.conj(B) @ b / math.sqrt(n)
    out["mn1"] = float(np.max(np.abs(bhat - cc * a * b[T.neg])))
    out["mn2"] = out["gal4"]
    out["mn3"] = float(np.max(np.abs(np.abs(b) ** 2 - (1 / n - delta0 / d))))
    out["mn4"] = float(np.max(np.abs(np.conj(b) - a * b[T.neg])))
    lhs5 = np.einsum("gh,gk,g->hk", b[T.add], b[T.add], np.conj(b))
    rhs5 = np.conj(B) * np.outer(b, b) - cc / (d * math.sqrt(n))
    out["mn5"] = float(np.max(np.abs(lhs5 - rhs5)))
    return ResidualReport(out, tolerance)


# ---------------------------------------------------------------------------
# general irrational solutions


@dataclass(frozen=True)
class ACJData:
    """Normal-form data on K0: involution on Lambda, characters chi_t (stored
    through the group elements g_t with chi_t = <., g_t>), cube-root scalars
    c_t, signs eps_t, global sign eps, and the base form a."""

    bichar: Bicharacter
    form: QuadraticForm
    bar: tuple[int, ...]  # involution on range(L)
    g_t: tuple[tuple[int, ...], ...]  # chi_t = <., g_t>
    c_t: tuple[complex, ...]
    eps_t: tuple[int, ...]
    eps: int

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.bichar.group

    @property
    def L(self) -> int:
        return len(self.bar)

    def chi(self) -> np.ndarray:
        """chi[t, g]-value table."""
        G = self.group
        return np.array([[self.bichar(g, gt) for g in G] for gt in self.g_t])

    def validate(self) -> list[str]:
        errs = []
        L, G = self.L, self.group
        if sorted((len(self.g_t), len(self.c_t), len(self.eps_t))) != [L, L, L]:
            return ["index-set tables have inconsistent sizes"]
        if any(self.bar[self.bar[t]] != t for t in range(L)):
            errs.append("bar is not an involution")
        for t in range(L):
            if self.g_t[self.bar[t]] != G.neg(self.g_t[t]):
                errs.append(f"chi_bar(t) != chi_t^-1 at t={t}")
            if abs(self.c_t[self.bar[t]] - self.c_t[t]) > 1e-9:
                errs.append(f"c_bar(t) != c_t at t={t}")
            if self.eps_t[t] * self.eps_t[self.bar[t]] != self.eps:
                errs.append(f"eps_t*eps_tbar != eps at t={t}")
        return errs


@dataclass(frozen=True)
class GeneralSolution:
    """(eps, <.,.>, ACJ data, b^{r,s}_{t,u}(g)) for m = L * |G| irrational."""

    group: FiniteAbelianGroup
    acj: ACJData
    btensor: np.ndarray  # shape (L, L, L, L, n)
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "btensor", np.asarray(self.btensor, dtype=complex))

    @property
    def n(self) -> int:
        return self.group.order

    @property
    def L(self) -> int:
        return self.acj.L

    @property
    def m(self) -> int:
        return self.L * self.n

    @cached_property
    def d_exact(self) -> QuadraticIrrational:
        return dimension_d(self.n, self.m)

    @property
    def d(self) -> float:
        return self.d_exact.value

    def bmatrix(self, gi: int) -> np.ndarray:
        """B(g) with ((r,t),(s,u)) entries b^{r,s}_{t,u}(g), lexicographic."""
        L = self.L
        return self.btensor[..., gi].transpose(0, 2, 1, 3).reshape(L * L, L * L)

    def conj(self) -> "GeneralSolution":
        acj = self.acj
        new_acj = ACJData(
            acj.bichar.conj(),
            acj.form.conj(),
            acj.bar,
            acj.g_t,
            tuple(np.conj(c) for c in acj.c_t),
            acj.eps_t,
            acj.eps,
        )
        return GeneralSolution(self.group, new_acj, np.conj(self.btensor))


def mn_normal_form(bichar: Bicharacter, form: QuadraticForm, c: complex) -> ACJData:
    """The L = 1 normal form of the m = n system with cube-root scalar c."""
    return ACJData(bichar=bichar, form=form, bar=(0,), g_t=(bichar.group.zero(),),
                   c_t=(complex(c),), eps_t=(1,), eps=1)


def mn_to_general(s: MNSolution) -> GeneralSolution:
    """View an m=n solution as the L=1 case of the general normal form."""
    bt = s.b.reshape(1, 1, 1, 1, s.n)
    return GeneralSolution(s.group, mn_normal_form(s.bichar, s.form, s.c), bt,
                           provenance=dict(s.provenance))


def tensor_equations(acj: ACJData, d: float) -> dict:
    """The tensor equations of the normal form ``acj`` at dimension ``d``, as
    functions of the b-tensor: each returns the array lhs - rhs of one
    equation, zero on a solution.  Keys: (p1)-(p11) and ``bg_unitary``."""
    G = acj.group
    n, L = G.order, acj.L
    T = tables(G)
    B = acj.bichar.matrix()
    a = acj.form.table()
    chi = acj.chi()  # (L, n)
    eps_t = np.array(acj.eps_t, dtype=float)
    c_t = np.array(acj.c_t, dtype=complex)
    eps = acj.eps
    bar = np.array(acj.bar, dtype=int)
    gi = np.array([G.index_of(x) for x in acj.g_t], dtype=int)  # chi_t = <., g_t>
    r, s, t, u, g = np.ogrid[:L, :L, :L, :L, :n]

    eye = np.eye(L)
    delta0 = np.zeros(n)
    delta0[T.zero] = 1.0
    rhs4 = (np.einsum("sb,ua->sbua", eye, eye)[..., None] / n
            - np.einsum("su,ba->sbua", eye, eye)[..., None] * delta0 / d)
    rhs5 = (np.einsum("ra,tb->ratb", eye, eye)[..., None] / n
            - np.einsum("rt,ab->ratb", eye, eye)[..., None] * delta0 / d)
    # (p6): b^{r,s}_{t,u} vanishes unless chi_r chi_s = chi_t chi_u
    off_support = T.add[gi[r], gi[s]] != T.add[gi[t], gi[u]]
    shift = T.add[gi[s], T.neg[gi[u]]]  # g_s - g_u, for (p11)
    # B(g)* B(g) = B(g) B(g)* = (1/n) I - (delta_{g,0}/d) delta delta*
    unit = np.broadcast_to(np.eye(L * L) / n, (n, L * L, L * L)).copy()
    unit[T.zero] -= np.outer(eye.ravel(), eye.ravel()) / d

    def bg_unitary(b):
        M = b.transpose(4, 0, 2, 1, 3).reshape(n, L * L, L * L)  # B(g), as bmatrix
        Mh = M.conj().transpose(0, 2, 1)
        return np.stack([Mh @ M - unit, M @ Mh - unit])

    def p10(b):
        # one (h, k) matrix equation for each (r, u, v, w, p, x) in Lambda^6
        R, U, V, W, P, X, H, K = np.ogrid[:L, :L, :L, :L, :L, :L, :n, :n]
        base = b[bar][:, :, bar][..., T.add]  # [r,u,t,s,g,h] = b[rb,u,tb,s,g+h]
        lhs = (c_t * eps_t)[R] * np.einsum(
            "t,vwqsg,rutsgh,pxqtgk->ruvwpxhk",
            eps_t * np.conj(c_t), np.conj(b), base, b[..., T.add], optimize=True)
        inner = np.einsum("pyvrk,xwyuh->ruvwpxhk", b, b[:, bar][:, :, :, bar])
        rhs = (eps_t[U] * eps_t[W] * (chi[R, H] * np.conj(chi[U, H]))
               * np.conj(B)[H, K] * inner)
        rhs = rhs - np.where((R == U) & (W == bar[V]) & (X == bar[P]),
                             c_t[U] * eps_t[bar[P]] * eps_t[V] / (d * math.sqrt(n)), 0)
        return lhs - rhs

    return {
        "p1": lambda b: (np.einsum("gh,rstuh->rstug", B, b) / math.sqrt(n)
                         - eps * eps_t[r] * eps_t[t] * c_t[u] * a[g] * chi[u, g]
                         * b[s, bar[t], bar[r], u, g]),
        "p2": lambda b: np.einsum("rsru->su", b[..., T.zero]) + eye / d,
        "p3": lambda b: np.einsum("rsts->rt", b[..., T.zero]) + eye / d,
        # B(g) column/row orthogonality
        "p4": lambda b: np.einsum("rbtag,rstug->sbuag", np.conj(b), b) - rhs4,
        "p5": lambda b: np.einsum("rstug,asbug->ratbg", b, np.conj(b)) - rhs5,
        "p6": lambda b: np.where(off_support, b, 0),
        "p7": lambda b: (np.conj(b) - eps_t[s] * eps_t[u] * a[g] * chi[u, g]
                         * b[t, bar[s], r, bar[u], T.neg[g]]),
        "p8": lambda b: (np.conj(b) - eps_t[t] * eps_t[r] * c_t[r] * np.conj(c_t[t])
                         * a[g] * chi[r, g] * b[bar[r], u, bar[t], s, T.neg[g]]),
        "p9": lambda b: (b - eps_t[r] * eps_t[s] * eps_t[t] * eps_t[u]
                         * c_t[t] * np.conj(c_t[r]) * np.conj(chi[r, g] * chi[s, g])
                         * b[bar[t], bar[u], bar[r], bar[s], g]),
        # (p11) is implied by (p1) and (p9); checked as a transcription cross-check
        "p11": lambda b: (b - c_t[r] * c_t[u] * np.conj(c_t[s] * c_t[t])
                          * b[s, r, u, t, T.add[g, shift]]),
        "bg_unitary": bg_unitary,
        "p10": p10,
    }


def residual_general(s: GeneralSolution, tolerance: float = DEFAULT_TOL) -> ResidualReport:
    """The scalar relation of the normal form (``acj3``) and every equation of
    :func:`tensor_equations`, each as its largest absolute residual.  Raises
    ``ValueError`` if the normal-form data is inconsistent."""
    errs = s.acj.validate()
    if errs:
        raise ValueError("; ".join(errs))
    acj = s.acj
    # acj scalar relation: sum_g a(g) chi_t(g) = sqrt(n) c_t^{-3}
    gsum = np.einsum("g,tg->t", acj.form.table(), acj.chi())
    out = {"acj3": float(np.max(np.abs(
        gsum - math.sqrt(s.n) * np.array(acj.c_t, dtype=complex) ** (-3.0))))}
    for name, eq in tensor_equations(acj, s.d).items():
        out[name] = float(np.max(np.abs(eq(s.btensor))))
    return ResidualReport(out, tolerance)


def residual(s, tolerance: float = DEFAULT_TOL) -> ResidualReport:
    """``residual_mn`` of an ``MNSolution``, ``residual_general`` of any other
    solution.  Both are looked up by their module-level names at each call."""
    return (residual_mn if isinstance(s, MNSolution) else residual_general)(s, tolerance)


# ---------------------------------------------------------------------------
# gauge and automorphism actions


def gauge_act(u: np.ndarray, s: GeneralSolution, check: bool = True) -> GeneralSolution:
    """b'[r',s',t',u'] = sum u[r'r] u[s's] conj(u[t't] u[u'u]) b[r,s,t,u]."""
    u = np.asarray(u, dtype=complex)
    if check and not in_gauge_group(u, s.acj):
        raise ValueError("u is not in the gauge group G(A,C,J)")
    bt = _gauge_stack(u[None], s.btensor)[0]
    return GeneralSolution(s.group, s.acj, bt, provenance=dict(s.provenance))


def _gauge_stack(U: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """The b-tensors moved by each gauge of the stack U (shape (P, L, L))."""
    b = np.einsum("par,rstug->pastug", U, bt)
    b = np.einsum("pbs,pastug->pabtug", U, b)
    b = np.einsum("pct,pabtug->pabcug", U.conj(), b)
    return np.einsum("pdu,pabcug->pabcdg", U.conj(), b)


def _expm_ah(X: np.ndarray) -> np.ndarray:
    """exp(X) for a stack (..., L, L) of anti-Hermitian X, in closed form:
    -iX = V diag(w) V* is Hermitian, so exp(X) = V diag(e^{iw}) V*."""
    w, V = np.linalg.eigh(-1j * X)
    return (V * np.exp(1j * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _gauge_constraints(acj: ACJData) -> tuple[list[np.ndarray], np.ndarray]:
    """What the gauge group G(A,C,J) commutes with: the diagonal matrices
    diag(a(g) chi(g)), one per g, and diag(c_t), and the matrix Jm of the
    anti-linear J e_t = eps_t e_{bar t}, for which u J = J u reads
    u Jm = Jm conj(u)."""
    chi = acj.chi()
    a = acj.form.table()
    mats = [np.diag(a[gi] * chi[:, gi]) for gi in range(acj.group.order)]
    mats.append(np.diag(acj.c_t))
    Jm = np.zeros((acj.L, acj.L), dtype=complex)
    Jm[list(acj.bar), range(acj.L)] = acj.eps_t
    return mats, Jm


def in_gauge_group(u: np.ndarray, acj: ACJData) -> bool:
    """Membership in G(A,C,J): unitary, commutes with every A(g), C and J."""
    tol = 1e-9
    L = acj.L
    u = np.asarray(u, dtype=complex)
    if u.shape != (L, L) or np.linalg.norm(u.conj().T @ u - np.eye(L)) > tol:
        return False
    mats, Jm = _gauge_constraints(acj)
    return bool(all(np.linalg.norm(u @ M - M @ u) <= tol for M in mats)
                and np.linalg.norm(u @ Jm - Jm @ np.conj(u)) <= tol)


_GAUGE_CACHE: dict = {}


def gauge_group_basis(acj: ACJData) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(Lie algebra basis, finite component representatives) of G(A,C,J).

    The algebra consists of anti-Hermitian matrices commuting with all A(g),
    C and J; representatives of extra components are searched among signed
    permutation matrices compatible with the same constraints, and kept up to
    sign, since -1 acts trivially on b, and one per connected component: P is
    dropped when +-Q^-1 P = exp(X), X in the algebra, for a kept Q.  The
    exponential is the closed form of :func:`_expm_ah`.
    """
    if acj in _GAUGE_CACHE:
        return _GAUGE_CACHE[acj]
    L = acj.L
    # linear constraints on X (L x L complex, 2L^2 real unknowns)
    mats, Jm = _gauge_constraints(acj)

    def real_flat(X):
        return np.concatenate([X.real.ravel(), X.imag.ravel()])

    rows = []
    basis_real = []
    for i in range(L):
        for j in range(L):
            for im in (0, 1):
                X = np.zeros((L, L), dtype=complex)
                X[i, j] = 1j if im else 1.0
                basis_real.append(X)
    for X in basis_real:
        row = []
        for M in mats:
            row.append(real_flat(X @ M - M @ X))
        row.append(real_flat(X @ Jm - Jm @ np.conj(X)))
        # anti-hermitian
        row.append(real_flat(X + X.conj().T))
        rows.append(np.concatenate(row))
    A = np.array(rows).T  # constraints as columns act on coefficient vector
    # kernel of A (coefficients over the real basis)
    _, sv, vt = np.linalg.svd(A if A.size else np.zeros((1, len(basis_real))))
    null = [vt[k] for k in range(len(sv), len(basis_real))] + [
        vt[k] for k in range(len(sv)) if sv[k] < 1e-10
    ]
    algebra = []
    for coeffs in null:
        X = sum(c * Xb for c, Xb in zip(coeffs, basis_real))
        if np.linalg.norm(X) > 1e-10:
            algebra.append(X)
    # the algebra elements are orthonormal in the real_flat coordinates
    Xs = np.reshape(algebra, (-1, L, L))
    F = np.reshape([real_flat(X) for X in Xs], (len(Xs), 2 * L * L))

    def connected(u) -> bool:
        """u = exp(X) to 1e-10 for X = log(u) projected onto the algebra;
        False whenever that test fails."""
        w, V = np.linalg.eig(u)  # unitary, so diagonalisable: log u = V log(w) V^-1
        logu = (V * np.log(w.astype(complex))) @ np.linalg.inv(V)
        X = np.tensordot(F @ real_flat(logu), Xs, 1)
        return np.max(np.abs(_expm_ah(X) - u)) < 1e-10

    # finite components: signed permutations preserving the structure
    comps = [np.eye(L)]
    for perm in itertools.permutations(range(L)):
        for signs in itertools.product((1.0, -1.0), repeat=L):
            P = np.zeros((L, L))
            for i, j in enumerate(perm):
                P[j, i] = signs[i]
            if in_gauge_group(P, acj) and not any(
                    connected(sign * Q.T @ P) for Q in comps for sign in (1, -1)):
                comps.append(P)
    _GAUGE_CACHE[acj] = (algebra, comps)
    return algebra, comps


def sample_gauge(acj: ACJData, rng: np.random.Generator) -> np.ndarray:
    """A random element of G(A,C,J)."""
    algebra, comps = gauge_group_basis(acj)
    X = sum(rng.normal() * Xb for Xb in algebra) if algebra else np.zeros((acj.L, acj.L))
    return comps[rng.integers(len(comps))] @ _expm_ah(X)


def aut_act(theta: GroupAutomorphism, s):
    """Pull a solution back along a group automorphism; residual status is
    invariant.  The transformed solution lives over (<theta.,theta.>, a∘theta)."""
    G = s.group
    perm = theta.permutation()  # perm[index(g)] = index(theta(g))
    if isinstance(s, MNSolution):
        return MNSolution(G, s.bichar.pullback(theta), s.form.pullback(theta),
                          s.b[perm], s.c, provenance=dict(s.provenance))
    acj = s.acj
    thinv = theta.inverse()
    new_acj = ACJData(
        acj.bichar.pullback(theta),
        acj.form.pullback(theta),
        acj.bar,
        tuple(thinv(gt) for gt in acj.g_t),
        acj.c_t,
        acj.eps_t,
        acj.eps,
    )
    return GeneralSolution(G, new_acj, s.btensor[..., perm], provenance=dict(s.provenance))


# ---------------------------------------------------------------------------
# equivalence and fingerprints


def fs_nu31_from_data(s) -> complex:
    """tr(j1 o j2) evaluated from the normal form: for K = l^2(G) (x) K0 the
    map j1 j2 sends T_h(xi) to n^{-1/2} sum_k conj(<h,k>) T_k(C A(k) xi)."""
    if isinstance(s, MNSolution):
        g = mn_to_general(s)
    else:
        g = s
    G = g.group
    n = G.order
    a = g.acj.form.table()
    chi = g.acj.chi()
    c_t = np.array(g.acj.c_t)
    B = g.acj.bichar.matrix()
    tot = 0.0 + 0.0j
    for gi in range(n):
        diag_phase = np.conj(B[gi, gi])
        tot += diag_phase * np.sum(c_t * a[gi] * chi[:, gi]) / math.sqrt(n)
    return complex(tot)


def fingerprint(s) -> tuple:
    """Gauge/automorphism-invariant signature used for deduplication, to 7
    decimals."""

    def r(x):
        return round(float(np.real(x)), 7) + 0.0, round(float(np.imag(x)), 7) + 0.0

    if isinstance(s, MNSolution):
        mags = tuple(sorted(round(float(v), 7) + 0.0 for v in np.abs(s.b)))
        return ("mn", s.group.factors, mags, r(s.c), r(fs_nu31_from_data(s)))
    traces = []
    for gi in range(s.n):
        Mg = s.bmatrix(gi)
        for hi in range(s.n):
            Mh = s.bmatrix(hi)
            traces.append(r(np.trace(Mg @ Mh.conj().T)))
    return (
        "general",
        s.group.factors,
        s.m,
        s.acj.eps,
        tuple(sorted(traces)),
        r(fs_nu31_from_data(s)),
    )


EQUAL_TOL = 1e-7  # orbit distance below which two solutions are identified
DISTINCT_TOL = 1e-3  # orbit distance above which they are told apart
DEFAULT_GRID = 720  # gauge-algebra grid points per finite gauge component
REFINE_MAX_ITER = 60  # iteration cap of the batched gauge refine
REFINE_FLOOR = 1e-28  # mean |db|^2 per real entry at which a refine start has converged
# the one Levenberg-Marquardt loop, _batched_lm, of the tensor solve
# (solvers._solve_tensor) and of the gauge refine (_refine_gauges)
LM_STALL = 1e-14  # relative gain in the cost at or below which a start has stalled
LM_MIN_STEP = 1e-12  # largest step coordinate at or below which it has stalled too
LM_LAMBDA0 = 1e-3  # initial damping
LM_LAMBDA_MIN = 1e-12  # damping floor: keeps A + lambda diag(A) well conditioned
LM_LAMBDA_MAX = 1e16  # past this a step is below the rounding of x: give up


def _batched_lm(X0: np.ndarray, model, max_iter: int, floor: float, move=np.add):
    """Levenberg-Marquardt from every start of the stack ``X0`` at once.

    A start is any array along the leading axis.  ``model`` maps a stack of
    points to their residual rows R (S, M) and the Jacobians J (S, M, k) of
    those rows in the step coordinates; it is called once on ``X0`` and then
    once per iteration, on the batch of trial points, and nowhere else.
    ``move(X, delta)`` applies the steps delta (S, k).
    Each start keeps its own damping lambda, with Marquardt's scaling by
    diag(J^T J): an accepted step divides it by 10, a rejected one multiplies
    it by 10.  A start stops when its cost ||r||^2 is at most ``floor``; when
    it has stalled (an accepted step gains at most LM_STALL of the cost, or
    moves no coordinate by more than LM_MIN_STEP: at the rounding floor of a
    nonzero minimum the gain is noise of either sign); when lambda passes
    LM_LAMBDA_MAX; or after ``max_iter`` iterations.  Returns the final
    starts, their costs and their residual rows."""
    X = np.array(X0)
    R, Jac = model(X)
    cost = np.einsum("sm,sm->s", R, R)
    lam = np.full(len(X), LM_LAMBDA0)
    active = np.flatnonzero(cost > floor)
    for _ in range(max_iter):
        if not active.size:
            break
        J = Jac[active]
        A = np.swapaxes(J, 1, 2) @ J
        g = np.einsum("smi,sm->si", J, R[active])
        diag = np.einsum("sii->si", A)
        scale = np.where(diag > 0, diag, 1.0)
        damped = A + (lam[active, None] * scale)[:, :, None] * np.eye(J.shape[2])
        step = np.linalg.solve(damped, -g[..., None])[..., 0]
        Xt = move(X[active], step)
        Rt, Jt = model(Xt)
        ct = np.einsum("sm,sm->s", Rt, Rt)
        better = ct < cost[active]
        stalled = better & ((cost[active] - ct <= LM_STALL * cost[active])
                            | (np.abs(step).max(1) <= LM_MIN_STEP))
        acc = active[better]
        X[acc], R[acc], Jac[acc], cost[acc] = Xt[better], Rt[better], Jt[better], ct[better]
        lam[active] = np.where(better, np.maximum(lam[active] / 10, LM_LAMBDA_MIN),
                               lam[active] * 10)
        active = active[~stalled & (cost[active] > floor)
                        & (lam[active] <= LM_LAMBDA_MAX)]
    return X, cost, R


def gauge_orbit_search(s1, s2, grid: int = DEFAULT_GRID):
    """Search Aut(G) x G(A,C,J) for (theta, u) moving s1 onto s2.

    For each theta whose pull-back of s1 matches s2 in bicharacter, form,
    characters chi_t and scalars c_t, and each finite gauge component, the
    component's coset of the gauge group is sampled on a grid (at least 8
    points per algebra direction, ``grid`` in total) in one batched
    evaluation.  Every local grid minimum, and the global one, is then
    refined in one batch by :func:`_refine_gauges`, which minimises the sum
    of |b(u . theta^* s1) - b(s2)|^2.  Yields (distance, theta, u) in
    ascending grid distance, the distance being the largest entry of
    |b(u . theta^* s1) - b(s2)|.  An m = n solution is the L = 1 case, whose
    gauge group {+-1} has no continuous part.
    """
    from .abelian import automorphisms

    if isinstance(s1, MNSolution):
        s1 = mn_to_general(s1)
    if isinstance(s2, MNSolution):
        s2 = mn_to_general(s2)
    if s1.group.factors != s2.group.factors or s1.L != s2.L:
        return
    ref = s2.acj
    for th in automorphisms(s1.group):
        t = aut_act(th, s1)
        if (t.acj.bichar.gram_exponents() != ref.bichar.gram_exponents()
                or any(p != q for p, q in zip(t.acj.form.values, ref.form.values))
                or sorted(t.acj.g_t) != sorted(ref.g_t)
                or np.max(np.abs(np.subtract(t.acj.c_t, ref.c_t))) >= EQUAL_TOL):
            continue
        algebra, comps = gauge_group_basis(t.acj)
        kdim = len(algebra)
        X = np.array(algebra).reshape(kdim, s1.L, s1.L)
        for comp in comps:
            if kdim == 0:
                u = np.asarray(comp, complex)
                moved = _gauge_stack(u[None], t.btensor)[0]
                yield float(np.abs(moved - s2.btensor).max()), th, u
                continue
            npts = max(8, int(round(grid ** (1.0 / kdim))))
            axis = np.linspace(0.0, 2 * np.pi, npts, endpoint=False)
            pts = np.stack(np.meshgrid(*[axis] * kdim, indexing="ij"), -1).reshape(-1, kdim)
            U = comp @ _expm_ah(np.tensordot(pts, X, 1))
            vals = np.abs(_gauge_stack(U, t.btensor) - s2.btensor).reshape(len(U), -1).max(1)
            # local minima on the periodic grid (strictly below the previous
            # neighbour on every axis, so a flat stretch counts once) and the
            # global one, which a stretch flat along some axis would hide
            V = vals.reshape((npts,) * kdim)
            is_min = np.ones(V.shape, dtype=bool)
            for ax in range(kdim):
                is_min &= (V < np.roll(V, 1, ax)) & (V <= np.roll(V, -1, ax))
            is_min.flat[np.argmin(vals)] = True
            starts = np.flatnonzero(is_min)
            starts = starts[np.argsort(vals[starts], kind="stable")]
            for dist, u in zip(*_refine_gauges(U[starts], X, t.btensor, s2.btensor)):
                yield float(dist), th, u


def _refine_gauges(U: np.ndarray, X: np.ndarray, bt: np.ndarray, target: np.ndarray):
    """Minimise the sum of |b(u . bt) - target|^2 over u from every gauge of
    the stack U (S x L x L) by one :func:`_batched_lm` run.

    The coordinates are left-trivialised: a step delta moves u to
    exp(sum_k delta_k X_k) u, which keeps u in its coset of the identity
    component (a normal subgroup).  The Jacobian column of X_k is the
    derivation of X_k applied to the moved tensor: X_k on its first two
    indices, conj(X_k) on the last two.  The model moves the tensor once per
    gauge and reads both its rows and its Jacobian off that one stack.  A
    start has converged at a mean |db|^2 per real entry of REFINE_FLOOR, and
    stops after REFINE_MAX_ITER iterations.  Returns the (S,) distances
    max |b(u . bt) - target|, from the loop's final rows, and the refined
    gauges."""
    Xc = X.conj()

    def model(U):  # gauges -> real residual rows (S, 2M) and Jacobians (S, 2M, kdim)
        B = _gauge_stack(U, bt)
        R = (B - target).reshape(len(U), -1)
        D = (np.einsum("kar,srbcdg->skabcdg", X, B) + np.einsum("kbr,sarcdg->skabcdg", X, B)
             + np.einsum("kcr,sabrdg->skabcdg", Xc, B) + np.einsum("kdr,sabcrg->skabcdg", Xc, B))
        D = D.reshape(len(B), len(X), -1)
        return (np.concatenate([R.real, R.imag], axis=1),
                np.concatenate([D.real, D.imag], axis=2).transpose(0, 2, 1))

    def move(U, step):
        return _expm_ah(np.tensordot(step, X, 1)) @ U

    U, _, R = _batched_lm(U, model, REFINE_MAX_ITER, REFINE_FLOOR * 2 * bt.size, move)
    re, im = np.split(R, 2, axis=1)
    return np.abs(re + 1j * im).max(1), U


def equivalent(s1, s2, grid: int = DEFAULT_GRID) -> bool:
    """Equivalence up to Aut(G) x gauge, by :func:`gauge_orbit_search`.

    The search refines its grid minima by minimising the sum of |db|^2; the
    distance compared here is the largest entry max |db| of the refined
    difference.  True as soon as a distance falls below ``EQUAL_TOL``; False
    when the best distance is above ``DISTINCT_TOL``.  A best distance in the
    gap between the two raises ``ArithmeticError``: the search can neither
    identify nor separate the solutions.
    """
    best = np.inf
    for dist, _, _ in gauge_orbit_search(s1, s2, grid):
        if dist < EQUAL_TOL:
            return True
        best = min(best, dist)
    if best > DISTINCT_TOL:
        return False
    raise ArithmeticError(
        f"equivalence search inconclusive: best distance {best:.3e} in gap zone"
    )
