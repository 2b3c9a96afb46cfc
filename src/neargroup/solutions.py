"""Solution data for the classification systems and their residual checks.

A solution is a ``GeneralSolution`` (m a multiple of |G|, d irrational): the
normal form (eps, <.,.>, Lambda, chi_t, c_t, eps_t, a, b^{r,s}_{t,u}(g))
together with the ten tensor equations (p1)-(p10), the derived (p11), and
the unitarity of the matrices B(g).  An m = n solution (m = |G|) is any
solution whose data are the L = 1 case (``is_mn``), with its b and c read
as ``btensor[0, 0, 0, 0]`` and ``acj.c_t[0]``; ``residual`` checks it
against the Galois-form system (Gal1)-(Gal8), written with c' =
conj(c)/sqrt(n), and the original five m=n equations.  These and the
tensor equations are redundant on purpose; they cross-check each other's
transcription.

Residual evaluation returns a :class:`ResidualReport` with one maximum
absolute residual per equation; ``residual_general`` raises ``ValueError``
on inconsistent normal-form data (``ACJData.validate``).

Every reader of a normal form's tables (both residual systems, the gauge
group, nu_31, the tuple export, the solvers' tensor system) goes through
:class:`NormalForm`, built once per ``ACJData`` by the cached
:func:`normal_form`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from . import abelian
from .abelian import (
    Bicharacter,
    FiniteAbelianGroup,
    GroupAutomorphism,
    QuadraticForm,
    _frozen,
    _squarefree,
    tables,
)

__all__ = [
    "QuadraticIrrational",
    "dimension_d",
    "ResidualReport",
    "MNSolution",
    "ACJData",
    "GeneralSolution",
    "NormalForm",
    "normal_form",
    "residual_mn",
    "residual_general",
    "residual",
    "mn_normal_form",
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

    @property
    def max_residual(self) -> float:
        return max(self.per_equation.values()) if self.per_equation else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        lines = [f"[{status}] max residual {self.max_residual:.3e} (tol {self.tolerance:.1e})"]
        for name, val in sorted(self.per_equation.items()):
            lines.append(f"  {name:16s} {val:.3e}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# general irrational solutions


@dataclass(frozen=True)
class ACJData:
    """Normal-form data on K0: the base form a, involution on Lambda,
    characters chi_t (stored through the group elements g_t with chi_t =
    <., g_t>), cube-root scalars c_t, signs eps_t and global sign eps.  The
    group and the bicharacter <.,.> are read off the form."""

    form: QuadraticForm
    bar: tuple[int, ...]  # involution on range(L)
    g_t: tuple[tuple[int, ...], ...]  # chi_t = <., g_t>
    c_t: tuple[complex, ...]
    eps_t: tuple[int, ...]
    eps: int

    @property
    def bichar(self) -> Bicharacter:
        return self.form.bichar

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.form.group

    @property
    def L(self) -> int:
        return len(self.bar)

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
    """(ACJ data, b^{r,s}_{t,u}(g)) for m = L * |G| irrational; the group
    is the ACJ form's."""

    acj: ACJData
    btensor: np.ndarray  # shape (L, L, L, L, n)
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "btensor", np.asarray(self.btensor, dtype=complex))

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.acj.group

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

    @property
    def is_mn(self) -> bool:
        """An m = n solution: L = 1, trivial chi and eps_t = (1,)."""
        return self.acj == mn_normal_form(self.acj.form, self.acj.c_t[0])

    def bmatrix(self, gi: int) -> np.ndarray:
        """B(g) with ((r,t),(s,u)) entries b^{r,s}_{t,u}(g), lexicographic."""
        L = self.L
        return self.btensor[..., gi].transpose(0, 2, 1, 3).reshape(L * L, L * L)

    def conj(self) -> "GeneralSolution":
        """The complex conjugate: form (and with it the bicharacter), c_t, b."""
        acj = self.acj
        return GeneralSolution(replace(acj, form=acj.form.conj(), c_t=tuple(
            complex(c).conjugate() for c in acj.c_t)), np.conj(self.btensor))


def mn_normal_form(form: QuadraticForm, c: complex) -> ACJData:
    """The L = 1 normal form of the m = n system with cube-root scalar c."""
    return ACJData(form=form, bar=(0,), g_t=(form.group.zero(),), c_t=(complex(c),),
                   eps_t=(1,), eps=1)


class MNSolution(GeneralSolution):
    """Builds the m = n solution (<.,.>, a, b, c), m = |G|: the L = 1
    ``GeneralSolution`` with ``acj = mn_normal_form(form, c)`` and b stored
    as the (1, 1, 1, 1, n) ``btensor``; raises ``ValueError`` unless the
    form lives over ``bichar`` and ``bichar`` over ``group``.  ``bichar``,
    ``form``, ``b`` and ``c`` are read-only views of those two fields; d is
    pinned by d^2 = n + n d.  Nothing dispatches on this type (``is_mn``
    reads the data)."""

    def __init__(self, group: FiniteAbelianGroup, bichar: Bicharacter,
                 form: QuadraticForm, b, c: complex, provenance: dict | None = None):
        if form.bichar != bichar or bichar.group != group:
            raise ValueError("form, bicharacter and group do not match")
        bt = np.asarray(b, dtype=complex).reshape(1, 1, 1, 1, group.order)
        super().__init__(mn_normal_form(form, c), bt, {} if provenance is None else provenance)

    @property
    def bichar(self) -> Bicharacter:
        return self.acj.bichar

    @property
    def form(self) -> QuadraticForm:
        return self.acj.form

    @property
    def b(self) -> np.ndarray:
        """b(g), indexed like group.elements()."""
        return self.btensor[0, 0, 0, 0]

    @property
    def c(self) -> complex:
        return self.acj.c_t[0]


class NormalForm:
    """The numeric tables of the normal form ``acj``, built once per ACJ by
    :func:`normal_form` and shared by every reader.

    Eager, as read-only arrays: the group tables ``T``, the bicharacter table
    ``B[g, h] = <g,h>``, the form ``a``, the characters ``chi[t, g] =
    chi_t(g) = B[g, g_t]``, ``c_t``, ``eps_t``, ``bar`` and the dimension
    ``d``.  Lazy: the tensor ``equations``, the gauge ``constraints`` and the
    ``gauge`` group basis, each built on first use."""

    def __init__(self, acj: ACJData):
        G = acj.group
        self.acj = acj
        self.T = tables(G)
        self.B = _frozen(acj.bichar.matrix())
        self.a = _frozen(acj.form.table())
        self.gi = _frozen(np.array([G.index_of(x) for x in acj.g_t], dtype=int))
        self.chi = _frozen(np.ascontiguousarray(self.B[:, self.gi].T))
        self.c_t = _frozen(np.array(acj.c_t, dtype=complex))
        self.eps_t = _frozen(np.array(acj.eps_t, dtype=float))
        self.bar = _frozen(np.array(acj.bar, dtype=int))
        self.d = dimension_d(G.order, acj.L * G.order).value

    @cached_property
    def equations(self) -> dict:
        """The tensor equations as functions of the b-tensor: each returns the
        array lhs - rhs of one equation, zero on a solution.  Keys: (p1)-(p11)
        and ``bg_unitary``.  Every equation but (p10) also takes a stack of
        b-tensors (..., L, L, L, L, n) and returns the stack of its arrays, so
        one call evaluates a stack of points, each as if alone; (p10), read
        only by ``residual_general``, takes a single b-tensor."""
        T, B, a, chi, gi, d = self.T, self.B, self.a, self.chi, self.gi, self.d
        c_t, eps_t, bar, eps = self.c_t, self.eps_t, self.bar, self.acj.eps
        n, L = T.n, self.acj.L
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
            # B(g), as bmatrix: [..., g, (r, t), (s, u)]
            M = np.moveaxis(b.swapaxes(-4, -3), -1, -5).reshape(
                b.shape[:-5] + (n, L * L, L * L))
            Mh = M.conj().swapaxes(-1, -2)
            return np.stack([Mh @ M - unit, M @ Mh - unit], axis=-4)

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
            "p1": lambda b: (np.einsum("gh,...rstuh->...rstug", B, b) / math.sqrt(n)
                             - eps * eps_t[r] * eps_t[t] * c_t[u] * a[g] * chi[u, g]
                             * b[..., s, bar[t], bar[r], u, g]),
            "p2": lambda b: np.einsum("...rsru->...su", b[..., T.zero]) + eye / d,
            "p3": lambda b: np.einsum("...rsts->...rt", b[..., T.zero]) + eye / d,
            # B(g) column/row orthogonality
            "p4": lambda b: np.einsum("...rbtag,...rstug->...sbuag", np.conj(b), b) - rhs4,
            "p5": lambda b: np.einsum("...rstug,...asbug->...ratbg", b, np.conj(b)) - rhs5,
            "p6": lambda b: np.where(off_support, b, 0),
            "p7": lambda b: (np.conj(b) - eps_t[s] * eps_t[u] * a[g] * chi[u, g]
                             * b[..., t, bar[s], r, bar[u], T.neg[g]]),
            "p8": lambda b: (np.conj(b) - eps_t[t] * eps_t[r] * c_t[r] * np.conj(c_t[t])
                             * a[g] * chi[r, g] * b[..., bar[r], u, bar[t], s, T.neg[g]]),
            "p9": lambda b: (b - eps_t[r] * eps_t[s] * eps_t[t] * eps_t[u]
                             * c_t[t] * np.conj(c_t[r]) * np.conj(chi[r, g] * chi[s, g])
                             * b[..., bar[t], bar[u], bar[r], bar[s], g]),
            # (p11) is implied by (p1) and (p9); checked as a transcription cross-check
            "p11": lambda b: (b - c_t[r] * c_t[u] * np.conj(c_t[s] * c_t[t])
                              * b[..., s, r, u, t, T.add[g, shift]]),
            "bg_unitary": bg_unitary,
            "p10": p10,
        }

    @cached_property
    def constraints(self) -> tuple[np.ndarray, np.ndarray]:
        """What the gauge group G(A,C,J) commutes with: the stack (n + 1, L,
        L) of the diagonal matrices diag(a(g) chi(g)), one per g, then
        diag(c_t), and the matrix Jm of the anti-linear J e_t = eps_t
        e_{bar t}, for which u J = J u reads u Jm = Jm conj(u)."""
        L = self.acj.L
        mats = np.zeros((self.T.n + 1, L, L), dtype=complex)
        diag = np.arange(L)
        mats[:-1, diag, diag] = self.a[:, None] * self.chi.T
        mats[-1, diag, diag] = self.c_t
        Jm = np.zeros((L, L), dtype=complex)
        Jm[self.bar, np.arange(L)] = self.eps_t
        return _frozen(mats), _frozen(Jm)

    @cached_property
    def gauge(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(Lie algebra basis, finite component representatives) of
        G(A,C,J), as :func:`gauge_group_basis` describes them.

        Array-wise: the linear constraints on X come from one stacked product
        over the real basis E_ij, i E_ij; every signed permutation's
        membership is tested at once; and "same connected component" is
        decided for every pair of member permutations, both signs, in one
        batched eig/log/exp.  The first member of each component is kept,
        in the order of the permutations, then the signs."""
        L = self.acj.L
        mats, Jm = self.constraints

        def real_flat(X):  # (..., L, L) -> (..., 2 L^2): real parts, then imaginary
            return np.concatenate([X.real, X.imag], -2).reshape(X.shape[:-2] + (2 * L * L,))

        # E_ij and i E_ij for each (i, j), in that order
        basis = (np.eye(L * L).reshape(-1, 1, L, L) * np.array([1.0, 1j])[:, None, None]
                 ).reshape(-1, L, L)
        # commutators with each A(g) and C, then with J, then anti-Hermitian
        Xb = basis[:, None]
        C = np.concatenate([Xb @ mats - mats @ Xb, Xb @ Jm - Jm @ Xb.conj(),
                            Xb + Xb.conj().swapaxes(-1, -2)], 1)
        A = real_flat(C).reshape(len(basis), -1).T  # constraints as columns
        # kernel of A (coefficients over the real basis)
        _, sv, vt = np.linalg.svd(A)
        null = np.concatenate([vt[len(sv):], vt[:len(sv)][sv < 1e-10]])
        # coefficients of (E_ij, i E_ij) are (real, imaginary) parts: a complex
        # view; + 0.0 makes every zero +0
        Xs = (null + 0.0).view(complex).reshape(-1, L, L)
        algebra = [_frozen(X) for X in Xs]
        # the algebra elements are orthonormal in the real_flat coordinates
        F = real_flat(Xs)

        def connected(U):
            """For each u of the stack U: u = exp(X) to 1e-10 for X = log(u)
            projected onto the algebra; False whenever that test fails."""
            w, V = np.linalg.eig(U)  # unitary, so diagonalisable: log u = V log(w) V^-1
            logu = (V * np.log(w.astype(complex))[..., None, :]) @ np.linalg.inv(V)
            X = np.tensordot(real_flat(logu) @ F.T, Xs, 1)
            return np.abs(_expm_ah(X) - U).max((-2, -1)) < 1e-10

        # finite components: signed permutations preserving the structure,
        # P[perm[c], c] = sign[c] for each perm, then each sign: the identity first
        perms = list(itertools.permutations(range(L)))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=L)))
        P = np.zeros((len(perms), len(signs), L, L))
        P[np.arange(len(perms))[:, None, None], np.arange(len(signs))[:, None],
          np.array(perms)[:, None], np.arange(L)] = signs
        P = P.reshape(-1, L, L)
        P = P[_commutes(P, self.acj)]
        i, j = np.triu_indices(len(P), 1)
        Q = P[i].swapaxes(1, 2) @ P[j]
        same = connected(np.stack([Q, -Q])).any(0)
        linked = np.zeros((len(P),) * 2, dtype=bool)
        linked[i, j] = same
        keep = [0]
        for k in range(1, len(P)):
            if not linked[keep, k].any():
                keep.append(k)
        return algebra, [_frozen(P[k]) for k in keep]


@cache
def normal_form(acj: ACJData) -> NormalForm:
    """The one :class:`NormalForm` of ``acj``; equal ACJ data share it."""
    return NormalForm(acj)


def residual_general(s: GeneralSolution, tolerance: float = DEFAULT_TOL) -> ResidualReport:
    """The scalar relation of the normal form (``acj3``) and every equation of
    ``NormalForm.equations``, each as its largest absolute residual.  Raises
    ``ValueError`` if the normal-form data is inconsistent."""
    errs = s.acj.validate()
    if errs:
        raise ValueError("; ".join(errs))
    nf = normal_form(s.acj)
    # acj scalar relation: sum_g a(g) chi_t(g) = sqrt(n) c_t^{-3}
    gsum = np.einsum("g,tg->t", nf.a, nf.chi)
    out = {"acj3": float(np.max(np.abs(gsum - math.sqrt(s.n) * nf.c_t ** (-3.0))))}
    for name, eq in nf.equations.items():
        out[name] = float(np.max(np.abs(eq(s.btensor))))
    return ResidualReport(out, tolerance)


def residual_mn(s: GeneralSolution, tolerance: float = DEFAULT_TOL) -> ResidualReport:
    """All eight Galois-form equations plus the five original m=n equations
    of an m = n solution (``is_mn``)."""
    nf = normal_form(s.acj)
    T, B, a, n, d = nf.T, nf.B, nf.a, s.n, nf.d
    b = s.btensor[0, 0, 0, 0]
    cc = s.acj.c_t[0]
    cp = np.conj(cc) / math.sqrt(n)
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


def residual(s, tolerance: float = DEFAULT_TOL) -> ResidualReport:
    """``residual_mn`` of an m = n solution (``is_mn``), ``residual_general``
    of any other.  Both are looked up by their module-level names at each
    call."""
    return (residual_mn if s.is_mn else residual_general)(s, tolerance)


# ---------------------------------------------------------------------------
# gauge and automorphism actions


def gauge_act(u: np.ndarray, s: GeneralSolution, check: bool = True) -> GeneralSolution:
    """b'[r',s',t',u'] = sum u[r'r] u[s's] conj(u[t't] u[u'u]) b[r,s,t,u]."""
    u = np.asarray(u, dtype=complex)
    if check and not in_gauge_group(u, s.acj):
        raise ValueError("u is not in the gauge group G(A,C,J)")
    bt = np.ascontiguousarray(_gauge_stack(u[None], s.btensor)[0])
    return GeneralSolution(s.acj, bt, provenance=dict(s.provenance))


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A ⊗ B for stacks of L x L matrices (broadcast on the leading axes):
    (A ⊗ B)[(r', s'), (r, s)] = A[r', r] B[s', s], shape (..., L², L²)."""
    K = A[..., :, None, :, None] * B[..., None, :, None, :]
    return K.reshape(K.shape[:-4] + (K.shape[-4] * K.shape[-3],) * 2)


def _pair_form(bt: np.ndarray) -> np.ndarray:
    """The b-tensor as the matrices B_g[(r, s), (t, u)], g on the middle
    axis: shape (L², n, L²), a view."""
    L2 = bt.shape[0] ** 2
    return bt.reshape(L2, L2, -1).transpose(0, 2, 1)


def _gauge_pairs(U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """W B_g W^H, W = u ⊗ u, for each gauge u of the stack U (P, L, L) and
    each matrix of the pair form B (L², n, L²): W is formed for the whole
    stack in one broadcast product, then two batched matmuls move every B_g.
    Shape (P, L², n, L²)."""
    W = _kron(U, U)
    P, L2, _ = W.shape
    M = (W @ B.reshape(L2, -1)).reshape(P, -1, L2) @ W.conj().swapaxes(1, 2)
    return M.reshape(P, L2, -1, L2)


def _gauge_stack(U: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """The b-tensors moved by each gauge of the stack U (shape (P, L, L)).

    Read as the L² x L² matrices B_g[(r, s), (t, u)], a b-tensor is moved by
    u as B_g -> W B_g W^H with W = u ⊗ u, since u acts on r and s and
    conj(u) on t and u (:func:`_gauge_pairs`).  Shape (P, L, L, L, L, n)."""
    P, L, _ = U.shape
    M = _gauge_pairs(U, _pair_form(bt))
    return M.reshape(P, L, L, -1, L, L).transpose(0, 1, 2, 4, 5, 3)


def _expm_ah(X: np.ndarray) -> np.ndarray:
    """exp(X) for a stack (..., L, L) of anti-Hermitian X, in closed form:
    -iX = V diag(w) V* is Hermitian, so exp(X) = V diag(e^{iw}) V*."""
    w, V = np.linalg.eigh(-1j * X)
    return (V * np.exp(1j * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _one_parameter_exps(X: np.ndarray):
    """The products exp(t_1 X_1) ⋯ exp(t_k X_k) along the directions of an
    anti-Hermitian basis X (k x L x L, k >= 1), from one eigh per direction.

    -iX_k = V_k diag(w_k) V_k* once, and then exp(t X_k) = V_k
    diag(e^{i t w_k}) V_k* for every t.  Returns the map from a stack T
    (..., k) of parameters to the stack (..., L, L) of products; for k = 1
    it is t -> exp(t X_1), the map of ``_expm_ah(t * X_1)``."""
    w, V = np.linalg.eigh(-1j * X)
    Vh = V.conj().swapaxes(-1, -2)

    def exps(T):
        E = (V * np.exp(1j * T[..., None] * w)[..., None, :]) @ Vh
        out = E[..., 0, :, :]
        for k in range(1, len(X)):
            out = out @ E[..., k, :, :]
        return out

    return exps


GAUGE_TOL = 1e-9  # Frobenius norm of a commutator, or of u*u - 1, read as zero


def _commutes(U: np.ndarray, acj: ACJData) -> np.ndarray:
    """For each u of the stack U (..., L, L): u commutes with every A(g), C
    and J (``NormalForm.constraints``), each commutator to GAUGE_TOL."""
    mats, Jm = normal_form(acj).constraints
    Ue = U[..., None, :, :]
    return ((np.linalg.norm(Ue @ mats - mats @ Ue, axis=(-2, -1)) <= GAUGE_TOL).all(-1)
            & (np.linalg.norm(U @ Jm - Jm @ np.conj(U), axis=(-2, -1)) <= GAUGE_TOL))


def in_gauge_group(u: np.ndarray, acj: ACJData) -> bool:
    """Membership in G(A,C,J): unitary, commutes with every A(g), C and J."""
    L = acj.L
    u = np.asarray(u, dtype=complex)
    if u.shape != (L, L) or np.linalg.norm(u.conj().T @ u - np.eye(L)) > GAUGE_TOL:
        return False
    return bool(_commutes(u, acj))


def gauge_group_basis(acj: ACJData) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(Lie algebra basis, finite component representatives) of G(A,C,J).

    The algebra consists of anti-Hermitian matrices commuting with all A(g),
    C and J; representatives of extra components are searched among signed
    permutation matrices compatible with the same constraints, and kept up to
    sign, since -1 acts trivially on b, and one per connected component: P is
    dropped when +-Q^-1 P = exp(X), X in the algebra, for a kept Q.  Every
    member's pair test against every earlier member is made in one batch
    (eig, log, and the closed-form exponential of :func:`_expm_ah`), and the
    first member of each component is kept, in the order of the signed
    permutations.  Built once per ACJ, as ``normal_form(acj).gauge``.
    """
    return normal_form(acj).gauge


def sample_gauge(acj: ACJData, rng: np.random.Generator) -> np.ndarray:
    """A random element of G(A,C,J)."""
    algebra, comps = gauge_group_basis(acj)
    X = sum(rng.normal() * Xb for Xb in algebra) if algebra else np.zeros((acj.L, acj.L))
    return comps[rng.integers(len(comps))] @ _expm_ah(X)


def aut_act(theta: GroupAutomorphism, s):
    """Pull a solution back along a group automorphism; residual status is
    invariant.  The transformed solution lives over the form a∘theta, whose
    bicharacter is <theta.,theta.>, with chi_t pulled back too; the trivial
    chi of an m = n solution stays trivial, so its image is again one
    (``is_mn``)."""
    acj = s.acj
    new_acj = replace(acj, form=acj.form.pullback(theta),
                      g_t=tuple(map(theta.inverse(), acj.g_t)))
    return GeneralSolution(new_acj, s.btensor[..., theta.permutation()],
                           provenance=dict(s.provenance))


# ---------------------------------------------------------------------------
# equivalence and fingerprints


def fs_nu31_from_data(s) -> complex:
    """tr(j1 o j2) evaluated from the normal form: for K = l^2(G) (x) K0 the
    map j1 j2 sends T_h(xi) to n^{-1/2} sum_k conj(<h,k>) T_k(C A(k) xi)."""
    nf = normal_form(s.acj)
    return complex(sum(np.conj(nf.B[g, g]) * np.sum(nf.c_t * nf.a[g] * nf.chi[:, g])
                       / math.sqrt(s.n) for g in range(s.n)))


def fingerprint(s) -> tuple:
    """Gauge/automorphism-invariant signature, to 7 decimals: the key of a
    class record (``SolutionClass.fingerprint``), of an archived solution
    and of the CLI's ``fingerprint_hash``.  Deduplication compares by
    :func:`equivalent` instead."""

    def r(x):
        return round(float(np.real(x)), 7) + 0.0, round(float(np.imag(x)), 7) + 0.0

    if s.is_mn:
        b = s.btensor[0, 0, 0, 0]
        mags = tuple(sorted(round(float(v), 7) + 0.0 for v in np.abs(b)))
        return ("mn", s.group.factors, mags, r(s.acj.c_t[0]), r(fs_nu31_from_data(s)))
    # tr(B(g) B(h)*) is the Gram matrix of the b-tensor's g-slices
    Bs = s.btensor.reshape(-1, s.n).T
    traces = [r(x) for x in (Bs @ Bs.conj().T).ravel()]
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
COARSE_AXIS_POINTS = 4  # grid points per algebra direction of equivalent's first stage
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


def gauge_orbit_search(s1, s2, grid: int = DEFAULT_GRID, per_axis: int | None = None):
    """Search Aut(G) x G(A,C,J) for (theta, u) moving s1 onto s2.

    theta is kept, by one array test over the stacked index permutations of
    ``abelian.automorphisms(G)``, when it pulls s1's form back onto s2's
    (``abelian.form_exponents``; the bicharacter comes with it) and moves
    s2's chi_t indices onto s1's; c_t, which theta does not move, is compared
    once.  Only a kept theta reaches :func:`aut_act`.  For each kept theta
    and each finite gauge component comp, the component's coset of the gauge
    group is sampled on a grid (at least 8 points per algebra direction,
    ``grid`` in total; exactly ``per_axis`` points per direction when that is
    given) in one batched evaluation: the grid point (t_1, ..., t_k) in [0, 2 pi)^k is the gauge
    comp exp(t_1 X_1) ⋯ exp(t_k X_k) over the algebra basis X, each factor
    from one eigh of -iX_k per theta (:func:`_one_parameter_exps`); for k = 1
    this is comp exp(t X_1).  Every local grid minimum, and the global one,
    is then refined in one batch by :func:`_refine_gauges`, which minimises
    the sum of |b(u . theta^* s1) - b(s2)|^2.  Yields (distance, theta, u) in
    ascending grid distance, the distance being the largest entry of
    |b(u . theta^* s1) - b(s2)|.  An m = n solution is the L = 1 case, whose
    gauge group {+-1} has no continuous part.
    """
    G, acj1, acj2 = s1.group, s1.acj, s2.acj
    if (G.factors != s2.group.factors or s1.L != s2.L
            or np.max(np.abs(np.subtract(acj1.c_t, acj2.c_t))) >= EQUAL_TOL):
        return
    auts = abelian.automorphisms(G)  # read at each call: perfbench patches it
    P = np.array([th.permutation() for th in auts])
    _, (A1, A2) = abelian.form_exponents([acj1.form, acj2.form])
    chi1, chi2 = ([G.index_of(g) for g in acj.g_t] for acj in (acj1, acj2))
    kept = (A1[P] == A2).all(1) & (np.sort(P[:, chi2], 1) == np.sort(chi1)).all(1)
    for th in itertools.compress(auts, kept):
        t = aut_act(th, s1)
        algebra, comps = gauge_group_basis(t.acj)
        kdim = len(algebra)
        X = np.array(algebra).reshape(kdim, s1.L, s1.L)
        exps = _one_parameter_exps(X) if kdim else None
        for comp in comps:
            if kdim == 0:
                u = np.asarray(comp, complex)
                moved = _gauge_stack(u[None], t.btensor)[0]
                yield float(np.abs(moved - s2.btensor).max()), th, u
                continue
            npts = per_axis or max(8, int(round(grid ** (1.0 / kdim))))
            axis = np.linspace(0.0, 2 * np.pi, npts, endpoint=False)
            pts = np.stack(np.meshgrid(*[axis] * kdim, indexing="ij"), -1).reshape(-1, kdim)
            U = comp @ exps(pts)
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


def _gauge_model(X: np.ndarray, bt: np.ndarray, target: np.ndarray):
    """The model of the gauge refine: a stack of gauges U (S x L x L) maps to
    the real rows (S, 2M) of b(u . bt) - target and their Jacobians
    (S, 2M, kdim) in the left-trivialised coordinates of the algebra basis
    X (kdim x L x L).  exp(delta X_k) moves W = u ⊗ u by exp(delta Y_k),
    Y_k = X_k ⊗ 1 + 1 ⊗ X_k, so the Jacobian column of X_k is
    Y_k M + M Y_k^H for the moved pair form M (:func:`_gauge_pairs`).  Each
    call moves the tensor once per gauge and reads both the rows and the
    Jacobian off that one stack."""
    L2 = bt.shape[0] ** 2
    B, T = _pair_form(bt), _pair_form(target)
    eye = np.eye(len(bt))
    Y = _kron(X, eye) + _kron(eye, X)
    Yh = Y.conj().swapaxes(1, 2)

    def model(U):
        S = len(U)
        M = _gauge_pairs(U, B)
        R = (M - T).reshape(S, -1)
        D = ((Y @ M.reshape(S, 1, L2, -1)).reshape(S, len(X), -1)
             + (M.reshape(S, 1, -1, L2) @ Yh).reshape(S, len(X), -1))
        return (np.concatenate([R.real, R.imag], axis=1),
                np.concatenate([D.real, D.imag], axis=2).transpose(0, 2, 1))

    return model


def _refine_gauges(U: np.ndarray, X: np.ndarray, bt: np.ndarray, target: np.ndarray):
    """Minimise the sum of |b(u . bt) - target|^2 over u from every gauge of
    the stack U (S x L x L) by one :func:`_batched_lm` run on
    :func:`_gauge_model`.

    The coordinates are left-trivialised: a step delta moves u to
    exp(delta_1 X_1) ⋯ exp(delta_k X_k) u, from one eigh of -iX_k per
    direction (:func:`_one_parameter_exps`), which keeps u in its coset of
    the identity component (a normal subgroup).  Its derivative at delta = 0
    along delta_k is X_k u, as for exp(sum_k delta_k X_k) u, so the Jacobian
    of :func:`_gauge_model` is exact.  A start has converged at a mean |db|^2
    per real entry of REFINE_FLOOR, and stops after REFINE_MAX_ITER
    iterations.  Returns the (S,) distances max |b(u . bt) - target|, from
    the loop's final rows, and the refined gauges."""

    exps = _one_parameter_exps(X)
    U, _, R = _batched_lm(U, _gauge_model(X, bt, target), REFINE_MAX_ITER,
                          REFINE_FLOOR * 2 * bt.size, lambda U, step: exps(step) @ U)
    re, im = np.split(R, 2, axis=1)
    return np.abs(re + 1j * im).max(1), U


def equivalent(s1, s2) -> bool:
    """Equivalence up to Aut(G) x gauge, by :func:`gauge_orbit_search` in
    two stages.

    The search refines its grid minima by minimising the sum of |db|^2; the
    distance compared here is the largest entry max |db| of the refined
    difference.  True as soon as a distance falls below ``EQUAL_TOL``, which
    certifies a match whatever grid the refine started from.  The first
    stage samples COARSE_AXIS_POINTS points per gauge-algebra direction;
    only if it finds no match does the second stage search on the
    ``DEFAULT_GRID`` grid, so a False or inconclusive verdict rests on the
    full grid.  The
    second stage is skipped where it would repeat the first: when the first
    yields no candidate (no theta kept, or c_t differ), and when the gauge
    algebra (s1's: a kept theta's pullback only permutes the diagonal
    matrices it commutes with) is 0-dimensional, so that there is no grid.
    False when the best distance over both stages is above
    ``DISTINCT_TOL``.  A best distance in the gap between the two raises
    ``ArithmeticError``: the search can neither identify nor separate the
    solutions.
    """
    best = np.inf
    for per_axis in (COARSE_AXIS_POINTS, None):
        for dist, _, _ in gauge_orbit_search(s1, s2, per_axis=per_axis):
            if dist < EQUAL_TOL:
                return True
            best = min(best, dist)
        if best == np.inf or not gauge_group_basis(s1.acj)[0]:
            break
    if best > DISTINCT_TOL:
        return False
    raise ArithmeticError(
        f"equivalence search inconclusive: best distance {best:.3e} in gap zone"
    )
