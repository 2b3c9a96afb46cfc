"""Fusion-ring layer: K(G, m) arithmetic, dimension diagnosis, principal
graphs, automorphism groups of the classified categories, and fusion rules of
de-equivariantizations and equivariantizations.

Ring elements are labelled by structured tags rather than strings so orbit
computations can act on the group part:

    ("g", element)            an invertible object
    ("rho",)                  the non-invertible generator of K(G, m)
    ("sigma", coset)          de-equivariantized sigma-type objects
    ("rep", name, element)    gamma_hat-twisted invertibles, etc.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# automorphisms, gauge_act, gauge_group_basis: unused, but perfbench patches them here
from .abelian import (
    Bicharacter,
    FiniteAbelianGroup,
    GroupAutomorphism,
    QuadraticForm,
    Subgroup,
    automorphisms,
    invariant_factors,
    orthogonal_and_lagrangian,
    tables,
)
from .solutions import (
    DEFAULT_GRID,
    DISTINCT_TOL,
    EQUAL_TOL,
    GeneralSolution,
    QuadraticIrrational,
    dimension_d,
    gauge_act,
    gauge_group_basis,
    gauge_orbit_search,
)

__all__ = [
    "FusionRing",
    "PrincipalGraph",
    "DimensionDiagnosis",
    "dimension_diagnosis",
    "near_group_ring",
    "principal_graph",
    "out_group",
    "dequiv_fusion",
    "dequiv_twisted",
    "equiv_fusion",
    "GammaRepData",
    "d8_rep_data",
    "find_near_group_subring",
]


Label = tuple


@dataclass
class FusionRing:
    labels: list[Label]
    N: np.ndarray  # structure constants N[a, b, c] = mult of c in a x b
    name: str = ""

    def __post_init__(self):
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        k = len(self.labels)
        if self.N.shape != (k, k, k):
            raise ValueError("structure constant tensor has wrong shape")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def associativity_residual(self) -> int:
        lhs = np.einsum("abe,ecf->abcf", self.N, self.N)
        rhs = np.einsum("bce,aef->abcf", self.N, self.N)
        return int(np.max(np.abs(lhs - rhs)))

    def dimensions(self) -> np.ndarray:
        """Perron-Frobenius dimension vector d with N[a] d = d_a d."""
        total = self.N.sum(axis=0)
        vals, vecs = np.linalg.eig(total.T)
        i = int(np.argmax(vals.real))
        v = np.abs(vecs[:, i].real)
        unit = self.index.get(self.unit_label())
        v = v / v[unit]
        return v

    def unit_label(self) -> Label:
        for lab in self.labels:
            M = self.N[self.index[lab]]
            if np.array_equal(M, np.eye(self.rank, dtype=M.dtype)):
                return lab
        raise ValueError("no unit object found")

    def dimension_residual(self) -> float:
        d = self.dimensions()
        worst = 0.0
        for a in range(self.rank):
            worst = max(worst, float(np.max(np.abs(self.N[a].T @ d - d[a] * d))))
        return worst

    def dimension_of(self, lab: Label) -> float:
        return float(self.dimensions()[self.index[lab]])

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "labels": [list(map(_plain, lab)) for lab in self.labels],
            "structure_constants": self.N.tolist(),
        }

    def isomorphic_to(self, other: "FusionRing") -> bool:
        """Structural ring isomorphism by backtracking over label matchings
        (dimension-compatible assignments only; fine at these ranks)."""
        if self.rank != other.rank:
            return False
        d1 = np.round(self.dimensions(), 8)
        d2 = np.round(other.dimensions(), 8)
        if sorted(d1) != sorted(d2):
            return False
        cands = [[j for j in range(other.rank) if d1[i] == d2[j]] for i in range(self.rank)]

        assign: dict[int, int] = {}
        used: set[int] = set()

        def ok_partial() -> bool:
            for a, b in itertools.product(assign, repeat=2):
                ab = self.N[a, b]
                for c, mult in enumerate(ab):
                    if c in assign:
                        if other.N[assign[a], assign[b], assign[c]] != mult:
                            return False
            return True

        def backtrack(i: int) -> bool:
            if i == self.rank:
                return True
            for j in cands[i]:
                if j in used:
                    continue
                assign[i] = j
                used.add(j)
                if ok_partial() and backtrack(i + 1):
                    return True
                del assign[i]
                used.discard(j)
            return False

        return backtrack(0)


def _plain(x):
    if isinstance(x, tuple):
        return list(x)
    return x


def _associative(ring: FusionRing, what: str) -> FusionRing:
    """``ring``, or ``ValueError`` if it is not associative: the rules are
    written from the inputs, so such a ring means inputs that give no fusion
    ring (a de-equivariantization by an isotropic H meets this for some
    forms that are not even, while others give a ring)."""
    if ring.associativity_residual() != 0:
        raise ValueError(f"{what} ring is not associative")
    return ring


# ---------------------------------------------------------------------------
# dimension diagnosis


@dataclass(frozen=True)
class DimensionDiagnosis:
    n: int
    m: int
    d: QuadraticIrrational
    rational: bool
    s: int | None = None
    t: int | None = None
    inconsistent: bool = False
    note: str = ""


def dimension_diagnosis(n: int, m: int) -> DimensionDiagnosis:
    """d = (m + sqrt(m^2+4n))/2; rational iff m^2+4n is a perfect square, in
    which case a C* category requires n = s t^2, m = (s-1) t, d = s t."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1, m >= 0")
    d = dimension_d(n, m)
    if not d.is_rational:
        return DimensionDiagnosis(n, m, d, rational=False)
    dval = Fraction(d.p, d.r)
    if dval.denominator != 1:
        return DimensionDiagnosis(n, m, d, rational=True, inconsistent=True,
                                  note="rational d is not an integer")
    dint = int(dval)
    if dint == 0 or n % dint != 0 or (dint * dint) % n != 0:
        return DimensionDiagnosis(n, m, d, rational=True, inconsistent=True,
                                  note="no factorization n = s t^2 with d = s t")
    t = n // dint
    s = dint * dint // n
    if s * t * t != n or (s - 1) * t != m:
        return DimensionDiagnosis(n, m, d, rational=True, inconsistent=True,
                                  note="no factorization n = s t^2 with d = s t")
    return DimensionDiagnosis(n, m, d, rational=True, s=s, t=t)


# ---------------------------------------------------------------------------
# K(G, m) and principal graphs


def near_group_ring(G: FiniteAbelianGroup | None, m: int) -> FusionRing:
    """The based ring ZG + Z rho with rho^2 = sum_g g + m rho."""
    els = G.elements() if G is not None else [()]
    n = len(els)
    N = np.zeros((n + 1,) * 3, dtype=int)
    N[np.arange(n)[:, None], np.arange(n), tables(G).add if G is not None else 0] = 1
    N[:n, n, n] = N[n, :n, n] = N[n, n, :n] = 1  # g rho = rho g = rho, rho^2 = sum_g g
    N[n, n, n] = m
    ring = FusionRing([("g", g) for g in els] + [("rho",)], N,
                      name=f"K({G}, {m})" if G is not None else f"K(1, {m})")
    assert ring.associativity_residual() == 0
    return ring


@dataclass
class PrincipalGraph:
    """Bipartite 2^G_l 1 graph: even vertices {v_g} + v_rho, odd {w_g} + w_pi;
    labels, incidence and metadata are derived from (group, l)."""

    group: FiniteAbelianGroup
    l: int
    even_labels: list[str] = field(init=False)
    odd_labels: list[str] = field(init=False)
    incidence: np.ndarray = field(init=False)
    metadata: dict = field(init=False)

    def __post_init__(self):
        n = self.group.order
        self.even_labels = [f"v_{g}" for g in self.group] + ["v_rho"]
        self.odd_labels = [f"w_{g}" for g in self.group] + ["w_pi"]
        M = np.zeros((n + 1, n + 1))
        for i in range(n):
            M[i, i] = 1.0
            M[n, i] = self.l
        M[n, n] = 1.0
        self.incidence = M
        d = dimension_d(n, self.l * n).value
        self.metadata = {
            "index": 1 + self.l * d,
            "classification_note": (
                "2^G_l1 subfactors correspond one-to-one to C*-near-group "
                "classes for G with m = l|G| (recorded, not proved here)"),
            "self_dual_note": (
                "self-dual whenever A(g) is scalar; in particular every "
                "2^G1 subfactor (l = 1) is self-dual"),
        }

    def norm_squared(self) -> float:
        M = self.incidence
        return float(np.max(np.linalg.eigvalsh(M @ M.T)))

    def to_dot(self) -> str:
        lines = ["graph principal {", "  rankdir=LR;"]
        for v in self.even_labels:
            lines.append(f'  "{v}" [shape=circle];')
        for w in self.odd_labels:
            lines.append(f'  "{w}" [shape=square];')
        for i, v in enumerate(self.even_labels):
            for j, w in enumerate(self.odd_labels):
                mult = int(self.incidence[i, j])
                for _ in range(mult):
                    lines.append(f'  "{v}" -- "{w}";')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "group": list(self.group.factors),
            "l": self.l,
            "even": self.even_labels,
            "odd": self.odd_labels,
            "incidence": self.incidence.tolist(),
            "metadata": dict(self.metadata),
        }


def principal_graph(G: FiniteAbelianGroup, l: int) -> PrincipalGraph:
    if l < 1:
        raise ValueError("l must be >= 1")
    return PrincipalGraph(G, l)


# ---------------------------------------------------------------------------
# automorphism groups Out(C)


@dataclass
class OutGroupResult:
    order: int
    generators: list  # list of (theta images, gauge matrix or +-1)
    isomorphism_type: str | None
    inconclusive: bool = False
    element_orders: tuple[int | None, ...] = ()  # None: no order up to _MAX_PAIR_ORDER


def out_group(s: GeneralSolution, grid: int = DEFAULT_GRID) -> OutGroupResult:
    """Out(C) = Aut(C): the pairs (theta, u) in Aut(G) x G(A,C,J) fixing the
    solution, found by :func:`~neargroup.solutions.gauge_orbit_search` of the
    solution against itself and counted modulo (id, -I).  The search refines
    its grid minima by minimising the sum of |db|^2; the distance tested here
    is the largest entry max |db| of the refined difference.

    A distance below ``EQUAL_TOL`` is a symmetry.  One in the gap below
    ``DISTINCT_TOL`` is neither a symmetry nor ruled out, and sets
    ``inconclusive``, as does a symmetry whose order is not found (its
    element order is None, and no isomorphism type is named).
    """
    found: list[tuple[GroupAutomorphism, np.ndarray]] = []
    inconclusive = False
    for dist, th, u in gauge_orbit_search(s, s, grid):
        if dist >= EQUAL_TOL:
            inconclusive |= dist <= DISTINCT_TOL
        elif not any(th2.images == th.images
                     and min(np.max(np.abs(u2 - u)), np.max(np.abs(u2 + u))) < 1e-5
                     for th2, u2 in found):
            found.append((th, u))
    orders = tuple(sorted((_pair_order(th, u) for th, u in found), key=lambda k: (k is None, k)))
    unknown = None in orders
    return OutGroupResult(len(found), [(th.images, u.round(8).tolist()) for th, u in found],
                          None if unknown else _iso_type(orders),
                          inconclusive=inconclusive or unknown, element_orders=orders)


_MAX_PAIR_ORDER = 64


def _pair_order(th: GroupAutomorphism, u: np.ndarray) -> int | None:
    """The least k <= _MAX_PAIR_ORDER with theta^k = id and u^k = +-I, or
    None if there is none."""
    p, eye = th.permutation(), np.eye(len(u))
    cur_p, cur_u = p, u
    for k in range(1, _MAX_PAIR_ORDER + 1):
        if (cur_p == np.arange(len(p))).all() and min(
                np.max(np.abs(cur_u - eye)), np.max(np.abs(cur_u + eye))) < 1e-6:
            return k
        cur_p, cur_u = cur_p[p], cur_u @ u
    return None


# Sorted element orders of every group of order <= 8; each of these groups is
# determined by this profile.
_ORDER_PROFILES = {
    (1,): "1",
    (1, 2): "Z2",
    (1, 3, 3): "Z3",
    (1, 2, 4, 4): "Z4",
    (1, 2, 2, 2): "Z2xZ2",
    (1, 5, 5, 5, 5): "Z5",
    (1, 2, 3, 3, 6, 6): "Z6",
    (1, 2, 2, 2, 3, 3): "S3",
    (1, 7, 7, 7, 7, 7, 7): "Z7",
    (1, 2, 4, 4, 8, 8, 8, 8): "Z8",
    (1, 2, 2, 2, 4, 4, 4, 4): "Z4xZ2",
    (1, 2, 2, 2, 2, 2, 2, 2): "Z2^3",
    (1, 2, 2, 2, 2, 2, 4, 4): "D8",
    (1, 2, 4, 4, 4, 4, 4, 4): "Q8",
}


def _iso_type(element_orders: tuple[int, ...]) -> str | None:
    """Isomorphism type of a group of order <= 8 from its element orders;
    None for anything else."""
    return _ORDER_PROFILES.get(tuple(sorted(element_orders)))


# ---------------------------------------------------------------------------
# de-equivariantization


def dequiv_fusion(G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm,
                  H: Subgroup) -> FusionRing:
    """Fusion ring of the de-equivariantization by an isotropic H:

        sigma sigma = (+)_{k in Hperp/H} alpha~_{k - g_a}
                      (+) |Hperp/H| (+)_{g in G/Hperp} alpha~_g sigma

    with alpha~-labels in G/H and sigma-labels in G/Hperp, each coset named
    by its least element.
    """
    perp, isotropic, _ = orthogonal_and_lagrangian(G, b, a, H)
    if not isotropic:
        raise ValueError("H is not isotropic (H not within H_perp)")
    hs, ps = list(H.index), list(perp.index)
    (D, A), (Db, X) = a.exponents, b.exponents
    g_a = np.flatnonzero((X[hs] * (D // Db) == A[hs, None]).all(axis=0))
    if not len(g_a):
        raise ValueError("no g_a with a(h) = <h, g_a> on H; a is not a form for b")
    add, neg = tables(G).add, tables(G).neg
    coset_h, coset_perp = add[:, hs].min(axis=1), add[:, ps].min(axis=1)
    alpha, sigma = np.unique(coset_h), np.unique(coset_perp)
    na, ns = len(alpha), len(sigma)
    A = np.searchsorted(alpha, coset_h)  # label of alpha~ over each element
    S = na + np.searchsorted(sigma, coset_perp)  # label of alpha~ sigma over each element
    ia, isg = np.arange(na), na + np.arange(ns)
    N = np.zeros((na + ns,) * 3, dtype=int)
    N[ia[:, None], ia, A[add[alpha[:, None], alpha]]] = 1
    N[ia[:, None], isg, S[add[alpha[:, None], sigma]]] = 1
    N[isg, ia[:, None], S[add[neg[alpha][:, None], sigma]]] = 1  # alpha_g sigma = sigma alpha_{-g}
    # (alpha_{s1} sigma)(alpha_{s2} sigma) = alpha_{s1 - s2} sigma^2
    base = add[sigma[:, None], neg[sigma]][..., None]
    k_minus_ga = add[np.unique(coset_h[ps]), neg[g_a[0]]]  # k in Hperp/H
    N[isg[:, None, None], isg[:, None], A[add[base, k_minus_ga]]] = 1
    N[isg[:, None, None], isg[:, None], S[add[base, sigma]]] = len(ps) // len(hs)  # |Hperp/H|
    els = G.elements()
    labels = [("g", els[g]) for g in alpha] + [("sigma", els[g]) for g in sigma]
    ring = FusionRing(labels, N, name=f"dequiv({G}/{len(hs)})")
    return _associative(ring, "de-equivariantized")


def dequiv_twisted(G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm,
                   H: Subgroup, omega: dict[tuple, complex]) -> FusionRing:
    """Twisted de-equivariantization: H = Z2^{2s} with <.,.>|_H nondegenerate
    and omega a 2-cocycle with omega(h,k) conj(omega(k,h)) = <h,k>; the result
    is the near-group ring K(G/H, 2^s |G/H|)."""
    hset = H.elements
    hnum = len(hset)
    # H must be an elementary abelian 2-group of even rank
    if any(G.element_order(h) > 2 for h in hset):
        raise ValueError("H must be an elementary abelian 2-group")
    srank = int(round(math.log2(hnum)))
    if 2**srank != hnum or srank % 2 != 0:
        raise ValueError("H must have order 2^{2s}")
    s = srank // 2
    T = tables(G)
    hs = list(H.index)
    if np.sum(~b.exponents[1][np.ix_(hs, hs)].any(axis=1)) > 1:
        raise ValueError("<.,.> restricted to H is degenerate")
    # cocycle checks
    for h in hset:
        for k in hset:
            if (h, k) not in omega:
                raise ValueError("omega table incomplete")
            lhs = omega[(h, k)] * np.conj(omega[(k, h)])
            if abs(lhs - b(h, k)) > 1e-9:
                raise ValueError("omega(h,k) conj(omega(k,h)) != <h,k> on H")
    for h in hset:
        for k in hset:
            for l in hset:
                lhs = omega[(h, k)] * omega[(G.add(h, k), l)]
                rhs = omega[(k, l)] * omega[(h, G.add(k, l))]
                if abs(lhs - rhs) > 1e-9:
                    raise ValueError("omega fails the 2-cocycle identity")
    # G/H on its cosets, each named by its least element; the order of the
    # coset of r is the least k >= 1 with k r in H
    reps = np.unique(T.add[:, hs].min(axis=1))
    in_h = np.isin(T.index(np.arange(1, T.n + 1)[:, None, None] * T.E[reps]), hs)
    factors = invariant_factors(in_h.argmax(axis=0) + 1)
    return near_group_ring(FiniteAbelianGroup(factors) if factors else None,
                           2**s * len(reps))


# ---------------------------------------------------------------------------
# equivariantization


@dataclass(frozen=True)
class GammaRepData:
    """Character-theory data of a finite gauge subgroup Gamma: irreducible
    names, dimensions, tensor decomposition tensor, and the index of the
    defining representation pi_0 on K0."""

    names: tuple[str, ...]
    dims: tuple[int, ...]
    tensor: np.ndarray  # tensor[i, j, k] = mult of k in i (x) j
    pi0: int

    def validate(self):
        k = len(self.names)
        if len(self.dims) != k:
            raise ValueError(f"Gamma has {k} names but {len(self.dims)} dims")
        if self.pi0 not in range(k):
            raise ValueError(f"pi0 = {self.pi0} does not index one of the {k} irreps")
        if self.tensor.shape != (k, k, k):
            raise ValueError("Gamma tensor decomposition has wrong shape")
        if not np.array_equal(self.tensor, self.tensor.transpose(1, 0, 2)):
            raise ValueError("Gamma tensor decomposition is not commutative")
        dims = np.array(self.dims)
        if not np.array_equal(np.einsum("ijk,k->ij", self.tensor, dims),
                              np.outer(dims, dims)):
            raise ValueError("Gamma tensor dims are inconsistent")


def d8_rep_data() -> GammaRepData:
    """Rep(D8): four 1-dim irreps (the Klein four-group of characters) and
    one 2-dim irrep pi0 with pi0 (x) pi0 = (+) all four characters."""
    names = ("1", "t1", "t2", "t3", "pi0")
    dims = (1, 1, 1, 1, 2)
    k = 5
    T = np.zeros((k, k, k), dtype=int)
    klein = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3,
             (1, 1): 0, (1, 2): 3, (1, 3): 2, (2, 2): 0, (2, 3): 1, (3, 3): 0}
    for (i, j), r in list(klein.items()):
        T[i, j, r] = 1
        T[j, i, r] = 1
    for i in range(4):
        T[i, 4, 4] = 1
        T[4, i, 4] = 1
    for r in range(4):
        T[4, 4, r] = 1
    return GammaRepData(names, dims, T, pi0=4)


def equiv_fusion(G: FiniteAbelianGroup, m: int, gamma) -> FusionRing:
    """Fusion ring of the equivariantization of K(G, m).

    * ``gamma`` a :class:`GammaRepData` (m = n dim pi0): Rep(Gamma) (x) K(G, 0)
      on the labels {gamma^_pi alpha~_g} and {gamma^_pi rho~}, with

          rho~^2 = (+)_g alpha~_g (+) n gamma^_{pi0} rho~.

    * ``gamma`` a :class:`GroupAutomorphism` of order 2 (m = n): labels
      {alpha~_g^{+-}} for g in G^theta, {pi_g} for the theta-orbit pairs, and
      {rho~, gamma^ rho~}.
    """
    n = G.order
    if isinstance(gamma, GammaRepData):
        gamma.validate()
        if m != n * gamma.dims[gamma.pi0]:
            raise ValueError(f"the Gamma-equivariantization is of K({G}, "
                             f"{n * gamma.dims[gamma.pi0]}), not of K({G}, {m})")
        T, k = gamma.tensor, len(gamma.names)
        # the einsum puts (pi, x), x in G + {rho}, at pi (n + 1) + x; the
        # labels list every (pi, g) first, then every (pi, rho)
        at = np.arange(k * (n + 1)).reshape(k, n + 1)
        order = np.r_[at[:, :n].ravel(), at[:, n]]
        N = np.einsum("ijr,xyz->ixjyrz", T, near_group_ring(G, 0).N)
        N = N.reshape((k * (n + 1),) * 3)[np.ix_(order, order, order)]
        N[k * n:, k * n:, k * n:] += n * T @ T[:, gamma.pi0]  # n gamma^_{i x j x pi0} rho~
        labels = ([("rep", pi, g) for pi in gamma.names for g in G]
                  + [("rho", pi) for pi in gamma.names])
        ring = FusionRing(labels, N, name=f"equiv({G}, m={m})")
        return _associative(ring, "equivariantized")

    theta: GroupAutomorphism = gamma
    if not theta.compose(theta).is_identity():
        raise ValueError("theta must have order dividing 2")
    if m != n:
        raise ValueError(f"the theta-equivariantization is of K({G}, {n}), "
                         f"not of K({G}, {m})")
    perm, add = theta.permutation(), tables(G).add
    fixed = np.flatnonzero(perm == np.arange(n))
    moved = np.flatnonzero(np.arange(n) < perm)  # the least element of each pair
    nf, r = len(fixed), 2 * len(fixed) + len(moved)  # rho~ and gamma^ rho~ at r, r + 1
    # the objects over an element: (g, +1) and (g, -1) at over[g] and over[g] + 1
    # for g fixed by theta, pi_g at over[g] for a moved one
    over = np.empty(n, dtype=int)
    over[fixed] = 2 * np.arange(nf)
    over[moved] = over[perm[moved]] = 2 * nf + np.arange(len(moved))
    inv, pis, sign = np.arange(2 * nf), np.arange(2 * nf, r), np.array([0, 1])
    g_inv, s_inv = fixed[inv // 2], inv % 2  # element and sign bit of each invertible
    N = np.zeros((r + 2,) * 3, dtype=int)
    N[inv[:, None], inv, over[add[g_inv[:, None], g_inv]] + (s_inv[:, None] ^ s_inv)] = 1
    N[inv[:, None], pis, over[add[g_inv[:, None], moved]]] = 1
    N[pis, inv[:, None], over[add[g_inv[:, None], moved]]] = 1
    # alpha_g rho = rho; gamma^ rho = the twist
    N[inv[:, None], r + sign, r + (s_inv[:, None] ^ sign)] = 1
    N[r + sign, inv[:, None], r + (s_inv[:, None] ^ sign)] = 1
    for t in (add[moved[:, None], moved], add[moved[:, None], perm[moved]]):
        # pi_g pi_h = the objects over g + h and over g + theta(h)
        np.add.at(N, (pis[:, None], pis, over[t]), 1)
        np.add.at(N, (pis[:, None], pis, over[t] + 1), perm[t] == t)
    N[2 * nf:r, r:, r:] = N[r:, 2 * nf:r, r:] = 1  # pi rho~ = rho~ pi = rho~ + gamma^ rho~
    # rho~_s1 rho~_s2 = sum over G^theta of alpha~^{s1 s2} + sum pi
    #                   + (n + |G^theta|)/2 rho~_{s1 s2} + (n - |G^theta|)/2 rho~_{-s1 s2}
    twist = sign[:, None] ^ sign
    N[r + sign[:, None, None], r + sign[:, None], over[fixed] + twist[..., None]] = 1
    N[r:, r:, 2 * nf:r] = 1
    N[r + sign[:, None], r + sign, r + twist] = (n + nf) // 2
    N[r + sign[:, None], r + sign, r + 1 - twist] = (n - nf) // 2
    els = G.elements()
    labels = ([("g", els[g], s) for g in fixed for s in (1, -1)]
              + [("pi", els[g]) for g in moved] + [("rho", 1), ("rho", -1)])
    ring = FusionRing(labels, N, name=f"equiv({G}, theta)")
    return _associative(ring, "equivariantized")


def find_near_group_subring(ring: FusionRing) -> FusionRing | None:
    """Extract the near-group subring generated by the invertibles together
    with the distinguished rho-type object of largest dimension, if the
    closure has near-group shape; returns it as a FusionRing."""
    dims = ring.dimensions()
    inv = [lab for i, lab in enumerate(ring.labels) if abs(dims[i] - 1) < 1e-8]
    rho_cands = [
        (dims[i], lab) for i, lab in enumerate(ring.labels)
        if abs(dims[i] - 1) >= 1e-8
    ]
    if not rho_cands:
        return None
    # the near-group generator inside the equivariantization is gamma^_{pi0} rho~,
    # the rho-type object whose square hits every invertible exactly once
    for _, rho in sorted(rho_cands, reverse=True):
        r = ring.index[rho]
        sq = ring.N[r, r]
        inv_idx = [ring.index[lab] for lab in inv]
        if all(sq[i] == 1 for i in inv_idx) and sq[r] > 0:
            others = [i for i in range(ring.rank)
                      if i not in inv_idx and i != r and sq[i] != 0]
            if others:
                continue
            labels = inv + [rho]
            sel = np.array([ring.index[lab] for lab in labels])
            N = ring.N[np.ix_(sel, sel, sel)]
            sub = FusionRing(list(labels), N, name="near-group subring")
            if sub.associativity_residual() == 0:
                return sub
    return None
