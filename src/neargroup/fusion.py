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
    _factorize,
    automorphisms,
)
from .solutions import (
    DEFAULT_GRID,
    DISTINCT_TOL,
    EQUAL_TOL,
    GeneralSolution,
    MNSolution,
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
    labels: list[Label] = [("g", g) for g in els] + [("rho",)]
    k = len(labels)
    add = {g: {h: (G.add(g, h) if G is not None else ()) for h in els} for g in els}
    N = np.zeros((k, k, k), dtype=int)
    idx = {lab: i for i, lab in enumerate(labels)}
    rho = idx[("rho",)]
    for g in els:
        for h in els:
            N[idx[("g", g)], idx[("g", h)], idx[("g", add[g][h])]] = 1
        N[idx[("g", g)], rho, rho] = 1
        N[rho, idx[("g", g)], rho] = 1
        N[rho, rho, idx[("g", g)]] = 1
    N[rho, rho, rho] = m
    ring = FusionRing(labels, N, name=f"K({G}, {m})" if G is not None else f"K(1, {m})")
    assert ring.associativity_residual() == 0
    return ring


@dataclass
class PrincipalGraph:
    """Bipartite 2^G_l 1 graph: even vertices {v_g} + v_rho, odd {w_g} + w_pi."""

    group: FiniteAbelianGroup
    l: int
    even_labels: list[str] = field(default_factory=list)
    odd_labels: list[str] = field(default_factory=list)
    incidence: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

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
    element_orders: tuple[int, ...] = ()


def out_group(s: MNSolution | GeneralSolution, grid: int = DEFAULT_GRID) -> OutGroupResult:
    """Out(C) = Aut(C): the pairs (theta, u) in Aut(G) x G(A,C,J) fixing the
    solution, found by :func:`~neargroup.solutions.gauge_orbit_search` of the
    solution against itself and counted modulo (id, -I).  The search refines
    its grid minima by minimising the sum of |db|^2; the distance tested here
    is the largest entry max |db| of the refined difference.

    A distance below ``EQUAL_TOL`` is a symmetry.  One in the gap below
    ``DISTINCT_TOL`` is neither a symmetry nor ruled out, and sets
    ``inconclusive``.
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
    orders = tuple(sorted(_pair_order(th, u) for th, u in found))
    return OutGroupResult(len(found), [(th.images, u.round(8).tolist()) for th, u in found],
                          _iso_type(orders), inconclusive=inconclusive,
                          element_orders=orders)


def _pair_order(th: GroupAutomorphism, u: np.ndarray) -> int:
    k = 1
    cur_t, cur_u = th, u
    while True:
        if cur_t.is_identity() and (
            np.max(np.abs(cur_u - np.eye(len(u)))) < 1e-6
            or np.max(np.abs(cur_u + np.eye(len(u)))) < 1e-6
        ):
            return k
        cur_t = cur_t.compose(th)
        cur_u = cur_u @ u
        k += 1
        if k > 64:
            return k


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

    with alpha~-labels in G/H and sigma-labels in G/Hperp.
    """
    from .abelian import orthogonal_and_lagrangian

    perp, isotropic, _ = orthogonal_and_lagrangian(G, b, a, H)
    if not isotropic:
        raise ValueError("H is not isotropic (H not within H_perp)")
    g_a = None
    for cand in G:
        if all(a.phase(h) == b.phase(h, cand) for h in H.elements):
            g_a = cand
            break
    if g_a is None:
        raise ValueError("no g_a with a(h) = <h, g_a> on H; a is not a form for b")

    hset = H.elements
    perp_set = perp.elements

    def coset(g, mod):
        return min(tuple(G.add(g, h)) for h in mod)

    alpha_labels = sorted({coset(g, hset) for g in G})
    sigma_labels = sorted({coset(g, perp_set) for g in G})
    labels: list[Label] = [("g", g) for g in alpha_labels] + [("sigma", g) for g in sigma_labels]
    idx = {lab: i for i, lab in enumerate(labels)}
    k = len(labels)
    N = np.zeros((k, k, k), dtype=int)
    mult_perp = len(perp_set) // len(hset)  # |Hperp/H|
    for g in alpha_labels:
        for h in alpha_labels:
            N[idx[("g", g)], idx[("g", h)], idx[("g", coset(G.add(g, h), hset))]] = 1
        for sgl in sigma_labels:
            N[idx[("g", g)], idx[("sigma", sgl)],
              idx[("sigma", coset(G.add(g, sgl), perp_set))]] = 1
            # alpha_g sigma = sigma alpha_{-g}
            N[idx[("sigma", sgl)], idx[("g", g)],
              idx[("sigma", coset(G.sub(sgl, g), perp_set))]] = 1
    perp_cosets = sorted({coset(k, hset) for k in perp_set})  # H_perp / H
    for s1 in sigma_labels:
        for s2 in sigma_labels:
            # (alpha_{s1} sigma)(alpha_{s2} sigma) = alpha_{s1 - s2} sigma^2
            base = G.sub(s1, s2)
            for kk in perp_cosets:
                lab = coset(G.add(base, G.sub(kk, g_a)), hset)
                N[idx[("sigma", s1)], idx[("sigma", s2)], idx[("g", lab)]] += 1
            for g in sigma_labels:
                lab = coset(G.add(base, g), perp_set)
                N[idx[("sigma", s1)], idx[("sigma", s2)], idx[("sigma", lab)]] += mult_perp
    ring = FusionRing(labels, N, name=f"dequiv({G}/{len(hset)})")
    if ring.associativity_residual() != 0:
        raise AssertionError("de-equivariantized ring is not associative")
    return ring


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
    # nondegeneracy of the restriction
    for h in hset:
        if h != G.zero() and all(b.phase(h, k).is_one() for k in hset):
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
    # quotient group G/H presented on coset representatives
    reps = sorted({min(tuple(G.add(g, h)) for h in hset) for g in G})
    factors = _quotient_factors(G, hset, reps)
    Q = FiniteAbelianGroup(tuple(factors)) if factors else None
    m = (2**s) * len(reps)
    if Q is not None and Q.order != len(reps):
        raise AssertionError("quotient presentation mismatch")
    return near_group_ring(Q, m)


def _quotient_factors(G: FiniteAbelianGroup, hset, reps) -> list[int]:
    """Invariant factors of G/H, classified by counting p^k-torsion."""

    def coset(g):
        return min(tuple(G.add(g, h)) for h in hset)

    zero = coset(G.zero())
    els = list(reps)
    order = len(els)
    if order == 1:
        return []
    primes = sorted(_factorize(order))
    # c_k = #{x in Q : p^k x = 0} = p^{sum_i min(k, lambda_i)} determines the
    # partition (lambda_i) of the p-primary part
    primary: dict[int, list[int]] = {}
    for p in primes:
        counts = []
        k = 1
        while True:
            c_k = sum(1 for g in els if coset(G.smul(p**k, g)) == zero)
            counts.append(int(round(math.log(c_k, p))))
            if len(counts) > 1 and counts[-1] == counts[-2]:
                counts.pop()
                break
            if c_k == order:
                break
            k += 1
        # counts[k-1] = sum_i min(k, lambda_i); recover the partition
        lambdas = []
        prev = 0
        for k, e in enumerate(counts, start=1):
            at_least_k = e - prev
            lambdas.append(at_least_k)
            prev = e
        # lambdas[k-1] = #parts >= k; convert to the partition itself
        parts = []
        for k, cnt in enumerate(lambdas, start=1):
            nxt = lambdas[k] if k < len(lambdas) else 0
            parts.extend([k] * (cnt - nxt))
        primary[p] = sorted((p**e for e in parts), reverse=True)
    depth = max(len(v) for v in primary.values())
    invariant = []
    for i in range(depth):
        q = 1
        for p in primes:
            if i < len(primary[p]):
                q *= primary[p][i]
        invariant.append(q)
    return sorted(invariant)


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
        if self.tensor.shape != (k, k, k):
            raise ValueError("Gamma tensor decomposition has wrong shape")
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
    """Fusion ring of the equivariantization.

    * ``gamma`` a :class:`GammaRepData`: labels {gamma^_pi alpha~_g} and
      {gamma^_pi rho~} with

          rho~^2 = (+)_g alpha~_g (+) n gamma^_{pi0} rho~.

    * ``gamma`` a :class:`GroupAutomorphism` of order 2 (m = n case): labels
      {alpha~_g^{+-}} for g in G^theta, {pi_g} for the theta-orbit pairs, and
      {rho~, gamma^ rho~}.
    """
    n = G.order
    if isinstance(gamma, GammaRepData):
        gamma.validate()
        k = len(gamma.names)
        labels: list[Label] = []
        for i in range(k):
            for g in G:
                labels.append(("rep", gamma.names[i], g))
        for i in range(k):
            labels.append(("rho", gamma.names[i]))
        idx = {lab: j for j, lab in enumerate(labels)}
        K = len(labels)
        N = np.zeros((K, K, K), dtype=int)
        T = gamma.tensor
        for i in range(k):
            for j in range(k):
                targets = [(r, int(T[i, j, r])) for r in range(k) if T[i, j, r]]
                for g in G:
                    for h in G:
                        for r, mult in targets:
                            N[idx[("rep", gamma.names[i], g)],
                              idx[("rep", gamma.names[j], h)],
                              idx[("rep", gamma.names[r], G.add(g, h))]] += mult
                    for r, mult in targets:
                        N[idx[("rep", gamma.names[i], g)], idx[("rho", gamma.names[j])],
                          idx[("rho", gamma.names[r])]] += mult
                        N[idx[("rho", gamma.names[j])], idx[("rep", gamma.names[i], g)],
                          idx[("rho", gamma.names[r])]] += mult
                # rho_i rho_j = sum_g gamma_{i x j} alpha_g + n gamma_{i x j x pi0} rho
                for r, mult in targets:
                    for g in G:
                        N[idx[("rho", gamma.names[i])], idx[("rho", gamma.names[j])],
                          idx[("rep", gamma.names[r], g)]] += mult
                    for r2 in range(k):
                        extra = int(T[r, gamma.pi0, r2]) * mult
                        if extra:
                            N[idx[("rho", gamma.names[i])], idx[("rho", gamma.names[j])],
                              idx[("rho", gamma.names[r2])]] += n * extra
        ring = FusionRing(labels, N, name=f"equiv({G}, m={m})")
        if ring.associativity_residual() != 0:
            raise AssertionError("equivariantized ring is not associative")
        return ring

    theta: GroupAutomorphism = gamma
    if not theta.compose(theta).is_identity():
        raise ValueError("theta must have order dividing 2")
    fixed = [g for g in G if theta(g) == g]
    pairs = []
    seen = set(fixed)
    for g in G:
        if g in seen:
            continue
        seen.add(g)
        seen.add(theta(g))
        pairs.append(g)

    def pair_rep(g):
        if g in fixed:
            return None
        return min(g, theta(g))

    labels = [("g", g, s) for g in fixed for s in (1, -1)]
    labels += [("pi", g) for g in pairs]
    labels += [("rho", 1), ("rho", -1)]
    idx = {lab: i for i, lab in enumerate(labels)}
    K = len(labels)
    N = np.zeros((K, K, K), dtype=int)

    def add_invertible(g, s):
        return idx[("g", g, s)]

    for g in fixed:
        for s1 in (1, -1):
            for h in fixed:
                for s2 in (1, -1):
                    N[add_invertible(g, s1), add_invertible(h, s2),
                      add_invertible(G.add(g, h), s1 * s2)] = 1
            for h in pairs:
                N[add_invertible(g, s1), idx[("pi", h)], idx[("pi", pair_rep(G.add(g, h)))]] = 1
                N[idx[("pi", h)], add_invertible(g, s1), idx[("pi", pair_rep(G.add(g, h)))]] = 1
            # invertibles times rho~: alpha_g rho = rho; gamma^ rho = the twist
            for srho in (1, -1):
                N[add_invertible(g, s1), idx[("rho", srho)], idx[("rho", srho * s1)]] = 1
                N[idx[("rho", srho)], add_invertible(g, s1), idx[("rho", srho * s1)]] = 1
    for g in pairs:
        for h in pairs:
            for target in (G.add(g, h), G.add(g, theta(h))):
                if target in fixed:
                    N[idx[("pi", g)], idx[("pi", h)], add_invertible(target, 1)] += 1
                    N[idx[("pi", g)], idx[("pi", h)], add_invertible(target, -1)] += 1
                else:
                    N[idx[("pi", g)], idx[("pi", h)], idx[("pi", pair_rep(target))]] += 1
        for srho in (1, -1):
            N[idx[("pi", g)], idx[("rho", srho)], idx[("rho", 1)]] += 1
            N[idx[("pi", g)], idx[("rho", srho)], idx[("rho", -1)]] += 1
            N[idx[("rho", srho)], idx[("pi", g)], idx[("rho", 1)]] += 1
            N[idx[("rho", srho)], idx[("pi", g)], idx[("rho", -1)]] += 1
    nf = len(fixed)
    for s1 in (1, -1):
        for s2 in (1, -1):
            row = idx[("rho", s1)]
            col = idx[("rho", s2)]
            tw = s1 * s2
            for g in fixed:
                N[row, col, add_invertible(g, tw)] += 1
            for g in pairs:
                N[row, col, idx[("pi", g)]] += 1
            N[row, col, idx[("rho", tw)]] += (n + nf) // 2
            N[row, col, idx[("rho", -tw)]] += (n - nf) // 2
    ring = FusionRing(labels, N, name=f"equiv({G}, theta)")
    if ring.associativity_residual() != 0:
        raise AssertionError("equivariantized ring is not associative")
    return ring


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
