"""Finite abelian group arithmetic: characters, bicharacters, quadratic forms.

Conventions used throughout the package:

* A group ``G = Z_{n_1} x ... x Z_{n_k}`` is held as its factor list; elements
  are tuples of residues ``(g_1, ..., g_k)`` with ``0 <= g_i < n_i`` and
  additive notation.
* Group data is held as integer exponents x over a least denominator D,
  ``exp(2*pi*i*x/D)``, so equality and hashing read integers.  Exact
  :class:`Phase` objects are made only at the boundary: the constructors,
  ``phase()`` and the ``gram``/``values`` views that JSON and the CLI read.
* Bulk group data is read off the index tables ``tables(G)``: elements are
  indexed by ``G.index_of`` (the order of ``G.elements()``), and the tables
  hold the coordinate rows and the indices of ``g + h`` and ``-g``.
* A bicharacter ``<.,.>`` is stored as its Gram exponents (D, W) on the
  generators and evaluated through its integer exponent table ``(D, X)``:
  ``<g,h> = exp(2*pi*i*X[g,h]/D)`` over element indices.  It is
  *symmetric* when ``<g,h> = <h,g>`` and *nondegenerate* when
  ``g -> <g,.>`` is injective.
* A quadratic form ``a`` satisfies ``a(g+h) <g,h> = a(g) a(h)``; it is *even*
  when ``a(-g) = a(g)``.  It is stored as its value exponents (D, A),
  indexed like the elements; D is a multiple of the bicharacter's D.
* A subgroup is stored as its sorted element indices (``Subgroup.index``);
  its ``elements`` are a view for the CLI and the tests.
* An automorphism is stored through its generator images and acts on
  indexed data by its index permutation (``GroupAutomorphism.permutation``);
  composition, inverse and the identity test read the permutations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Phase",
    "FiniteAbelianGroup",
    "Bicharacter",
    "QuadraticForm",
    "GroupAutomorphism",
    "GroupTables",
    "Subgroup",
    "ResourceError",
    "tables",
    "form_exponents",
    "invariant_factors",
    "enumerate_bicharacters",
    "enumerate_quadratic_forms",
    "even_quadratic_forms",
    "lagrangian_subgroups",
    "fourier",
    "reflection",
    "automorphisms",
    "subgroups",
    "subgroup_generated_by",
    "orthogonal_and_lagrangian",
]


class ResourceError(Exception):
    """Raised when a brute-force enumeration would exceed its resource bound."""


MAX_ENUMERATED_ORDER = 64  # largest |G| whose bicharacters or Aut(G) are listed
MAX_AUTOMORPHISMS = 10**6  # automorphisms listed before giving up


Element = tuple[int, ...]


@dataclass(frozen=True, order=True)
class Phase:
    """Exact root of unity ``exp(2*pi*i*num/den)``, reduced, ``den >= 1``."""

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if den <= 0:
            raise ValueError("denominator must be positive")
        num %= den
        g = math.gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    @staticmethod
    def from_fraction(q: Fraction | int) -> "Phase":
        q = Fraction(q)
        return Phase(q.numerator, q.denominator)

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase.from_fraction(self.exponent + other.exponent)

    def __pow__(self, k: int) -> "Phase":
        return Phase.from_fraction(k * self.exponent)

    def conj(self) -> "Phase":
        return Phase.from_fraction(-self.exponent)

    @property
    def order(self) -> int:
        return self.den

    def is_one(self) -> bool:
        return self.num == 0

    def value(self) -> complex:
        return complex(np.exp(2j * np.pi * self.num / self.den))

    def __complex__(self) -> complex:
        return self.value()

    def __repr__(self):
        return f"Phase({self.num}/{self.den})"


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_k} in fixed coordinates."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(n) for n in self.factors)
        if not factors or any(n < 2 for n in factors):
            raise ValueError("factors must be integers >= 2")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.factors, 1)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def is_canonical(self) -> bool:
        return all(a % b == 0 for a, b in zip(self.factors[1:], self.factors))

    def canonicalized(self) -> tuple["FiniteAbelianGroup", Callable[[Element], Element]]:
        """Canonical invariant-factor form and the CRT isomorphism onto it.

        Each source prime power is assigned its own slot among the invariant
        factors (k-th largest p-power goes to the k-th largest factor), which
        keeps the linear extension of the generator images bijective.
        """
        primary: dict[int, list[tuple[int, int]]] = {}
        for j, n in enumerate(self.factors):
            for p, e in _factorize(n).items():
                primary.setdefault(p, []).append((p**e, j))
        for p in primary:
            primary[p].sort(key=lambda t: -t[0])
        depth = max(len(v) for v in primary.values())
        slot_val = []
        slot_parts: list[list[tuple[int, int]]] = []  # (prime_power, source index)
        for i in range(depth):
            q_total = 1
            parts = []
            for lst in primary.values():
                if i < len(lst):
                    q, j = lst[i]
                    q_total *= q
                    parts.append((q, j))
            slot_val.append(q_total)
            slot_parts.append(parts)
        order = list(range(depth))[::-1]  # ascending invariant factors
        invariant = [slot_val[i] for i in order]
        target = FiniteAbelianGroup(tuple(invariant))
        gen_images = [[0] * depth for _ in self.factors]
        for pos, i in enumerate(order):
            ni = invariant[pos]
            for q, j in slot_parts[i]:
                cof = ni // q
                gen_images[j][pos] = (gen_images[j][pos] + cof * pow(cof, -1, q)) % ni

        def iso(g: Element) -> Element:
            out = [0] * depth
            for j, gj in enumerate(g):
                if gj:
                    for i, x in enumerate(gen_images[j]):
                        out[i] = (out[i] + gj * x) % invariant[i]
            return tuple(out)

        return target, iso

    # --- element arithmetic -------------------------------------------------

    def zero(self) -> Element:
        return (0,) * self.rank

    def reduce(self, g: Sequence[int]) -> Element:
        return tuple(int(x) % n for x, n in zip(g, self.factors))

    def add(self, g: Element, h: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(g, h, self.factors))

    def neg(self, g: Element) -> Element:
        return tuple((-a) % n for a, n in zip(g, self.factors))

    def smul(self, k: int, g: Element) -> Element:
        return tuple((k * a) % n for a, n in zip(g, self.factors))

    def element_order(self, g: Element) -> int:
        return reduce(math.lcm, (n // math.gcd(a, n) for a, n in zip(g, self.factors)), 1)

    def elements(self) -> list[Element]:
        return list(itertools.product(*(range(n) for n in self.factors)))

    def index_of(self, g: Element) -> int:
        idx = 0
        for a, n in zip(g, self.factors):
            idx = idx * n + (a % n)
        return idx

    def generators(self) -> list[Element]:
        gens = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            gens.append(tuple(e))
        return gens

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements())

    def __repr__(self):
        return "Z" + "xZ".join(str(n) for n in self.factors)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _squarefree(n: int) -> int:
    """The squarefree part D0 of n = s^2 * D0."""
    return math.prod(p for p, e in _factorize(n).items() if e % 2)


def invariant_factors(orders: Sequence[int]) -> tuple[int, ...]:
    """The invariant factors, ascending, of the finite abelian group whose
    element orders (one per element) are ``orders``; () for the trivial group.

    For a prime p let c_k = #{x : ord x | p^k}; then c_k / c_(k-1) = p^m_k,
    where m_k is the number of cyclic p-parts of order >= p^k."""
    orders = np.asarray(orders)
    parts: dict[int, list[int]] = {}  # p -> [m_1, m_2, ...]
    for p in _factorize(len(orders)):
        parts[p], prev, q = [], 1, p
        while (c := int(np.sum(q % orders == 0))) > prev:
            parts[p].append(round(math.log(c // prev, p)))
            prev, q = c, q * p
    depth = max((m[0] for m in parts.values()), default=0)
    return tuple(math.prod(p ** sum(mk > i for mk in m) for p, m in parts.items())
                 for i in reversed(range(depth)))


def _frozen(x: np.ndarray) -> np.ndarray:
    """``x`` made read-only: a cached table is shared by every reader."""
    x.setflags(write=False)
    return x


class GroupTables:
    """Dense index tables for one group: the coordinate rows ``E`` of the
    elements in index order, and the indices ``add[g, h]`` of g + h and
    ``neg[g]`` of -g; ``zero`` is the index of 0 and ``gens`` those of the
    standard generators."""

    def __init__(self, G: FiniteAbelianGroup):
        self.n = G.order
        self.factors = G.factors
        self.E = E = _frozen(np.array(G.elements(), dtype=np.int64))
        self.add = _frozen(self.index(E[:, None] + E[None]))
        self.neg = _frozen(self.index(-E))
        self.zero = G.index_of(G.zero())
        self.gens = _frozen(self.index(np.eye(G.rank, dtype=np.int64)))

    def index(self, X: np.ndarray) -> np.ndarray:
        """``G.index_of`` of each coordinate row of ``X``, reduced."""
        return np.ravel_multi_index(np.moveaxis(X % self.factors, -1, 0), self.factors)


@cache
def tables(G: FiniteAbelianGroup) -> GroupTables:
    return GroupTables(G)


def _least(D: int, X: np.ndarray, base: int = 1) -> tuple[int, np.ndarray]:
    """The exponents X over D put over their least denominator that is a
    multiple of ``base`` (a divisor of D), reduced into [0, D)."""
    X = X % D
    L = math.lcm(base, D // math.gcd(D, *X.ravel().tolist()))
    return L, X // (D // L)


@dataclass(frozen=True, init=False)
class Bicharacter:
    """Symmetric bicharacter: <e_i, e_j> = exp(2 pi i W[i][j] / D) on the
    standard generators, D least.  Built from its Gram matrix of phases."""

    group: FiniteAbelianGroup
    D: int
    W: tuple[tuple[int, ...], ...]

    def __init__(self, group: FiniteAbelianGroup, gram: Sequence[Sequence[Phase]]):
        k = group.rank
        if len(gram) != k or any(len(row) != k for row in gram):
            raise ValueError("gram must be k x k")
        for i in range(k):
            for j in range(k):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram must be symmetric")
                if math.gcd(group.factors[i], group.factors[j]) % gram[i][j].order != 0:
                    raise ValueError("gram entry order must divide gcd of factor orders")
        D = math.lcm(*(p.den for row in gram for p in row))
        W = tuple(tuple(p.num * (D // p.den) for p in row) for row in gram)
        self.__dict__.update(group=group, D=D, W=W)

    @staticmethod
    def _of(group: FiniteAbelianGroup, D: int, W: np.ndarray) -> "Bicharacter":
        """The bicharacter of exponents W over D, valid by construction: unchecked."""
        D, W = _least(D, W)
        b = object.__new__(Bicharacter)
        b.__dict__.update(group=group, D=D, W=tuple(map(tuple, W.tolist())))
        return b

    @cached_property
    def gram(self) -> tuple[tuple[Phase, ...], ...]:
        """The Gram matrix of phases, for JSON and the CLI."""
        return tuple(tuple(Phase(w, self.D) for w in row) for row in self.W)

    @cached_property
    def exponents(self) -> tuple[int, np.ndarray]:
        """(D, X): X[g, h] = g W h^T mod D over element indices, so that
        <g,h> = exp(2 pi i X[g,h] / D)."""
        E = tables(self.group).E
        return self.D, _frozen((E @ np.array(self.W) @ E.T) % self.D)

    def phase(self, g: Element, h: Element) -> Phase:
        D, X = self.exponents
        return Phase(int(X[self.group.index_of(g), self.group.index_of(h)]), D)

    def __call__(self, g: Element, h: Element) -> complex:
        return self.phase(g, h).value()

    def matrix(self) -> np.ndarray:
        """Dense ``<g,h>`` table over the element order of ``group.elements()``:
        X read through the table of ``Phase(j, D).value()``, which equals
        ``self(g, h)`` bit for bit."""
        D, X = self.exponents
        return np.array([Phase(j, D).value() for j in range(D)])[X]

    def radical(self) -> list[Element]:
        """Elements g with <g,h>=1 for all h (trivial iff nondegenerate)."""
        els = self.group.elements()
        return [els[i] for i in np.flatnonzero(~self.exponents[1].any(axis=1))]

    def is_nondegenerate(self) -> bool:
        return len(self.radical()) == 1

    def galois(self, k: int) -> "Bicharacter":
        """The image under zeta -> zeta^k: every exponent times k."""
        return Bicharacter._of(self.group, self.D, k * np.array(self.W))

    def conj(self) -> "Bicharacter":
        return self.galois(-1)

    def pullback(self, theta: "GroupAutomorphism") -> "Bicharacter":
        """The bicharacter (g,h) -> <theta(g), theta(h)>: X at the permuted
        generator indices."""
        q = theta.permutation()[tables(self.group).gens]
        return Bicharacter._of(self.group, self.D, self.exponents[1][np.ix_(q, q)])


@dataclass(frozen=True, init=False)
class QuadraticForm:
    """a(g) = exp(2 pi i A[index_of(g)] / D) with a(g+h)<g,h> = a(g)a(h) for
    a fixed bicharacter, D the least multiple of the bicharacter's D that
    every value's denominator divides.  Built from its values as phases."""

    bichar: Bicharacter
    D: int
    A: tuple[int, ...]  # indexed by group.index_of

    def __init__(self, bichar: Bicharacter, values: Sequence[Phase]):
        D = math.lcm(bichar.D, *(p.den for p in values))
        self.__dict__.update(bichar=bichar, D=D, A=tuple(p.num * (D // p.den) for p in values))

    @staticmethod
    def _of(bichar: Bicharacter, D: int, A: np.ndarray) -> "QuadraticForm":
        """The form of exponents A over D, valid by construction: unchecked."""
        D, A = _least(D, A, bichar.D)
        a = object.__new__(QuadraticForm)
        a.__dict__.update(bichar=bichar, D=D, A=tuple(A.tolist()))
        return a

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.bichar.group

    @cached_property
    def values(self) -> tuple[Phase, ...]:
        """The values as phases, for JSON and the CLI."""
        return tuple(Phase(x, self.D) for x in self.A)

    @cached_property
    def exponents(self) -> tuple[int, np.ndarray]:
        """(D, A) with A as a read-only array."""
        return self.D, _frozen(np.array(self.A))

    def phase(self, g: Element) -> Phase:
        return Phase(self.A[self.group.index_of(g)], self.D)

    def __call__(self, g: Element) -> complex:
        return self.phase(g).value()

    def table(self) -> np.ndarray:
        return np.array([p.value() for p in self.values])

    def is_valid(self) -> bool:
        D, A = self.exponents
        Db, X = self.bichar.exponents
        return not ((A[tables(self.group).add] + X * (D // Db) - A[:, None] - A) % D).any()

    def is_even(self) -> bool:
        A = self.exponents[1]
        return bool(np.array_equal(A[tables(self.group).neg], A))

    def galois(self, k: int) -> "QuadraticForm":
        """The image under zeta -> zeta^k, over the bicharacter's image."""
        return QuadraticForm._of(self.bichar.galois(k), self.D, k * self.exponents[1])

    def conj(self) -> "QuadraticForm":
        return self.galois(-1)

    def pullback(self, theta: "GroupAutomorphism") -> "QuadraticForm":
        """The form g -> a(theta(g)), living over the pulled-back bicharacter."""
        return QuadraticForm._of(self.bichar.pullback(theta), self.D,
                                 self.exponents[1][theta.permutation()])

    def gauss_sum(self) -> complex:
        """The normalized Gauss sum ``a_hat(0) = sum_g a(g) / sqrt(n)``."""
        return sum(p.value() for p in self.values) / math.sqrt(self.group.order)


def form_exponents(forms: Sequence[QuadraticForm]) -> tuple[int, np.ndarray]:
    """(D, A): the exponent arrays of forms on one group over one common D,
    one row per form.  A form fixes its bicharacter, <g,h> = a(g) a(h) /
    a(g+h), so two pairs (<.,.>, a) are equal exactly when their rows are;
    an automorphism theta pulls a row back to ``row[theta.permutation()]``
    and the substitution zeta -> zeta^k multiplies it by k, mod D."""
    D = math.lcm(*(a.D for a in forms))
    return D, np.array([a.exponents[1] * (D // a.D) for a in forms])


@dataclass(frozen=True)
class GroupAutomorphism:
    group: FiniteAbelianGroup
    images: tuple[Element, ...]  # image of each standard generator

    def __call__(self, g: Element) -> Element:
        return self.group.reduce(np.dot(g, self.images))

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        """g -> self(other(g))."""
        return self._of_permutation(self.permutation()[other.permutation()])

    def inverse(self) -> "GroupAutomorphism":
        return self._of_permutation(np.argsort(self.permutation()))

    def is_identity(self) -> bool:
        p = self.permutation()
        return bool((p == np.arange(len(p))).all())

    def _of_permutation(self, p: np.ndarray) -> "GroupAutomorphism":
        """The automorphism of index permutation p: its generator images
        are the rows of E at p of the generators."""
        T = tables(self.group)
        return GroupAutomorphism(self.group, tuple(map(tuple, T.E[p[T.gens]].tolist())))

    def permutation(self) -> np.ndarray:
        """index permutation p with p[index(g)] = index(theta(g)): the
        coordinate rows times the images, reduced (read-only, made once)."""
        return self._permutation

    @cached_property
    def _permutation(self) -> np.ndarray:
        T = tables(self.group)
        return _frozen(T.index(T.E @ np.array(self.images)))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup as its sorted element indices (``G.index_of``)."""

    group: FiniteAbelianGroup
    index: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.index)

    @property
    def elements(self) -> tuple[Element, ...]:
        """The elements in index order, which is sorted order."""
        return tuple(map(tuple, tables(self.group).E[list(self.index)].tolist()))

    def is_closed(self) -> bool:
        return np.array_equal(_closure(tables(self.group), self.index), self.index)


def _closure(T: GroupTables, index: Iterable[int]) -> np.ndarray:
    """The sorted indices of the subgroup generated by ``index``: the set
    with 0 closed under + until it stops growing."""
    H = np.union1d(np.asarray(list(index), dtype=np.int64), T.zero)
    while len(K := np.unique(T.add[np.ix_(H, H)])) > len(H):
        H = K
    return H


def subgroup_generated_by(G: FiniteAbelianGroup, gens: Iterable[Element]) -> Subgroup:
    return Subgroup(G, tuple(_closure(tables(G), map(G.index_of, gens)).tolist()))


def subgroups(G: FiniteAbelianGroup) -> list[Subgroup]:
    """All subgroups, found by closing H and g for each found H and each g
    outside it (fine for small G), sorted by order, then by elements."""
    T = tables(G)
    trivial = (T.zero,)
    found, frontier = {trivial}, [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in np.setdiff1d(np.arange(T.n), H):
                K = tuple(_closure(T, H + (g,)).tolist())
                if K not in found:
                    found.add(K)
                    nxt.append(K)
        frontier = nxt
    return [Subgroup(G, H) for H in sorted(found, key=lambda H: (len(H), H))]


# ---------------------------------------------------------------------------
# enumeration


def enumerate_bicharacters(
    G: FiniteAbelianGroup, nondegenerate_only: bool = False
) -> list[Bicharacter]:
    """All symmetric bicharacters of G (optionally only nondegenerate ones)."""
    if G.order > MAX_ENUMERATED_ORDER:
        raise ResourceError(f"|G|={G.order} exceeds bound {MAX_ENUMERATED_ORDER}")
    k = G.rank
    slots = [(i, j) for i in range(k) for j in range(i, k)]
    ranges = [math.gcd(G.factors[i], G.factors[j]) for i, j in slots]
    out = []
    for choice in itertools.product(*(range(r) for r in ranges)):
        gram = [[Phase(0, 1)] * k for _ in range(k)]
        for (i, j), c, r in zip(slots, choice, ranges):
            gram[i][j] = gram[j][i] = Phase(c, r)
        b = Bicharacter(G, tuple(tuple(row) for row in gram))
        if nondegenerate_only and not b.is_nondegenerate():
            continue
        out.append(b)
    return out


def enumerate_quadratic_forms(b: Bicharacter) -> list[QuadraticForm]:
    """All solutions a of a(g+h)<g,h>=a(g)a(h); exactly |G| of them: the base
    solution times each character g -> prod zeta_{n_i}^{c_i g_i}, c in G,
    whose exponents over L = lcm(n_i) are the rows of E (L / n_i) c, all
    over M = lcm(2D, L)."""
    G = b.group
    E = tables(G).E
    L = math.lcm(*G.factors)
    M = math.lcm(2 * b.D, L)
    base = _base_quadratic_form(b) * (M // (2 * b.D))
    twists = (E * (L // np.array(G.factors))) @ E.T * (M // L)  # column c: character c
    return [QuadraticForm._of(b, M, base + t) for t in twists.T]


def even_quadratic_forms(b: Bicharacter) -> list[QuadraticForm]:
    return [a for a in enumerate_quadratic_forms(b) if a.is_even()]


def _base_quadratic_form(b: Bicharacter) -> np.ndarray:
    """One particular solution of the coboundary equation (a symmetric
    2-cocycle on a finite abelian group is always a coboundary), over 2D:
    2 A(g) for a(g) = exp(2 pi i A(g) / D) and
    A(g) = sum_i W_ii g_i (n_i - g_i) / 2 - sum_{i<j} W_ij g_i g_j,
    whose i-th term makes a(e_i)^{n_i} = <e_i,e_i>^{n_i(n_i-1)/2}."""
    E, W = tables(b.group).E, np.array(b.W)
    return E @ (np.diag(W) * b.group.factors) - np.einsum("gi,ij,gj->g", E, W, E)


# ---------------------------------------------------------------------------
# Fourier analysis


def fourier(f: np.ndarray, b: Bicharacter) -> np.ndarray:
    """f_hat(g) = n^{-1/2} sum_h conj(<g,h>) f(h), indexed like G.elements()."""
    B = b.matrix()
    n = b.group.order
    return (np.conj(B) @ np.asarray(f, dtype=complex)) / math.sqrt(n)


def reflection(G: FiniteAbelianGroup) -> np.ndarray:
    """Permutation matrix of g -> -g in the element order."""
    P = np.zeros((G.order, G.order))
    P[tables(G).neg, np.arange(G.order)] = 1.0
    return P


# ---------------------------------------------------------------------------
# automorphisms


@cache
def automorphisms(G: FiniteAbelianGroup) -> tuple[GroupAutomorphism, ...]:
    """Complete Aut(G) by pruned brute force over generator images, listed
    once per group.

    An automorphism preserves element orders, so the image of the i-th
    standard generator ranges over elements of order exactly ``n_i``; partial
    choices are pruned by requiring the span of the chosen images to grow by
    the full factor ``n_i`` at each step (injectivity), which also makes the
    final linear extension bijective.
    """
    if G.order > MAX_ENUMERATED_ORDER:
        raise ResourceError(f"|G|={G.order} exceeds bound {MAX_ENUMERATED_ORDER}")
    els = G.elements()
    candidates = [
        [g for g in els if G.element_order(g) == n] for n in G.factors
    ]
    out: list[GroupAutomorphism] = []

    def extend(chosen: list[Element], span: set[Element]):
        if len(out) >= MAX_AUTOMORPHISMS:
            raise ResourceError("automorphism count exceeds resource bound")
        i = len(chosen)
        if i == G.rank:
            out.append(GroupAutomorphism(G, tuple(chosen)))
            return
        n = G.factors[i]
        for g in candidates[i]:
            new_span = _span_with(G, span, g, n)
            if len(new_span) == len(span) * n:
                extend(chosen + [g], new_span)

    extend([], {G.zero()})
    return tuple(out)


def _span_with(G, span: set[Element], g: Element, n: int) -> set[Element]:
    out = set()
    kg = G.zero()
    for _ in range(n):
        out |= {G.add(s, kg) for s in span}
        kg = G.add(kg, g)
    return out


# ---------------------------------------------------------------------------
# orthogonality / Lagrangians


def orthogonal_and_lagrangian(
    G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm | None, H: Subgroup
) -> tuple[Subgroup, bool, bool]:
    """H_perp, whether H is isotropic (H within H_perp), whether Lagrangian.

    Lagrangian means H = H_perp and a restricted to H is identically 1; when
    no form is supplied the Lagrangian flag only checks H = H_perp.
    """
    if not H.is_closed():
        raise ValueError("H is not closed under addition")
    hs = list(H.index)
    in_perp = ~b.exponents[1][:, hs].any(axis=1)
    perp = Subgroup(G, tuple(np.flatnonzero(in_perp).tolist()))
    isotropic = bool(in_perp[hs].all())
    lagrangian = isotropic and H.order == perp.order
    if lagrangian and a is not None:
        lagrangian = not a.exponents[1][hs].any()
    return perp, isotropic, lagrangian


def lagrangian_subgroups(
    G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm
) -> list[Subgroup]:
    return [
        H
        for H in subgroups(G)
        if orthogonal_and_lagrangian(G, b, a, H)[2]
    ]
