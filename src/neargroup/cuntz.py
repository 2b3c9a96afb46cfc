"""Block-sparse engine for the Cuntz algebra O_N and the word oracle.

An element is a finite linear combination of reduced words S_mu S_nu^* over
the alphabet {0..n-1} = group isometries S_g, {n..N-1} = the T_i.  It is
stored by block: (a, b) = (|mu|, |nu|) maps to the COO entries
(rows, cols, vals) of a sparse N^a x N^b coefficient matrix, with int64
indices and a word's index its base-N value (first letter most significant).
Each block holds one entry per (row, col).

An element may carry a leading family index k in [K]: block (a, b) is then
(K N^a) x N^b with row k N^a + mu, so one object holds a whole family such
as {rho(S_i)}_i.  Products of a family with a single element act on every
member, products of two families of one size member by member.  The storage
of a family is that of sum_k S_k x_k, which makes moving a word's first
letter into the family index free; rho is applied that way (Horner
recursion, :func:`_apply`).

Products reduce with S_i^* S_j = delta_ij only.  For b1 <= a2 the block
product is A @ B with B's rows split into the first b1 letters and the rest
(the mirror case splits A's columns).  It is a sort-merge join on the inner
index (:func:`_join`): B's entries are sorted by it once per split, shared by
every block of A; each entry of A is paired with its run of B, and the pairs
are summed per output entry, by a bincount over the compressed row x column
table when that table is dense enough, else by one sort.  The completeness
relation sum_i S_i S_i^* = 1 enters only through level raising, a Kronecker
product with the identity (:func:`normalize`).  The zero test
(:func:`normalize_residual`) reads the largest raised coefficient off a walk
over the word tree of each grade and never forms the raised table, so its
memory is that of the stored entries.  Nothing is pruned: residuals are the
real largest coefficients.

The oracle builds the endomorphism rho on generators from an admissible
tuple,

    rho(S_e) = (eps/d) sum_h S_h + d^{-1/2} sum_i T_i j1(T_i)
    rho(S_g) = U(g) rho(S_e) U(g)^*
    rho(T)   = d^{-1/2} sum_h S_h (V(h) j2 T)^* + sum_h (V(h) W T) S_h S_h^*
               + l(T),         W = j2 j1^{-1}

and checks, as word identities: isometry relations of the images, range
completeness, the defining relation
rho^2(x) = sum_g S_g alpha_g(x) S_g^* + sum_i T_i rho(x) T_i^* on every
generator, and the closed form of rho(U(g)).  The defining relation is read
two folds down: both sides are multiplied by fold^* = sum_i S_i rho(S_i)^*,
split on their first letter (:func:`_split`) and multiplied by fold^* once
more, so the two largest products of rho^2 are never made.  Given the first
two checks, which make fold unitary, this reading is zero exactly when the
relation holds (:func:`oracle_check` has the derivation).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .solutions import ResidualReport
from .tuples import AdmissibleTuple

__all__ = [
    "CuntzElement",
    "normalize",
    "normalize_residual",
    "GeneratorEndomorphism",
    "build_endomorphism",
    "oracle_check",
    "fs_indicators",
]

Word = tuple[int, ...]

# A block product with at most this many candidate entry pairs joins by
# broadcasting and _sum_duplicates; a larger one by the sort-merge join.
_SMALL_JOIN = 2048


def _index(N: int, word) -> int:
    i = 0
    for letter in word:
        i = i * N + int(letter)
    return i


def _letters(N: int, index: int, length: int) -> Word:
    out = []
    for _ in range(length):
        index, letter = divmod(index, N)
        out.append(letter)
    return tuple(reversed(out))


def _sort(key):
    """key sorted, and the stable permutation that sorts it."""
    order = np.argsort(key, kind="stable")
    return key[order], order


def _divmod(key, n: int):
    """np.divmod(key, n) for int64 keys >= 0; numpy divides by a scalar
    faster than it takes the remainder."""
    q = key // n
    return q, key - q * n


def _sum_by_key(key, val):
    """The distinct values of an array of int64 keys >= 0, ascending, and the
    sum of val over the entries of each."""
    key, order = _sort(key)
    first = np.flatnonzero(_starts(key))
    return key[first], np.add.reduceat(val[order], first)


def _starts(key):
    """Where each run of equal entries of a sorted array begins."""
    first = np.empty(len(key), bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def _sum_duplicates(r, c, v):
    """One entry per (row, col), duplicate coefficients summed."""
    if len(r) < 2:
        return r, c, v
    width = int(c.max()) + 1
    # r * width + c fits: _gather bounds every block's index space
    key, v = _sum_by_key(r * width + c, v)
    return key // width, key % width, v


def _gather(N: int, K: int, pieces: dict) -> "CuntzElement":
    """The element whose block (a, b) is the sum of the COO pieces[(a, b)]."""
    blocks = {}
    for (a, b), parts in pieces.items():
        if K * N ** (a + b) > 2**63:
            raise OverflowError(f"block ({a}, {b}) of {K} members overflows int64 indices")
        parts = [p for p in parts if len(p[2])]
        if len(parts) == 1:
            blocks[(a, b)] = parts[0]
        elif parts:
            blocks[(a, b)] = _sum_duplicates(*(np.concatenate(x) for x in zip(*parts)))
    return CuntzElement(N, blocks, K)


def _entries(N: int, K: int, a: int, b: int, k, mu, nu, vals) -> "CuntzElement":
    """The one-block element sum vals S_mu S_nu^* in member k; the index
    arrays broadcast against each other and exact zeros are left out."""
    k, mu, nu, vals = np.broadcast_arrays(k, mu, nu, vals)
    vals = vals.astype(complex).ravel()
    keep = vals != 0
    rows = (k.ravel() * N**a + mu.ravel()).astype(np.int64)[keep]
    cols = nu.ravel().astype(np.int64)[keep]
    return _gather(N, K, {(a, b): [_sum_duplicates(rows, cols, vals[keep])]})


class _Terms(Mapping):
    """Read-only {(mu, nu): coeff} view of an element ({(k, mu, nu): coeff}
    for a family); its length is the number of stored coefficients."""

    __slots__ = ("_x", "_dict")

    def __init__(self, x: "CuntzElement"):
        self._x = x
        self._dict = None

    def __len__(self):
        return sum(len(v) for _, _, v in self._x.blocks.values())

    def _items(self) -> dict:
        if self._dict is None:
            x, d = self._x, {}
            for (a, b), (r, c, v) in x.blocks.items():
                k, mu = _divmod(r, x.N**a)
                for kk, m, nu, val in zip(k.tolist(), mu.tolist(), c.tolist(), v.tolist()):
                    key = (_letters(x.N, m, a), _letters(x.N, nu, b))
                    d[key if x.K == 1 else (kk,) + key] = val
            self._dict = d
        return self._dict

    def __getitem__(self, key):
        return self._items()[key]

    def __iter__(self):
        return iter(self._items())


class CuntzElement:
    """Finite sum of reduced words S_mu S_nu^* with complex coefficients, or
    a family of K such sums (see the module docstring)."""

    __slots__ = ("N", "K", "blocks")

    def __init__(self, N: int, blocks: dict | None = None, K: int = 1):
        self.N = N
        self.K = K
        self.blocks = {} if blocks is None else blocks

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero(N: int) -> "CuntzElement":
        return CuntzElement(N)

    @staticmethod
    def one(N: int) -> "CuntzElement":
        return CuntzElement.word(N, (), ())

    @staticmethod
    def word(N: int, mu: Word, nu: Word = (), coeff: complex = 1.0) -> "CuntzElement":
        return CuntzElement(N, {(len(mu), len(nu)): (
            np.array([_index(N, mu)], np.int64), np.array([_index(N, nu)], np.int64),
            np.array([complex(coeff)]))})

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "CuntzElement") -> "CuntzElement":
        if (other.N, other.K) != (self.N, self.K):
            raise ValueError("adding elements of different alphabets or family sizes")
        pieces: dict = {}
        for x in (self, other):
            for key, blk in x.blocks.items():
                pieces.setdefault(key, []).append(blk)
        return _gather(self.N, self.K, pieces)

    def __sub__(self, other: "CuntzElement") -> "CuntzElement":
        return self + other * -1.0

    def __mul__(self, other):
        if isinstance(other, CuntzElement):
            return _multiply(self, other)
        c = complex(other)
        if c == 0:
            return CuntzElement(self.N, K=self.K)
        return CuntzElement(self.N, {key: (r, cols, v * c) for key, (r, cols, v)
                                     in self.blocks.items()}, self.K)

    __rmul__ = __mul__

    def adjoint(self) -> "CuntzElement":
        """The adjoint of every member: a conjugate transpose per block."""
        N, out = self.N, {}
        for (a, b), (r, c, v) in self.blocks.items():
            k, mu = _divmod(r, N**a)
            out[(b, a)] = (k * N**b + c, mu, v.conj())
        return CuntzElement(N, out, self.K)

    def members(self, lo: int, hi: int) -> "CuntzElement":
        """The family of members lo..hi-1."""
        out = {}
        for (a, b), (r, c, v) in self.blocks.items():
            size = self.N**a
            keep = (r >= lo * size) & (r < hi * size)
            if keep.any():
                out[(a, b)] = (r[keep] - lo * size, c[keep], v[keep])
        return CuntzElement(self.N, out, hi - lo)

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> Mapping:
        return _Terms(self)

    def scalars(self) -> np.ndarray:
        """The coefficient of the empty word in each member."""
        out = np.zeros(self.K, complex)
        if (0, 0) in self.blocks:
            r, _, v = self.blocks[(0, 0)]
            out[r] = v
        return out

    def support(self) -> int:
        return len(self.terms)

    def dump(self) -> list[dict]:
        """Debug dump: [{"word": [mu..., "*", nu...], "coeff": [re, im]}]."""
        out = []
        for key, c in sorted(self.terms.items()):
            mu, nu = key[-2:]
            out.append({"word": list(mu) + ["*"] + list(nu),
                        "coeff": [float(np.real(c)), float(np.imag(c))]})
        return out

    def __repr__(self):
        family = f", K={self.K}" if self.K > 1 else ""
        return f"CuntzElement(N={self.N}{family}, {self.support()} terms)"


# ---------------------------------------------------------------------------
# products


class _Side:
    """The right operand B[key, right] = val of block joins, as COO entries.
    Sorted by key, with right compressed, on the first join that needs it,
    so every left operand on the same split of B shares that work."""

    __slots__ = ("key", "right", "val", "_sorted")

    def __init__(self, key, right, val):
        self.key, self.right, self.val = key, right, val
        self._sorted = None

    def sorted(self):
        if self._sorted is None:
            key, order = _sort(self.key)
            ur, ir = np.unique(self.right, return_inverse=True)
            self._sorted = key, ir[order], self.val[order], ur
        return self._sorted


def _join(jA, left, va, B: _Side):
    """sum over j of A[left, j] B[j, right] for COO entries with arbitrary
    int64 keys: one entry per (left, right), and from the merge join none
    whose sum is exactly zero."""
    if len(jA) * len(B.key) <= _SMALL_JOIN:
        ia, ib = np.nonzero(jA[:, None] == B.key[None, :])
        return _sum_duplicates(left[ia], B.right[ib], va[ia] * B.val[ib])
    jb, ir, vb, ur = B.sorted()
    ul, il = np.unique(left, return_inverse=True)
    lo = np.searchsorted(jb, jA)  # A entry i joins jb[lo[i]:lo[i] + n[i]]
    n = np.searchsorted(jb, jA, "right") - lo
    pairs = int(n.sum())
    at = np.arange(pairs) + np.repeat(lo - (np.cumsum(n) - n), n)
    key = np.repeat(il * len(ur), n) + ir[at]
    val = np.repeat(va, n) * vb[at]
    size = len(ul) * len(ur)
    if size <= 2 * pairs + 4096:
        re = np.bincount(key, val.real, size)
        im = np.bincount(key, val.imag, size)
        key = np.flatnonzero((re != 0) | (im != 0))
        val = re[key] + 1j * im[key]
    else:
        key, val = _sum_by_key(key, val)
        key, val = key[val != 0], val[val != 0]
    i, j = _divmod(key, len(ur))
    return ul[i], ur[j], val


def _multiply(x: CuntzElement, y: CuntzElement) -> CuntzElement:
    N = x.N
    if x.K > 1 and y.K > 1 and x.K != y.K:
        raise ValueError(f"multiplying families of sizes {x.K} and {y.K}")
    pairwise = x.K > 1 and y.K > 1
    pieces: dict = {}
    for (a2, b2), (rb, cb, vb) in y.blocks.items():
        kb, mu2 = _divmod(rb, N**a2)
        # kb rides in the join key (pairwise) or in the right key (broadcast)
        kj, kr = (kb, 0) if pairwise else (0, kb)
        sides = {}  # B keyed on the head of mu2 before a tail of t letters
        for (a1, b1), (ra, ca, va) in x.blocks.items():
            ka = ra // N**a1
            t = max(a2 - b1, 0)
            if t not in sides:
                p, tail = _divmod(mu2, N**t)
                sides[t] = _Side(kj * N**(a2 - t) + p, (kr * N**t + tail) * N**b2 + cb, vb)
            if b1 <= a2:
                # S_nu1^* S_mu2 = S_tail when mu2 = (nu1, tail)
                L, R, V = _join(ka * pairwise * N**b1 + ca, ra, va, sides[t])
                kt, nu2 = _divmod(R, N**b2)
                kbx, tail = _divmod(kt, N**t)
                rows = L * N**t + tail + kbx * N**(a1 + t)
                pieces.setdefault((a1 + t, b2), []).append((rows, nu2, V))
            else:
                # S_nu1^* S_mu2 = S_rest^* when nu1 = (mu2, rest)
                r = b1 - a2
                head, rest = _divmod(ca, N**r)
                L, R, V = _join(ka * pairwise * N**a2 + head, ra * N**r + rest, va, sides[0])
                row0, rest = _divmod(L, N**r)
                kbx, nu2 = _divmod(R, N**b2)
                pieces.setdefault((a1, b2 + r), []).append(
                    (row0 + kbx * N**a1, nu2 * N**r + rest, V))
    return _gather(N, max(x.K, y.K), pieces)


# ---------------------------------------------------------------------------
# level raising and the zero test


def _raise(N: int, block, s: int):
    """S_mu S_nu^* -> sum_t S_{mu t} S_{nu t}^* over the N^s words t."""
    if s == 0:
        return block
    r, c, v = block
    t = np.arange(N**s, dtype=np.int64)
    return ((r[:, None] * N**s + t).ravel(), (c[:, None] * N**s + t).ravel(),
            np.repeat(v, N**s))


def _raised(x: CuntzElement, lift) -> CuntzElement:
    pieces: dict = {}
    for (a, b), blk in x.blocks.items():
        s = lift(a, b)
        pieces.setdefault((a + s, b + s), []).append(_raise(x.N, blk, s))
    return _gather(x.N, x.K, pieces)


def normalize(x: CuntzElement, level: int | None = None) -> CuntzElement:
    """Raise every word pair within its grade to max(|mu|, |nu|) == level
    using sum_i S_i S_i^* = 1; equality of elements is equality of normalized
    tables at any level >= both maximal word lengths."""
    if not x.blocks:
        return x
    maxlen = max(max(a, b) for a, b in x.blocks)
    if level is None:
        level = maxlen
    if level < maxlen:
        raise ValueError(f"level {level} below maximal word length {maxlen}")
    return _raised(x, lambda a, b: level - max(a, b))


def normalize_residual(x: CuntzElement) -> float:
    """max |coefficient| of x (of every member) once each grade a - b is
    raised to its longest word; this is 0 exactly when x = 0 in the Cuntz
    algebra.

    The raised table is never formed.  A stored S_mu S_nu^* of level
    p = min(a, b) is keyed by its member, the first |a - b| letters of its
    longer word, and then its other letters as pairs (mu_i, nu_i), one
    base-N^2 digit each.  Raising appends the digit t(N + 1), so a key whose
    last digit has that form is the child of key // N^2, and a raised
    coefficient is the sum of the stored ones along its chain of ancestors.
    :func:`_tree_max` sums along the chains of the touched keys (the stored
    ones and their ancestors) and reads the sums at the top level and at
    every key with fewer than N touched children: each of these is a raised
    coefficient, and every raised coefficient is one of them or 0."""
    N, grades = x.N, {}
    for (a, b), (r, c, v) in x.blocks.items():
        p = min(a, b)
        if a >= b:
            prefix, mu = _divmod(r, N**p)
            nu = c
        else:
            k, mu = _divmod(r, N**a)
            head, nu = _divmod(c, N**p)
            prefix = k * N**(b - a) + head
        # below K N^(a + b), which _gather bounds
        key, order = _sort(prefix * N**(2 * p) + N * _spread(N, p, mu) + _spread(N, p, nu))
        grades.setdefault(a - b, {})[p] = key, v[order]
    return max((_tree_max(N, levels) for levels in grades.values()), default=0.0)


def _spread(N: int, p: int, word):
    """Words of p letters as the base-N^2 numbers with the same digits."""
    if p > 1 and N**p > 2**16:  # keep the tables small
        high, low = _divmod(word, N**(p // 2))
        return _spread(N, p - p // 2, high) * N**(2 * (p // 2)) + _spread(N, p // 2, low)
    return _spread_table(N, p)[word]


@functools.cache
def _spread_table(N: int, p: int) -> np.ndarray:
    out = np.zeros(1, np.int64)
    for _ in range(p):
        out = (out[:, None] * N**2 + np.arange(N)).ravel()
    return out


def _tree_max(N: int, levels: dict) -> float:
    """normalize_residual of one grade, levels[p] = (sorted keys, values) of
    its stored words of level p (see there)."""
    top, low = max(levels), min(levels)
    keys, vals = levels[top]
    stored, children, up = {top: vals}, {}, {}
    for p in range(top - 1, low - 1, -1):  # the touched keys of each level
        parent, digit = _divmod(keys, N**2)
        child = np.flatnonzero(digit == digit // (N + 1) * (N + 1))
        parent = parent[child]  # sorted, as keys are
        first = _starts(parent)
        skeys, svals = levels.get(p, (keys[:0], vals[:0]))
        keys, at_s, at_p = _merge(skeys, parent[first])
        stored[p] = np.zeros(len(keys), complex)
        stored[p][at_s] = svals
        count = np.diff(np.flatnonzero(np.append(first, True)))
        children[p] = np.zeros(len(keys), np.int64)
        children[p][at_p] = count
        up[p + 1] = child, at_p, count
    worst = 0.0
    for p in range(low, top + 1):  # the sums along the chains
        acc = stored[p]
        if p > low:
            child, at, count = up[p]
            acc[child] += np.repeat(below[at], count)
        seen = acc if p == top else acc[children[p] < N]
        worst = max(worst, float(np.abs(seen).max(initial=0.0)))
        below = acc
    return worst


def _merge(a, b):
    """The union of two sorted arrays of distinct keys, and the position in
    it of each entry of a and of b."""
    key, order = _sort(np.concatenate([a, b]))
    first = _starts(key)
    at = np.empty(len(key), np.int64)
    at[order] = np.cumsum(first) - 1
    return key[first], at[:len(a)], at[len(a):]


# ---------------------------------------------------------------------------
# endomorphisms given on generators


def _fold(x: CuntzElement) -> CuntzElement:
    """sum_k x_k S_k^* of a family (K <= N)."""
    N, out = x.N, {}
    for (a, b), (r, c, v) in x.blocks.items():
        k, mu = _divmod(r, N**a)
        out[(a, b + 1)] = (mu, k * N**b + c, v)
    return CuntzElement(N, out)


def _split(x: CuntzElement) -> CuntzElement:
    """The family x_(k,i) = S_i^* x_k of K N members, so that
    x_k = sum_i S_i x_(k,i): a word S_i mu S_nu^* goes to member (k, i) as
    S_mu S_nu^*, a word S_nu^* to every member (k, i) as S_{nu i}^*."""
    N, pieces = x.N, {}
    for (a, b), (r, c, v) in x.blocks.items():
        if a:  # row k N^a + i N^(a-1) + mu is row (k N + i) N^(a-1) + mu
            pieces.setdefault((a - 1, b), []).append((r, c, v))
        else:
            i = np.arange(N)
            pieces.setdefault((0, b + 1), []).append(
                ((r[:, None] * N + i).ravel(), (c[:, None] * N + i).ravel(), np.repeat(v, N)))
    return _gather(N, x.K * N, pieces)


def _unfold(fold: CuntzElement, fold_adj: CuntzElement, x: CuntzElement):
    """(x_0, Y, Z) with phi(x) = x_0 + fold Y + fold_adj Z, member by member,
    for the endomorphism with fold = sum_i phi(S_i) S_i^* and
    fold_adj = sum_i phi(S_i)^* S_i^*.

    x_0 is the scalar part of x.  Words with mu nonempty split on their first
    letter, x_k = sum_i S_i x_(k,i), and Y_k = sum_i S_i phi(x_(k,i)), so
    fold Y_k = sum_i phi(S_i) phi(x_(k,i)); words S_nu^* split on the last
    letter of nu, x_k = sum_i S_i^* x_(k,i), into Z the same way.  The
    x_(k,i) form a family of K N members with the same storage."""
    N, K = x.N, x.K
    x0 = CuntzElement(N, {k: v for k, v in x.blocks.items() if k == (0, 0)}, K)
    head = {(a - 1, b): blk for (a, b), blk in x.blocks.items() if a}
    tail = {}
    for (a, b), (r, c, v) in x.blocks.items():
        if a == 0 and b:
            nu, i = _divmod(c, N)
            tail[(0, b - 1)] = (r * N + i, nu, v)
    parts = []
    for part in (head, tail):
        y = _apply(fold, fold_adj, CuntzElement(N, part, K * N)) if part else CuntzElement(N)
        # member (k, i) of y becomes the word S_i y_(k,i) of member k
        parts.append(CuntzElement(N, {(a + 1, b): blk for (a, b), blk in y.blocks.items()}, K))
    return x0, *parts


def _apply(fold: CuntzElement, fold_adj: CuntzElement, x: CuntzElement) -> CuntzElement:
    """phi(x), member by member, with the folds of :func:`_unfold`."""
    out, Y, Z = _unfold(fold, fold_adj, x)
    for left, y in ((fold, Y), (fold_adj, Z)):
        if y.blocks:
            out = out + left * y
    return out


@dataclass
class GeneratorEndomorphism:
    """rho on the Cuntz generators: the families images = {rho(S_i)}_i and
    U = {U(g)}_g, and the folds sum_i rho(S_i) S_i^*, sum_i rho(S_i)^* S_i^*
    that :func:`_apply` uses."""

    tuple_data: AdmissibleTuple
    images: CuntzElement
    U: CuntzElement
    folds: tuple[CuntzElement, CuntzElement]

    @property
    def N(self) -> int:
        return self.images.N

    def apply(self, x: CuntzElement) -> CuntzElement:
        return _apply(*self.folds, x)

    def alpha(self, h: int, x: CuntzElement) -> CuntzElement:
        """The G-action: alpha_h(S_g) = S_{hg}, alpha_h(T) = V(h) T."""
        A = _alpha_matrix(self.tuple_data, h)
        letters = np.arange(self.N)
        images = _entries(self.N, self.N, 1, 0, letters, letters[:, None], 0, A)
        return _apply(_fold(images), _fold(images.adjoint()), x)


def _alpha_matrix(t: AdmissibleTuple, h: int) -> np.ndarray:
    """A_h[y, x]: alpha_h(S_x) = sum_y A_h[y, x] S_y."""
    n = t.n
    A = np.zeros((t.alphabet, t.alphabet), complex)
    A[t.mult[h], np.arange(n)] = 1.0
    A[n:, n:] = t.V[h]
    return A


def build_endomorphism(t: AdmissibleTuple) -> GeneratorEndomorphism:
    n, m = t.n, t.m
    N = n + m
    d = t.d
    r = 1 / math.sqrt(d)
    g = np.arange(n)[:, None]
    h = np.arange(n)
    T = n + np.arange(m)  # the letters T_0 .. T_{m-1}
    i = np.arange(m)[:, None, None]

    U = (_entries(N, n, 1, 1, g, h, h, t.chi.T)
         + _entries(N, n, 1, 1, g[:, :, None], T[:, None], T, t.U))
    # rho(S_e): M1[y, x] on S_{T_x} S_{T_y}
    rho_Se = (_entries(N, 1, 1, 0, 0, h, 0, t.eps / d)
              + _entries(N, 1, 2, 0, 0, T * N + T[:, None], 0, t.M1 * r))
    rho_S = U * rho_Se * U.adjoint()

    VJ2 = np.einsum("hxy,yi->ihx", t.V, t.M2)  # V(h) j2(T_i)
    VW = np.einsum("hxy,yi->ixh", t.V, t.w_matrix())  # V(h) j2 j1^{-1}(T_i)
    rho_T = (_entries(N, m, 1, 1, i, h[:, None], T, VJ2.conj() * r)
             + _entries(N, m, 2, 1, i, T[:, None] * N + h, h, VW)
             + _entries(N, m, 2, 1, i[..., None], T[:, None, None] * N + T[:, None], T,
                        t.ltensor))
    images = _stack(rho_S, rho_T)
    return GeneratorEndomorphism(t, images, U, (_fold(images), _fold(images.adjoint())))


def _stack(*families: CuntzElement) -> CuntzElement:
    N, K, pieces = families[0].N, 0, {}
    for x in families:
        for (a, b), (r, c, v) in x.blocks.items():
            pieces.setdefault((a, b), []).append((r + K * N**a, c, v))
        K += x.K
    return _gather(N, K, pieces)


def _sandwich(x: CuntzElement, C: np.ndarray) -> CuntzElement:
    """sum_{c,d} C[k, c, d] S_c x_k S_d^* for every member k."""
    N, pieces = x.N, {}
    cs, ds = np.nonzero(np.any(C != 0, axis=0))
    for (a, b), (r, cols, v) in x.blocks.items():
        k, mu = _divmod(r, N**a)
        w = (C[:, cs, ds][k] * v[:, None]).ravel()
        rows = ((k[:, None] * N + cs) * N**a + mu[:, None]).ravel()
        keep = w != 0
        pieces[(a + 1, b + 1)] = [(rows[keep], (ds * N**b + cols[:, None]).ravel()[keep],
                                   w[keep])]
    return _gather(N, x.K, pieces)


# ---------------------------------------------------------------------------
# the oracle


def _sigma(t: AdmissibleTuple, R: CuntzElement) -> CuntzElement:
    """The family sigma(S_x) = sum_g S_g alpha_g(S_x) S_g^* + sum_i T_i R_x T_i^*
    over the letters x, from R = {rho(S_x)}_x; the first sum is
    sum_{g,y} A_g[y, x] S_g S_y S_g^*."""
    n, m, N = t.n, t.m, R.N
    A = np.stack([_alpha_matrix(t, g) for g in range(n)])
    gs, ys, xs = np.nonzero(A)
    C = np.zeros((N, N, N), complex)
    C[:, n + np.arange(m), n + np.arange(m)] = 1.0
    return _entries(N, N, 2, 1, xs, gs * N + ys, gs, A[gs, ys, xs]) + _sandwich(R, C)


def oracle_check(t: AdmissibleTuple, tolerance: float = 1e-9) -> ResidualReport:
    """Independent verification through the Cuntz word engine:

    (i)   rho maps the generators to isometries with orthogonal ranges,
    (ii)  the ranges of the images are complete,
    (iii) rho^2(x) = sum_g S_g alpha_g(x) S_g^* + sum_i T_i rho(x) T_i^* =: sigma(x)
          for every generator x, read two folds down (below),
    (iv)  rho(U(g)) = sum_h S_h S_{hg}^* + (W U_K(g) W^*) (x) U(g).

    In (iii), fold = sum_i rho(S_i) S_i^* and fold_adj = sum_i rho(S_i)^* S_i^*.
    R_k = rho(S_k) = sum_i S_i X_(k,i) for X = :func:`_split` of R, so
    rho^2(S_k) = fold Y_k with Y_k = sum_i S_i rho(X_(k,i)).  :func:`_unfold`
    gives rho(X) = X_0 + fold Y' + fold_adj Z', and E = _split(fold^* sigma)
    has fold^* sigma_k = sum_i S_i E_(k,i).  With A = rho(X) - E,

        rho^2(x) - sigma(x) = fold (Y - fold^* sigma(x)) + (fold fold^* - 1) sigma(x),
        Y - fold^* sigma(x) = fold^* (rho^2(x) - sigma(x)) + (1 - fold^* fold) Y,
        Y - fold^* sigma(x) = sum_i S_i A_(k,i),
        Y' - fold^* (E - X_0 - fold_adj Z') = fold^* A + (1 - fold^* fold) Y'.

    The oracle reads the last left side.  Given (i) (fold^* fold = 1) it is
    fold^* A, and given (ii) (fold fold^* = 1) A = fold fold^* A, so it is
    zero exactly when A is, that is exactly when (iii) holds.  Neither
    fold Y' nor fold Y, the two largest products of rho^2, is made.  (iv)
    applies rho directly.
    """
    n, m = t.n, t.m
    N = n + m
    rho = build_endomorphism(t)
    R = rho.images
    fold = rho.folds[0]
    fold_star = fold.adjoint()
    letters = np.arange(N)
    out: dict[str, float] = {}

    # (i) member j of fold^* R is sum_i S_i rho(S_i)^* rho(S_j); minus S_j
    out["rho_isometry"] = normalize_residual(
        fold_star * R - _entries(N, N, 1, 0, letters, letters, 0, 1.0))

    # (ii) fold fold^* = sum_i rho(S_i) rho(S_i)^*
    out["rho_complete"] = normalize_residual(fold * fold_star - CuntzElement.one(N))

    # (iii) compare Y' with fold^* (E - X_0 - fold_adj Z'), never forming fold Y'
    X0, Y1, Z1 = _unfold(*rho.folds, _split(R))
    rest = _split(fold_star * _sigma(t, R)) - X0 - rho.folds[1] * Z1
    out["rho_squared"] = normalize_residual(Y1 - fold_star * rest)

    # (iv) rho(U(g))
    W = t.w_matrix()
    C = np.zeros((n, N, N), complex)
    C[:, n:, n:] = W @ t.U @ np.conj(W.T)
    g = np.arange(n)
    rhs = _entries(N, n, 1, 1, g[:, None], g, t.mult.T, 1.0) + _sandwich(rho.U, C)
    out["rho_U"] = normalize_residual(rho.apply(rho.U) - rhs)

    return ResidualReport(out, tolerance)


# ---------------------------------------------------------------------------
# Frobenius-Schur indicators


def fs_indicators(t: AdmissibleTuple, tolerance: float = 1e-9):
    """(nu_21, nu_31, nu_41) with the engine cross-checks.

    nu_21 = eps; nu_31 = tr(j1 j2), cross-checked against the word expression
    tr(E^(3)) with E^(3) W = d S_e^* rho(W) S_e on (id, rho^3); nu_41 is the
    word formula (1/d) sum_g conj(chi_g(g)) + sum_{ij} T_i^* j2(T_i)^*
    rho(T_j) j1(T_j), whose grading-0 part is asserted scalar.
    """
    n, m = t.n, t.m
    N = n + m
    rho = build_endomorphism(t)
    nu21 = complex(t.eps)

    J1J2 = t.M1 @ np.conj(t.M2)  # linear map j1 o j2
    nu31_trace = complex(np.trace(J1J2))

    # word route: E3[i, j] = d * S_e^* T_i^* S_e^* rho(T_j) rho(S_e) S_e
    Se = CuntzElement.word(N, (0,))
    rho_T = rho.images.members(n, N)
    base = Se.adjoint() * rho_T * (rho.images.members(0, 1) * Se)
    E3 = t.d * np.array([(CuntzElement.word(N, (), (n + i, 0)) * base).scalars()
                         for i in range(m)])
    nu31_word = complex(np.trace(E3))
    e3_cube = float(np.max(np.abs(E3 @ E3 @ E3 - np.eye(m))))
    period3 = float(np.max(np.abs(
        np.linalg.matrix_power(t.M2 @ np.conj(t.M1), 3) - np.eye(m))))

    # nu_41: sum_{ij} T_i^* j2(T_i)^* rho(T_j) j1(T_j)
    #      = (sum_i j2(T_i) T_i)^* (sum_j rho(T_j) S_j^*) (sum_j S_j j1(T_j))
    x = n + np.arange(m)[:, None]
    j = np.arange(m)
    j2T = _entries(N, 1, 2, 0, 0, x * N + n + j, 0, t.M2)
    j1T = _entries(N, 1, 2, 0, 0, j * N + x, 0, t.M1)
    acc = j2T.adjoint() * (_fold(rho_T) * j1T)
    scalar = acc.scalars()[0]
    nonscalar = normalize_residual(acc - CuntzElement.one(N) * scalar)
    chi_diag = sum(np.conj(t.chi[g, g]) for g in range(n))
    nu41 = chi_diag / t.d + scalar

    checks = {
        "nu31_trace_vs_word": abs(nu31_trace - nu31_word),
        "E3_cubed_identity": e3_cube,
        "j1j2_period3": period3,
        "nu41_scalar_part": nonscalar,
    }
    report = ResidualReport(checks, tolerance)
    return (nu21, nu31_trace, nu41), report
