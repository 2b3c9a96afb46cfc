"""Exact case analysis for the m = 2|G| classification, on exact rotation
eigenspaces that the m = n solver reads its slices off too.

The unknown tensor b^{r,s}_{t,u}(g) with |Lambda| = 2 splits into four cases
according to (chi_1, chi_2, eps, J):

    Case I.   chi_1 = chi_2 = 1, eps = +1, J e_t = e_t
    Case II.  chi_1 = chi_2 = 1, eps = -1, J e_1 = e_2, J e_2 = -e_1
    Case III. chi_1 = 1, chi_2 of order 2, eps = +1, J e_t = e_t
    Case IV.  chi_2 = chi_1^{-1}, chi_1^2 != 1   (never occurs)

``case_feasibility`` reproduces the refutation lemmas in exact arithmetic and
returns either a refutation naming the violated constraint or a feasibility
certificate with the surviving parameter branches.  All numbers live in a
cyclotomic field Q(zeta_N) chosen large enough to contain the bicharacter and
form values, the cube-root scalar c, sqrt(n) and, at the m = 2n of the case
analysis, the quadratic irrationality of d.  An element holds only its nonzero
integer coefficients in the power basis 1, zeta, ..., zeta^(phi(N)-1), as
(j, x) terms sorted by j, over one positive common denominator, reduced mod
the cyclotomic polynomial Phi_N and gcd-normalised: equal elements have equal
terms and denominator, and zero is the element with no terms, so every zero
test is exact.  Sums and products touch only nonzero terms.  An element, and
a polynomial over the field, holds the field (``_Field``), not a pair: every
context with the same N shares it, with its table of the reduced zeta^j,
j < N, that products, Galois maps and ``zpow`` read.
The branch data of Cases I and II (the eigencomponents mu_k(t) of mu(0), their
real and imaginary parts and |mu_k|^2) and the |G| = 4 values of Case III
depend on the field, n and m only, so they are built once per (N, n, m) and
shared by every pair with those; a Case I tag with omega_1 + omega_2 = s
reads mu_(k+s), a Case II tag omega = j reads mu_(k-j), both exact equalities
of field elements, and only the pair's eigen data are applied per pair.
The rotation R is unitary, as b is nondegenerate, and R^3 = 1, as
c^3 a_hat(0) = 1, so R^2 = R*: the eigenspaces ker(R - zeta3^k) are read
off their exact projectors
(1 + zeta3^-k R + zeta3^k R*) / 3, with no product of R with itself, and
these commute with the anti-unitary J (J R = R* J): the trace gives the
dimension, the column at the unit the J-fixed vector f0 with f0(0) = 1 and
its norm, and no linear system is solved.  The checks are
the closed-form g = 0 values, the eigenspace dimension preconditions, the
norm identities on pinned eigenspaces, the order-2 element relations, and a
per-point decision tree on order-2 elements for the one stubborn Case II
configuration.  The g = 0 values and norm identities of a Case I/II branch
are polynomials in its real parameter t, |t| <= 1, and one routine decides
every such system, whatever its degree: the branch is refuted iff the gcd g
of the real and imaginary parts is a nonzero constant, or its Sturm chain,
every sign exact, counts no root of g in [-1, 1].  A refutation is only
reported on an exact contradiction, so zero-counts derived from these
certificates do not rest on numerical search.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .abelian import (
    Bicharacter,
    FiniteAbelianGroup,
    QuadraticForm,
    _factorize,
    _squarefree,
    tables,
)

__all__ = [
    "CaseTag",
    "Feasibility",
    "case_tags",
    "case_feasibility",
    "all_case_feasibilities",
    "ExactContext",
]


@dataclass(frozen=True)
class CaseTag:
    kind: str  # "I", "II", "III", "IV"
    omegas: tuple[int, int] | None = None  # exponents of zeta3 (Case I)
    omega: int | None = None  # exponent of zeta3 (Case II)
    chi: tuple[int, ...] | None = None  # order-2 character as g_chi (Case III)

    def __str__(self):
        if self.kind == "I":
            return f"I(z3^{self.omegas[0]}, z3^{self.omegas[1]})"
        if self.kind == "II":
            return f"II(z3^{self.omega})"
        if self.kind == "III":
            return f"III(chi=<.,{self.chi}>)"
        return "IV"


@dataclass
class Feasibility:
    tag: CaseTag
    feasible: bool
    refuted_by: str | None = None
    details: str = ""
    inconclusive: bool = False

    def __str__(self):
        if self.feasible:
            extra = " (inconclusive)" if self.inconclusive else ""
            return f"{self.tag}: feasible{extra} {self.details}"
        return f"{self.tag}: refuted by {self.refuted_by} {self.details}"


def case_tags(G: FiniteAbelianGroup) -> list[CaseTag]:
    tags = [CaseTag("I", omegas=(i, j)) for i in range(3) for j in range(i, 3)]
    tags += [CaseTag("II", omega=j) for j in range(3)]
    for g in G:
        if G.element_order(g) == 2:
            tags.append(CaseTag("III", chi=g))
    tags.append(CaseTag("IV"))
    return tags


# ---------------------------------------------------------------------------
# the exact cyclotomic context


def _cyclotomic(N: int) -> list[int]:
    """Coefficients of Phi_N, lowest degree first: x^N - 1 divided exactly by
    Phi_d for every divisor d < N."""
    phis: dict[int, list[int]] = {}
    for d in range(1, N + 1):
        if N % d:
            continue
        p = [-1] + [0] * (d - 1) + [1]
        for e, q in phis.items():
            if d % e:
                continue
            quo = [0] * (len(p) - len(q) + 1)
            for i in range(len(quo) - 1, -1, -1):
                x = quo[i] = p[i + len(q) - 1]
                for j, y in enumerate(q):
                    p[i + j] -= x * y
            p = quo
        phis[d] = p
    return phis[N]


def _unit_generators(N: int) -> list[tuple[int, int]]:
    """Pairs (g, r) such that every unit mod N is uniquely prod(g_i^t_i),
    0 <= t_i < r_i: each g is a unit outside the subgroup H generated so far
    and r the least exponent with g^r in H."""
    H, out = {1}, []
    for g in range(2, N):
        if math.gcd(g, N) != 1 or g in H:
            continue
        r, p = 1, g
        while p not in H:
            r, p = r + 1, p * g % N
        H = {h * pow(g, t, N) % N for h in H for t in range(r)}
        out.append((g, r))
    return out


class _Cyc:
    """The element sum(x zeta_N^j for (j, x) in t) / d of the field F =
    Q(zeta_N).  t holds the nonzero power-basis terms, 0 <= j < deg
    ascending, with integer x, d > 0 and gcd(d, *x) = 1, so equal elements
    have equal (t, d) and zero is ((), 1)."""

    __slots__ = ("F", "t", "d")

    def __init__(self, F: "_Field", t: tuple, d: int):
        self.F, self.t, self.d = F, t, d

    def __add__(self, o):
        if not o.t:
            return self
        if not self.t:
            return o
        if self.d == o.d:
            acc = dict(self.t)
            for j, y in o.t:
                acc[j] = acc.get(j, 0) + y
            return self.F._elt(acc, self.d)
        acc = {j: x * o.d for j, x in self.t}
        for j, y in o.t:
            acc[j] = acc.get(j, 0) + y * self.d
        return self.F._elt(acc, self.d * o.d)

    def __sub__(self, o):
        return self + (-o)

    def __neg__(self):
        return _Cyc(self.F, tuple((j, -x) for j, x in self.t), self.d)

    def __mul__(self, o):
        if not (self.t and o.t):
            return self.F.zero
        acc: dict = {}
        for i, x in self.t:
            for j, y in o.t:
                k = i + j
                acc[k] = acc.get(k, 0) + x * y
        return self.F._elt(acc, self.d * o.d)

    def __pow__(self, k: int):
        if k < 0:
            return self.F.inv(self) ** -k
        out, sq = self.F.one, self
        while k:
            if k & 1:
                out = out * sq
            k >>= 1
            if k:
                sq = sq * sq
        return out

    def __eq__(self, o):
        return isinstance(o, _Cyc) and self.d == o.d and self.t == o.t


class _Field:
    """Q(zeta_N), 4 | N: the table of the reduced zeta^j and the arithmetic
    that every element, polynomial and context with this N share.
    zeta^deg is minus the lower terms of Phi_N, and zeta^j for j > deg is
    zeta times zeta^(j-1)."""

    def __init__(self, N: int):
        phi = _cyclotomic(N)
        self.N = N
        self.deg = deg = len(phi) - 1  # phi(N)
        top = tuple((j, -p) for j, p in enumerate(phi[:-1]) if p)
        zpows = [((j, 1),) for j in range(deg)]
        for _ in range(deg, N):
            acc: dict = {}
            for j, x in zpows[-1]:
                if j + 1 < deg:
                    acc[j + 1] = acc.get(j + 1, 0) + x
                else:
                    for i, p in top:
                        acc[i] = acc.get(i, 0) + x * p
            zpows.append(tuple((j, acc[j]) for j in sorted(acc) if acc[j]))
        self.zpows = tuple(zpows)  # zpows[j]: the terms of zeta^j, j < N
        self.units = tuple(_unit_generators(N))
        self.numeric_pows = np.exp(2j * np.pi * np.arange(deg) / N)  # zeta^j, j < deg
        self.numeric_pows.flags.writeable = False
        self.zero = _Cyc(self, (), 1)
        self.one = self.int(1)
        self._half = self.q(Fraction(1, 2))
        self._minus_half_i = -self.zpow(N // 4) * self._half

    def _elt(self, acc: dict, d: int):
        """The element sum(x zeta^j for j, x in acc.items()) / d, d > 0, for
        any j >= 0; ``acc`` is consumed."""
        deg, zpows, N = self.deg, self.zpows, self.N
        for j in [j for j in acc if j >= deg]:
            x = acc.pop(j)
            if x:
                for i, p in zpows[j % N]:
                    acc[i] = acc.get(i, 0) + x * p
        if d != 1:
            g = math.gcd(d, *acc.values())
            if g != 1:
                acc = {j: x // g for j, x in acc.items()}
                d //= g
        return _Cyc(self, tuple(sorted(jx for jx in acc.items() if jx[1])), d)

    def _galois(self, a, k: int):
        """sigma_k(a), the automorphism zeta -> zeta^k, gcd(k, N) = 1."""
        return self._elt({j * k % self.N: x for j, x in a.t}, a.d)

    def zpow(self, j: int):
        return _Cyc(self, self.zpows[j % self.N], 1)

    def int(self, k: int):
        return self.q(Fraction(k))

    def q(self, fr: Fraction):
        return _Cyc(self, ((0, fr.numerator),) if fr else (), fr.denominator)

    def conj(self, a):
        return self._galois(a, -1)

    def re(self, a):
        return (a + self.conj(a)) * self._half

    def im(self, a):
        return (a - self.conj(a)) * self._minus_half_i

    def inv(self, a):
        """a^-1 = prod(sigma(a) for sigma != 1) / N(a).  The norm is built up
        one generator of (Z/N)^x at a time, keeping a * cof = x, and stops as
        soon as the partial norm x is rational."""
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0 in Q(zeta_N)")
        x, cof = a, self.one
        for g, r in self.units:
            if x.t[-1][0] == 0:
                break
            # the conjugates of x over the coset representatives g^t, 0 < t < r
            y = conjs = self._galois(x, g)
            for _ in range(r - 2):
                y = self._galois(y, g)
                conjs = conjs * y
            x, cof = x * conjs, cof * conjs
        num, den = x.t[0][1], x.d
        if num < 0:
            num, den = -num, -den
        return self._elt({j: den * c for j, c in cof.t}, num * cof.d)

    @staticmethod
    def is_zero(a) -> bool:
        return not a.t


_field = functools.cache(_Field)  # built on first use of each N, never at import


class ExactContext:
    """Exact rotation/eigen data for one (bicharacter, form) pair: the
    cube-root scalar ``c``, the rotation ``R`` and its eigenspaces ``eig(k)``
    serve every m (``solvers.solve_mn`` reads its slices off them).  Built
    with an ``m``, the field also holds d = (m + sqrt(m^2 + 4n)) / 2, and
    ``d``, ``inv_d`` = 1/d and ``half_d`` = 1/(2d) are set: the constants of
    the case analysis at that m.  Built without one, ``m`` is None.  The
    arithmetic (``zero``, ``one``, ``zpow``, ``int``, ``q``, ``conj``, ``re``,
    ``im``, ``inv``, ``is_zero``) is that of ``field``, shared by every
    context with the same N."""

    def __init__(self, G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm,
                 m: int | None = None):
        if not b.is_nondegenerate():
            raise ValueError("bicharacter must be nondegenerate")
        self.G = G
        self.n = n = G.order
        self.m = m
        self.bichar = b
        self.form = a
        self.els = G.elements()

        # N: 24 (zeta_3, i, sqrt(2)), the form's D and the odd primes of sqrt(n), sqrt(D0)
        sq_args = {_squarefree(n)}
        if m is not None:
            D0 = _squarefree(m * m + 4 * n)
            sq_args.add(D0)
        primes = {p for s in sq_args for p in _factorize(s) if p != 2}
        self.N = N = math.lcm(24, a.D, *primes)
        F = self.field = _field(N)
        self.deg = F.deg
        # the field's arithmetic, read through the context
        self.zero, self.one = F.zero, F.one
        self.zpow, self.int, self.q = F.zpow, F.int, F.q
        self.conj, self.re, self.im, self.inv, self.is_zero = F.conj, F.re, F.im, F.inv, F.is_zero
        self.K_two = self.int(2)
        half = self.q(Fraction(1, 2))
        self.i = self.zpow(N // 4)

        self.sqrt_n = self._sqrt_int(_squarefree(n)) * self.int(math.isqrt(n // _squarefree(n)))
        inv_n = self.q(Fraction(1, n))
        self.inv_sqrt_n = self.sqrt_n * inv_n
        self.inv2rn = self.inv_sqrt_n * half  # 1 / (2 sqrt(n))
        if m is not None:
            # d = (m + sqrt(m^2 + 4n)) / 2, and d (d - m) = n
            s0 = math.isqrt((m * m + 4 * n) // D0)
            self.d = (self.int(m) + self.int(s0) * self._sqrt_int(D0)) * half
            self.inv_d = (self.d - self.int(m)) * inv_n
            self.half_d = self.inv_d * half  # 1 / (2 d)

        self.a = [self.zpow(x * (N // a.D)) for x in a.A]
        # c = zeta^c_exp with c^3 a_hat(0) = 1
        ahat0 = sum(self.a, self.zero) * self.inv_sqrt_n
        c_exp = next((k for k in range(N) if self.zpow(3 * k) * ahat0 == self.one), None)
        if c_exp is None:
            raise ValueError("no cube-root scalar c in the chosen field")
        self.c_exp = c_exp
        self.c = self.zpow(c_exp)
        # R = diag(conj(c a) / sqrt(n)) B, B[g][h] = b(g, h) = zeta^(X[g, h] N / D):
        # one row factor per row
        rows = [self.conj(self.c * x) * self.inv_sqrt_n for x in self.a]
        D, X = b.exponents
        self.R = [[r * self.zpow(x * (N // D)) for x in row] for r, row in zip(rows, X.tolist())]
        self.zeta3 = self.zpow(self.N // 3)
        self._eig: dict[int, dict] = {}

    # -- values and signs -----------------------------------------------------

    def numeric(self, a) -> complex:
        """The double value: the dense vector of c_j / d, j < deg, dotted with
        the doubles zeta^j."""
        cs = np.zeros(self.deg)
        for j, x in a.t:
            cs[j] = x / a.d
        return complex(np.dot(cs, self.field.numeric_pows))

    def numeric_hp(self, a, dps: int = 60):
        """The value of ``a`` as an mpmath ``mpc`` evaluated at ``dps`` digits."""
        import mpmath

        with mpmath.workdps(dps):
            tot = mpmath.mpc(0)
            for j, x in a.t:
                tot += mpmath.mpf(x) * mpmath.e ** (2j * mpmath.pi * j / self.N)
            return tot / a.d

    def sign(self, a) -> int:
        """Certified sign of an exactly real field element.  The double is
        trusted only beyond a bound on its rounding error, (deg + 4) ulp times
        sum|c_j| / d; below it, the dps-digit mpmath value beyond the same
        bound at 10^(5 - dps), for dps = 60, 120, 240, ... until one clears
        it, which a nonzero element does at some precision."""
        if self.is_zero(a):
            return 0
        scale = (self.deg + 4) * sum(abs(x) for _, x in a.t) / a.d
        v = self.numeric(a).real
        if abs(v) > scale * 2.0 ** -52:
            return 1 if v > 0 else -1
        import mpmath

        dps = 60
        while True:
            v = self.numeric_hp(a, dps).real
            with mpmath.workdps(dps):
                if abs(v) > scale * mpmath.mpf(10) ** (5 - dps):
                    return 1 if v > 0 else -1
            dps *= 2

    def _sqrt_int(self, s: int):
        """sqrt of a squarefree positive integer as a field element: the
        product of sqrt(2) = zeta8 + 1/zeta8 and of the Gauss sum
        sum((k/p) zeta_p^k), which is sqrt(p) or, for p = 3 mod 4, i sqrt(p),
        over its primes, with its sign read off the double."""
        out = self.one
        for p in _factorize(s):
            if p == 2:
                out = out * (self.zpow(self.N // 8) + self.zpow(-(self.N // 8)))
                continue
            legendre = (1 if pow(k, (p - 1) // 2, p) == 1 else -1 for k in range(1, p))
            g = sum((self.int(x) * self.zpow(k * self.N // p)
                     for k, x in enumerate(legendre, 1)), self.zero)
            out = out * (-g * self.i if p % 4 == 3 else g)
        approx = self.numeric(out)
        if abs(approx - math.sqrt(s)) > 1e-6:
            out = -out
            approx = self.numeric(out)
        if abs(approx - math.sqrt(s)) > 1e-6:
            raise ArithmeticError(f"sqrt({s}) construction failed")
        return out

    # -- exact eigenspaces -----------------------------------------------------

    def eig(self, k: int) -> dict:
        """ker(R - w), w = zeta3^k, read off its orthogonal projector
        P = (1 + conj(w) R + w R*) / 3: R is unitary (b is nondegenerate) with
        R^3 = 1 (c^3 a_hat(0) = 1), so R^2 = R*, and a column of P, built when
        read, conjugates entries of R instead of multiplying R by itself.  The
        anti-unitary J f(g) = conj(a(g) f(-g)) has J R = R* J, so P commutes
        with J, and J e_0 = e_0.  Hence dim = tr P; evaluation at 0 kills the
        eigenspace, and f0 is None, iff P[0][0] = |P e_0|^2 = 0; otherwise
        f0 = P e_0 / P[0][0] is J-fixed with f0(0) = 1 and norm_f0 = |f0|^2 =
        1 / P[0][0].  The J-fixed eigenvectors vanishing at 0 span a real space
        of dimension ``vanishing``; f0p, one of them, is the first nonzero
        P(e_j + J e_j) or i P(e_j - J e_j) less its f0 component, or None.
        ``col(j)`` is the column P e_j, built when first read."""
        k = k % 3
        if k in self._eig:
            return self._eig[k]
        n, R, third = self.n, self.R, self.q(Fraction(1, 3))
        w3 = self.zeta3 ** k * third
        wb3 = self.conj(w3)

        @functools.cache
        def col(j: int) -> list:  # P e_j
            return [(third if i == j else self.zero) + wb3 * R[i][j] + w3 * self.conj(R[j][i])
                    for i in range(n)]

        trR = sum((R[i][i] for i in range(n)), self.zero)
        tr = self.int(n) * third + wb3 * trR + w3 * self.conj(trR)
        dim = tr.t[0][1] if tr.t else 0
        if dim < 0 or tr != self.int(dim):
            raise ArithmeticError(f"tr P = {self.numeric(tr)} is not a dimension")
        f0 = norm_f0 = None
        if not self.is_zero(col(0)[0]):
            norm_f0 = self.inv(col(0)[0])
            f0 = [x * norm_f0 for x in col(0)]
        vanishing = dim - (0 if f0 is None else 1)

        def j_fixed():
            """u P e_j + conj(u) P J e_j, u = 1, i, less its f0 component."""
            for j, nj in enumerate(tables(self.G).neg.tolist()):
                Pe, PJe = col(j), col(nj)
                for u in (self.one, self.i):
                    uj = self.conj(u * self.a[j])
                    v = [u * x + uj * y for x, y in zip(Pe, PJe)]
                    yield v if f0 is None else [x - v[0] * y for x, y in zip(v, f0)]

        data = {"dim": dim, "vanishing": vanishing, "f0": f0, "norm_f0": norm_f0,
                "col": col,
                "f0p": next((v for v in j_fixed() if not all(map(self.is_zero, v))), None)
                if vanishing else None}
        self._eig[k] = data
        return data


# ---------------------------------------------------------------------------
# polynomials in the branch parameter t


class KPoly:
    """Polynomial in one real variable with exact coefficients in the field F."""

    def __init__(self, F: _Field, coeffs: list):
        while len(coeffs) > 1 and F.is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.F = F
        self.coeffs = coeffs

    @staticmethod
    def const(F, a):
        return KPoly(F, [a])

    @staticmethod
    def tvar(F):
        return KPoly(F, [F.zero, F.one])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(self.F.is_zero(c) for c in self.coeffs)

    def __add__(self, other):
        other = self._lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        cs = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else self.F.zero
            b = other.coeffs[i] if i < len(other.coeffs) else self.F.zero
            cs.append(a + b)
        return KPoly(self.F, cs)

    def __neg__(self):
        return KPoly(self.F, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        other = self._lift(other)
        cs = [self.F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if self.F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                cs[i + j] = cs[i + j] + a * b
        return KPoly(self.F, cs)

    def _lift(self, other):
        if isinstance(other, KPoly):
            return other
        return KPoly.const(self.F, other)

    def conj(self):
        return KPoly(self.F, [self.F.conj(c) for c in self.coeffs])

    def re(self):
        return KPoly(self.F, [self.F.re(c) for c in self.coeffs])

    def im(self):
        return KPoly(self.F, [self.F.im(c) for c in self.coeffs])

    def abs2(self):
        return self * self.conj()

    def eval(self, x):
        out = self.F.zero
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def deriv(self):
        return KPoly(self.F, [c * self.F.int(k)
                              for k, c in enumerate(self.coeffs)][1:] or [self.F.zero])

    def monic(self):
        lead = self.coeffs[-1]
        inv = self.F.inv(lead)
        return KPoly(self.F, [c * inv for c in self.coeffs])

    def rem(self, other: "KPoly") -> "KPoly":
        """The remainder of ``self`` modulo the monic ``other``."""
        a, b = self.coeffs[:], other.coeffs[:-1]
        while len(a) > len(b):
            f = a.pop()
            if not self.F.is_zero(f):
                shift = len(a) - len(b)
                for i, cb in enumerate(b):
                    a[shift + i] = a[shift + i] - f * cb
        return KPoly(self.F, a or [self.F.zero])


def _poly_gcd(ps: list[KPoly]) -> KPoly:
    """The gcd of nonzero polynomials, taken lowest degree first so that
    every divisor of positive degree is monic; stops at the first constant,
    which is returned as it is."""
    ps = sorted(ps, key=lambda p: p.degree)
    unit = lambda p: p.monic() if p.degree else p
    g = unit(ps[0])
    for p in ps[1:]:
        if g.degree == 0:
            break
        while not (r := p.rem(g)).is_zero():
            p, g = g, unit(r)
    return g


def _resolve_t_system(ctx: ExactContext, parts) -> tuple:
    """Decide {q(t) = 0 for every q in ``parts``, t real, |t| <= 1}, the
    parts real polynomials (the real and imaginary parts of a system's
    equations): returns (feasible, witness).  The nonzero parts, when any
    is, have a common real root in [-1, 1] iff their gcd g does: g(+-1) = 0,
    or the Sturm chain g, g', -rem(g, g'), ... has fewer sign variations at
    +1 than at -1 (Sturm's theorem), every sign exact.  The witness is the
    root of a linear g, else None.  A nonzero constant part refutes the
    system as soon as it is read, before the parts after it are."""
    reals = []
    for q in parts:
        if not q.is_zero():
            if q.degree == 0:
                return False, None
            reals.append(q)
    if not reals:
        return True, None
    g = _poly_gcd(reals)
    if g.degree == 0:
        return False, None
    chain = [g, g.deriv()]
    while chain[-1].degree > 0:
        r = chain[-2].rem(chain[-1].monic())
        if r.is_zero():
            break
        chain.append(-r)

    def variations(x):
        signs = [s for s in (ctx.sign(p.eval(x)) for p in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    ends = (-ctx.one, ctx.one)
    if any(ctx.is_zero(g.eval(x)) for x in ends) or variations(ends[0]) > variations(ends[1]):
        return True, -g.coeffs[0] if g.degree == 1 else None
    return False, None


# ---------------------------------------------------------------------------
# the branch data, shared per (N, n, m)


_SHARED: dict = {}  # (N, n, m) -> _BranchData


class _Branch(NamedTuple):
    """One Case I/II branch at the tag with omega_1 + omega_2 = 0 (Case I)
    or omega = 0 (Case II): mu_k(t), the ker(R - zeta3^k) component of
    mu(0), k = 0, 1, 2, with the real and imaginary parts and |mu_k|^2 of
    each, and the branch's other polynomials."""

    name: str  # with its kappa parameters
    odd: bool  # mu_k(0) is imaginary (J-odd, Case II), else real (J-fixed)
    rhs: _Cyc  # the norms of the two eigenspaces other than k_excl sum to it
    mu: tuple
    re: tuple
    im: tuple
    abs2: tuple
    extra: tuple  # Case I: xi0, |eta|^2, xi0^2 - 2|eta|^2; Case II: |xi0|^2, |eta|^2


def _branch_data(ctx: ExactContext) -> _BranchData:
    """The shared ``_BranchData`` of the context's (N, n, m), made on first
    use; each case's branches in it are built when a tag of that case first
    reads them."""
    key = (ctx.N, ctx.n, ctx.m)
    if key not in _SHARED:
        _SHARED[key] = _BranchData(ctx)
    return _SHARED[key]


class _BranchData:
    """The branches of Cases I, II and III of one (N, n, m), each case's
    built on first use, once: they read a context only through its field and
    the constants that n and m fix in it (sqrt(n), i, zeta3, d), so every
    pair with the same N, n and m shares them, and their elements and
    polynomials hold the field, not a pair.  ``ctx`` is the context of the
    first pair, read for those constants only.

    Cases I and II are built at omega_1 + omega_2 = 0 and omega = 0.  A Case
    I tag with sum s has R mu(0) = conj(zeta3^s) R mu0 and R^2 mu(0) =
    zeta3^s R^2 mu0, so its mu_k is mu_(k+s) of these; the Case II tag omega
    = j has R mu(0) = zeta3^j R mu0 and R^2 mu(0) = conj(zeta3^j) R^2 mu0,
    so its mu_k is mu_(k-j): every tag reads them rotated, exactly.  A Case
    III branch kappa has mu(0) = -1/(2d) + kappa / (2 sqrt(n)), and at |G| =
    4, when 2 y^2 = 1 - 2 mu(0)^2 > 0, T_24 and 2 y^2 U_23^2 at cos(theta) =
    sqrt(2) mu(0) (else None)."""

    def __init__(self, ctx: ExactContext):
        self.ctx = ctx

    @functools.cached_property
    def _polys(self):
        """The parameter t, the constant maker, 1/3 and 1/(4n) as KPoly."""
        ctx = self.ctx
        C = functools.partial(KPoly.const, ctx.field)
        return KPoly.tvar(ctx.field), C, ctx.q(Fraction(1, 3)), C(ctx.q(Fraction(1, 4 * ctx.n)))

    def _branch(self, name, params, odd, rhs, mu0, Rmu0, R2mu0, extra) -> _Branch:
        _, C, third, _ = self._polys
        zeta3 = self.ctx.zeta3
        mu = tuple((mu0 + Rmu0 * zeta3 ** (-k % 3) + R2mu0 * zeta3 ** k) * C(third)
                   for k in range(3))
        return _Branch(f"{name}{params}", odd, rhs, mu, tuple(p.re() for p in mu),
                       tuple(p.im() for p in mu), tuple(p.abs2() for p in mu), extra)

    @functools.cached_property
    def case_I(self) -> tuple:
        ctx = self.ctx
        inv2rn, half_d, i_unit = ctx.inv2rn, ctx.half_d, ctx.i
        T, C, third, quarter_n = self._polys
        out = []
        for kappa2 in (1, -1):
            xi0 = C(-half_d) - T * C(inv2rn)
            eta_sq = (C(ctx.one) - T * T) * quarter_n
            mu0 = C(-half_d) + T * C(inv2rn)
            Rmu0 = (T + C(ctx.int(kappa2) * i_unit)) * C(inv2rn)
            R2mu0 = (T - C(ctx.int(kappa2) * i_unit)) * C(inv2rn)
            out.append(self._branch("branch1", {"kappa2": kappa2}, False, third, mu0, Rmu0,
                                    R2mu0, (xi0, eta_sq, xi0 * xi0 - eta_sq - eta_sq)))
        for kappa1 in (1, -1):
            for kappa2 in (1, -1):
                k1 = ctx.int(kappa1)
                xi0 = C(-half_d - k1 * inv2rn)
                mu0 = C(-half_d + k1 * inv2rn)
                Rmu0 = C((-k1 + ctx.int(kappa2) * i_unit) * inv2rn)
                R2mu0 = C((-k1 - ctx.int(kappa2) * i_unit) * inv2rn)
                out.append(self._branch("branch2", {"kappa1": kappa1, "kappa2": kappa2}, False,
                                        third, mu0, Rmu0, R2mu0, (xi0, C(ctx.zero), xi0 * xi0)))
        return tuple(out)

    @functools.cached_property
    def _case_II(self) -> tuple:
        ctx = self.ctx
        inv2rn, half_d, i_unit = ctx.inv2rn, ctx.half_d, ctx.i
        T, C, third, quarter_n = self._polys
        rhs = third - ctx.inv_d * ctx.q(Fraction(2, 3))
        branch1, branch2 = [], []
        for kappa1 in (1, -1):
            mu0 = (C(ctx.int(kappa1)) - T) * C(i_unit * inv2rn)
            Rmu0 = C(-half_d) - T * C(i_unit * inv2rn)
            R2mu0 = C(half_d) - T * C(i_unit * inv2rn)
            absxi0_sq = (C(ctx.int(kappa1)) + T) * (C(ctx.int(kappa1)) + T) * quarter_n
            abseta_sq = (C(ctx.one) - T * T) * quarter_n
            branch1.append(self._branch("branch1", {"kappa1": kappa1}, True, rhs, mu0, Rmu0,
                                        R2mu0, (absxi0_sq, abseta_sq)))
        for kappa in (1, -1):
            mu0 = C(ctx.int(kappa) * i_unit * ctx.inv_sqrt_n)
            Rmu0 = C(-half_d - ctx.int(kappa) * i_unit * inv2rn)
            R2mu0 = C(half_d - ctx.int(kappa) * i_unit * inv2rn)
            branch2.append(self._branch("branch2", {"kappa": kappa}, True, rhs,
                                        mu0, Rmu0, R2mu0, ()))
        return tuple(branch1), tuple(branch2)

    @property
    def case_II(self) -> tuple:
        """Branch 1 of Case II."""
        return self._case_II[0]

    @property
    def case_II_vanishing(self) -> tuple:
        """Branch 2 of Case II."""
        return self._case_II[1]

    @functools.cached_property
    def case_III(self) -> tuple:
        """(kappa, mu(0), mu(0)^2 = 1/2, T_24, 2 y^2 U_23^2) per branch."""
        ctx = self.ctx
        out = []
        for kappa in (1, -1):
            mu0 = -ctx.half_d + ctx.int(kappa) * ctx.inv2rn
            half_sq = mu0 * mu0 == ctx.q(Fraction(1, 2))
            T24 = V = None
            if ctx.n == 4 and not (half_sq or ctx.is_zero(mu0)):
                y2two = ctx.one - ctx.K_two * mu0 * mu0  # = 2 y^2 = sin^2(theta)
                if ctx.sign(y2two) > 0:
                    T24, U23 = _chebyshev(ctx, 24, ctx._sqrt_int(2) * mu0)
                    V = y2two * U23 * U23
            out.append((kappa, mu0, half_sq, T24, V))
        return tuple(out)


# ---------------------------------------------------------------------------
# Cases I and II


def _pin(ctx: ExactContext, br: _Branch, rot: list, k: int):
    """The squared norm of the ker(R - zeta3^k) component of mu(0) at the tag
    whose mu_k is br.mu[rot[k]]: |mu_k|^2 ||f0||^2 on a pinned line, 0 on a
    zero eigenspace, None when it is free."""
    e = ctx.eig(k)
    if e["f0"] is None:
        return KPoly.const(ctx.field, ctx.zero) if e["dim"] == 0 else None
    if e["dim"] == 1:
        return br.abs2[rot[k]] * KPoly.const(ctx.field, e["norm_f0"])
    return None


def _g0_equations(ctx: ExactContext, br: _Branch, rot: list, k_excl: int):
    """The g = 0 equations that Cases I and II share, for branch ``br`` at
    the tag whose mu_k is br.mu[rot[k]], as real polynomials: each is read
    off the branch data (``_branch_data``, once per (N, n, m)) or, when it
    holds the pair's norm_f0, built when the resolver reaches it.

    mu_k(0) is real (J-fixed, Case I) or imaginary (``br.odd``, J-odd, Case
    II); mu_k vanishes where the eigenspace kills evaluation at 0; when both
    eigenspaces other than k_excl are pinned (``_pin``), their norms sum to
    ``br.rhs``.  Only these pair data are read: which f0 is None, the
    dimensions and norm_f0."""
    yield from ((br.re if br.odd else br.im)[r] for r in rot)
    for k in range(3):
        if ctx.eig(k)["f0"] is None:
            yield br.re[rot[k]]
            yield br.im[rot[k]]
    pins = [_pin(ctx, br, rot, k) for k in range(3) if k != k_excl]
    if None not in pins:
        yield pins[0] + pins[1] - KPoly.const(ctx.field, br.rhs)


def _case_I(ctx: ExactContext, tag: CaseTag) -> Feasibility:
    w1, w2 = tag.omegas
    if w1 == w2 and ctx.eig(w1)["dim"] < 2:
        return Feasibility(tag, False, "CaseI3 eigenspace dimension",
                           f"dim ker(R - z3^{w1}) < 2")
    s = (w1 + w2) % 3
    k_excl = -s % 3
    rot = [(k + s) % 3 for k in range(3)]
    C = functools.partial(KPoly.const, ctx.field)
    unpinned = any(ctx.eig(w)["f0"] is None for w in tag.omegas)
    # the tag's pinned lines, for the norm identities I51/I52, and whether an
    # order-2 element relation holds: pair data, the same for every branch
    small_norms, order2 = [], False
    if w1 != w2:
        es, e_excl = [ctx.eig(w) for w in sorted(tag.omegas)], ctx.eig(k_excl)
        small = [e for e in es if e["dim"] == 1 and e["f0"] is not None]
        if e_excl["dim"] == (0 if e_excl["f0"] is None else 1):
            small_norms = [e["norm_f0"] for e in small]
        big = [e for e in es if e["dim"] == 2 and e["f0"] is not None]
        if big and small:
            f0b, f0s = big[0]["f0"], small[0]["f0"]
            order2 = any(ctx.G.element_order(g) == 2 and ctx.is_zero(big[0]["f0p"][gi])
                         and f0b[gi] * ctx.conj(f0b[gi]) != f0s[gi] * ctx.conj(f0s[gi])
                         for gi, g in enumerate(ctx.els))

    def parts(br):
        yield from _g0_equations(ctx, br, rot, k_excl)
        xi0, eta_sq, xi_eta = br.extra
        if unpinned:
            yield xi0
            yield eta_sq
        if small_norms:
            pin_excl = _pin(ctx, br, rot, k_excl) * C(ctx.int(3)) - C(ctx.inv_d)
            for norm in small_norms:
                yield xi_eta * C(norm) - pin_excl
        if order2:
            yield xi_eta

    surviving = []
    for br in _branch_data(ctx).case_I:
        feasible, t0 = _resolve_t_system(ctx, parts(br))
        if feasible:
            surviving.append(br.name + (
                f" t={ctx.numeric(t0).real:.6f}" if t0 is not None else ""))
    if surviving:
        return Feasibility(tag, True, details="; ".join(surviving), inconclusive=True)
    return Feasibility(tag, False,
                       "CaseI g=0 values / norm identities (I51, I52, order-2 relation)",
                       "all kappa branches exactly contradicted")


def _case_II(ctx: ExactContext, tag: CaseTag) -> Feasibility:
    j = tag.omega % 3
    e_j = ctx.eig(j)
    if e_j["dim"] < 2:
        return Feasibility(tag, False, "CaseII3 eigenspace dimension",
                           f"dim ker(R - z3^{j}) = {e_j['dim']} < 2")
    rot = [(k - j) % 3 for k in range(3)]
    data = _branch_data(ctx)
    # branch 2 needs two real-independent J-fixed vectors of ker(R - w) that
    # vanish at 0
    branches = data.case_II + (data.case_II_vanishing if e_j["vanishing"] >= 2 else ())

    surviving = []
    for br in branches:
        parts = _g0_equations(ctx, br, rot, j)
        if e_j["f0"] is None:
            parts = itertools.chain(parts, br.extra)
        feasible, t0 = _resolve_t_system(ctx, parts)
        if feasible:
            surviving.append((br.name, t0, [br.mu[r] for r in rot]))
    if not surviving:
        return Feasibility(tag, False, "CaseII g=0 values / norm identity",
                           "all kappa branches exactly contradicted")
    still = [name for name, t0, mu_k in surviving
             if not _case_II_order2_refutation(ctx, tag, t0, mu_k)]
    if still:
        return Feasibility(tag, True, details="; ".join(still), inconclusive=True)
    return Feasibility(tag, False, "CaseII order-2 element relations",
                       "per-point decision tree exactly contradicted")


def _case_II_order2_refutation(ctx: ExactContext, tag: CaseTag, t0,
                               mu_k: list[KPoly]) -> bool:
    """Exact per-point decision tree on order-2 elements.

    Preconditions: every nonzero element has order 2, a = -1 off the unit,
    the omega eigenspace has dimension 2 and kills evaluation at 0, the other
    two eigenspaces are pinned lines.  ``t0`` is the branch's root in t, or
    None when the branch has none pinned.  In the relative components
    mu_rel_i in ker(R - zeta3^i omega) the omega factors cancel from the
    pointwise identities, so the tree is the same for every omega.  Returns
    True only when every branch ends in an exact contradiction.
    """
    j = tag.omega % 3
    G = ctx.G
    if any(G.element_order(g) != 2 for g in ctx.els if g != G.zero()):
        return False
    for i, g in enumerate(ctx.els):
        if g != G.zero() and not ctx.is_zero(ctx.a[i] + ctx.one):
            return False
    ebig = ctx.eig(j)
    k1, k2 = (j + 1) % 3, (j + 2) % 3
    e1, e2 = ctx.eig(k1), ctx.eig(k2)
    if not (ebig["f0"] is None and ebig["dim"] == 2):
        return False
    if not (e1["dim"] == 1 and e1["f0"] is not None
            and e2["dim"] == 1 and e2["f0"] is not None):
        return False
    if t0 is None and (mu_k[k1].degree > 0 or mu_k[k2].degree > 0):
        return False
    t0 = ctx.zero if t0 is None else t0
    mu1_0, mu2_0 = mu_k[k1].eval(t0), mu_k[k2].eval(t0)
    for gi, g in enumerate(ctx.els):
        if g == G.zero():
            continue
        w1 = mu1_0 * e1["f0"][gi]
        w2 = mu2_0 * e2["f0"][gi]
        if not (ctx.is_zero(ctx.im(w1)) and ctx.is_zero(ctx.im(w2))):
            return False
        A = ctx.re(w1 + w2)
        Bv = ctx.zeta3 * w1 + ctx.zeta3 ** 2 * w2
        if not _point_candidates_empty(ctx, A, ctx.re(Bv), ctx.im(Bv)):
            return False
    return True


def _point_candidates_empty(ctx: ExactContext, A, ReB, ImB) -> bool:
    """Emptiness of the per-point system at an order-2 element.

    Unknowns P real, X, H complex with mu = P + A, R mu = P + ReB + i ImB,
    S = 2P + 2 ReB; the equations are the pointwise m=2n identities.  H != 0
    forces the P-free condition (2 ReB - 2A)^2 = 1/n; H = 0 leaves finitely
    many P candidates, each checked exactly.
    """
    n = ctx.n
    quarter = ctx.q(Fraction(1, n))
    if ctx.is_zero((ctx.K_two * ReB - ctx.K_two * A) ** 2 - quarter):
        return False  # H != 0 not excluded; no refutation attempted
    half2n = ctx.q(Fraction(1, 2 * n))
    # H = 0, X = 0: (P + A)^2 = 1/n, then |R mu|^2 = 1/(2n), Re[(R mu)^2] = 0
    for sgn in (1, -1):
        Pval = ctx.int(sgn) * ctx.inv_sqrt_n - A
        e1 = (Pval + ReB) ** 2 + ImB ** 2 - half2n
        e3 = (Pval + ReB) ** 2 - ImB ** 2
        if ctx.is_zero(e1) and ctx.is_zero(e3):
            return False
    # H = 0, mu = 0: P = -A
    Pval = -A
    e1 = (Pval + ReB) ** 2 + ImB ** 2 - half2n
    e3 = (Pval + ReB) ** 2 - ImB ** 2
    if ctx.is_zero(e1) and ctx.is_zero(e3):
        return False
    return True


# ---------------------------------------------------------------------------
# Case III


def _case_III(ctx: ExactContext, tag: CaseTag) -> Feasibility:
    n = ctx.n
    G = ctx.G
    g_chi = tag.chi
    if G.element_order(g_chi) != 2:
        return Feasibility(tag, False, "chi must have order 2", "")
    X = ctx.bichar.exponents[1]
    perp = [ctx.els[i] for i in np.flatnonzero(X[:, G.index_of(g_chi)] == 0)]
    if n == 2:
        if any(half_sq for _, _, half_sq, _, _ in _branch_data(ctx).case_III):
            return Feasibility(tag, True, details="norm identity satisfied",
                               inconclusive=True)
        return Feasibility(tag, False, "CaseIII support/norm at |G|=2",
                           "mu(0)^2 = 1/2 fails exactly")
    if n == 4:
        gperp = [g for g in perp if g != G.zero()]
        if len(gperp) != 1:
            return Feasibility(tag, True, details="unexpected chi-annihilator",
                               inconclusive=True)
        gp_idx = G.index_of(gperp[0])
        a_gp = ctx.a[gp_idx]
        if not ctx.is_zero(a_gp + ctx.one):
            return Feasibility(tag, False, "CaseIII |G|=4: a(g_perp) != -1",
                               "Re mu(g_perp) = 0 forces a(g_perp) = -1")
        target = ctx.zpow(24 * ctx.c_exp)  # 1 / conj(c)^24
        re_t, im_t = ctx.re(target), ctx.im(target)
        for kappa, mu0, half_sq, T24, y2two_U23_sq in _branch_data(ctx).case_III:
            if half_sq or ctx.is_zero(mu0):
                return Feasibility(tag, True, details="degenerate support",
                                   inconclusive=True)
            if T24 is not None and T24 == re_t and y2two_U23_sq == im_t * im_t:
                return Feasibility(tag, True, inconclusive=True,
                                   details=f"kappa={kappa} passes the 24th-power test")
        return Feasibility(tag, False, "CaseIII |G|=4: 24th-power test",
                           "(sqrt(2n) R mu(0))^12 is not a sign for any branch")
    return Feasibility(tag, True, inconclusive=True,
                       details=f"|G| = {n}: no exact Case III test past |G| = 4; "
                               "the tag is not searched")


def _chebyshev(ctx: ExactContext, k: int, x):
    """(T_k(x), U_{k-1}(x)) for k >= 1, by T_2k = 2 T_k^2 - 1 and
    U_2k-1 = 2 T_k U_k-1, and for odd k one step up from k - 1:
    T_k = x T_k-1 - (1 - x^2) U_k-2 and U_k-1 = x U_k-2 + T_k-1."""
    if k == 1:
        return x, ctx.one
    if k % 2:
        t, u = _chebyshev(ctx, k - 1, x)
        return x * t - (ctx.one - x * x) * u, x * u + t
    t, u = _chebyshev(ctx, k // 2, x)
    return ctx.K_two * t * t - ctx.one, ctx.K_two * t * u


# ---------------------------------------------------------------------------
# entry points


def case_feasibility(G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm,
                     tag: CaseTag, ctx: ExactContext | None = None) -> Feasibility:
    if ctx is not None and ctx.m != 2 * G.order:
        raise ValueError(f"the case analysis needs the context at m = {2 * G.order}, "
                         f"not at m = {ctx.m}")
    if tag.kind == "IV":
        return Feasibility(tag, False, "Case IV never occurs",
                           "norm bookkeeping on the B(g) support pattern")
    if ctx is None:
        ctx = ExactContext(G, b, a, 2 * G.order)
    if tag.kind == "I":
        return _case_I(ctx, tag)
    if tag.kind == "II":
        return _case_II(ctx, tag)
    if tag.kind == "III":
        return _case_III(ctx, tag)
    raise ValueError(f"unknown case kind {tag.kind}")


def all_case_feasibilities(G: FiniteAbelianGroup, b: Bicharacter,
                           a: QuadraticForm,
                           ctx: ExactContext | None = None) -> list[Feasibility]:
    if ctx is None:
        ctx = ExactContext(G, b, a, 2 * G.order)
    return [case_feasibility(G, b, a, tag, ctx=ctx) for tag in case_tags(G)]
