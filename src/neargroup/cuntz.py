"""Normal-form engine for the Cuntz algebra O_{n+m} and the word oracle.

An element is a finite linear combination of reduced words S_mu S_nu^* held
as a dict {(mu, nu): coeff} with mu, nu tuples over the alphabet
{0..n-1} = group isometries S_g, {n..n+m-1} = the T_i.  Products reduce with
S_i^* S_j = delta_{ij} only; the completeness relation sum_i S_i S_i^* = 1 is
applied exclusively inside :func:`normalize` (level raising), which keeps
plain reduction confluent.

The oracle builds the endomorphism rho on generators from an admissible
tuple,

    rho(S_e) = (eps/d) sum_h S_h + d^{-1/2} sum_i T_i j1(T_i)
    rho(S_g) = U(g) rho(S_e) U(g)^*
    rho(T)   = d^{-1/2} sum_h S_h (V(h) j2 T)^* + sum_h (V(h) W T) S_h S_h^*
               + l(T),         W = j2 j1^{-1}

and checks, as word identities: isometry relations of the images, range
completeness, the defining relation
rho^2(x) = sum_g S_g alpha_g(x) S_g^* + sum_i T_i rho(x) T_i^* on every
generator, and the closed form of rho(U(g)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .solutions import ResidualReport
from .tuples import AdmissibleTuple

__all__ = [
    "CuntzElement",
    "cuntz_identity",
    "generator",
    "normalize",
    "normalize_residual",
    "GeneratorEndomorphism",
    "build_endomorphism",
    "oracle_check",
    "fs_indicators",
]

PRUNE = 1e-14

Word = tuple[int, ...]


class CuntzElement:
    """Finite sum of reduced words S_mu S_nu^* with complex coefficients."""

    __slots__ = ("N", "terms")

    def __init__(self, N: int, terms: dict[tuple[Word, Word], complex] | None = None):
        self.N = N
        self.terms = terms or {}

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero(N: int) -> "CuntzElement":
        return CuntzElement(N)

    @staticmethod
    def one(N: int) -> "CuntzElement":
        return CuntzElement(N, {((), ()): 1.0 + 0.0j})

    @staticmethod
    def word(N: int, mu: Word, nu: Word = (), coeff: complex = 1.0) -> "CuntzElement":
        return CuntzElement(N, {(tuple(mu), tuple(nu)): complex(coeff)})

    def copy(self) -> "CuntzElement":
        return CuntzElement(self.N, dict(self.terms))

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "CuntzElement") -> "CuntzElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, 0.0) + v
            if abs(w) > PRUNE:
                out[k] = w
            elif k in out:
                del out[k]
        return CuntzElement(self.N, out)

    def __sub__(self, other: "CuntzElement") -> "CuntzElement":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, CuntzElement):
            return self._product(other)
        out = {}
        c = complex(other)
        if abs(c) > 0:
            for k, v in self.terms.items():
                w = v * c
                if abs(w) > PRUNE:
                    out[k] = w
        return CuntzElement(self.N, out)

    __rmul__ = __mul__

    def _product(self, other: "CuntzElement") -> "CuntzElement":
        out: dict[tuple[Word, Word], complex] = {}
        for (mu1, nu1), c1 in self.terms.items():
            l1 = len(nu1)
            for (mu2, nu2), c2 in other.terms.items():
                l2 = len(mu2)
                # reduce S_{nu1}^* S_{mu2}
                if l1 <= l2:
                    if mu2[:l1] != nu1:
                        continue
                    key = (mu1 + mu2[l1:], nu2)
                else:
                    if nu1[:l2] != mu2:
                        continue
                    key = (mu1, nu2 + nu1[l2:])
                w = out.get(key, 0.0) + c1 * c2
                if abs(w) > PRUNE:
                    out[key] = w
                elif key in out:
                    del out[key]
        return CuntzElement(self.N, out)

    def adjoint(self) -> "CuntzElement":
        return CuntzElement(self.N, {(nu, mu): np.conj(c) for (mu, nu), c in self.terms.items()})

    # -- inspection ---------------------------------------------------------

    def norm_max(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def scalar_part(self) -> complex:
        return self.terms.get(((), ()), 0.0 + 0.0j)

    def max_word_len(self) -> int:
        return max((max(len(mu), len(nu)) for mu, nu in self.terms), default=0)

    def is_zero(self, tol: float = 1e-12) -> bool:
        return normalize_residual(self) < tol

    def support(self) -> int:
        return len(self.terms)

    def dump(self) -> list[dict]:
        """Debug dump: [{"word": [mu..., "*", nu...], "coeff": [re, im]}]."""
        out = []
        for (mu, nu), c in sorted(self.terms.items()):
            out.append({"word": list(mu) + ["*"] + list(nu),
                        "coeff": [float(np.real(c)), float(np.imag(c))]})
        return out

    def __repr__(self):
        return f"CuntzElement(N={self.N}, {self.support()} terms)"


def cuntz_identity(N: int) -> CuntzElement:
    return CuntzElement.one(N)


def generator(N: int, i: int) -> CuntzElement:
    return CuntzElement.word(N, (i,))


def _collapse_fans(x: CuntzElement) -> CuntzElement:
    """Repeatedly replace complete fans sum_i c S_{mu i} S_{nu i}^* by
    c S_mu S_nu^*; a support-reducing partial inverse of level raising."""
    terms = dict(x.terms)
    changed = True
    while changed:
        changed = False
        groups: dict[tuple[Word, Word], list[int]] = {}
        for mu, nu in terms:
            if mu and nu and mu[-1] == nu[-1]:
                groups.setdefault((mu[:-1], nu[:-1]), []).append(mu[-1])
        for (mu, nu), letters in groups.items():
            if len(set(letters)) != x.N:
                continue
            vals = [terms.get((mu + (i,), nu + (i,))) for i in range(x.N)]
            if any(v is None for v in vals):
                continue
            base = vals[0]
            if all(abs(v - base) <= 1e-13 * max(1.0, abs(base)) for v in vals):
                for i in range(x.N):
                    del terms[(mu + (i,), nu + (i,))]
                w = terms.get((mu, nu), 0.0) + base
                if abs(w) > PRUNE:
                    terms[(mu, nu)] = w
                elif (mu, nu) in terms:
                    del terms[(mu, nu)]
                changed = True
    return CuntzElement(x.N, terms)


def normalize(x: CuntzElement, level: int | None = None) -> CuntzElement:
    """Raise every word pair within its grade to a common length using
    sum_i S_i S_i^* = 1; equality of elements is equality of normalized
    tables at any level >= both maximal word lengths."""
    if not x.terms:
        return x
    maxlen = x.max_word_len()
    if level is None:
        level = maxlen
    if level < maxlen:
        raise ValueError(f"level {level} below maximal word length {maxlen}")
    out: dict[tuple[Word, Word], complex] = {}
    for (mu, nu), c in x.terms.items():
        pad = level - max(len(mu), len(nu))
        # target: max(len) == level (keep the grade |mu| - |nu| fixed)
        if pad == 0:
            w = out.get((mu, nu), 0.0) + c
            if abs(w) > PRUNE:
                out[(mu, nu)] = w
            elif (mu, nu) in out:
                del out[(mu, nu)]
            continue
        for tail in itertools.product(range(x.N), repeat=pad):
            key = (mu + tail, nu + tail)
            w = out.get(key, 0.0) + c
            if abs(w) > PRUNE:
                out[key] = w
            elif key in out:
                del out[key]
    return CuntzElement(x.N, out)


def normalize_residual(x: CuntzElement) -> float:
    """max |coefficient| of x after fan collapsing and level raising; this is
    0 exactly when x = 0 in the Cuntz algebra."""
    y = _collapse_fans(x)
    if not y.terms:
        return 0.0
    y = normalize(y)
    return y.norm_max()


# ---------------------------------------------------------------------------
# the endomorphism attached to an admissible tuple


@dataclass
class GeneratorEndomorphism:
    """Images of the Cuntz generators under rho, alpha_h and U(g)."""

    N: int
    n: int
    m: int
    tuple_data: AdmissibleTuple
    rho_S: list[CuntzElement]
    rho_T: list[CuntzElement]
    U_el: list[CuntzElement]

    def rho_image(self, i: int) -> CuntzElement:
        return self.rho_S[i] if i < self.n else self.rho_T[i - self.n]

    def alpha(self, h: int, x: CuntzElement) -> CuntzElement:
        """The G-action: alpha_h(S_g) = S_{hg}, alpha_h(T) = V(h) T."""
        t = self.tuple_data
        out: dict[tuple[Word, Word], complex] = {}
        for (mu, nu), c in x.terms.items():
            for mu2, c2 in self._alpha_word(h, mu):
                for nu2, c3 in self._alpha_word(h, nu):
                    key = (mu2, nu2)
                    w = out.get(key, 0.0) + c * c2 * np.conj(c3)
                    if abs(w) > PRUNE:
                        out[key] = w
                    elif key in out:
                        del out[key]
        return CuntzElement(x.N, out)

    def _alpha_word(self, h: int, word: Word):
        t = self.tuple_data
        n = self.n
        results = [((), 1.0 + 0.0j)]
        for letter in word:
            if letter < n:
                results = [(w + (int(t.mult[h, letter]),), c) for w, c in results]
            else:
                col = t.V[h][:, letter - n]
                new = []
                for w, c in results:
                    for j in range(self.m):
                        if abs(col[j]) > PRUNE:
                            new.append((w + (n + j,), c * col[j]))
                results = new
        return results

    def apply_rho(self, x: CuntzElement) -> CuntzElement:
        out = CuntzElement.zero(self.N)
        for (mu, nu), c in x.terms.items():
            term = CuntzElement.one(self.N) * c
            for letter in mu:
                term = term * self.rho_image(letter)
            for letter in reversed(nu):
                term = term * self.rho_image(letter).adjoint()
            out = out + term
        return out


def _kvector(N: int, n: int, v: np.ndarray) -> CuntzElement:
    terms = {((n + i,), ()): complex(v[i]) for i in range(len(v)) if abs(v[i]) > PRUNE}
    return CuntzElement(N, terms)


def build_endomorphism(t: AdmissibleTuple) -> GeneratorEndomorphism:
    n, m = t.n, t.m
    N = n + m
    eps, d = t.eps, t.d
    M1, M2 = t.M1, t.M2
    W = t.w_matrix()  # j2 j1^{-1}

    # rho(S_e)
    terms: dict[tuple[Word, Word], complex] = {}
    for h in range(n):
        terms[((h,), ())] = eps / d
    rho_Se = CuntzElement(N, terms)
    for i in range(m):
        j1Ti = M1[:, i]
        for j in range(m):
            if abs(j1Ti[j]) > PRUNE:
                key = ((n + i, n + j), ())
                terms[key] = terms.get(key, 0.0) + j1Ti[j] / math.sqrt(d)
    rho_Se = CuntzElement(N, terms)

    # U(g) as an element
    U_el = []
    for g in range(n):
        tg: dict[tuple[Word, Word], complex] = {}
        for h in range(n):
            tg[((h,), (h,))] = complex(t.chi[h, g])
        for p in range(m):
            for q in range(m):
                if abs(t.U[g][p, q]) > PRUNE:
                    tg[((n + p,), (n + q,))] = complex(t.U[g][p, q])
        U_el.append(CuntzElement(N, tg))

    rho_S = []
    for g in range(n):
        rho_S.append(U_el[g] * rho_Se * U_el[g].adjoint())

    rho_T = []
    for i in range(m):
        acc = CuntzElement.zero(N)
        for h in range(n):
            vj2 = t.V[h] @ M2[:, i]  # V(h) j2(T_i)
            bra = _kvector(N, n, vj2).adjoint()
            acc = acc + CuntzElement.word(N, (h,)) * bra * (1 / math.sqrt(d))
            vw = t.V[h] @ W[:, i]  # V(h) j2 j1^{-1} (T_i)
            acc = acc + _kvector(N, n, vw) * CuntzElement.word(N, (h,), (h,))
        lterms: dict[tuple[Word, Word], complex] = {}
        L = t.ltensor[i]
        for x in range(m):
            for y in range(m):
                for z in range(m):
                    c = L[x, y, z]
                    if abs(c) > PRUNE:
                        lterms[((n + x, n + y), (n + z,))] = complex(c)
        acc = acc + CuntzElement(N, lterms)
        rho_T.append(acc)

    return GeneratorEndomorphism(N, n, m, t, rho_S, rho_T, U_el)


# ---------------------------------------------------------------------------
# the oracle


def oracle_check(t: AdmissibleTuple, tolerance: float = 1e-9) -> ResidualReport:
    """Independent verification through the Cuntz word engine:

    (i)   rho maps the generators to isometries with orthogonal ranges,
    (ii)  the ranges of the images are complete,
    (iii) rho^2(x) = sum_g S_g alpha_g(x) S_g^* + sum_i T_i rho(x) T_i^*
          for every generator x,
    (iv)  rho(U(g)) = sum_h S_h S_{hg}^* + (W U_K(g) W^*) (x) U(g).
    """
    n, m = t.n, t.m
    N = n + m
    rho = build_endomorphism(t)
    out: dict[str, float] = {}

    # (i) isometry / orthogonality
    worst = 0.0
    images = [rho.rho_image(i) for i in range(N)]
    for i in range(N):
        for j in range(N):
            prod = images[i].adjoint() * images[j]
            if i == j:
                prod = prod - CuntzElement.one(N)
            worst = max(worst, normalize_residual(prod))
    out["rho_isometry"] = worst

    # (ii) completeness of ranges
    acc = CuntzElement.zero(N)
    for i in range(N):
        acc = acc + images[i] * images[i].adjoint()
    out["rho_complete"] = normalize_residual(acc - CuntzElement.one(N))

    # (iii) the defining relation on generators
    worst = 0.0
    rho_of_images = {}
    for x in range(N):
        lhs = rho.apply_rho(images[x])  # rho^2(generator)
        rhs = CuntzElement.zero(N)
        gen = generator(N, x)
        for g in range(n):
            Sg = CuntzElement.word(N, (g,))
            rhs = rhs + Sg * rho.alpha(g, gen) * Sg.adjoint()
        rho_x = images[x]
        for i in range(m):
            Ti = CuntzElement.word(N, (n + i,))
            rhs = rhs + Ti * rho_x * Ti.adjoint()
        worst = max(worst, normalize_residual(lhs - rhs))
    out["rho_squared"] = worst

    # (iv) rho(U(g))
    W = t.w_matrix()
    worst = 0.0
    for g in range(n):
        lhs = rho.apply_rho(rho.U_el[g])
        terms: dict[tuple[Word, Word], complex] = {}
        for h in range(n):
            terms[((h,), (int(t.mult[h, g]),))] = 1.0 + 0.0j
        rhs = CuntzElement(N, terms)
        WU = W @ t.U[g] @ np.conj(W.T)
        for i in range(m):
            for j in range(m):
                if abs(WU[i, j]) > PRUNE:
                    Ti = CuntzElement.word(N, (n + i,))
                    Tj = CuntzElement.word(N, (n + j,))
                    rhs = rhs + Ti * rho.U_el[g] * Tj.adjoint() * WU[i, j]
        worst = max(worst, normalize_residual(lhs - rhs))
    out["rho_U"] = worst

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
    E3 = np.zeros((m, m), dtype=complex)
    rho_Se = rho.rho_image(0)
    for j in range(m):
        base = Se.adjoint() * rho.rho_T[j] * rho_Se * Se
        for i in range(m):
            val = (Se.adjoint() * CuntzElement.word(N, (n + i,)).adjoint() * base)
            E3[i, j] = t.d * val.scalar_part()
    nu31_word = complex(np.trace(E3))
    e3_cube = float(np.max(np.abs(E3 @ E3 @ E3 - np.eye(m))))
    period3 = float(np.max(np.abs(
        np.linalg.matrix_power(t.M2 @ np.conj(t.M1), 3) - np.eye(m))))

    # nu_41
    acc = CuntzElement.zero(N)
    for i in range(m):
        for j in range(m):
            j2Ti = _kvector(N, n, t.M2[:, i])
            j1Tj = _kvector(N, n, t.M1[:, j])
            term = (CuntzElement.word(N, (n + i,)).adjoint() * j2Ti.adjoint()
                    * rho.rho_T[j] * j1Tj)
            acc = acc + term
    scalar = acc.scalar_part()
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
