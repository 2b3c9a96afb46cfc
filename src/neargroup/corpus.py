"""Bundled verified solutions.

Every numeric value here is transcribed from a published table or display;
the per-solution ``provenance`` dict records the source of each datum.  The
(Z2xZ2-type) tables use the element labels {0, g1, g2, g3} with g3 = g1 + g2
(the sources head their tables with (g0, g1, g2); this corpus re-indexes them
to (g1, g2, g3), see the concordance in the provenance entries).

Note the Z5 dimension: the source prints d = (3+3*sqrt(5))/2, which fails
d^2 = n + m d; the value used here is the root d = (5+3*sqrt(5))/2.
"""

from __future__ import annotations

import math
import numpy as np

from .abelian import (
    Bicharacter,
    FiniteAbelianGroup,
    Phase,
    QuadraticForm,
)
from .solutions import ACJData, GeneralSolution, MNSolution

__all__ = [
    "z2_m2",
    "z3_m3",
    "z4_m4",
    "z2z2_m4",
    "z5_m5",
    "z2z2z3_m12",
    "z3_m6",
    "corpus_mn",
    "corpus_all",
]

ZETA3 = np.exp(2j * np.pi / 3)


def _cyclic_bichar(G: FiniteAbelianGroup, k: int = 1) -> Bicharacter:
    n = G.factors[0]
    return Bicharacter(G, ((Phase(k, n),),))


def _form_from_phases(b: Bicharacter, phases: dict) -> QuadraticForm:
    G = b.group
    vals = [None] * G.order
    for g in G:
        vals[G.index_of(g)] = phases[g]
    a = QuadraticForm(b, tuple(vals))
    if not a.is_valid():
        raise AssertionError("transcribed form fails the coboundary identity")
    return a


def z2_m2() -> MNSolution:
    G = FiniteAbelianGroup((2,))
    b = _cyclic_bichar(G, 1)  # <g,h> = (-1)^{gh}
    a = _form_from_phases(b, {(0,): Phase(0), (1,): Phase(1, 4)})  # a(1) = i
    d = 1 + math.sqrt(3)
    bvec = np.array([-1 / d, (1 - 1j) / 2])
    c = np.conj(np.exp(-7j * np.pi / 12) / math.sqrt(2)) * math.sqrt(2)  # c' = e^{-7 pi i/12}/sqrt2
    return MNSolution(G, b, a, bvec, c, provenance={
        "source": "Z2 worked example, m=n section",
        "values": "a(1)=i, c'=e^{-7 pi i/12}/sqrt(2), d=1+sqrt(3), b(1)=(1-i)/2",
    })


def z3_m3() -> MNSolution:
    G = FiniteAbelianGroup((3,))
    b = _cyclic_bichar(G, 1)  # <g,h> = zeta3^{gh}
    a = _form_from_phases(b, {(0,): Phase(0), (1,): Phase(1, 3), (2,): Phase(1, 3)})
    d = (3 + math.sqrt(21)) / 2
    z3 = ZETA3
    b1 = z3 * ((-3 + math.sqrt(21)) / 12 + 1j * math.sqrt((3 + math.sqrt(21)) / 2) / (2 * math.sqrt(3)))
    b2 = z3 * ((-3 + math.sqrt(21)) / 12 - 1j * math.sqrt((3 + math.sqrt(21)) / 2) / (2 * math.sqrt(3)))
    bvec = np.array([-1 / d, b1, b2])
    c = np.conj(np.exp(1j * np.pi / 6) / math.sqrt(3)) * math.sqrt(3)  # c = e^{-i pi/6}
    return MNSolution(G, b, a, bvec, c, provenance={
        "source": "Z3 worked example, m=n section",
        "values": "a(1)=a(2)=zeta3, c'=e^{i pi/6}/sqrt(3), d=(3+sqrt(21))/2",
    })


def z4_m4() -> MNSolution:
    G = FiniteAbelianGroup((4,))
    b = _cyclic_bichar(G, 1)  # <g,h> = i^{gh}
    a = _form_from_phases(b, {
        (0,): Phase(0), (1,): Phase(7, 8), (2,): Phase(1, 2), (3,): Phase(7, 8),
    })  # a(1)=a(3)=e^{-pi i/4}, a(2)=-1
    d = 2 + 2 * math.sqrt(2)
    z16 = np.exp(2j * np.pi / 16)
    b1 = z16 * (math.sqrt(4 - 2 * math.sqrt(2)) / 4 + 1j / 2 ** 1.25)
    b3 = z16 * (math.sqrt(4 - 2 * math.sqrt(2)) / 4 - 1j / 2 ** 1.25)
    bvec = np.array([-1 / d, b1, -1j / 2, b3])
    c = np.conj(np.exp(-3j * np.pi / 4) / 2) * 2  # c = e^{3 pi i/4}
    return MNSolution(G, b, a, bvec, c, provenance={
        "source": "Z4 worked example, m=n section",
        "values": "c'=e^{-3 pi i/4}/2, d=2+2 sqrt(2); the second printed b(2) is read as b(3)",
    })


def z2z2_gram1() -> Bicharacter:
    """<.,.>_1 on generators (g1, g2): [[-1, 1], [1, -1]]."""
    G = FiniteAbelianGroup((2, 2))
    return Bicharacter(G, ((Phase(1, 2), Phase(0)), (Phase(0), Phase(1, 2))))


def z2z2_gram2() -> Bicharacter:
    """<.,.>_2 on generators (g1, g2): [[1, -1], [-1, 1]]."""
    G = FiniteAbelianGroup((2, 2))
    return Bicharacter(G, ((Phase(0), Phase(1, 2)), (Phase(1, 2), Phase(0))))


def z2z2_m4() -> MNSolution:
    G = FiniteAbelianGroup((2, 2))
    b = z2z2_gram1()
    # table labels (g0,g1,g2) -> (g1,g2,g3): a(g1)=i, a(g2)=-i, a(g3)=1
    a = _form_from_phases(b, {
        (0, 0): Phase(0), (1, 0): Phase(1, 4), (0, 1): Phase(3, 4), (1, 1): Phase(0),
    })
    d = 2 + 2 * math.sqrt(2)
    bdict = {
        (0, 0): -1 / d,
        (1, 0): np.exp(3j * np.pi / 4) / 2,
        (0, 1): np.exp(-3j * np.pi / 4) / 2,
        (1, 1): 0.5,
    }
    bvec = np.array([bdict[g] for g in G])
    c = 1.0 + 0.0j  # c' = 1/2
    return MNSolution(G, b, a, bvec, c, provenance={
        "source": "Z2xZ2 worked example, m=n section",
        "values": "c'=1/2, d=2+2 sqrt(2); labels re-indexed (g0,g1,g2)->(g1,g2,g3)",
    })


def z5_m5() -> MNSolution:
    G = FiniteAbelianGroup((5,))
    b = _cyclic_bichar(G, 1)
    a = _form_from_phases(b, {g: Phase(2 * g[0] * g[0] % 5, 5) for g in G})
    d = (5 + 3 * math.sqrt(5)) / 2
    z5 = np.exp(2j * np.pi / 5)
    bvec = np.array([-1 / d, z5 ** -1 / math.sqrt(5), z5 / math.sqrt(5),
                     z5 / math.sqrt(5), z5 ** -1 / math.sqrt(5)])
    return MNSolution(G, b, a, bvec, -1.0 + 0.0j, provenance={
        "source": "Z5 worked example (automorphism-group section)",
        "values": "a(g)=zeta5^{2g^2}, c=-1, b(1)=b(4)=zeta5^{-1}/sqrt5, b(2)=b(3)=zeta5/sqrt5; "
                  "d corrected to (5+3 sqrt5)/2 from the printed (3+3 sqrt5)/2",
    })


def z2z2z3_m12() -> MNSolution:
    """(Z2xZ2xZ3, m=12) in product coordinates (2, 2, 3)."""
    G = FiniteAbelianGroup((2, 2, 3))
    gram = (
        (Phase(0), Phase(1, 2), Phase(0)),
        (Phase(1, 2), Phase(0), Phase(0)),
        (Phase(0), Phase(0), Phase(1, 3)),
    )
    b = Bicharacter(G, gram)
    # a(h,k) = a_H(h) zeta3^{k^2}; a_H = 1 on 0,g1,g2 and -1 on g3
    phases = {}
    for g in G:
        h = (g[0], g[1])
        ah = Phase(1, 2) if h == (1, 1) else Phase(0)
        phases[g] = ah * Phase(g[2] * g[2] % 3, 3)
    a = _form_from_phases(b, phases)
    s3 = math.sqrt(3)
    uH = {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5, (1, 1): 0.0}
    wH = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): -1.0, (1, 1): 0.0}
    pH = {(0, 0): 1.0, (1, 0): -1.0, (0, 1): -1.0, (1, 1): -s3 * 1j}
    vK = {0: 1.0, 1: -ZETA3 / 2, 2: -ZETA3 / 2}
    zK = {0: 0.0, 1: ZETA3 * 1j, 2: -ZETA3 * 1j}
    qK = {0: 1.0, 1: ZETA3, 2: ZETA3}
    bvals = []
    for g in G:
        h = (g[0], g[1])
        k = g[2]
        val = ((1 - s3) / 3) * uH[h] * vK[k] \
            + wH[h] * zK[k] / (2 * math.sqrt(2 * s3)) \
            + pH[h] * qK[k] / 6
        bvals.append(val)
    c = np.exp(-1j * np.pi / 6)
    return MNSolution(G, b, a, np.array(bvals), c, provenance={
        "source": "Z2xZ2xZ3 example (twisted de-equivariantization section)",
        "values": "c=e^{-pi i/6}, d=6+4 sqrt3, b given as a sum of three product vectors",
    })


def z3_m6(x: float | None = None, y: float = 0.0) -> GeneralSolution:
    """The (Z3, m=6) solution at parameters (x, y), default (sqrt(sqrt3/24), 0)."""
    if x is None:
        x = math.sqrt(math.sqrt(3) / 24)
    form = _form_from_phases(_cyclic_bichar(FiniteAbelianGroup((3,)), 1),
                             {(0,): Phase(0), (1,): Phase(1, 3), (2,): Phase(1, 3)})
    c = np.exp(-1j * np.pi / 6)
    acj = ACJData(form=form, bar=(0, 1), g_t=((0,), (0,)), c_t=(c, c), eps_t=(1, 1), eps=1)
    s3 = math.sqrt(3)
    f0 = np.array([1.0, -ZETA3 / 2, -ZETA3 / 2])
    f0p = np.array([0.0, ZETA3 * 1j, -ZETA3 * 1j])
    f1 = np.array([1.0, ZETA3, ZETA3])
    xi = -(s3 - 1) / 2 * f0 + x * f0p + y * 0  # xi_1 = xi_2
    eta1 = y * f0p
    eta2 = -y * f0p
    mu0 = -(s3 - 1) / 6 * f0 - x * f0p
    mu1 = f1 / 3
    mu = mu0 + mu1
    Rmu = mu0 + ZETA3 * mu1
    R2mu = mu0 + ZETA3**2 * mu1
    n = 3
    bt = np.zeros((2, 2, 2, 2, n), dtype=complex)
    # B(g) rows ((r,t)) and columns ((s,u)) in lexicographic order, omega=1
    rows = {
        (0, 0): [xi, eta2, eta2, mu],
        (0, 1): [eta2, R2mu, Rmu, eta1],
        (1, 0): [eta2, Rmu, R2mu, eta1],
        (1, 1): [mu, eta1, eta1, xi],
    }
    cols = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for (r, t), vals in rows.items():
        for (sidx, u), vec in zip(cols, vals):
            bt[r, sidx, t, u, :] = vec
    return GeneralSolution(acj, bt, provenance={
        "source": "Z3 m=6 classification (m=2n section), Case I with omega1=omega2=1",
        "values": f"(x, y) = ({x}, {y}); x^2+y^2 = sqrt(3)/24",
    })


def corpus_mn() -> dict[str, MNSolution]:
    return {
        "z2_m2": z2_m2(),
        "z3_m3": z3_m3(),
        "z4_m4": z4_m4(),
        "z2z2_m4": z2z2_m4(),
        "z5_m5": z5_m5(),
        "z2z2z3_m12": z2z2z3_m12(),
    }


def corpus_all() -> dict[str, GeneralSolution]:
    out: dict = dict(corpus_mn())
    out["z3_m6"] = z3_m6()
    return out
