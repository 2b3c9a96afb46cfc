"""Linear and anti-linear operators on l^2(G): the period-3 rotation and its
companion conjugation.

The rotation attached to a pair (bicharacter, even form) and a unimodular
scalar c is

    R f(g) = conj(c a(g)) / sqrt(n) * sum_h <g,h> f(h),

a unitary with R^3 = 1 exactly when c^3 * a_hat(0) = 1.  The anti-unitary

    J f(g) = conj(a(g) f(-g))

satisfies J^2 = 1 and J R = R^2 J, so J preserves each R-eigenspace and cuts
out a real form inside it.  Eigenspaces are extracted with the exact spectral
projections (1 + conj(w) R + conj(w)^2 R^2)/3 rather than a generic
eigensolver, since R is an exact cube root of the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .abelian import Bicharacter, FiniteAbelianGroup, QuadraticForm, tables

__all__ = [
    "AntiUnitary",
    "RotationOperator",
    "rotation",
    "conjugation",
    "cube_root_scalars",
    "eigenspace_basis",
    "fixed_real_eigenbasis",
]

ZETA3 = np.exp(2j * np.pi / 3)
DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class AntiUnitary:
    """Anti-linear map v -> U conj(v) with U unitary."""

    matrix: np.ndarray
    involutive_sign: int | None = None  # declared value of square (=+-1), if any

    def __post_init__(self):
        U = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", U)
        if np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0])) > 1e-8:
            raise ValueError("anti-unitary matrix must be unitary")
        if self.involutive_sign is not None:
            if np.linalg.norm(self.square() - self.involutive_sign * np.eye(U.shape[0])) > 1e-8:
                raise ValueError("declared involutive sign does not match U conj(U)")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(v)

    def square(self) -> np.ndarray:
        """Matrix of the (linear) map J o J = U conj(U)."""
        return self.matrix @ np.conj(self.matrix)

    def compose_linear(self, other: "AntiUnitary") -> np.ndarray:
        """Matrix of self o other, a unitary: U1 conj(U2)."""
        return self.matrix @ np.conj(other.matrix)

    def scale(self, phase: complex) -> "AntiUnitary":
        return AntiUnitary(phase * self.matrix)


@dataclass(frozen=True)
class RotationOperator:
    matrix: np.ndarray
    group: FiniteAbelianGroup
    bichar: Bicharacter
    form: QuadraticForm
    c: complex

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_cube_root_of_identity(self, tol: float = 1e-12) -> bool:
        R = self.matrix
        return bool(np.linalg.norm(R @ R @ R - np.eye(self.dim)) < tol * self.dim * 10)

    def conjugation(self) -> AntiUnitary:
        return conjugation(self.form)


def rotation(b: Bicharacter, a: QuadraticForm, c: complex) -> RotationOperator:
    """R[g,h] = conj(c a(g)) <g,h> / sqrt(n)."""
    if abs(abs(c) - 1.0) > 1e-12:
        raise ValueError("c must be unimodular")
    G = b.group
    n = G.order
    avals = a.table()
    R = np.conj(c * avals)[:, None] * b.matrix() / math.sqrt(n)
    return RotationOperator(R, G, b, a, complex(c))


def conjugation(a: QuadraticForm) -> AntiUnitary:
    """J f(g) = conj(a(g) f(-g)); an involutive anti-unitary."""
    n = a.group.order
    U = np.zeros((n, n), dtype=complex)
    U[np.arange(n), tables(a.group).neg] = np.conj(a.table())
    return AntiUnitary(U, involutive_sign=1)


def cube_root_scalars(a: QuadraticForm) -> list[complex]:
    """The three unimodular c with c^3 a_hat(0) = 1."""
    gauss = a.gauss_sum()
    base = np.exp(-1j * np.angle(gauss) / 3)
    return [base * ZETA3**k for k in range(3)]


def eigenspace_basis(
    R: RotationOperator | np.ndarray, eigenvalue: complex, tol: float = DEFAULT_RANK_TOL
) -> np.ndarray:
    """Orthonormal basis (columns) of ker(R - eigenvalue) for R^3 = 1,
    obtained from the spectral projection (I + w̄R + w̄²R²)/3."""
    M = R.matrix if isinstance(R, RotationOperator) else np.asarray(R)
    w = eigenvalue
    P = (np.eye(M.shape[0]) + np.conj(w) * M + np.conj(w) ** 2 * (M @ M)) / 3.0
    # column space of the projection via SVD rank cut
    u, s, _ = np.linalg.svd(P)
    k = int(np.sum(s > max(tol, s[0] * 1e-12 if len(s) else 0)))
    return u[:, :k]


def fixed_real_eigenbasis(
    R: RotationOperator | np.ndarray,
    J: AntiUnitary,
    eigenvalue: complex,
    tol: float = DEFAULT_RANK_TOL,
) -> list[np.ndarray]:
    """Real-linear basis of {f : R f = w f, J f = f}.

    Empty list when the eigenspace is trivial.  Raises if J does not map the
    eigenspace into itself (inconsistent inputs).
    """
    M = R.matrix if isinstance(R, RotationOperator) else np.asarray(R)
    basis = eigenspace_basis(M, eigenvalue, tol=tol)
    if basis.shape[1] == 0:
        return []
    # J must normalize the eigenspace
    for col in basis.T:
        img = J.apply(col)
        proj = basis @ (basis.conj().T @ img)
        if np.linalg.norm(img - proj) > 1e-8:
            raise ValueError("J does not normalize the eigenspace")
    # real span of {(v+Jv)/2 : v in complex basis and i*basis}
    cands = []
    for col in basis.T:
        cands.append((col + J.apply(col)) / 2.0)
        iv = 1j * col
        cands.append((iv + J.apply(iv)) / 2.0)
    return _real_gram_schmidt(cands, tol)


def _real_gram_schmidt(vectors: list[np.ndarray], tol: float) -> list[np.ndarray]:
    """Gram-Schmidt over the reals (real coefficients, complex entries)."""
    out: list[np.ndarray] = []
    for v in vectors:
        w = v.astype(complex)
        for u in out:
            w = w - np.real(np.vdot(u, w)) * u
        nrm = np.linalg.norm(w)
        if nrm > max(tol, 1e-12):
            out.append(w / nrm)
    return out
