"""Solution enumeration: one tensor-system solver for every m, and the
classification orchestrator.

Every system is the tensor system of a normal form: the L = 1 form of each
cube root c for m = n (``solve_mn``), a Case I or II tag for m = 2n
(``solve_m2n``), the simplest guess for m > 2n (``heuristic_search``).
``_solve_tensor`` solves it on the slice x0 + K y of its affine equations,
which the caller passes in: read off the exact eigenspaces of
``cases.ExactContext`` for m = n (``_mn_slice``), found numerically for
L >= 2 (``_numeric_slice``).  On it the quadratic equations are fitted once
(``_quadratic``).  For m = n every root of the fit comes from the null space
of its Macaulay matrix (``_macaulay_roots``), with no random start; for L >=
2 the fit is searched from random starts.  Either way the points go to one
run of ``solutions._batched_lm``, which polishes the roots or solves from
all starts at once: the one Levenberg-Marquardt loop of the package, which
the gauge refine shares.  The fit is its model: one call per batch of
points gives the residual rows and their exact Jacobians together.  The
equations of ``solutions.NormalForm`` take a stack of b-tensors, so the
numeric slice and the fit each evaluate their map once, on the stack of
all the points they read (``_realified``).  The
converged points are lifted to b-tensors in one batch and go through one
keep step, ``_keep``: every candidate not within DEDUPE_TOL of a kept one
becomes a ``GeneralSolution`` of the normal form it solved, for every m,
and is checked by ``solutions.residual``.  ``classify`` then keeps one
solution per class up to Aut x gauge within each (bicharacter, form) pair
(``_dedupe``).

Completeness discipline.  A solver result is labeled COMPLETE only where the
reduction lemmas shrink the system to a parameter space the code exhausts:
m = n for |G| <= 5 (the Galois-form linear constraints, which are the affine
slice of (p1)-(p3) and (p7) at L = 1, plus every root of the quadratic
equations on it) and m = 2n for |G| <= 4 (the exact case analysis).
Everything else is labeled HEURISTIC: numerical search cannot certify
emptiness, and the m = 2n zero-counts instead carry the exact refutation
certificates from :mod:`neargroup.cases`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import numpy.random  # noqa: F401 -- lazy in numpy; load it with the package, not in a solve

from .abelian import (
    Bicharacter,
    FiniteAbelianGroup,
    QuadraticForm,
    automorphisms,
    enumerate_bicharacters,
    enumerate_quadratic_forms,
    form_exponents,
    tables,
)
from .cases import CaseTag, ExactContext, Feasibility, all_case_feasibilities
from .solutions import (
    ACJData,
    GeneralSolution,
    _batched_lm,
    dimension_d,
    equivalent,
    fingerprint,
    mn_normal_form,
    normal_form,
    residual,
)

# unused here: perfbench/tracer.py patches these names on this module
from .solutions import residual_general, residual_mn  # noqa: F401
from .spectral import fixed_real_eigenbasis  # noqa: F401

__all__ = [
    "SolveConfig",
    "ClassificationResult",
    "SolutionClass",
    "solve_mn",
    "solve_m2n",
    "classify",
    "pair_classes",
]


def __getattr__(name):
    # ``least_squares`` is resolved on first access only, so that importing
    # the package does not load scipy.optimize; nothing here calls it, but
    # perfbench/tracer.py patches it.  ROADMAP item 1 deletes it once the
    # benchmark reads the package's own counters.
    if name == "least_squares":
        from scipy.optimize import least_squares

        return least_squares
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


NEWTON_TOL = 1e-12  # ||r|| at or below which an LM start has converged


@dataclass
class SolveConfig:
    # the random starts of the m = 2n solver, and their seed; m = n draws
    # none, and heuristic_search draws HEURISTIC_STARTS with this seed
    seed: int = 20260809
    random_starts: int = 1000
    residual_tol: float = 1e-10

    @property
    def newton_tol(self) -> float:
        """NEWTON_TOL, read-only: perfbench/worker.py reads it here."""
        return NEWTON_TOL


DEDUPE_TOL = 1e-7  # largest entry of |b - b'| below which two solver outputs are one
HEURISTIC_STARTS = 200  # random starts of heuristic_search


@dataclass
class SolutionClass:
    solution: GeneralSolution
    case: CaseTag | None
    residuals: object
    fingerprint: tuple
    completeness: str  # "COMPLETE" | "HEURISTIC"
    galois_orbit: int | None = None


@dataclass
class ClassificationResult:
    group: FiniteAbelianGroup
    m: int
    classes: list[SolutionClass]  # all classes up to Aut x gauge
    refutations: list[Feasibility] = field(default_factory=list)
    certified_empty: bool = False
    completeness: str = "COMPLETE"
    provenance: dict = field(default_factory=dict)
    conjugate_folded: bool = False

    @property
    def num_classes_absolute(self) -> int:
        return len(self.classes)

    @property
    def num_classes(self) -> int:
        """Counting convention: absolute for m > n; for m = n classes on
        conjugate/Galois-related (bichar, form) pairs are folded."""
        if not self.conjugate_folded:
            return len(self.classes)
        return len({c.galois_orbit for c in self.classes})

    def summary(self) -> str:
        lines = [f"classify({self.group}, m={self.m}): {self.num_classes} class(es)"
                 f" [{self.completeness}]"]
        warnings = self.provenance.get("warnings", [])
        # m = 2n tags and m = n pairs not searched
        skipped = [w for w in warnings if w.startswith(("case ", "pair "))]
        inconclusive = len(warnings) - len(skipped)
        if inconclusive:
            lines.append(f"  {inconclusive} inconclusive equivalence comparison(s),"
                         " counted as distinct classes")
        lines += [f"  {w}" for w in skipped]
        if self.conjugate_folded and self.num_classes_absolute != self.num_classes:
            lines.append(f"  ({self.num_classes_absolute} before folding "
                         "Galois/conjugate companions)")
        if self.num_classes == 0 and self.m == 2 * self.group.order:
            lines.append(
                "  emptiness certified by exact case-feasibility refutations"
                if self.certified_empty else
                "  emptiness NOT certified (heuristic search only)")
        for i, cls in enumerate(self.classes):
            tagtxt = f" case {cls.case}" if cls.case else ""
            lines.append(f"  class {i}:{tagtxt} max residual "
                         f"{cls.residuals.max_residual:.2e} [{cls.completeness}]")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# pair enumeration


def pair_classes(G: FiniteAbelianGroup):
    """Representatives of (bicharacter, even form) pairs up to Aut(G),
    annotated with an orbit id under the coarser Aut + cyclotomic-Galois
    action (conjugation is the Galois substitution k = -1).

    A pair is keyed by its form's exponent array over one common D
    (``abelian.form_exponents``): an automorphism permutes the array by its
    index permutation, and the substitution zeta -> zeta^k multiplies it by
    k.  The Galois group acts on Aut-orbits, so the images of one
    representative meet every representative of its orbit: the orbit is
    numbered by its least representative, in order of first appearance.

    Returns a list of (bicharacter, form, galois_orbit_id).
    """
    pairs = [(b, a) for b in enumerate_bicharacters(G, nondegenerate_only=True)
             for a in enumerate_quadratic_forms(b) if a.is_even()]
    D, A = form_exponents([a for _, a in pairs])
    perms = np.array([th.permutation() for th in automorphisms(G)])
    rep_of: dict = {}  # pulled-back exponent array -> index of its representative
    reps = []
    for i, key in enumerate(A):
        if key.tobytes() not in rep_of:
            for pulled in key[perms]:
                rep_of.setdefault(pulled.tobytes(), len(reps))
            reps.append(i)
    units = [k for k in range(1, D + 1) if math.gcd(k, D) == 1]
    ids: dict = {}  # least representative index of an orbit -> orbit id
    return [(*pairs[i], ids.setdefault(min(rep_of[(k * A[i] % D).tobytes()] for k in units),
                                       len(ids)))
            for i in reps]


# ---------------------------------------------------------------------------
# keeping the solvers' points


def _keep(B, acj: ACJData, provenance: dict, config: SolveConfig,
          cap: int | None = None) -> list[GeneralSolution]:
    """Walk the stack ``B`` of b-tensors of the normal form ``acj`` in order,
    making each one not within DEDUPE_TOL (largest entry of |b - b'|) of one
    already kept the ``GeneralSolution`` (with a copy of ``provenance``),
    which is kept if it passes ``solutions.residual``.  A kept tensor masks
    its near-duplicates further down the stack in one comparison.  Stops once
    ``cap`` solutions are kept."""
    axes = tuple(range(1, B.ndim))
    live = np.ones(len(B), dtype=bool)
    found: list = []
    for i, bt in enumerate(B):
        if not live[i]:
            continue
        s = GeneralSolution(acj, bt, dict(provenance))
        if not residual(s, config.residual_tol).passed:
            continue
        found.append(s)
        if cap is not None and len(found) >= cap:
            break
        live[i + 1:] &= np.max(np.abs(B[i + 1:] - bt), axis=axes) >= DEDUPE_TOL
    return found


def _order_key(b) -> tuple:
    """The sort key of solver outputs, their b values rounded to 6 places:
    one order whatever the slice basis, the cube-root order or the seed, so
    a dedupe keeps the least member of each class."""
    return tuple(np.round(np.ravel(b).view(float), 6))


# ---------------------------------------------------------------------------
# m = n


def solve_mn(G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm,
             config: SolveConfig | None = None) -> list[GeneralSolution]:
    """All solutions of the m = n system for a fixed (bicharacter, form), in
    the order of ``_order_key``.

    The m = n system is the L = 1 case of the tensor normal form
    (``solutions.mn_normal_form``), one for each cube root c = ``ctx.c``
    zeta3^k of the pair's ``cases.ExactContext``.  Its affine (p1)-(p3) and
    (p7), i.e. (Gal3), (Gal4) and (Gal7), cut out the slice ``_mn_slice``;
    on it every root of the quadratic (p4), (p5) and ``bg_unitary``, i.e.
    (Gal5), comes from linear algebra (``_macaulay_roots``), and the real
    ones are polished by one short batched Levenberg-Marquardt run.  No
    random start is drawn: ``config.random_starts`` and ``config.seed`` do
    not change the result (the seed is only recorded in the provenance).
    Every candidate not within DEDUPE_TOL of a kept one becomes a
    ``GeneralSolution`` of that normal form, an m = n solution by its data
    (``is_mn``), and is kept only if it passes ``solutions.residual``, i.e.
    ``residual_mn``, (Gal6) included.  Raises ArithmeticError where the roots
    of a slice cannot be counted (see ``_macaulay_roots``).
    """
    if config is None:
        config = SolveConfig()
    if not a.is_even():
        raise ValueError("form must be even")
    ctx = ExactContext(G, b, a)  # raises on a degenerate bicharacter
    d = dimension_d(G.order, G.order).value
    out: list[GeneralSolution] = []
    for k in range(3):
        c = ctx.numeric(ctx.c * ctx.zeta3 ** k)
        # the three cube roots c never share a solution, so deduping within
        # one c's starts is deduping over all of them
        out += _solve_tensor(mn_normal_form(a, c), _mn_slice(ctx, k, d), None, 0, config,
                             {"solver": "solve_mn", "seed": config.seed})
    out.sort(key=lambda s: _order_key(s.btensor))
    return out


def _mn_slice(ctx: ExactContext, k: int, d: float):
    """The slice ``(x0, K)`` of the m = n normal form of the cube root
    ``ctx.c`` zeta3^k in the coordinates (Re b, Im b), or None if it is
    empty: the J-fixed b in ker(R - zeta3^k) with b(0) = -1/d, read off
    ``ctx.eig(k)``.  x0 = -f0 / d, and K is the top ``vanishing`` left
    singular vectors of the J-fixed projector columns, each less its value
    at 0 times f0: the exact dimension counts K's columns."""
    e = ctx.eig(k)
    if e["f0"] is None:  # every eigenvector vanishes at 0, and b(0) != 0
        return None
    f0 = np.array([ctx.numeric(x) for x in e["f0"]])
    P = np.array([[ctx.numeric(x) for x in e["col"](j)] for j in range(ctx.n)]).T
    a = np.array([ctx.numeric(x) for x in ctx.a])
    neg = tables(ctx.G).neg
    # J(u e_j) = conj(u a(j)) e_-j, and J commutes with P
    V = np.hstack([u * P + np.conj(u * a) * P[:, neg] for u in (1, 1j)])
    V -= np.outer(f0, V[0])
    U = np.linalg.svd(np.vstack([V.real, V.imag]))[0]
    return np.concatenate([f0.real, f0.imag]) / -d, U[:, :e["vanishing"]]


# ---------------------------------------------------------------------------
# m = 2n


def solve_m2n(G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm,
              config: SolveConfig | None = None,
              warnings: list[str] | None = None
              ) -> tuple[list[GeneralSolution], list[Feasibility]]:
    """Solve the m = 2n system on the reduced parameter spaces of the cases
    surviving the exact feasibility analysis, which it runs.  Returns
    (solutions, report); each solution's ``provenance["case"]`` is the tag
    whose solver found it.  With a ``warnings`` list, an inconclusive
    equivalence comparison of the dedupe is recorded there and its solutions
    are kept as distinct, and a tag whose slice or quadratic model fails
    (``LinAlgError`` or ``ArithmeticError``) is recorded there and skipped;
    without one, either error propagates."""
    if config is None:
        config = SolveConfig()
    ctx = ExactContext(G, b, a, 2 * G.order)
    feasibilities = all_case_feasibilities(G, b, a, ctx=ctx)
    sols: list[GeneralSolution] = []
    for feas in feasibilities:
        # Case III survivors (from |G| = 6 on; no exact test past |G| = 4)
        # have no normal form in _acj_for_case and are not searched
        if feas.feasible and feas.tag.kind in ("I", "II"):
            try:
                sols.extend(_solve_case(a, ctx, feas.tag, config))
            except (np.linalg.LinAlgError, ArithmeticError) as e:
                if warnings is None:
                    raise
                warnings.append(f"case {feas.tag}: not searched: {e}")
    reps = _dedupe(sols, warnings)
    reps.sort(key=lambda s: _order_key(s.btensor))
    return reps, feasibilities


def _acj_for_case(a: QuadraticForm, c_num, tag) -> ACJData:
    w = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    zero = (a.group.zero(),) * 2
    if tag.kind == "I":
        c_t = (complex(c_num * w[tag.omegas[0]]), complex(c_num * w[tag.omegas[1]]))
        return ACJData(form=a, bar=(0, 1), g_t=zero, c_t=c_t, eps_t=(1, 1), eps=1)
    if tag.kind == "II":
        c0 = complex(c_num * w[tag.omega])
        return ACJData(form=a, bar=(1, 0), g_t=zero, c_t=(c0, c0), eps_t=(1, -1), eps=-1)
    raise ValueError("no ACJ normal form for this tag")


def _solve_case(a, ctx, tag, config) -> list[GeneralSolution]:
    """The tensor system of a Case I or II tag in its normal form."""
    acj = _acj_for_case(a, ctx.numeric(ctx.c), tag)
    # a handful of distinct points is enough to detect the gauge orbit
    return _solve_tensor(acj, _numeric_slice(acj), config.random_starts,
                         {"I": 1, "II": 2}[tag.kind], config,
                         {"solver": "solve_m2n", "case": str(tag), "seed": config.seed}, cap=8)


# ---------------------------------------------------------------------------
# the tensor system: an exact affine slice, then a quadratic LM on it


AFFINE_EQUATIONS = ("p1", "p2", "p3", "p6", "p7", "p8", "p9", "p11")
QUADRATIC_EQUATIONS = ("p4", "p5", "bg_unitary")  # (p10) is cubic: _keep checks it
SLICE_NULL = 1e-9  # singular values below this fraction of the largest are zero
SLICE_RANK = 1e-5  # and above this one nonzero; one in between has no clear rank


def _realified(acj: ACJData, names, lift):
    """The equations ``names`` of the normal form ``acj`` as a real map: a
    stack X (S, nvar) of points goes to the rows (S, 2M) of the real and
    imaginary parts of the equations at the b-tensors lift(X), one call of
    each equation for the whole stack.  A single point x (nvar,) gives its
    one row (2M,)."""
    eqs = normal_form(acj).equations

    def resid(X):
        B = lift(X)
        batch = B.shape[:-5]
        parts = np.concatenate([eqs[k](B).reshape(batch + (-1,)) for k in names], axis=-1)
        return np.concatenate([parts.real, parts.imag], axis=-1)
    return resid


def _unpack(acj: ACJData, X):
    """The b-tensors of ``acj`` at the real coordinates (Re b, Im b) in the
    last axis of ``X``."""
    L, n = acj.L, acj.group.order
    N = L ** 4 * n
    return (X[..., :N] + 1j * X[..., N:]).reshape(X.shape[:-1] + (L, L, L, L, n))


def _numeric_slice(acj: ACJData):
    """The slice of ``acj`` in the real coordinates (Re b, Im b) of its
    b-tensor: ``_affine_slice`` of its affine equations."""
    return _affine_slice(_realified(acj, AFFINE_EQUATIONS, lambda x: _unpack(acj, x)),
                         2 * acj.L ** 4 * acj.group.order)


def _solve_tensor(acj: ACJData, affine_slice, starts: int | None, seed_offset: int,
                  config: SolveConfig, provenance: dict, cap: int | None = None) -> list:
    """Solutions of the tensor equations of the normal form ``acj`` on its
    slice ``affine_slice``: the zero set x0 + K y, y in R^k, of the affine
    equations in the coordinates (Re b, Im b), or None if it is empty.  The
    quadratic equations on it, with the model of ``_quadratic``, are solved
    by one batched LM run: from ``starts`` random points drawn with the seed
    ``config.seed + seed_offset``, or, with ``starts`` None, from every real
    root that ``_macaulay_roots`` finds, which the run only polishes.  All
    converged points are lifted to b-tensors at once and go to ``_keep``,
    which makes each b-tensor not within DEDUPE_TOL of a kept one a
    ``GeneralSolution`` of ``acj`` with ``provenance`` and verifies it.  A
    slice that is a single point (k = 0) goes to ``_keep`` as it is."""
    if affine_slice is None:
        return []
    x0, K = affine_slice
    k = K.shape[1]
    if k == 0:
        Y = np.zeros((1, 0))
    else:
        # the polarisation points are 0/+-1 vectors: Y @ K.T lifts them with
        # the bits of K @ y
        resid = _realified(acj, QUADRATIC_EQUATIONS, lambda Y: _unpack(acj, x0 + Y @ K.T))
        model, _ = _quadratic(resid, k)
        if starts is None:
            Y0, max_iter = _macaulay_roots(model), POLISH_ITER
        else:
            rng = np.random.default_rng(config.seed + seed_offset)
            scale = 1.0 / math.sqrt(acj.group.order)
            Y0, max_iter = rng.uniform(-scale, scale, size=(starts, k)), 200 * (k + 1)
        floor = NEWTON_TOL ** 2
        Y, cost, _ = _batched_lm(Y0, model, max_iter, floor)
        Y = Y[cost <= floor]
    # K @ y row by row, the bits of a single K @ y; Y @ K.T rounds differently
    return _keep(_unpack(acj, x0 + (K @ Y[:, :, None])[..., 0]), acj, provenance, config, cap)


def _affine_slice(aff, nvar: int):
    """The zero set of an affine map ``aff`` on R^nvar, from its values at 0
    and at the unit vectors, taken in one call of ``aff`` on the stack
    [0; I] (rows are points): ``(x0, K)`` for the set x0 + K y, with K's
    columns an orthonormal basis of the null space, or None if the set is
    empty.  Raises ArithmeticError if a singular value of the linear part, or
    the miss of its least-squares zero, lies between SLICE_NULL and SLICE_RANK
    times the larger of the largest singular value and |aff(0)|: no clear
    rank."""
    values = aff(np.vstack([np.zeros(nvar), np.eye(nvar)]))
    c = values[0]
    A = (values[1:] - c).T
    # zero rows pad A to at least nvar rows, so that Vt spans all of R^nvar
    padded = np.vstack([A, np.zeros((max(0, nvar - len(A)), nvar))])
    U, sv, Vt = np.linalg.svd(padded, full_matrices=False)
    top = max(sv[0], np.linalg.norm(c), np.finfo(float).tiny)
    rank = _clear_rank(sv, top, "affine slice")
    x0 = -Vt[:rank].T @ ((U[:len(A), :rank].T @ c) / sv[:rank])
    miss = np.linalg.norm(A @ x0 + c)
    if SLICE_NULL * top < miss < SLICE_RANK * top:
        raise ArithmeticError("affine slice: its least-squares zero misses by no clear gap")
    if miss >= SLICE_RANK * top:
        return None
    return x0, Vt[rank:].T


def _quadratic(resid, nvar: int):
    """The exact polynomial c + L x + Q(x, x) of a quadratic map ``resid`` on
    R^nvar, recovered by polarisation from 1 + 2 nvar + nvar (nvar - 1) / 2
    evaluations, all taken with one further point in one call of ``resid``
    on the stack [0; I; -I; e_j + e_k (j < k); x] (rows are points).  Raises
    ArithmeticError if the polynomial misses ``resid`` at the further point
    x, i.e. if ``resid`` is not quadratic.

    The values of the polynomial lie in the span of its coefficient vectors;
    the model is written in an orthonormal basis V of that span, which keeps
    ||r|| and J^T J and has at most 1 + nvar + nvar (nvar + 1) / 2 rows.
    Returns ``(model, V)``: ``model``, a ``_QuadraticModel``, holds the
    coefficients of the rows V^T r and maps a batch X (S x nvar) to them and
    their Jacobians."""
    eye = np.eye(nvar)
    j, k = np.triu_indices(nvar, 1)
    x = np.random.default_rng(0).uniform(-1.0, 1.0, nvar)
    values = resid(np.vstack([np.zeros(nvar), eye, -eye, eye[j] + eye[k], x]))
    c, want = values[0], values[-1]
    plus, minus = values[1:1 + nvar], values[1 + nvar:1 + 2 * nvar]
    L = ((plus - minus) / 2).T  # L[i, j]
    Q = np.empty((len(c), nvar, nvar))  # Q[i, j, k], symmetric in j, k
    Q[:, range(nvar), range(nvar)] = ((plus + minus) / 2 - c).T
    Q[:, j, k] = Q[:, k, j] = ((values[1 + 2 * nvar:-1] - plus[j] - plus[k] + c) / 2).T

    if np.max(np.abs(c + (L + Q @ x) @ x - want)) > 1e-12 * max(1.0, np.max(np.abs(want))):
        raise ArithmeticError("residual map is not quadratic: its polarisation "
                              "model misses it at a test point")
    upper = np.triu_indices(nvar)
    U, sv, _ = np.linalg.svd(np.column_stack([c, L, Q[:, upper[0], upper[1]]]),
                             full_matrices=False)
    V = U[:, sv > sv[0] * len(c) * np.finfo(float).eps]
    return _QuadraticModel(V.T @ c, V.T @ L, np.tensordot(V, Q, axes=(0, 0))), V


@dataclass(frozen=True, eq=False)
class _QuadraticModel:
    """The rows c + L x + Q(x, x) of ``_quadratic``: c (P,), L (P, k) and Q
    (P, k, k), symmetric in its last two axes.  Called on a batch X (S x k)
    it gives the rows (S, P) and their Jacobians (S, P, k), from one Q(x, .)
    per batch."""

    c: np.ndarray
    L: np.ndarray
    Q: np.ndarray

    def __call__(self, X):
        P, k = self.L.shape
        QX = (X @ self.Q.reshape(-1, k).T).reshape(len(X), P, k)  # Q(x, .) for each row x
        return self.c + X @ self.L.T + (QX @ X[:, :, None])[..., 0], self.L + 2 * QX


# the roots of a quadratic model by the Macaulay null-space method: Dreesen,
# Batselier & De Moor, IFAC Proc. 45(16) (2012); Telen & Van Barel,
# J. Comput. Appl. Math. 342 (2018)
MACAULAY_MAX_DEGREE = 8  # a nullity not settled at this degree raises
REAL_ROOT_TOL = 1e-6  # |Im z| over max(1, |z|) up to which a root is polished as real
POLISH_ITER = 50  # LM iterations of the polish that starts at the real roots


@cache
def _product_columns(k: int, d: int, e: int) -> np.ndarray:
    """Where products land among the monomials in k variables in graded
    order (1, x_0, ..., x_(k-1), x_0^2, x_0 x_1, ...): entry [s, t] is the
    position of the s-th monomial of degree <= d times the t-th of degree
    <= e.  The degree-2 monomials x_i x_j come in ``np.triu_indices(k)``
    order."""
    exps = [np.bincount(m, minlength=k) for deg in range(d + e + 1)
            for m in itertools.combinations_with_replacement(range(k), deg)]
    position = {x.tobytes(): i for i, x in enumerate(exps)}
    rows, cols = math.comb(k + d, d), math.comb(k + e, e)
    return np.array([[position[(x + y).tobytes()] for y in exps[:cols]]
                     for x in exps[:rows]])


def _clear_rank(sv, top: float, what: str) -> int:
    """The number of singular values ``sv`` (descending) at or above
    SLICE_RANK ``top``; raises ArithmeticError if one of the others is above
    SLICE_NULL ``top``: no clear rank."""
    rank = int(np.sum(sv >= SLICE_RANK * top))
    if np.any(sv[rank:] > SLICE_NULL * top):
        raise ArithmeticError(f"{what}: singular values show no clear rank gap")
    return rank


def _affine_gap(N, k: int, D: int):
    """``(d, r)`` for the null space N of a Macaulay matrix of degree D in k
    variables: r is the rank of N's rows of degree <= d, and d the first
    degree >= 1 at which it equals the rank at d - 1, or d = 0 when r = 0
    there (N is 0 at the monomial 1); None when the rank rises up to D.  N's
    columns are orthonormal, so each rank is taken against 1."""
    previous = None
    for d in range(D + 1):
        rows = N[:math.comb(k + d, d)]
        r = _clear_rank(np.linalg.svd(rows, compute_uv=False), 1.0, "Macaulay null space")
        if r == 0 or r == previous:
            return d, r
        previous = r
    return None


def _macaulay_roots(model: _QuadraticModel) -> np.ndarray:
    """The real roots y in R^k of the P quadratic rows of ``model``, as the
    real parts of all its affine complex roots that are real within
    REAL_ROOT_TOL: an (r, k) array, one root a row, a multiple root once per
    multiplicity.

    The Macaulay matrix of degree D stacks every row times every monomial of
    degree <= D - 2, on the monomials of degree <= D; its null space N holds
    the vector of monomials of each root.  If N is 0 the system has no
    complex root.  The roots at infinity live on N's rows of top degree
    only, so the rank of N's rows of degree <= d grows with d, stays at the
    number r of affine roots over a gap, and grows again (``_affine_gap``).
    D runs from 2 until the nullity repeats and N shows that gap.  On the
    column space of N's rows of degree <= d, the shift by a generic linear
    form h . y from the rows of degree <= d - 1 to those of degree <= d is
    an r x r eigenproblem whose eigenvectors map to the monomial vectors of
    the roots: each root is read off at x_j over 1.  The rank decisions on
    N's rows are taken against its orthonormal columns, which suits roots of
    order 1, as a solution's slice coordinates are (its b-values have
    modulus below 1): a root far out reads as one at infinity.

    Raises ArithmeticError if the nullity, with a gap, has not settled at
    MACAULAY_MAX_DEGREE (a root set of positive dimension), or if a rank
    decision has no clear gap (``_clear_rank``)."""
    P, k = model.L.shape
    i, j = np.triu_indices(k)
    # the coefficients of the terms 1, x_j, x_i x_j of each row
    coef = np.column_stack([model.c, model.L, (model.Q * (2 - np.eye(k)))[:, i, j]])
    previous = None
    for D in range(2, MACAULAY_MAX_DEGREE + 1):
        cols = _product_columns(k, D - 2, 2)
        ncol = math.comb(k + D, D)
        M = np.zeros((len(cols), P, ncol))
        M[np.arange(len(cols))[:, None], :, cols] = coef.T
        _, sv, Vt = np.linalg.svd(M.reshape(-1, ncol))
        rank = _clear_rank(sv, sv[0] if len(sv) else 0.0, "Macaulay matrix")
        if rank == ncol:  # 1 is in the row span
            return np.zeros((0, k))
        N = Vt[rank:].T  # orthonormal columns
        if ncol - rank == previous:
            gap = _affine_gap(N, k, D)
            if gap is not None:
                break
        previous = ncol - rank
    else:
        raise ArithmeticError(f"Macaulay nullity not settled at degree {MACAULAY_MAX_DEGREE}")
    d, r = gap
    if r == 0:
        return np.zeros((0, k))
    low = math.comb(k + d - 1, d - 1)  # the rows of degree <= d - 1
    Z = np.linalg.svd(N[:math.comb(k + d, d)])[0][:, :r]  # the affine part
    shifts = _product_columns(k, d - 1, 1)[:, 1:]  # x_j times each row of degree <= d - 1
    h = np.cos(np.arange(1.0, k + 1))  # a generic linear form, fixed
    shift = np.linalg.lstsq(Z[:low], h @ Z[shifts], rcond=None)[0]
    V = Z @ np.linalg.eig(shift)[1]  # monomial vectors of the roots, up to scale
    roots = (V[1:k + 1] / V[0]).T
    real = np.abs(roots.imag).max(1) <= REAL_ROOT_TOL * np.maximum(1.0, np.abs(roots).max(1))
    return roots[real].real


# ---------------------------------------------------------------------------
# classification


def _equiv_or_warn(s, other, warnings: list | None) -> bool:
    """``equivalent``, with an inconclusive comparison recorded in
    ``warnings`` and counted as not equivalent; without a list it raises."""
    try:
        return equivalent(s, other)
    except ArithmeticError as e:
        if warnings is None:
            raise
        warnings.append(str(e))
        return False


def _dedupe(sols: list, warnings: list | None) -> list:
    """One representative, the first in order, of each class of ``sols`` up to
    Aut x gauge; each pair of solutions is compared at most once."""
    reps: list = []
    for s in sols:
        if not any(_equiv_or_warn(s, r, warnings) for r in reps):
            reps.append(s)
    return reps


def classify(G: FiniteAbelianGroup, m: int,
             config: SolveConfig | None = None) -> ClassificationResult:
    """Enumerate solution classes for (G, m) with irrational d.

    Counting convention (recorded with the result): classes are always
    deduplicated up to Aut(G) x gauge; for m = n complex-conjugate inputs are
    additionally folded (the worked m = n examples count an E6-type conjugate
    pair once), while for m > n counts are absolute (the Z3, m = 6 theorem
    counts its conjugate pair as two categories).

    A pair whose solver fails (``LinAlgError`` or ``ArithmeticError``: an
    m = n slice whose roots cannot be counted, an m = 2n tag whose slice
    fails) is recorded in the provenance's ``warnings`` and skipped, and
    the row is then HEURISTIC.
    """
    if config is None:
        config = SolveConfig()
    n = G.order
    if m <= 0 or m % n != 0:
        raise ValueError("m must be a positive multiple of |G|")
    d = dimension_d(n, m)
    if d.is_rational:
        raise ValueError(
            "d is rational; this regime is out of the classification pipeline "
            "(see fusion.dimension_diagnosis)")
    fold = (m == n)
    completeness = ("COMPLETE" if (m == n and n <= 5) or (m == 2 * n and n <= 4)
                    else "HEURISTIC")
    pairs = pair_classes(G)
    found: list = []  # (solution, case tag, galois orbit)
    all_feas: list[Feasibility] = []
    warnings: list[str] = []
    for i, (b, a, orbit) in enumerate(pairs):
        feas: list[Feasibility] = []
        if m == n:
            try:
                sols = solve_mn(G, b, a, config)
            except (np.linalg.LinAlgError, ArithmeticError) as e:
                warnings.append(f"pair {i}: not searched: {e}")
                sols = []
            sols = _dedupe(sols, warnings)
        elif m == 2 * n:
            sols, feas = solve_m2n(G, b, a, config, warnings=warnings)
        else:
            # no structured solver beyond m = 2n in the source theory; run
            # the generic fallback, declared HEURISTIC
            sols = _dedupe(heuristic_search(G, b, a, m, config), warnings)
        all_feas.extend(feas)
        tags = {str(f.tag): f.tag for f in feas}
        # pair_classes gives one pair per Aut-orbit, and Aut x gauge moves no
        # solution to another pair: solutions of two pairs are never compared
        found += [(s, tags.get(s.provenance.get("case")), orbit) for s in sols]
    if warnings:
        # a class count that rests on an inconclusive comparison is not certain
        completeness = "HEURISTIC"
    classes = [SolutionClass(s, tag, residual(s, config.residual_tol), fingerprint(s),
                             completeness, galois_orbit=orbit)
               for s, tag, orbit in found]
    certified_empty = (m == 2 * n and not classes
                       and all(not f.feasible for f in all_feas))
    return ClassificationResult(
        group=G, m=m, classes=classes,
        refutations=[f for f in all_feas if not f.feasible],
        certified_empty=certified_empty, completeness=completeness,
        provenance={"seed": config.seed,
                    "random_starts": config.random_starts,
                    "pairs_examined": len(pairs),
                    "conjugate_folded": fold,
                    "warnings": warnings},
        conjugate_folded=fold,
    )


def heuristic_search(G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm,
                     m: int, config: SolveConfig | None = None
                     ) -> list[GeneralSolution]:
    """Fallback for m > 2n: the tensor system of the simplest normal-form
    guess (all characters trivial, a common cube-root scalar, all signs +1),
    from HEURISTIC_STARTS random starts.  HEURISTIC: finding
    nothing certifies nothing."""
    if config is None:
        config = SolveConfig()
    n = G.order
    L = m // n
    if m % n != 0 or L < 1:
        raise ValueError("m must be a positive multiple of |G|")
    ctx = ExactContext(G, b, a)
    c0 = ctx.numeric(ctx.c)
    acj = ACJData(form=a, bar=tuple(range(L)), g_t=(G.zero(),) * L, c_t=(c0,) * L,
                  eps_t=(1,) * L, eps=1)
    return _solve_tensor(acj, _numeric_slice(acj), HEURISTIC_STARTS, 3, config, {
        "solver": "heuristic_search", "completeness": "HEURISTIC", "seed": config.seed})
