"""Solution enumeration: one tensor-system solver for every m, and the
classification orchestrator.

Every system is the tensor system of a normal form: the L = 1 form of each
cube root c for m = n (``solve_mn``), a Case I or II tag for m = 2n
(``solve_m2n``), the simplest guess for m > 2n (``heuristic_search``).
``_solve_tensor`` solves it: the affine equations cut out an exact slice
x0 + K y (``_affine_slice``), on which the quadratic ones are fitted once
(``_quadratic``) and solved from all starts at once by
``solutions._batched_lm``: the one Levenberg-Marquardt loop of the package,
which the gauge refine shares.  The fit is its model: one call per batch of
points gives the residual rows and their exact Jacobians together.  The
converged points go through one keep step, ``_keep``: dedupe of their
b-tensors, then ``solutions.residual`` on every candidate lifted to a
solution.  ``classify`` then keeps one solution per class up to Aut x gauge
within each (bicharacter, form) pair (``_dedupe``).

Completeness discipline.  A solver result is labeled COMPLETE only where the
reduction lemmas shrink the system to a parameter space the code exhausts:
m = n for |G| <= 5 (the Galois-form linear constraints, which are the affine
slice of (p1)-(p3) and (p7) at L = 1, plus dense multistart) and m = 2n for
|G| <= 4 (the exact case analysis).  Everything else is labeled HEURISTIC:
numerical search cannot certify emptiness, and the m = 2n zero-counts instead
carry the exact refutation certificates from :mod:`neargroup.cases`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401 -- lazy in numpy; load it with the package, not in a solve

from .abelian import (
    Bicharacter,
    FiniteAbelianGroup,
    QuadraticForm,
    automorphisms,
    enumerate_bicharacters,
    enumerate_quadratic_forms,
)
from .cases import CaseTag, ExactContext, Feasibility, all_case_feasibilities
from .solutions import (
    ACJData,
    GeneralSolution,
    MNSolution,
    _batched_lm,
    dimension_d,
    equivalent,
    fingerprint,
    mn_normal_form,
    residual,
    tensor_equations,
)
from .spectral import cube_root_scalars

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
    solution: MNSolution | GeneralSolution
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
        inconclusive = len(self.provenance.get("warnings", []))
        if inconclusive:
            lines.append(f"  {inconclusive} inconclusive equivalence comparison(s),"
                         " counted as distinct classes")
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


def _pair_key(b: Bicharacter, a: QuadraticForm):
    return (b.gram_exponents(), tuple(p.exponent for p in a.values))


def _galois_image(b: Bicharacter, a: QuadraticForm, k: int):
    """The cyclotomic substitution zeta -> zeta^k applied to all phases."""
    from .abelian import Phase

    gram = tuple(tuple(Phase.from_fraction(k * p.exponent) for p in row)
                 for row in b.gram)
    bb = Bicharacter(b.group, gram)
    vals = tuple(Phase.from_fraction(k * p.exponent) for p in a.values)
    return bb, QuadraticForm(bb, vals)


def pair_classes(G: FiniteAbelianGroup):
    """Representatives of (bicharacter, even form) pairs up to Aut(G),
    annotated with an orbit id under the coarser Aut + cyclotomic-Galois
    action (conjugation is the Galois substitution k = -1).

    The Galois group acts on Aut-orbits, so the images of one representative
    meet every representative of its orbit: the orbit is numbered by its
    least representative, in order of first appearance.

    Returns a list of (bicharacter, form, galois_orbit_id).
    """
    auts = automorphisms(G)
    rep_of: dict = {}  # pull-back key -> index of its representative
    reps = []
    for b in enumerate_bicharacters(G, nondegenerate_only=True):
        for a in enumerate_quadratic_forms(b):
            if a.is_even() and _pair_key(b, a) not in rep_of:
                for th in auts:
                    rep_of.setdefault(_pair_key(b.pullback(th), a.pullback(th)), len(reps))
                reps.append((b, a))
    lcm_den = math.lcm(*(p.den for b, a in reps
                         for p in itertools.chain(*b.gram, a.values)))
    ids: dict = {}  # least representative index of an orbit -> orbit id
    out = []
    for b, a in reps:
        least = min(rep_of[_pair_key(*_galois_image(b, a, k))]
                    for k in range(1, lcm_den + 1) if math.gcd(k, lcm_den) == 1)
        out.append((b, a, ids.setdefault(least, len(ids))))
    return out


# ---------------------------------------------------------------------------
# the multistart drivers


def _keep(tensors, lift, config: SolveConfig, cap: int | None = None) -> list:
    """Drop each b-tensor, in order, that lies within DEDUPE_TOL of one already
    kept; lift the others to solutions and keep those that pass
    ``solutions.residual``.  Stops once ``cap`` solutions are kept, so a lazy
    ``tensors`` is consumed no further."""
    kept: list = []
    found: list = []
    for bt in tensors:
        if any(np.max(np.abs(bt - k)) < DEDUPE_TOL for k in kept):
            continue
        s = lift(bt)
        if not residual(s, config.residual_tol).passed:
            continue
        kept.append(bt)
        found.append(s)
        if cap is not None and len(found) >= cap:
            break
    return found


# ---------------------------------------------------------------------------
# m = n


def solve_mn(G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm,
             config: SolveConfig | None = None) -> list[MNSolution]:
    """All solutions of the m = n system for a fixed (bicharacter, form).

    The m = n system is the L = 1 case of the tensor normal form (see
    ``solutions.mn_to_general``), one for each of the three cube roots c of
    ``spectral.cube_root_scalars``.  ``_solve_tensor`` solves each: the affine
    (p1)-(p3) and (p7), i.e. (Gal3), (Gal4) and (Gal7), cut out an exact
    slice, on which the quadratic (p4), (p5) and ``bg_unitary``, i.e. (Gal5),
    are solved by one batched Levenberg-Marquardt run from
    ``config.random_starts`` seeded starts.
    Every candidate is lifted to an ``MNSolution`` and kept only if it passes
    ``solutions.residual``, i.e. ``residual_mn``, (Gal6) included.
    """
    if config is None:
        config = SolveConfig()
    if not b.is_nondegenerate():
        raise ValueError("bicharacter must be nondegenerate")
    if not a.is_even():
        raise ValueError("form must be even")
    out: list[MNSolution] = []
    for c in cube_root_scalars(a):

        def lift(bt) -> MNSolution:
            return MNSolution(G, b, a, bt.ravel(), complex(c),
                              provenance={"solver": "solve_mn", "seed": config.seed})

        # the three cube roots c never share a solution, so deduping within
        # one c's starts is deduping over all of them
        out += _solve_tensor(mn_normal_form(b, a, c), config.random_starts, 0, config, lift)
    return out


# ---------------------------------------------------------------------------
# m = 2n


def solve_m2n(G: FiniteAbelianGroup, b: Bicharacter, a: QuadraticForm,
              config: SolveConfig | None = None,
              feasibilities: list[Feasibility] | None = None,
              warnings: list[str] | None = None
              ) -> tuple[list[GeneralSolution], list[Feasibility]]:
    """Solve the m = 2n system on the reduced parameter spaces of the cases
    surviving the exact feasibility analysis.  Returns (solutions, report);
    each solution's ``provenance["case"]`` is the tag whose solver found it.
    Inconclusive equivalence comparisons of the dedupe are appended to
    ``warnings``; their solutions are kept as distinct."""
    if config is None:
        config = SolveConfig()
    ctx = ExactContext(G, b, a)
    if feasibilities is None:
        feasibilities = all_case_feasibilities(G, b, a, ctx=ctx)
    sols: list[GeneralSolution] = []
    for feas in feasibilities:
        # Case III survivors (from |G| = 6 on; no exact test past |G| = 4)
        # have no normal form in _acj_for_case and are not searched
        if feas.feasible and feas.tag.kind in ("I", "II"):
            sols.extend(_solve_case(G, b, a, ctx, feas.tag, config))
    reps = _dedupe(sols, [] if warnings is None else warnings)
    reps.sort(key=lambda s: tuple(np.round(s.btensor.ravel().view(float), 6)))
    return reps, feasibilities


def _acj_for_case(G, b, a, c_num, tag) -> ACJData:
    w = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    if tag.kind == "I":
        c_t = (complex(c_num * w[tag.omegas[0]]), complex(c_num * w[tag.omegas[1]]))
        return ACJData(bichar=b, form=a, bar=(0, 1), g_t=(G.zero(), G.zero()),
                       c_t=c_t, eps_t=(1, 1), eps=1)
    if tag.kind == "II":
        c0 = complex(c_num * w[tag.omega])
        return ACJData(bichar=b, form=a, bar=(1, 0), g_t=(G.zero(), G.zero()),
                       c_t=(c0, c0), eps_t=(1, -1), eps=-1)
    raise ValueError("no ACJ normal form for this tag")


def _solve_case(G, b, a, ctx, tag, config) -> list[GeneralSolution]:
    """The tensor system of a Case I or II tag in its normal form."""
    acj = _acj_for_case(G, b, a, ctx.numeric(ctx.c), tag)

    def lift(bt) -> GeneralSolution:
        return GeneralSolution(G, acj, bt, provenance={
            "solver": "solve_m2n", "case": str(tag), "seed": config.seed})

    # a handful of distinct points is enough to detect the gauge orbit
    return _solve_tensor(acj, config.random_starts, {"I": 1, "II": 2}[tag.kind],
                         config, lift, cap=8)


# ---------------------------------------------------------------------------
# the tensor system: an exact affine slice, then a quadratic LM on it


AFFINE_EQUATIONS = ("p1", "p2", "p3", "p6", "p7", "p8", "p9", "p11")
QUADRATIC_EQUATIONS = ("p4", "p5", "bg_unitary")  # (p10) is cubic: _keep checks it
SLICE_NULL = 1e-9  # singular values below this fraction of the largest are zero
SLICE_RANK = 1e-5  # and above this one nonzero; one in between has no clear rank


def _tensor_system(acj: ACJData):
    """The tensor equations of the normal form ``acj`` on the exact slice cut
    out by its affine ones: ``(k, resid, btensor)``, or None if the slice is
    empty.

    The affine equations are affine in (Re b, Im b); their zero set is
    x0 + K y, y in R^k.  ``resid`` maps y to the real and imaginary parts of
    the quadratic equations, and ``btensor`` lifts y to the b-tensor."""
    G, L = acj.group, acj.L
    n = G.order
    eqs = tensor_equations(acj, dimension_d(n, L * n).value)
    N = L ** 4 * n

    def realified(names, lift):
        def resid(x):
            parts = np.concatenate([eqs[k](lift(x)).ravel() for k in names])
            return np.concatenate([parts.real, parts.imag])
        return resid

    def unpack(x):
        return (x[:N] + 1j * x[N:]).reshape(L, L, L, L, n)

    affine_slice = _affine_slice(realified(AFFINE_EQUATIONS, unpack), 2 * N)
    if affine_slice is None:
        return None
    x0, K = affine_slice

    def btensor(y):
        return unpack(x0 + K @ y)

    return K.shape[1], realified(QUADRATIC_EQUATIONS, btensor), btensor


def _solve_tensor(acj: ACJData, starts: int, seed_offset: int, config: SolveConfig,
                  lift, cap: int | None = None) -> list:
    """Solutions of the tensor equations of the normal form ``acj``: one
    batched LM run on ``_tensor_system``'s slice, with the model of
    ``_quadratic``, from ``starts`` random points drawn with the seed
    ``config.seed + seed_offset``; ``lift`` maps the b-tensor of each
    converged point to the solution object that ``_keep`` verifies.  A slice
    that is a single point (k = 0) goes to ``_keep`` as it is."""
    system = _tensor_system(acj)
    if system is None:
        return []
    k, resid, btensor = system
    if k == 0:
        Y = np.zeros((1, 0))
    else:
        model, _ = _quadratic(resid, k)
        rng = np.random.default_rng(config.seed + seed_offset)
        scale = 1.0 / math.sqrt(acj.group.order)
        floor = NEWTON_TOL ** 2
        Y, cost, _ = _batched_lm(rng.uniform(-scale, scale, size=(starts, k)), model,
                                 200 * (k + 1), floor)
        Y = Y[cost <= floor]
    return _keep((btensor(y) for y in Y), lift, config, cap)


def _affine_slice(aff, nvar: int):
    """The zero set of an affine map ``aff`` on R^nvar, from its values at 0
    and at the unit vectors: ``(x0, K)`` for the set x0 + K y, with K's
    columns an orthonormal basis of the null space, or None if the set is
    empty.  Raises ArithmeticError if a singular value of the linear part, or
    the miss of its least-squares zero, lies between SLICE_NULL and SLICE_RANK
    times the larger of the largest singular value and |aff(0)|: no clear
    rank."""
    c = aff(np.zeros(nvar))
    A = np.array([aff(e) - c for e in np.eye(nvar)]).T
    # zero rows pad A to at least nvar rows, so that Vt spans all of R^nvar
    padded = np.vstack([A, np.zeros((max(0, nvar - len(A)), nvar))])
    U, sv, Vt = np.linalg.svd(padded, full_matrices=False)
    top = max(sv[0], np.linalg.norm(c), np.finfo(float).tiny)
    rank = int(np.sum(sv >= SLICE_RANK * top))
    x0 = -Vt[:rank].T @ ((U[:len(A), :rank].T @ c) / sv[:rank])
    miss = np.linalg.norm(A @ x0 + c)
    if np.any(sv[rank:] > SLICE_NULL * top) or SLICE_NULL * top < miss < SLICE_RANK * top:
        raise ArithmeticError("affine slice: singular values show no clear rank gap")
    if miss >= SLICE_RANK * top:
        return None
    return x0, Vt[rank:].T


def _quadratic(resid, nvar: int):
    """The exact polynomial c + L x + Q(x, x) of a quadratic map ``resid`` on
    R^nvar, recovered by polarisation from 1 + 2 nvar + nvar (nvar - 1) / 2
    evaluations.  Raises ArithmeticError if the polynomial misses ``resid``
    at a further point, i.e. if ``resid`` is not quadratic.

    The values of the polynomial lie in the span of its coefficient vectors;
    the model is written in an orthonormal basis V of that span, which keeps
    ||r|| and J^T J and has at most 1 + nvar + nvar (nvar + 1) / 2 rows.
    Returns ``(model, V)``: ``model`` maps a batch X (S x nvar) to the rows
    V^T r (S, P) and their Jacobians (S, P, nvar), from one Q(x, .) per
    batch."""
    eye = np.eye(nvar)
    c = resid(np.zeros(nvar))
    plus = np.array([resid(e) for e in eye]).reshape(nvar, len(c))
    minus = np.array([resid(-e) for e in eye]).reshape(nvar, len(c))
    L = ((plus - minus) / 2).T  # L[i, j]
    Q = np.empty((len(c), nvar, nvar))  # Q[i, j, k], symmetric in j, k
    Q[:, range(nvar), range(nvar)] = ((plus + minus) / 2 - c).T
    for j, k in itertools.combinations(range(nvar), 2):
        Q[:, j, k] = Q[:, k, j] = (resid(eye[j] + eye[k]) - plus[j] - plus[k] + c) / 2

    x = np.random.default_rng(0).uniform(-1.0, 1.0, nvar)
    want = resid(x)
    if np.max(np.abs(c + (L + Q @ x) @ x - want)) > 1e-12 * max(1.0, np.max(np.abs(want))):
        raise ArithmeticError("residual map is not quadratic: its polarisation "
                              "model misses it at a test point")
    upper = np.triu_indices(nvar)
    U, sv, _ = np.linalg.svd(np.column_stack([c, L, Q[:, upper[0], upper[1]]]),
                             full_matrices=False)
    V = U[:, sv > sv[0] * len(c) * np.finfo(float).eps]
    c, L = V.T @ c, V.T @ L
    Q = np.tensordot(V, Q, axes=(0, 0)).reshape(-1, nvar)  # rows (p, j), columns k

    def model(X):
        QX = (X @ Q.T).reshape(len(X), -1, nvar)  # Q(x, .) for each row x of X
        return c + X @ L.T + (QX @ X[:, :, None])[..., 0], L + 2 * QX

    return model, V


# ---------------------------------------------------------------------------
# classification


def _equiv_or_warn(s, other, warnings: list) -> bool:
    """``equivalent``, with an inconclusive comparison recorded in
    ``warnings`` and counted as not equivalent."""
    try:
        return equivalent(s, other)
    except ArithmeticError as e:
        warnings.append(str(e))
        return False


def _dedupe(sols: list, warnings: list) -> list:
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
    for b, a, orbit in pairs:
        feas: list[Feasibility] = []
        if m == n:
            sols = _dedupe(solve_mn(G, b, a, config), warnings)
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
    c0 = complex(cube_root_scalars(a)[0])
    acj = ACJData(bichar=b, form=a, bar=tuple(range(L)),
                  g_t=tuple(G.zero() for _ in range(L)),
                  c_t=tuple(c0 for _ in range(L)),
                  eps_t=tuple(1 for _ in range(L)), eps=1)

    def lift(bt) -> GeneralSolution:
        return GeneralSolution(G, acj, bt, provenance={
            "solver": "heuristic_search", "completeness": "HEURISTIC", "seed": config.seed})

    return _solve_tensor(acj, HEURISTIC_STARTS, 3, config, lift)
