import math

import numpy as np
import pytest

from neargroup import solvers
from neargroup.abelian import (
    FiniteAbelianGroup,
    Phase,
    enumerate_bicharacters,
    even_quadratic_forms,
)
from neargroup.cases import CaseTag
from neargroup.corpus import (
    corpus_mn,
    z2_m2,
    z2z2_gram2,
    z2z2_m4,
    z3_m6,
    z4_m4,
)
from neargroup.solutions import equivalent
from neargroup.solvers import SolveConfig, classify, pair_classes, solve_m2n, solve_mn

FAST = SolveConfig(random_starts=40)


def _pair(n, k=1, which=0):
    G = FiniteAbelianGroup((n,))
    b = [x for x in enumerate_bicharacters(G, True) if x.gram[0][0] == Phase(k, n)][0]
    return G, b, even_quadratic_forms(b)[which]


def test_solve_mn_z2_unique():
    G, b, a = _pair(2)
    a = [f for f in even_quadratic_forms(b) if f.phase((1,)) == Phase(1, 4)][0]
    sols = solve_mn(G, b, a, FAST)
    assert len(sols) == 1
    assert abs(sols[0].btensor[0, 0, 0, 0, 1] - (1 - 1j) / 2) < 1e-9
    assert abs(sols[0].d - (1 + math.sqrt(3))) < 1e-12
    assert equivalent(sols[0], z2_m2())


def test_solve_mn_z4_unique_class():
    G = FiniteAbelianGroup((4,))
    b = [x for x in enumerate_bicharacters(G, True) if x.gram[0][0] == Phase(1, 4)][0]
    good = [f for f in even_quadratic_forms(b) if f.phase((1,)) == Phase(7, 8)][0]
    sols = solve_mn(G, b, good, FAST)
    assert sols and all(equivalent(s, z4_m4()) for s in sols)
    assert abs(sols[0].d - (2 + 2 * math.sqrt(2))) < 1e-12
    other = [f for f in even_quadratic_forms(b) if f.phase((1,)) == Phase(3, 8)][0]
    assert solve_mn(G, b, other, FAST) == []


def test_solve_mn_z2z2_second_bicharacter_empty():
    G = FiniteAbelianGroup((2, 2))
    b2 = z2z2_gram2()
    for a in even_quadratic_forms(b2):
        assert solve_mn(G, b2, a, FAST) == []


@pytest.mark.parametrize("factors,k", [((3,), 1), ((4,), 1), ((2, 2), 1), ((6,), 2)])
def test_mn_tensor_form_exact_model(factors, k):
    """For one cube root c, the L = 1 normal form of the first pair has a
    k-dimensional affine slice.  Each b lifted from it meets the linear
    Galois-form equations; the polarisation model is batched row by row, and
    its Jacobian, rotated back, is the derivative of the quadratic residual
    (central differences)."""
    from neargroup.solutions import MNSolution, mn_normal_form, residual_mn
    from neargroup.solvers import (
        QUADRATIC_EQUATIONS,
        _numeric_slice,
        _quadratic,
        _realified,
        _unpack,
    )
    from neargroup.spectral import cube_root_scalars

    G = FiniteAbelianGroup(factors)
    b, a, _ = pair_classes(G)[0]
    acjs = [(c, mn_normal_form(a, c)) for c in cube_root_scalars(a)]
    slices = [(c, acj, _numeric_slice(acj)) for c, acj in acjs]
    c, acj, (x0, K) = next(s for s in slices if s[2] is not None and s[2][1].shape[1] == k)

    def btensor(Y):
        return _unpack(acj, x0 + Y @ K.T)

    resid = _realified(acj, QUADRATIC_EQUATIONS, btensor)
    model, V = _quadratic(resid, k)
    Y = np.random.default_rng(7).uniform(-1.0, 1.0, size=(5, k))
    F, J = model(Y)
    assert F.shape == (5, V.shape[1]) and J.shape == F.shape + (k,)
    h = 1e-6
    for y, f, j in zip(Y, F, J):
        rep = residual_mn(MNSolution(G, b, a, btensor(y).ravel(), c))
        assert max(rep.per_equation[e] for e in ("gal3", "gal4", "gal7", "mn1", "mn4")) < 1e-12
        assert np.max(np.abs(model(y[None])[0][0] - f)) < 1e-14
        fd = ((resid(y + h * np.eye(k)) - resid(y - h * np.eye(k))) / (2 * h)).T
        assert np.max(np.abs(V @ j - fd)) < 1e-6


def test_solve_tensor_point_slice():
    """A slice that is a single point (k = 0) goes straight to the keep step:
    on Z2/2 two cube roots give a point slice, one of which is the solution."""
    from neargroup.solutions import mn_normal_form
    from neargroup.solvers import _numeric_slice, _solve_tensor
    from neargroup.spectral import cube_root_scalars

    G, b, _ = _pair(2)
    a = [f for f in even_quadratic_forms(b) if f.phase((1,)) == Phase(1, 4)][0]
    found, points = [], 0
    for c in cube_root_scalars(a):
        acj = mn_normal_form(a, c)
        affine_slice = _numeric_slice(acj)
        if affine_slice is None:
            continue
        assert affine_slice[1].shape[1] == 0
        points += 1
        found += _solve_tensor(acj, affine_slice, 40, 0, FAST, {})
    assert points == 2
    assert len(found) == 1 and abs(found[0].btensor[0, 0, 0, 0, 1] - (1 - 1j) / 2) < 1e-9


def test_keep_lifts_in_order_and_masks_near_duplicates(monkeypatch):
    """The keep step walks its stack in order and residual-checks only the
    b-tensors not within DEDUPE_TOL of a kept one: a candidate that fails the
    residual system masks nothing, a near copy or a repeat of a kept one is
    never checked, and ``cap`` stops the walk.  Each kept solution is the
    ``GeneralSolution`` of the given normal form and provenance."""
    from neargroup import solutions
    from neargroup.solvers import DEDUPE_TOL, _keep

    s = z2_m2()
    checked = []
    residual_mn = solutions.residual_mn

    def counted(t, tolerance):
        checked.append(t.btensor)
        return residual_mn(t, tolerance)

    monkeypatch.setattr(solutions, "residual_mn", counted)
    b = s.btensor
    prov = {"solver": "test"}
    assert _keep(np.zeros((0, 1, 1, 1, 1, 2), dtype=complex), s.acj, prov, FAST) == []
    stack = np.array([b + 5e-8, b, b + DEDUPE_TOL / 10, b + 1e-3, b])
    kept = _keep(stack, s.acj, prov, FAST)
    assert len(kept) == 1 and np.array_equal(kept[0].btensor, b)
    assert kept[0].acj == s.acj and kept[0].is_mn and kept[0].provenance == prov
    assert kept[0].provenance is not prov
    assert len(checked) == 3
    assert all(np.array_equal(x, y) for x, y in zip(checked, stack[[0, 1, 3]]))
    checked.clear()
    assert len(_keep(np.array([b, b + 1e-3]), s.acj, prov, FAST, cap=1)) == 1
    assert len(checked) == 1


def test_solve_mn_default_config_pair_counts():
    """At the default configuration (every root of each cube root's slice
    system, from ``_macaulay_roots``) every (bicharacter, form) pair of the
    COMPLETE m = n groups, and of the groups of orders 6 to 9, gives its
    known number of solutions, each passing the residual system at 1e-10."""
    from neargroup.solutions import residual_mn

    want = {(2,): [1, 1], (3,): [2, 2], (4,): [0, 2, 2, 0], (5,): [1, 4],
            (2, 2): [0, 0, 1, 0, 0], (6,): [2, 2, 2, 2], (7,): [2, 2],
            (8,): [2, 2, 2, 2], (2, 4): [0, 0, 2, 2], (3, 3): [4, 0]}
    for factors, counts in want.items():
        G = FiniteAbelianGroup(factors)
        sols = [solve_mn(G, b, a, SolveConfig()) for b, a, _ in pair_classes(G)]
        assert [len(s) for s in sols] == counts, factors
        assert all(residual_mn(s, 1e-10).passed for ss in sols for s in ss)


def test_solve_mn_order_is_seed_independent():
    """``solve_mn`` returns its solutions in one canonical order: two seeds
    give the same list on every pair of Z3, Z4 and Z5 with two or more
    solutions, so ``classify`` keeps the same member of each class."""
    pairs = 0
    for factors in [(3,), (4,), (5,)]:
        G = FiniteAbelianGroup(factors)
        for b, a, _ in pair_classes(G):
            one, two = (solve_mn(G, b, a, SolveConfig(seed=seed)) for seed in (1, 2))
            if len(one) < 2:
                continue
            pairs += 1
            assert len(one) == len(two), factors
            assert all(abs(s.acj.c_t[0] - t.acj.c_t[0]) < 1e-9
                       and np.max(np.abs(s.btensor - t.btensor)) < 1e-9
                       for s, t in zip(one, two)), factors
    assert pairs == 5


def test_solve_m2n_z3_family():
    G, b, a = _pair(3)
    sols, feas = solve_m2n(G, b, a, SolveConfig(random_starts=10))
    assert len(sols) == 1
    assert equivalent(sols[0], z3_m6())
    surviving = [f for f in feas if f.feasible]
    assert len(surviving) == 1


def test_solve_m2n_z2_empty_certified():
    G, b, a = _pair(2)
    sols, feas = solve_m2n(G, b, a, SolveConfig(random_starts=5))
    assert sols == []
    assert all(not f.feasible for f in feas)


def test_pair_classes_galois_orbits():
    # Z5: the two Aut-orbits of pairs lie in one Galois orbit
    G = FiniteAbelianGroup((5,))
    pairs = pair_classes(G)
    assert len(pairs) == 2
    assert len({orbit for _, _, orbit in pairs}) == 1
    # Z3: the two bicharacters are Galois partners as well
    pairs3 = pair_classes(FiniteAbelianGroup((3,)))
    assert len(pairs3) == 2
    assert len({orbit for _, _, orbit in pairs3}) == 1
    # (Aut-orbits of pairs, Galois orbits); ids number orbits as they appear
    for factors, npairs, norbits in [((2, 2), 5, 4), ((2, 4), 4, 2),
                                     ((2, 2, 2), 4, 2), ((3, 3), 2, 2)]:
        orbits = [orbit for _, _, orbit in pair_classes(FiniteAbelianGroup(factors))]
        assert len(orbits) == npairs, factors
        assert list(dict.fromkeys(orbits)) == list(range(norbits)), factors


def test_classify_counts_mn():
    for factors, m in [((2,), 2), ((3,), 3), ((2, 2), 4)]:
        res = classify(FiniteAbelianGroup(factors), m, FAST)
        assert res.num_classes == 1, (factors, res.summary())
        assert res.completeness == "COMPLETE"


def _inconclusive_equivalent(monkeypatch) -> list:
    """Make every comparison of ``classify`` inconclusive; returns the list
    that records each call's two solutions."""
    import neargroup.solvers as solvers

    calls = []

    def inconclusive(s1, s2):
        calls.append((s1, s2))
        raise ArithmeticError("equivalence search inconclusive")

    monkeypatch.setattr(solvers, "equivalent", inconclusive)
    return calls


def test_classify_inconclusive_dedupe_is_heuristic(monkeypatch):
    """Z3/3 has two pairs with two solutions each: one comparison per pair,
    each inconclusive, recorded once and counted as distinct; the row and
    every one of its classes are HEURISTIC."""
    calls = _inconclusive_equivalent(monkeypatch)
    res = classify(FiniteAbelianGroup((3,)), 3, FAST)
    assert len(calls) == 2
    assert all(s1.acj.bichar == s2.acj.bichar and s1.acj.form == s2.acj.form
               for s1, s2 in calls)
    assert res.num_classes_absolute == 4
    assert res.completeness == "HEURISTIC"
    assert [c.completeness for c in res.classes] == ["HEURISTIC"] * 4
    assert "2 inconclusive equivalence comparison(s)" in res.summary()


def test_classify_records_each_comparison_once(monkeypatch):
    """With every comparison inconclusive, classify(Z3, 6) compares no two
    solutions twice and none of two different pairs, and records one warning
    per comparison."""
    calls = _inconclusive_equivalent(monkeypatch)
    res = classify(FiniteAbelianGroup((3,)), 6, SolveConfig(random_starts=16))
    assert calls
    assert len({frozenset((id(s1), id(s2))) for s1, s2 in calls}) == len(calls)
    assert all(s1.acj.bichar == s2.acj.bichar and s1.acj.form == s2.acj.form
               for s1, s2 in calls)
    assert len(res.provenance["warnings"]) == len(calls)


def test_inconclusive_comparison_without_warnings_propagates(monkeypatch):
    """With every comparison inconclusive, solve_m2n on Z3/6's first pair
    records each one in its warnings list and keeps the solutions distinct;
    with no list the error propagates."""
    calls = _inconclusive_equivalent(monkeypatch)
    G = FiniteAbelianGroup((3,))
    b, a, _ = pair_classes(G)[0]
    config = SolveConfig(random_starts=16)
    warnings = []
    sols, _ = solve_m2n(G, b, a, config, warnings=warnings)
    assert len(sols) > 1
    assert warnings and len(warnings) == len(calls)
    with pytest.raises(ArithmeticError, match="inconclusive"):
        solve_m2n(G, b, a, config)


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("SVD did not converge"),
                                   ArithmeticError("no clear rank")])
def test_failed_slice_skips_its_tag(monkeypatch, error):
    """On Z3/6, a slice that fails skips its tag with a warning naming it, and
    the row is HEURISTIC and not certified empty; with no warnings list the
    error propagates."""
    def fail(aff, nvar):
        raise error

    monkeypatch.setattr(solvers, "_affine_slice", fail)
    G = FiniteAbelianGroup((3,))
    searched = []
    for b, a, _ in pair_classes(G):
        warnings = []
        sols, feas = solve_m2n(G, b, a, FAST, warnings=warnings)
        tags = [str(f.tag) for f in feas if f.feasible and f.tag.kind in ("I", "II")]
        assert sols == []
        assert warnings == [f"case {tag}: not searched: {error}" for tag in tags]
        if tags:
            with pytest.raises(type(error)):
                solve_m2n(G, b, a, FAST)
        searched += tags
    assert searched
    res = classify(G, 6, FAST)
    assert res.num_classes_absolute == 0
    assert res.completeness == "HEURISTIC"
    assert not res.certified_empty
    assert len(res.provenance["warnings"]) == len(searched)
    summary = res.summary()
    assert "inconclusive" not in summary and "NOT certified" in summary
    assert all(f"case {tag}: not searched" in summary for tag in searched)


def test_classify_z2z2_m4_matches_bundled():
    res = classify(FiniteAbelianGroup((2, 2)), 4, FAST)
    assert res.num_classes == 1
    assert equivalent(res.classes[0].solution, z2z2_m4())


def test_classify_rejects_bad_m():
    with pytest.raises(ValueError):
        classify(FiniteAbelianGroup((2,)), 3, FAST)  # not a multiple of |G|
    with pytest.raises(ValueError):
        classify(FiniteAbelianGroup((3,)), 0, FAST)


def test_classify_dedup_idempotence():
    """Different seeds give equal class counts with pairwise-equivalent reps."""
    G = FiniteAbelianGroup((3,))
    r1 = classify(G, 3, SolveConfig(seed=1, random_starts=40))
    r2 = classify(G, 3, SolveConfig(seed=2, random_starts=40))
    assert r1.num_classes == r2.num_classes == 1
    assert r1.num_classes_absolute == r2.num_classes_absolute
    for c1 in r1.classes:
        assert any(equivalent(c1.solution, c2.solution) for c2 in r2.classes)
    assert {c.fingerprint for c in r1.classes} == {c.fingerprint for c in r2.classes}


def test_emitted_solutions_pass_oracle():
    """Solver outputs pass the residual system at 1e-10 and the Cuntz oracle
    at 1e-9 (checked on the cheapest alphabet)."""
    from neargroup.cuntz import oracle_check
    from neargroup.solutions import residual_mn
    from neargroup.tuples import to_tuple

    G, b, a = _pair(2)
    a = [f for f in even_quadratic_forms(b) if f.phase((1,)) == Phase(1, 4)][0]
    (s,) = solve_mn(G, b, a, FAST)
    assert residual_mn(s, 1e-10).passed
    assert oracle_check(to_tuple(s), tolerance=1e-9).passed


def test_heuristic_search_smoke():
    """m > 2n fallback runs at its default 200 starts and finds nothing for
    (Z2, m=6), as expected."""
    from neargroup.solvers import heuristic_search

    G, b, a = _pair(2)
    out = heuristic_search(G, b, a, 6, SolveConfig())
    assert out == []


def test_m2n_class_labelled_with_its_solvers_case(monkeypatch):
    """A class carries the case whose solver found it, not the first feasible
    tag of its pair: a feasible Case II tag ahead of Z3's Case I tag (whose
    solver finds nothing there) leaves the labels at Case I."""
    import neargroup.solvers as solvers
    from neargroup.cases import CaseTag, Feasibility

    real = solvers.all_case_feasibilities
    monkeypatch.setattr(solvers, "all_case_feasibilities", lambda G, b, a, ctx: [
        Feasibility(CaseTag("II", omega=0), True)] + real(G, b, a, ctx=ctx))
    res = classify(FiniteAbelianGroup((3,)), 6, SolveConfig(random_starts=4))
    assert res.classes
    assert all(c.case.kind == "I" for c in res.classes)


@pytest.mark.parametrize("order,tag", [
    (3, CaseTag("I", omegas=(2, 2))),  # feasible on Z3's first pair
    (5, CaseTag("II", omega=0)),  # feasible on Z5's first pair
])
def test_tensor_system_exact_quadratic_model(order, tag):
    """On the affine slice of a Case I/II normal form the lifted tensor meets
    every affine equation; the polarisation model, rotated back, is the
    quadratic residual, with the residual's norm; its Jacobian is the
    derivative of the model and, rotated back, of the residual."""
    from neargroup.cases import ExactContext
    from neargroup.solutions import normal_form
    from neargroup.solvers import (
        QUADRATIC_EQUATIONS,
        _acj_for_case,
        _numeric_slice,
        _quadratic,
        _realified,
        _unpack,
    )

    G = FiniteAbelianGroup((order,))
    b, a, _ = pair_classes(G)[0]
    ctx = ExactContext(G, b, a, 2 * G.order)
    acj = _acj_for_case(a, ctx.numeric(ctx.c), tag)
    eqs = normal_form(acj).equations
    affine = set(eqs) - {"p4", "p5", "bg_unitary", "p10"}
    x0, K = _numeric_slice(acj)
    k = K.shape[1]

    def btensor(Y):
        return _unpack(acj, x0 + Y @ K.T)

    resid = _realified(acj, QUADRATIC_EQUATIONS, btensor)
    model, V = _quadratic(resid, k)
    Y = np.random.default_rng(7).uniform(-1.0, 1.0, size=(5, k))
    F, J = model(Y)
    assert F.shape == (5, V.shape[1]) and J.shape == F.shape + (k,)
    assert V.shape[1] <= 1 + k + k * (k + 1) // 2
    h = 1e-6
    for y, f, j in zip(Y, F, J):
        bt = btensor(y)
        assert max(np.max(np.abs(eqs[name](bt))) for name in affine) < 1e-12
        want = resid(y)
        assert np.max(np.abs(V @ f - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
        assert abs(np.linalg.norm(f) - np.linalg.norm(want)) < 1e-12 * max(
            1.0, np.linalg.norm(want))
        fd = np.array([(model((y + h * e)[None])[0][0] - model((y - h * e)[None])[0][0])
                       / (2 * h) for e in np.eye(k)]).T
        assert np.max(np.abs(j - fd)) < 1e-6
        fd = ((resid(y + h * np.eye(k)) - resid(y - h * np.eye(k))) / (2 * h)).T
        assert np.max(np.abs(V @ j - fd)) < 1e-6


def test_equations_take_a_batch_axis():
    """Every equation the solver reads, and ``_realified`` over the affine and
    the quadratic equations, evaluates a stack of b-tensors in one call to
    the bits of evaluating each point alone, row by row: on an L = 1 m = n
    form, a Z3 Case I form, a Z5 Case II form and an L = 3
    ``heuristic_search`` form."""
    from neargroup.cases import ExactContext
    from neargroup.solutions import ACJData, mn_normal_form, normal_form
    from neargroup.solvers import (
        AFFINE_EQUATIONS,
        QUADRATIC_EQUATIONS,
        _acj_for_case,
        _realified,
        _unpack,
    )
    from neargroup.spectral import cube_root_scalars

    b, a, _ = pair_classes(FiniteAbelianGroup((3,)))[0]
    acjs = [mn_normal_form(a, complex(cube_root_scalars(a)[0]))]
    for order, tag in [(3, CaseTag("I", omegas=(2, 2))), (5, CaseTag("II", omega=0))]:
        G = FiniteAbelianGroup((order,))
        b, a, _ = pair_classes(G)[0]
        ctx = ExactContext(G, b, a, 2 * G.order)
        acjs.append(_acj_for_case(a, ctx.numeric(ctx.c), tag))
    G, b, a = _pair(2)
    c0 = complex(cube_root_scalars(a)[0])  # heuristic_search's form for m = 6
    acjs.append(ACJData(form=a, bar=(0, 1, 2), g_t=(G.zero(),) * 3,
                        c_t=(c0,) * 3, eps_t=(1, 1, 1), eps=1))
    rng = np.random.default_rng(11)
    for acj in acjs:
        eqs = normal_form(acj).equations
        X = rng.standard_normal((5, 2 * acj.L ** 4 * acj.group.order))
        B = _unpack(acj, X)  # five random complex b-tensors
        for name in AFFINE_EQUATIONS + QUADRATIC_EQUATIONS:
            stacked = eqs[name](B)
            assert len(stacked) == len(B)
            for row, bt in zip(stacked, B):
                assert np.array_equal(row, eqs[name](bt)), (acj.L, name)
        for names in (AFFINE_EQUATIONS, QUADRATIC_EQUATIONS):
            resid = _realified(acj, names, lambda X: _unpack(acj, X))
            R = resid(X)
            assert R.shape == (len(X), len(resid(X[0])))
            for row, x in zip(R, X):
                assert np.array_equal(row, resid(x)), (acj.L, names)


def test_slice_and_model_call_their_map_once(monkeypatch):
    """On Z3/6's Case I slice, ``_affine_slice`` and ``_quadratic`` each
    evaluate their map in one call, on the stack of all their points."""
    from neargroup.cases import ExactContext

    calls = []
    for name in ("_affine_slice", "_quadratic"):
        def counting(f, nvar, real=getattr(solvers, name), name=name):
            def counted(X):
                calls.append(name)
                return f(X)
            return real(counted, nvar)
        monkeypatch.setattr(solvers, name, counting)
    G = FiniteAbelianGroup((3,))
    b, a, _ = pair_classes(G)[0]
    ctx = ExactContext(G, b, a, 2 * G.order)
    assert solvers._solve_case(a, ctx, CaseTag("I", omegas=(2, 2)), FAST)
    assert calls == ["_affine_slice", "_quadratic"]


def test_affine_slice():
    """The zero set of an affine map; an empty one is None, and a singular
    value between the two thresholds is no clear rank."""
    from neargroup.solvers import SLICE_NULL, SLICE_RANK, _affine_slice

    def affine(A, c):  # x -> A x + c on each row of a stack
        return lambda X: X @ np.array(A, dtype=float).T + c

    x0, K = _affine_slice(affine([[1, 1], [2, 2]], [-1.0, -2.0]), 2)
    assert np.allclose(x0, [0.5, 0.5]) and K.shape == (2, 1)
    assert np.allclose(np.abs(K[:, 0]), [2 ** -0.5, 2 ** -0.5])
    assert _affine_slice(affine([[1, 0], [1, 0]], [0.0, -1.0]), 2) is None
    gap = math.sqrt(SLICE_NULL * SLICE_RANK)
    with pytest.raises(ArithmeticError):
        _affine_slice(affine([[1, 0], [0, gap], [0, 0]], [0.0, 0.0, 1.0]), 2)


def test_mn_slice_is_the_numeric_affine_slice():
    """On every cube root of every pair of Z2-Z10, Z2xZ2, Z2xZ4 and Z3xZ3 the
    exact m = n slice read off ``ExactContext.eig(k)`` has the dimension
    ``vanishing`` that ``_affine_slice`` finds numerically, is empty exactly
    where f0 is None, which ``_affine_slice`` confirms, and has an
    orthonormal K on which x0 + K y meets every affine equation."""
    from neargroup.cases import ExactContext
    from neargroup.solutions import dimension_d, mn_normal_form
    from neargroup.solvers import (
        AFFINE_EQUATIONS,
        _mn_slice,
        _numeric_slice,
        _realified,
        _unpack,
    )

    rng = np.random.default_rng(3)
    slices = empty = 0
    for factors in [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,),
                    (2, 2), (2, 4), (3, 3)]:
        G = FiniteAbelianGroup(factors)
        d = dimension_d(G.order, G.order).value
        for b, a, _ in pair_classes(G):
            ctx = ExactContext(G, b, a)
            for k in range(3):
                acj = mn_normal_form(a, ctx.numeric(ctx.c * ctx.zeta3 ** k))
                exact, numeric = _mn_slice(ctx, k, d), _numeric_slice(acj)
                slices += 1
                assert (exact is None) == (numeric is None) == (ctx.eig(k)["f0"] is None)
                if exact is None:
                    empty += 1
                    continue
                x0, K = exact
                assert K.shape[1] == numeric[1].shape[1] == ctx.eig(k)["vanishing"]
                assert np.max(np.abs(K.T @ K - np.eye(K.shape[1])), initial=0.0) < 1e-12
                aff = _realified(acj, AFFINE_EQUATIONS, lambda x: _unpack(acj, x))
                for y in rng.uniform(-1.0, 1.0, size=(3, K.shape[1])):
                    assert np.max(np.abs(aff(x0 + K @ y))) < 1e-12
    assert (slices, empty) == (111, 5)


def test_classify_mn_needs_no_numeric_slice(monkeypatch):
    """m = n classification reads its slices off the exact eigenspaces only:
    with ``_affine_slice`` disabled, each of Z2/2, Z3/3, Z4/4, Z2xZ2/4 and
    Z5/5 keeps its one COMPLETE class."""
    from neargroup import solvers

    def no_slice(*args):
        raise AssertionError("_affine_slice called")

    monkeypatch.setattr(solvers, "_affine_slice", no_slice)
    for factors in [(2,), (3,), (4,), (2, 2), (5,)]:
        G = FiniteAbelianGroup(factors)
        res = classify(G, G.order)
        assert res.num_classes == 1 and res.completeness == "COMPLETE", factors


def test_refuted_tags_have_no_solutions():
    """The tensor solver finds nothing on any Case I/II tag that the exact
    case analysis refutes for Z2/4, Z3/6, Z4/8 and Z2xZ2/8: a solution there
    would mean a wrong refutation lemma."""
    from neargroup.cases import ExactContext, all_case_feasibilities
    from neargroup.solvers import _solve_case

    config = SolveConfig(random_starts=16)
    refuted = feasible = 0
    for factors in [(2,), (3,), (4,), (2, 2)]:
        G = FiniteAbelianGroup(factors)
        for b, a, _ in pair_classes(G):
            ctx = ExactContext(G, b, a, 2 * G.order)
            for feas in all_case_feasibilities(G, b, a, ctx=ctx):
                if feas.tag.kind not in ("I", "II"):
                    continue
                found = _solve_case(a, ctx, feas.tag, config)
                if feas.feasible:
                    # the same search does find the Z3, m = 6 solutions
                    assert found, (G, feas.tag)
                    feasible += 1
                else:
                    assert found == [], (G, feas.tag)
                    refuted += 1
    assert (refuted, feasible) == (115, 2)


def test_quadratic_model_rejects_cubic_map():
    from neargroup.solvers import _quadratic

    with pytest.raises(ArithmeticError):
        _quadratic(lambda X: np.stack([X[..., 0] * X[..., 1], X[..., 0] ** 3 + X[..., 1]],
                                      axis=-1), 2)


# ---------------------------------------------------------------------------
# every root of a slice system: the Macaulay null-space method


def _planted(rows, k):
    """The ``_quadratic`` model of the planted map y -> rows(*y) on R^k."""
    from neargroup.solvers import _quadratic

    return _quadratic(lambda Y: np.stack(rows(*Y.T), axis=-1), k)[0]


def _polish(roots, model):
    from neargroup.solutions import _batched_lm
    from neargroup.solvers import NEWTON_TOL, POLISH_ITER

    Y, cost, _ = _batched_lm(roots, model, POLISH_ITER, NEWTON_TOL ** 2)
    assert np.all(cost <= NEWTON_TOL ** 2)
    return Y


def _same_points(found, want, tol):
    found = sorted(map(tuple, found), key=lambda y: tuple(np.round(y, 4)))
    return len(found) == len(want) and all(
        np.max(np.abs(np.subtract(f, w))) < tol for f, w in zip(found, sorted(want)))


def test_macaulay_roots_planted_k2():
    """Planted k = 2 slices: every real root is found, and no complex one.
    x^2 + y^2 = 5, xy = 2 has four real roots; x^2 = 1, y^2 = -x has two
    real and two complex; x^2 + y^2 = 1, x^2 - y^2 = 3 has only complex
    roots."""
    from neargroup.solvers import _macaulay_roots

    model = _planted(lambda x, y: [x * x + y * y - 5, x * y - 2], 2)
    roots = _macaulay_roots(model)
    assert _same_points(roots, [(-2, -1), (-1, -2), (1, 2), (2, 1)], 1e-9)
    assert _same_points(_polish(roots, model), [(-2, -1), (-1, -2), (1, 2), (2, 1)], 1e-12)
    model = _planted(lambda x, y: [x * x - 1 + 0 * y, y * y + x], 2)
    assert _same_points(_polish(_macaulay_roots(model), model), [(-1, -1), (-1, 1)], 1e-12)
    model = _planted(lambda x, y: [x * x + y * y - 1, x * x - y * y - 3], 2)
    assert _macaulay_roots(model).shape == (0, 2)


def test_macaulay_roots_planted_double_root():
    """(x - 1)^2 = 0, y^2 = x: the real roots (1, 1) and (1, -1) are double.
    Each is found once per multiplicity, to about the square root of the
    rounding, and the polish brings every copy to the LM floor."""
    from neargroup.solvers import _macaulay_roots

    model = _planted(lambda x, y: [x * x - 2 * x + 1 + 0 * y, y * y - x], 2)
    roots = _macaulay_roots(model)
    want = [(1, -1), (1, -1), (1, 1), (1, 1)]
    assert _same_points(roots, want, 1e-6)
    assert _same_points(_polish(roots, model), want, 1e-6)


def test_macaulay_roots_z9_k3_slice():
    """Both k = 3 slices of Z9 (P = 4 rows): the nullity settles at 4, but
    only two roots are affine, the other two lie at infinity and are split
    off by the rank gap of the null space's low rows.  The two real roots
    are simple; they are found, polished and pass ``residual``."""
    from neargroup.cases import ExactContext
    from neargroup.solutions import dimension_d, mn_normal_form, residual
    from neargroup.solvers import (
        QUADRATIC_EQUATIONS,
        _macaulay_roots,
        _mn_slice,
        _quadratic,
        _realified,
        _solve_tensor,
        _unpack,
    )

    G = FiniteAbelianGroup((9,))
    d = dimension_d(9, 9).value
    slices = 0
    for b, a, _ in pair_classes(G):
        ctx = ExactContext(G, b, a)
        for k in range(3):
            affine_slice = _mn_slice(ctx, k, d)
            if affine_slice is None or affine_slice[1].shape[1] != 3:
                continue
            slices += 1
            x0, K = affine_slice
            acj = mn_normal_form(a, ctx.numeric(ctx.c * ctx.zeta3 ** k))
            resid = _realified(acj, QUADRATIC_EQUATIONS, lambda Y: _unpack(acj, x0 + Y @ K.T))
            model, _ = _quadratic(resid, 3)
            assert len(model.c) == 4
            roots = _macaulay_roots(model)
            assert len(roots) == 2
            assert np.max(np.abs(model(roots)[0])) < 1e-12
            found = _solve_tensor(acj, affine_slice, None, 0, SolveConfig(), {})
            assert len(found) == 2
            assert all(residual(s, 1e-10).passed for s in found)
    assert slices == 2


def test_macaulay_roots_raise_when_they_cannot_be_counted():
    """A root set of positive dimension (a circle; a map that vanishes on the
    whole line) never settles the nullity, and a Macaulay singular value
    between SLICE_NULL and SLICE_RANK leaves no clear rank: each raises."""
    from neargroup.solvers import _macaulay_roots

    with pytest.raises(ArithmeticError, match="not settled"):
        _macaulay_roots(_planted(lambda x, y: [x * x + y * y - 1], 2))
    with pytest.raises(ArithmeticError, match="not settled"):
        _macaulay_roots(_planted(lambda x: [0 * x], 1))
    with pytest.raises(ArithmeticError, match="no clear rank"):
        _macaulay_roots(_planted(lambda x: [x * x - 1, 1e-7 * (x - 5)], 1))


def test_classify_mn_skips_a_pair_whose_roots_cannot_be_counted(monkeypatch):
    """With the quadratic equations of every k >= 1 slice planted to vanish
    identically, Z3/3's two pairs cannot count their roots: each is recorded
    as not searched, the row is HEURISTIC and says why, and nothing
    crashes."""
    real = solvers._quadratic
    monkeypatch.setattr(solvers, "_quadratic",
                        lambda resid, nvar: real(lambda Y: 0 * resid(Y), nvar))
    res = classify(FiniteAbelianGroup((3,)), 3)
    assert res.completeness == "HEURISTIC" and res.num_classes_absolute == 0
    warnings = res.provenance["warnings"]
    assert warnings == [f"pair {i}: not searched: Macaulay nullity not settled at degree "
                        f"{solvers.MACAULAY_MAX_DEGREE}" for i in range(2)]
    summary = res.summary()
    assert "inconclusive" not in summary
    assert all(w in summary for w in warnings)
    with pytest.raises(ArithmeticError):
        solve_mn(FiniteAbelianGroup((3,)), *pair_classes(FiniteAbelianGroup((3,)))[0][:2])


def test_solve_mn_reads_no_seed_and_no_starts():
    """``solve_mn`` draws no random start: two seeds and two
    ``random_starts`` give the same solutions, bit for bit, on every pair of
    Z5, Z2xZ4 and Z3xZ3."""
    configs = [SolveConfig(), SolveConfig(seed=1, random_starts=3)]
    for factors in [(5,), (2, 4), (3, 3)]:
        G = FiniteAbelianGroup(factors)
        for b, a, _ in pair_classes(G):
            one, two = (solve_mn(G, b, a, config) for config in configs)
            assert len(one) == len(two), factors
            assert all(s.acj == t.acj and np.array_equal(s.btensor, t.btensor)
                       for s, t in zip(one, two)), factors
