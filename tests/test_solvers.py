import math

import numpy as np
import pytest

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
    assert abs(sols[0].b[1] - (1 - 1j) / 2) < 1e-9
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
    from neargroup.solvers import _quadratic, _tensor_system
    from neargroup.spectral import cube_root_scalars

    G = FiniteAbelianGroup(factors)
    b, a, _ = pair_classes(G)[0]
    systems = [(c, _tensor_system(mn_normal_form(b, a, c))) for c in cube_root_scalars(a)]
    c, (_, resid, btensor) = next((c, s) for c, s in systems if s is not None and s[0] == k)
    model, V = _quadratic(resid, k)
    Y = np.random.default_rng(7).uniform(-1.0, 1.0, size=(5, k))
    F, J = model(Y)
    assert F.shape == (5, V.shape[1]) and J.shape == F.shape + (k,)
    h = 1e-6
    for y, f, j in zip(Y, F, J):
        rep = residual_mn(MNSolution(G, b, a, btensor(y).ravel(), c))
        assert max(rep.per_equation[e] for e in ("gal3", "gal4", "gal7", "mn1", "mn4")) < 1e-12
        assert np.max(np.abs(model(y[None])[0][0] - f)) < 1e-14
        fd = np.array([(resid(y + h * e) - resid(y - h * e)) / (2 * h)
                       for e in np.eye(k)]).T
        assert np.max(np.abs(V @ j - fd)) < 1e-6


def test_solve_tensor_point_slice():
    """A slice that is a single point (k = 0) goes straight to the keep step:
    on Z2/2 two cube roots give a point slice, one of which is the solution."""
    from neargroup.solutions import MNSolution, mn_normal_form
    from neargroup.solvers import _solve_tensor, _tensor_system
    from neargroup.spectral import cube_root_scalars

    G, b, _ = _pair(2)
    a = [f for f in even_quadratic_forms(b) if f.phase((1,)) == Phase(1, 4)][0]
    found, points = [], 0
    for c in cube_root_scalars(a):
        acj = mn_normal_form(b, a, c)
        system = _tensor_system(acj)
        if system is None:
            continue
        assert system[0] == 0
        points += 1
        found += _solve_tensor(acj, 40, 0, FAST,
                               lambda bt: MNSolution(G, b, a, bt.ravel(), complex(c)))
    assert points == 2
    assert len(found) == 1 and abs(found[0].b[1] - (1 - 1j) / 2) < 1e-9


def test_solve_mn_default_config_pair_counts():
    """At the default configuration (1000 random starts per cube root) every
    (bicharacter, form) pair of the COMPLETE m = n groups, and of the groups
    of orders 6 to 9, gives its known number of solutions, each passing the
    residual system at 1e-10."""
    from neargroup.solutions import residual_mn

    want = {(2,): [1, 1], (3,): [2, 2], (4,): [0, 2, 2, 0], (5,): [1, 4],
            (2, 2): [0, 0, 1, 0, 0], (6,): [2, 2, 2, 2], (7,): [2, 2],
            (8,): [2, 2, 2, 2], (2, 4): [0, 0, 2, 2], (3, 3): [4, 0]}
    for factors, counts in want.items():
        G = FiniteAbelianGroup(factors)
        sols = [solve_mn(G, b, a, SolveConfig()) for b, a, _ in pair_classes(G)]
        assert [len(s) for s in sols] == counts, factors
        assert all(residual_mn(s, 1e-10).passed for ss in sols for s in ss)


def test_solve_m2n_z3_family():
    G, b, a = _pair(3)
    sols, feas = solve_m2n(G, b, a, SolveConfig(random_starts=10))
    assert len(sols) == 1
    assert equivalent(sols[0], z3_m6(), grid=200)
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
    assert all(s1.bichar == s2.bichar and s1.form == s2.form for s1, s2 in calls)
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
    from neargroup.solutions import dimension_d, tensor_equations
    from neargroup.solvers import _acj_for_case, _quadratic, _tensor_system

    G = FiniteAbelianGroup((order,))
    b, a, _ = pair_classes(G)[0]
    ctx = ExactContext(G, b, a)
    acj = _acj_for_case(G, b, a, ctx.numeric(ctx.c), tag)
    eqs = tensor_equations(acj, dimension_d(order, 2 * order).value)
    affine = set(eqs) - {"p4", "p5", "bg_unitary", "p10"}
    k, resid, btensor = _tensor_system(acj)
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
        fd = np.array([(resid(y + h * e) - resid(y - h * e)) / (2 * h)
                       for e in np.eye(k)]).T
        assert np.max(np.abs(V @ j - fd)) < 1e-6


def test_affine_slice():
    """The zero set of an affine map; an empty one is None, and a singular
    value between the two thresholds is no clear rank."""
    from neargroup.solvers import SLICE_NULL, SLICE_RANK, _affine_slice

    x0, K = _affine_slice(lambda x: np.array([x[0] + x[1] - 1.0, 2 * x[0] + 2 * x[1] - 2.0]), 2)
    assert np.allclose(x0, [0.5, 0.5]) and K.shape == (2, 1)
    assert np.allclose(np.abs(K[:, 0]), [2 ** -0.5, 2 ** -0.5])
    assert _affine_slice(lambda x: np.array([x[0], x[0] - 1.0]), 2) is None
    gap = math.sqrt(SLICE_NULL * SLICE_RANK)
    with pytest.raises(ArithmeticError):
        _affine_slice(lambda x: np.array([x[0], gap * x[1], 1.0]), 2)


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
            ctx = ExactContext(G, b, a)
            for feas in all_case_feasibilities(G, b, a, ctx=ctx):
                if feas.tag.kind not in ("I", "II"):
                    continue
                found = _solve_case(G, b, a, ctx, feas.tag, config)
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
        _quadratic(lambda x: np.array([x[0] * x[1], x[0] ** 3 + x[1]]), 2)
