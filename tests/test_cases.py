import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import neargroup
from neargroup import cases
from neargroup.abelian import (
    FiniteAbelianGroup,
    Phase,
    enumerate_bicharacters,
    enumerate_quadratic_forms,
    even_quadratic_forms,
)
from neargroup.cases import (
    CaseTag,
    ExactContext,
    KPoly,
    _cyclotomic,
    _resolve_t_system,
    _unit_generators,
    all_case_feasibilities,
    case_feasibility,
    case_tags,
)
from neargroup.corpus import z2z2_gram1, z2z2_gram2


def _pair(n, k=1, which=0):
    G = FiniteAbelianGroup((n,))
    b = [x for x in enumerate_bicharacters(G, True) if x.gram[0][0] == Phase(k, n)][0]
    return G, b, even_quadratic_forms(b)[which]


def test_case_tags_enumeration():
    G = FiniteAbelianGroup((4,))
    tags = case_tags(G)
    kinds = [t.kind for t in tags]
    assert kinds.count("I") == 6 and kinds.count("II") == 3
    assert kinds.count("III") == 1  # one order-2 element in Z4
    assert kinds.count("IV") == 1


def test_case_iv_never_occurs():
    G, b, a = _pair(3)
    res = case_feasibility(G, b, a, CaseTag("IV"))
    assert not res.feasible


I_G0 = "CaseI g=0 values / norm identities (I51, I52, order-2 relation)"
II_G0 = "CaseII g=0 values / norm identity"
LEDGER = {
    (2,): {("I", False, I_G0): 6, ("I", False, "CaseI3 eigenspace dimension"): 6,
           ("II", False, "CaseII3 eigenspace dimension"): 6,
           ("III", False, "CaseIII support/norm at |G|=2"): 2,
           ("IV", False, "Case IV never occurs"): 2},
    (3,): {("I", False, I_G0): 6, ("I", False, "CaseI3 eigenspace dimension"): 4,
           ("I", True, None): 2, ("II", False, II_G0): 2,
           ("II", False, "CaseII3 eigenspace dimension"): 4,
           ("IV", False, "Case IV never occurs"): 2},
    (4,): {("I", False, I_G0): 16, ("I", False, "CaseI3 eigenspace dimension"): 8,
           ("II", False, II_G0): 4, ("II", False, "CaseII3 eigenspace dimension"): 8,
           ("III", False, "CaseIII |G|=4: 24th-power test"): 4,
           ("IV", False, "Case IV never occurs"): 4},
    (2, 2): {("I", False, I_G0): 20, ("I", False, "CaseI3 eigenspace dimension"): 10,
             ("II", False, II_G0): 4, ("II", False, "CaseII order-2 element relations"): 1,
             ("II", False, "CaseII3 eigenspace dimension"): 10,
             ("III", False, "CaseIII |G|=4: 24th-power test"): 6,
             ("III", False, "CaseIII |G|=4: a(g_perp) != -1"): 9,
             ("IV", False, "Case IV never occurs"): 5},
    (5,): {("I", False, "CaseI3 eigenspace dimension"): 2, ("I", True, None): 10,
           ("II", False, "CaseII3 eigenspace dimension"): 2, ("II", True, None): 4,
           ("IV", False, "Case IV never occurs"): 2},
    (6,): {("I", False, "CaseI3 eigenspace dimension"): 4, ("I", True, None): 20,
           ("II", False, "CaseII3 eigenspace dimension"): 4, ("II", True, None): 8,
           ("III", True, None): 4, ("IV", False, "Case IV never occurs"): 4},
    (2, 4): {("I", True, None): 24, ("II", True, None): 12, ("III", True, None): 12,
             ("IV", False, "Case IV never occurs"): 4},
    (3, 3): {("I", False, "CaseI3 eigenspace dimension"): 1, ("I", True, None): 11,
             ("II", False, "CaseII3 eigenspace dimension"): 1, ("II", True, None): 5,
             ("IV", False, "Case IV never occurs"): 2},
}


@pytest.mark.parametrize("factors", list(LEDGER))
def test_m2n_refutation_ledger(factors):
    """The (kind, feasible, refuted_by) counts over every tag of every pair of
    the m = 2n table rows Z2/4, Z3/6, Z4/8 and Z2xZ2/8 (22, 20, 44 and 65
    tags), whose 115 refuted Case I/II tags are the ones the tensor solver
    finds empty in test_refuted_tags_have_no_solutions, and of Z5/10, Z6/12,
    Z2xZ4/16 and Z3xZ3/18 (20, 44, 52 and 20 tags)."""
    from collections import Counter

    from neargroup.solvers import pair_classes

    G = FiniteAbelianGroup(factors)
    ledger = Counter((f.tag.kind, f.feasible, f.refuted_by)
                     for b, a, _ in pair_classes(G)
                     for f in all_case_feasibilities(G, b, a))
    assert ledger == LEDGER[factors]


def test_z2_m4_all_cases_refuted():
    G, b, a = _pair(2)
    res = all_case_feasibilities(G, b, a)
    assert all(not r.feasible for r in res)
    # Case II is refuted by the eigenspace dimension lemma
    ii = [r for r in res if r.tag.kind == "II"]
    assert all("eigenspace dimension" in r.refuted_by for r in ii)


def test_z3_m6_unique_surviving_case():
    G, b, a = _pair(3)
    res = all_case_feasibilities(G, b, a)
    surviving = [r for r in res if r.feasible]
    assert len(surviving) == 1
    tag = surviving[0].tag
    assert tag.kind == "I" and tag.omegas[0] == tag.omegas[1]
    # the mixed Case I tags are refuted through the norm identities (I52 route)
    mixed = [r for r in res if r.tag.kind == "I" and r.tag.omegas[0] != r.tag.omegas[1]]
    assert all(not r.feasible for r in mixed)
    assert all("norm identities" in r.refuted_by for r in mixed)


def test_z6_case_iii_survivors_are_inconclusive():
    """Z6 has Case III survivors, and no exact test covers them."""
    G = FiniteAbelianGroup((6,))
    survivors = [r for b in enumerate_bicharacters(G, True)
                 for a in even_quadratic_forms(b)
                 for r in all_case_feasibilities(G, b, a)
                 if r.tag.kind == "III" and r.feasible]
    assert len(survivors) == 4
    for r in survivors:
        assert r.inconclusive
        assert ">= 8" not in r.details and "past |G| = 4" in r.details


def test_z4_m8_all_refuted_both_bicharacters():
    for k in (1, 3):
        G = FiniteAbelianGroup((4,))
        b = [x for x in enumerate_bicharacters(G, True)
             if x.gram[0][0] == Phase(k, 4)][0]
        for a in even_quadratic_forms(b):
            res = all_case_feasibilities(G, b, a)
            assert all(not r.feasible for r in res), (k, a.values)


def test_z2z2_m8_all_refuted():
    G = FiniteAbelianGroup((2, 2))
    for b in (z2z2_gram1(), z2z2_gram2()):
        for a in even_quadratic_forms(b):
            res = all_case_feasibilities(G, b, a)
            assert all(not r.feasible for r in res), tuple(a.values)


def test_z2z2_gram2_uniform_form_needs_order2_tree():
    """The a = -1 configuration survives the norm identities and is killed
    only by the per-point decision tree on order-2 elements."""
    G = FiniteAbelianGroup((2, 2))
    b = z2z2_gram2()
    a = [f for f in even_quadratic_forms(b)
         if all(f.phase(g) == Phase(1, 2) for g in G if g != (0, 0))][0]
    res = all_case_feasibilities(G, b, a)
    assert all(not r.feasible for r in res)
    assert any(r.refuted_by and "order-2" in r.refuted_by for r in res)


def test_exact_context_basics():
    G, b, a = _pair(3)
    ctx = ExactContext(G, b, a, 2 * G.order)
    # c^3 a_hat(0) = 1 exactly
    asum = ctx.zero
    for x in ctx.a:
        asum = asum + x
    assert ctx.is_zero(ctx.c**3 * asum * ctx.inv(ctx.sqrt_n) - ctx.one)
    # eigenspace dimensions sum to n
    assert sum(ctx.eig(k)["dim"] for k in range(3)) == 3
    # d is the positive root of d^2 = n + m d
    assert ctx.is_zero(ctx.d * ctx.d - ctx.int(3) - ctx.int(6) * ctx.d)


@functools.cache
def _small_pairs():
    """(G, b, a) for every ``pair_classes`` pair of Z2-Z6, Z2xZ2 and Z3xZ3."""
    from neargroup.solvers import pair_classes

    groups = [FiniteAbelianGroup(f) for f in [(2,), (3,), (4,), (5,), (6,), (2, 2), (3, 3)]]
    return [(G, b, a) for G in groups for b, a, _ in pair_classes(G)]


def test_R_squared_is_conjugate_transpose():
    """R is unitary and R^3 = 1, so R R equals the conjugate transpose of R,
    exactly, on every small pair; the dense product is the reference."""
    for G, b, a in _small_pairs():
        ctx = ExactContext(G, b, a)
        R, n = ctx.R, ctx.n
        R2 = [[sum((R[i][l] * R[l][j] for l in range(n)), ctx.zero) for j in range(n)]
              for i in range(n)]
        assert R2 == [[ctx.conj(R[j][i]) for j in range(n)] for i in range(n)], (G, b, a)


def test_field_holds_d_only_at_an_m():
    """Built without m, a context has no d and no sqrt(m^2 + 4n) in its
    field; at m = 2n its field grows by it on the first pair of Z10, Z6, Z4
    and Z2xZ2, not on Z3's; and the case analysis refuses a context at any
    other m."""
    from neargroup.solvers import pair_classes

    for factors, N, N2n in [((10,), 120, 1320), ((6,), 24, 168), ((4,), 24, 120),
                            ((2, 2), 24, 120), ((3,), 24, 24)]:
        G = FiniteAbelianGroup(factors)
        b, a, _ = pair_classes(G)[0]
        ctx, ctx2n = ExactContext(G, b, a), ExactContext(G, b, a, 2 * G.order)
        assert (ctx.m, ctx.N, ctx2n.m, ctx2n.N) == (None, N, 2 * G.order, N2n), factors
        assert not any(hasattr(ctx, x) for x in ("d", "inv_d", "half_d"))
        assert ctx.c_exp * N2n == ctx2n.c_exp * N
    for tag in (CaseTag("I", omegas=(0, 0)), CaseTag("IV")):
        with pytest.raises(ValueError, match="m = 6"):
            case_feasibility(G, b, a, tag, ctx=ctx)
    with pytest.raises(ValueError, match="m = 6"):
        all_case_feasibilities(G, b, a, ctx=ExactContext(G, b, a, 3))


def test_closed_form_inverses():
    """1/sqrt(n) = sqrt(n) / n and 1/d = (d - m) / n, as d^2 = n + m d, are
    the exact inverses on every small pair, with and without m."""
    for G, b, a in _small_pairs():
        ctx, ctx2n = ExactContext(G, b, a), ExactContext(G, b, a, 2 * G.order)
        for c in (ctx, ctx2n):
            assert c.inv_sqrt_n * c.sqrt_n == c.one, (G, b, a)
        assert ctx2n.inv_d * ctx2n.d == ctx2n.one, (G, b, a)
        assert ctx2n.d * ctx2n.d == ctx2n.int(G.order) + ctx2n.int(2 * G.order) * ctx2n.d


def test_degenerate_bicharacter_is_rejected():
    """A degenerate b makes R singular, so the context refuses it up front
    rather than failing later in the cube-root search."""
    count = 0
    for f in [(2,), (3,), (4,), (5,), (6,), (2, 2)]:
        G = FiniteAbelianGroup(f)
        for b in enumerate_bicharacters(G):
            if b.is_nondegenerate():
                continue
            for a in [a for a in enumerate_quadratic_forms(b) if a.is_even()]:
                with pytest.raises(ValueError, match="nondegenerate"):
                    ExactContext(G, b, a)
                count += 1
    assert count == 32


def test_eigenspace_projector_data():
    """eig(k) of every pair of Z2-Z6, Z2xZ2 and Z3xZ3: f0 is a J-fixed
    eigenvector with f0(0) = 1 and norm norm_f0, f0p a J-fixed eigenvector
    vanishing at 0 exactly when those span a nonzero real space, col(j) the
    column P e_j of an idempotent of trace dim onto the eigenspace, and dim and
    vanishing the numeric ranks of R - zeta3^k and of it with evaluation at 0,
    all exact but the ranks."""
    import numpy as np

    for G, b, a in _small_pairs():
        ctx = ExactContext(G, b, a)
        n, els = ctx.n, ctx.els
        neg = [G.index_of(G.neg(g)) for g in els]

        def J(v):
            return [ctx.conj(ctx.a[i] * v[neg[i]]) for i in range(n)]

        def R(v):
            return [sum((ctx.R[i][j] * v[j] for j in range(n)), ctx.zero) for i in range(n)]

        R_num = np.array([[ctx.numeric(x) for x in row] for row in ctx.R])
        dims = 0
        for k in range(3):
            e, w = ctx.eig(k), ctx.zeta3 ** k
            assert set(e) == {"dim", "vanishing", "f0", "norm_f0", "f0p", "col"}
            M = R_num - ctx.numeric(w) * np.eye(n)
            assert e["dim"] == n - np.linalg.matrix_rank(M, tol=1e-8)
            # J-fixed vectors of the J-invariant E cap ker(ev_0): a real space
            # of the complex dimension of E cap ker(ev_0)
            ev0 = np.eye(n)[:1]
            assert e["vanishing"] == n - np.linalg.matrix_rank(np.vstack([M, ev0]), tol=1e-8)
            dims += e["dim"]
            if e["f0"] is not None:
                f0 = e["f0"]
                assert R(f0) == [w * x for x in f0] and J(f0) == f0 and f0[0] == ctx.one
                assert e["norm_f0"] == sum((x * ctx.conj(x) for x in f0), ctx.zero)
            assert (e["f0p"] is not None) == (e["vanishing"] > 0)
            if e["f0p"] is not None:
                f0p = e["f0p"]
                assert not all(map(ctx.is_zero, f0p))
                assert R(f0p) == [w * x for x in f0p] and J(f0p) == f0p
                assert ctx.is_zero(f0p[0])
            cols = [e["col"](j) for j in range(n)]
            assert all(R(v) == [w * x for x in v] for v in cols)
            assert sum((v[j] for j, v in enumerate(cols)), ctx.zero) == ctx.int(e["dim"])
            P = [[v[i] for v in cols] for i in range(n)]  # P[i][j] = (P e_j)_i
            assert all(sum((P[i][j] * v[j] for j in range(n)), ctx.zero) == v[i]
                       for v in cols for i in range(n))
        assert dims == n


def test_z6_case_II_branch2_is_examined():
    """On Z6 the eigenspace of II(z3^2) of the first pair holds a real plane
    of J-fixed vectors vanishing at 0, so branch 2 is decided and survives."""
    from neargroup.solvers import pair_classes

    G = FiniteAbelianGroup((6,))
    b, a, _ = pair_classes(G)[0]
    res = case_feasibility(G, b, a, CaseTag("II", omega=2))
    assert res.feasible
    assert "branch2{'kappa': 1}" in res.details and "branch2{'kappa': -1}" in res.details


def test_import_does_not_load_sympy():
    src = str(Path(neargroup.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, neargroup, neargroup.solvers, neargroup.cli; "
            "assert 'sympy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# --- the field Q(zeta_N) -------------------------------------------------------

_FIELD_GROUP = {24: 3, 120: 5, 168: 6}  # N of the first Z_n pair at m = 2n


@functools.cache
def _field(N):
    n = _FIELD_GROUP[N]
    ctx = ExactContext(*_pair(n), 2 * n)
    assert ctx.N == N
    return ctx


def _element(ctx):
    """sum(k zeta^j) / den over a few random (j, k), j over all of Z/N."""
    def build(terms, den):
        out = ctx.zero
        for j, k in terms:
            out = out + ctx.int(k) * ctx.zpow(j)
        return out * ctx.q(Fraction(1, den))
    terms = st.lists(st.tuples(st.integers(0, ctx.N - 1), st.integers(-9, 9)),
                     max_size=8)
    return st.builds(build, terms, st.integers(1, 12))


fields = st.sampled_from(sorted(_FIELD_GROUP))


@pytest.mark.parametrize("N", sorted(_FIELD_GROUP))
def test_field_degree_is_euler_phi(N):
    ctx = _field(N)
    assert ctx.deg == sum(1 for k in range(1, N + 1) if math.gcd(k, N) == 1)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(ctx.zero)


@settings(max_examples=30, deadline=None)
@given(fields, st.data())
def test_field_arithmetic_matches_complex_evaluation(N, data):
    ctx = _field(N)
    a, b = data.draw(_element(ctx)), data.draw(_element(ctx))
    k = data.draw(st.integers(0, 4))
    x, y = ctx.numeric(a), ctx.numeric(b)
    for got, want in [(a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x),
                      (a ** k, x ** k)]:
        assert abs(ctx.numeric(got) - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=30, deadline=None)
@given(fields, st.data())
def test_field_inverse_is_exact(N, data):
    ctx = _field(N)
    a = data.draw(_element(ctx))
    assume(not ctx.is_zero(a))
    assert a * ctx.inv(a) == ctx.one
    assert a ** -2 * a * a == ctx.one


@settings(max_examples=30, deadline=None)
@given(fields, st.data())
def test_field_galois_maps(N, data):
    ctx = _field(N)
    a, b = data.draw(_element(ctx)), data.draw(_element(ctx))
    z = ctx.numeric(a)
    assert abs(ctx.numeric(ctx.conj(a)) - z.conjugate()) <= 1e-9 * max(1.0, abs(z))
    assert ctx.conj(ctx.conj(a)) == a
    k = data.draw(st.sampled_from([k for k in range(1, N) if math.gcd(k, N) == 1]))
    F = ctx.field
    assert F._galois(a * b, k) == F._galois(a, k) * F._galois(b, k)


# The dense reference: an element is (c, d), c the phi(N) power-basis
# coefficients; products are schoolbook, reduced mod Phi_N from the top.


def _dense_reduce(N, c, d):
    phi = _cyclotomic(N)
    deg = len(phi) - 1
    c = list(c)
    for i in range(len(c) - 1, deg - 1, -1):
        x = c[i]
        if x:
            for j, p in enumerate(phi[:-1]):
                c[i - deg + j] -= x * p
    c = c[:deg] + [0] * (deg - len(c))
    g = math.gcd(d, *c)
    return tuple(x // g for x in c), d // g


def _dense_add(N, a, b):
    return _dense_reduce(N, [x * b[1] + y * a[1] for x, y in zip(a[0], b[0])], a[1] * b[1])


def _dense_mul(N, a, b):
    out = [0] * (2 * len(a[0]) - 1)
    for i, x in enumerate(a[0]):
        for j, y in enumerate(b[0]):
            out[i + j] += x * y
    return _dense_reduce(N, out, a[1] * b[1])


def _dense_galois(N, a, k):
    out = [0] * N
    for j, x in enumerate(a[0]):
        out[j * k % N] += x
    return _dense_reduce(N, out, a[1])


def _dense_inv(N, a):
    """a^-1 = cof / N(a), cof the product of every conjugate but a."""
    x, cof = a, _dense_reduce(N, [1], 1)
    for g, r in _unit_generators(N):
        y = conjs = _dense_galois(N, x, g)
        for _ in range(r - 2):
            y = _dense_galois(N, y, g)
            conjs = _dense_mul(N, conjs, y)
        x, cof = _dense_mul(N, x, conjs), _dense_mul(N, cof, conjs)
    assert not any(x[0][1:])
    num, den = x[0][0], x[1]
    sgn = 1 if num > 0 else -1
    return _dense_reduce(N, [sgn * den * c for c in cof[0]], sgn * num * cof[1])


def _dense(ctx, a):
    c = [0] * ctx.deg
    for j, x in a.t:
        c[j] = x
    return tuple(c), a.d


def _dense_element(ctx):
    """sum(k_j zeta^j for j < deg) / den with every k_j nonzero."""
    def build(ks, den):
        out = ctx.zero
        for j, k in enumerate(ks):
            out = out + ctx.int(k) * ctx.zpow(j)
        return out * ctx.q(Fraction(1, den))
    k = st.integers(-9, 9).filter(bool)
    return st.builds(build, st.lists(k, min_size=ctx.deg, max_size=ctx.deg),
                     st.integers(1, 12))


def _any_element(ctx):
    return st.one_of(_element(ctx), _dense_element(ctx), st.just(ctx.zero))


@settings(max_examples=40, deadline=None)
@given(fields, st.data())
def test_sparse_arithmetic_matches_dense_reference(N, data):
    """Every operation gives exactly the element (same terms, same
    denominator) of the dense schoolbook arithmetic reduced mod Phi_N."""
    ctx = _field(N)
    a, b = data.draw(_any_element(ctx)), data.draw(_any_element(ctx))
    k = data.draw(st.integers(0, 5))
    unit = data.draw(st.sampled_from([u for u in range(1, N) if math.gcd(u, N) == 1]))
    A, B = _dense(ctx, a), _dense(ctx, b)
    power = _dense_reduce(N, [1], 1)
    for _ in range(k):
        power = _dense_mul(N, power, A)
    neg_b = (tuple(-y for y in B[0]), B[1])
    for got, want in [(a + b, _dense_add(N, A, B)), (a - b, _dense_add(N, A, neg_b)),
                      (-b, neg_b), (a * b, _dense_mul(N, A, B)), (a ** k, power),
                      (ctx.field._galois(a, unit), _dense_galois(N, A, unit)),
                      (ctx.conj(a), _dense_galois(N, A, N - 1))]:
        assert _dense(ctx, got) == want
        assert all(x for _, x in got.t) and [j for j, _ in got.t] == sorted({j for j, _ in got.t})
    if not ctx.is_zero(a):
        assert _dense(ctx, ctx.inv(a)) == _dense_inv(N, A)
        assert _dense(ctx, a ** -2) == _dense_mul(N, _dense_inv(N, A), _dense_inv(N, A))


@pytest.mark.parametrize("N", sorted(_FIELD_GROUP))
def test_zpow_table_is_shared_and_exact(N):
    """zpow(j) is e^(2 pi i j / N) for every j < N, and contexts with the same
    N share one field, which their elements hold."""
    ctx = _field(N)
    for j in range(N):
        assert abs(ctx.numeric(ctx.zpow(j)) - complex(math.cos(2 * math.pi * j / N),
                                                      math.sin(2 * math.pi * j / N))) < 1e-12
    n = _FIELD_GROUP[N]
    other = ExactContext(*_pair(n, k=n - 1), 2 * n)
    assert other is not ctx and other.N == N and other.field is ctx.field
    assert other.c.F is ctx.field and (ctx.c * other.c).F is ctx.field


def test_case_analysis_field_element_budget(monkeypatch):
    """A deterministic work guard on the exact front end: with no branch
    data shared yet, the case analysis of the five Z2xZ2/8 pairs, their
    contexts included, reduces at most 3413 field elements (``_elt``); it
    reduced 10850 when every context built its own branch systems."""
    from neargroup.solvers import pair_classes

    G = FiniteAbelianGroup((2, 2))
    pairs = list(pair_classes(G))
    assert len(pairs) == 5
    ExactContext(G, *pairs[0][:2], 8)  # builds the field, which is not counted
    monkeypatch.setattr(cases, "_SHARED", {})
    built = []
    elt = cases._Field._elt
    monkeypatch.setattr(cases._Field, "_elt",
                        lambda F, acc, d: built.append(1) or elt(F, acc, d))
    for b, a, _ in pairs:
        all_case_feasibilities(G, b, a)
    assert len(built) <= 3413


def test_branch_data_builds_each_case_when_a_tag_reads_it(monkeypatch):
    """On Z2/4 every Case II tag is refuted by its eigenspace dimension, so
    the case analysis of its pairs builds the Case I and Case III branches
    and no Case II branch: 612 field elements, not the 870 of building all
    three.  The Case II tag omega = 0 of Z5/10's first pair does read them,
    and only them, once."""
    from neargroup.solvers import pair_classes

    G = FiniteAbelianGroup((2,))
    pairs = list(pair_classes(G))
    ExactContext(G, *pairs[0][:2], 4)  # builds the field, which is not counted
    monkeypatch.setattr(cases, "_SHARED", {})
    built = []
    elt = cases._Field._elt
    monkeypatch.setattr(cases._Field, "_elt",
                        lambda F, acc, d: built.append(1) or elt(F, acc, d))
    for b, a, _ in pairs:
        all_case_feasibilities(G, b, a)
    (data,) = cases._SHARED.values()
    assert {"case_I", "case_III"} <= set(vars(data)) and "_case_II" not in vars(data)
    assert len(built) <= 612
    G = FiniteAbelianGroup((5,))
    b, a, _ = pair_classes(G)[0]
    ctx = ExactContext(G, b, a, 10)
    case_feasibility(G, b, a, CaseTag("II", omega=0), ctx=ctx)
    data = cases._branch_data(ctx)
    assert "_case_II" in vars(data) and "case_I" not in vars(data)
    first = data.case_II
    case_feasibility(G, b, a, CaseTag("II", omega=0), ctx=ctx)
    assert cases._branch_data(ctx).case_II is first


def _direct_mu(ctx, mu0, Rmu0, R2mu0):
    third = KPoly.const(ctx.field, ctx.q(Fraction(1, 3)))
    return [(mu0 + Rmu0 * ctx.zeta3 ** (-k % 3) + R2mu0 * ctx.zeta3 ** k) * third
            for k in range(3)]


def _direct_case_I(ctx, s):
    """(name, mu_k) of each Case I branch of the tags with omega_1 + omega_2
    = s, from the formulas with w1 w2 = zeta3^s written out."""
    w12, inv2rn, half_d, i = ctx.zeta3 ** s, ctx.inv2rn, ctx.half_d, ctx.i
    T = KPoly.tvar(ctx.field)
    C = functools.partial(KPoly.const, ctx.field)
    out = []
    for kappa2 in (1, -1):
        mu0 = C(-half_d) + T * C(inv2rn)
        Rmu0 = (T + C(ctx.int(kappa2) * i)) * C(ctx.conj(w12) * inv2rn)
        R2mu0 = (T - C(ctx.int(kappa2) * i)) * C(w12 * inv2rn)
        out.append(("branch1" + str({"kappa2": kappa2}), _direct_mu(ctx, mu0, Rmu0, R2mu0)))
    for kappa1 in (1, -1):
        for kappa2 in (1, -1):
            k1 = ctx.int(kappa1)
            mu0 = C(-half_d + k1 * inv2rn)
            Rmu0 = C(ctx.conj(w12) * (-k1 + ctx.int(kappa2) * i) * inv2rn)
            R2mu0 = C(w12 * (-k1 - ctx.int(kappa2) * i) * inv2rn)
            name = "branch2" + str({"kappa1": kappa1, "kappa2": kappa2})
            out.append((name, _direct_mu(ctx, mu0, Rmu0, R2mu0)))
    return out


def _direct_case_II(ctx, j):
    """(name, mu_k) of each Case II branch of the tag omega = j, from the
    formulas with w = zeta3^j written out."""
    w, inv2rn, half_d, i = ctx.zeta3 ** j, ctx.inv2rn, ctx.half_d, ctx.i
    T = KPoly.tvar(ctx.field)
    C = functools.partial(KPoly.const, ctx.field)
    out = []
    for kappa1 in (1, -1):
        mu0 = (C(ctx.int(kappa1)) - T) * C(i * inv2rn)
        Rmu0 = C(-w * half_d) - T * C(w * i * inv2rn)
        R2mu0 = C(ctx.conj(w) * half_d) - T * C(ctx.conj(w) * i * inv2rn)
        out.append(("branch1" + str({"kappa1": kappa1}), _direct_mu(ctx, mu0, Rmu0, R2mu0)))
    for kappa in (1, -1):
        mu0 = C(ctx.int(kappa) * i * ctx.inv_sqrt_n)
        Rmu0 = C(w * (-half_d - ctx.int(kappa) * i * inv2rn))
        R2mu0 = C(ctx.conj(w) * (half_d - ctx.int(kappa) * i * inv2rn))
        out.append(("branch2" + str({"kappa": kappa}), _direct_mu(ctx, mu0, Rmu0, R2mu0)))
    return out


def test_branch_data_is_shared_and_rotated():
    """On every pair of Z2-Z9, Z2xZ2, Z2xZ4 and Z3xZ3 at m = 2n, the mu_k
    that the direct formulas build for each Case I sum s and Case II omega j
    equal, term for term, the shared branch data read at k + s and k - j,
    and so do their real and imaginary parts and |mu_k|^2; pairs with the
    same (N, n, m) get the same shared objects."""
    from neargroup.solvers import pair_classes

    shared: dict = {}
    pairs_per_key: dict = {}
    for f in [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (2, 2), (2, 4), (3, 3)]:
        G = FiniteAbelianGroup(f)
        for b, a, _ in pair_classes(G):
            ctx = ExactContext(G, b, a, 2 * G.order)
            data = cases._branch_data(ctx)
            key = (ctx.N, ctx.n, ctx.m)
            assert shared.setdefault(key, data) is data, f
            pairs_per_key[key] = pairs_per_key.get(key, 0) + 1
            I_branches, II1, II2 = data.case_I, data.case_II, data.case_II_vanishing
            rotations = [(I_branches, _direct_case_I(ctx, s), s) for s in range(3)]
            rotations += [(II1 + II2, _direct_case_II(ctx, j), -j) for j in range(3)]
            for branches, direct, shift in rotations:
                assert [br.name for br in branches] == [name for name, _ in direct]
                for br, (_, mu) in zip(branches, direct):
                    for k in range(3):
                        r = (k + shift) % 3
                        assert br.mu[r].coeffs == mu[k].coeffs, (f, br.name, shift, k)
                        assert br.re[r].coeffs == mu[k].re().coeffs
                        assert br.im[r].coeffs == mu[k].im().coeffs
                        assert br.abs2[r].coeffs == mu[k].abs2().coeffs
    assert max(pairs_per_key.values()) > 1


def test_sign_high_precision_fallback():
    """sqrt(5) - p/q within 1e-17 of 0 is beyond double precision: sign()
    certifies it through numeric_hp, on both sides of 0."""
    G, b, a = _pair(5)
    ctx = ExactContext(G, b, a)
    hp_calls = []
    numeric_hp = ctx.numeric_hp
    ctx.numeric_hp = lambda x, dps=60: hp_calls.append(x) or numeric_hp(x, dps)
    r5 = ctx._sqrt_int(5)
    assert ctx.sign(r5 * r5 - ctx.int(5)) == 0
    assert ctx.sign(r5 - r5) == 0
    # convergents p/q of sqrt(5) = [2; 4, 4, ...], alternately below and above
    p0, q0, p, q = 2, 1, 9, 4
    while q < 10**9:
        p0, q0, p, q = p, q, 4 * p + p0, 4 * q + q0
    for p, q in ((p0, q0), (p, q)):
        # |sqrt(5) - p/q| = |5 q^2 - p^2| / (q (sqrt(5) q + p)) < 1e-16
        assert abs(5 * q * q - p * p) == 1 and q * (2 * q + p) > 10**16
        want = 1 if 5 * q * q > p * p else -1
        assert ctx.sign(r5 - ctx.q(Fraction(p, q))) == want
    assert len(hp_calls) == 2


def test_sign_bounds_double_rounding():
    """10^12 (sqrt(5) - p/q) has coefficients near 10^13, so its double is off
    by about 1e-3, more than its value: sign() must not trust that double.
    Four convergents from q = 133957148 on, from both sides of sqrt(5)."""
    G, b, a = _pair(5)
    ctx = ExactContext(G, b, a)
    r5 = ctx._sqrt_int(5)
    p0, q0, p, q = 2, 1, 9, 4
    wants = []
    while len(wants) < 4:
        if q >= 133957148:
            x = (r5 - ctx.q(Fraction(p, q))) * ctx.int(10**12)
            wants.append(1 if 5 * q * q > p * p else -1)
            assert ctx.sign(x) == wants[-1], (p, q)
        p0, q0, p, q = p, q, 4 * p + p0, 4 * q + q0
    assert sorted(set(wants)) == [-1, 1]


def test_sign_certifies_past_sixty_digits():
    """sqrt(5) minus its k-digit decimal truncation, k = 60 and 80, and minus
    that truncation plus 10^-k: below the 60-digit bound, so sign() raises
    its precision until the value clears the bound."""
    ctx = ExactContext(*_pair(5))
    r5 = ctx._sqrt_int(5)
    for k in (60, 80):
        p = math.isqrt(5 * 10 ** (2 * k))
        assert ctx.sign(r5 - ctx.q(Fraction(p, 10 ** k))) == 1
        assert ctx.sign(r5 - ctx.q(Fraction(p + 1, 10 ** k))) == -1
        assert ctx.sign(ctx.q(Fraction(p + 1, 10 ** k)) - r5) == 1


def _split(equations):
    """The real and imaginary parts of each equation, in order."""
    return [q for e in equations for q in (e.re(), e.im())]


def test_resolve_t_system_decides_real_roots_in_the_unit_interval():
    """Hand-built systems in t over the Z3 context: a common real root in
    [-1, 1] of the real and imaginary parts, whatever the degree."""
    ctx = ExactContext(*_pair(3))
    t = KPoly.tvar(ctx.field)

    def c(x):
        return KPoly.const(ctx.field, ctx.q(Fraction(x)))

    def resolve(*equations):
        return _resolve_t_system(ctx, _split(equations))

    half = ctx.q(Fraction(1, 2))
    assert resolve(t - c(Fraction(1, 2))) == (True, half)
    assert resolve((t - c(2)) * (t - c(3)) * (t + c(5))) == (False, None)
    assert resolve((t - c(Fraction(1, 3))) * (t * t + c(1)))[0]
    assert resolve(t * t - c(4), t - c(2)) == (False, None)
    assert resolve(t * t - c(1))[0]  # roots at the ends
    double = (c(2) * t - c(1)) * (c(2) * t - c(1))
    assert resolve(double) == (True, None)
    i_eq = (t - c(Fraction(1, 2))) * KPoly.const(ctx.field, ctx.i)
    assert resolve(i_eq) == (True, half)
    assert resolve() == (True, None)


def test_resolve_t_system_refutes_at_the_first_nonzero_constant():
    """A part that is a nonzero constant refutes the system before any part
    after it is read."""
    ctx = ExactContext(*_pair(3))
    t = KPoly.tvar(ctx.field)
    first = KPoly.const(ctx.field, ctx.one) + t * KPoly.const(ctx.field, ctx.i)

    def parts():
        yield first.re()
        raise AssertionError("read past a nonzero constant")

    assert _resolve_t_system(ctx, parts()) == (False, None)
