from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neargroup import corpus, cuntz
from neargroup.corpus import z2_m2, z3_m3
from neargroup.cuntz import (
    CuntzElement,
    build_endomorphism,
    fs_indicators,
    normalize,
    normalize_residual,
    oracle_check,
)
from neargroup.solutions import MNSolution
from neargroup.tuples import build_extraspecial_tuple, build_z2_m1_tuple, to_tuple

ZETA3 = np.exp(2j * np.pi / 3)


# --- engine basics -----------------------------------------------------------

def test_completeness_relation_normalizes_to_identity():
    x = CuntzElement.word(2, (0,), (0,)) + CuntzElement.word(2, (1,), (1,))
    assert normalize_residual(x - CuntzElement.one(2)) == 0.0
    # raising the identity to level 1 gives the completeness table
    raised = normalize(CuntzElement.one(2), level=0)
    assert raised.terms == {((), ()): 1.0 + 0.0j}


def test_orthogonality_reduction():
    prod = CuntzElement.word(2, (), (0,)) * CuntzElement.word(2, (1,))
    assert prod.support() == 0


def test_one_step_reduction():
    prod = CuntzElement.word(2, (0,), (1,)) * CuntzElement.word(2, (1,), (0,))
    assert normalize_residual(prod - CuntzElement.word(2, (0,), (0,))) == 0.0


def test_normalize_idempotent_and_level_error():
    x = CuntzElement.word(3, (0,), ()) + CuntzElement.word(3, (1, 2), (0,)) * 0.5
    y = normalize(x, level=2)
    assert normalize_residual(y - x) == 0.0
    with pytest.raises(ValueError):
        normalize(x, level=1)


def _random_element(rng, N=3, max_len=2, terms=3):
    out = CuntzElement.zero(N)
    for _ in range(terms):
        mu = tuple(rng.integers(0, N, size=rng.integers(0, max_len + 1)))
        nu = tuple(rng.integers(0, N, size=rng.integers(0, max_len + 1)))
        coeff = complex(rng.normal(), rng.normal())
        out = out + CuntzElement.word(N, mu, nu, coeff)
    return out


def test_algebra_laws_bulk(rng):
    for _ in range(300):
        x = _random_element(rng)
        y = _random_element(rng)
        z = _random_element(rng)
        lhs = (x * y) * z
        rhs = x * (y * z)
        assert normalize_residual(lhs - rhs) < 1e-12
        assert normalize_residual((x * y).adjoint() - y.adjoint() * x.adjoint()) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_algebra_laws_hypothesis(seed):
    rng = np.random.default_rng(seed)
    x, y, z = (_random_element(rng) for _ in range(3))
    assert normalize_residual((x * y) * z - x * (y * z)) < 1e-12
    assert normalize_residual((x * y).adjoint() - y.adjoint() * x.adjoint()) < 1e-12
    assert normalize_residual((x + y).adjoint() - (x.adjoint() + y.adjoint())) < 1e-12


def _product_reference(x, y):
    """The word product term by term: S_nu1^* S_mu2 reduces on the shorter
    word's length."""
    out = {}
    for (mu1, nu1), c1 in x.terms.items():
        for (mu2, nu2), c2 in y.terms.items():
            k = min(len(nu1), len(mu2))
            if nu1[:k] == mu2[:k]:
                key = (mu1 + mu2[k:], nu2 + nu1[k:])
                out[key] = out.get(key, 0) + c1 * c2
    return out


@pytest.mark.parametrize("small_join", [cuntz._SMALL_JOIN, 0])  # 0: always merge
def test_product_matches_word_reduction(rng, monkeypatch, small_join):
    monkeypatch.setattr(cuntz, "_SMALL_JOIN", small_join)
    for _ in range(20):
        x = _random_element(rng, N=3, max_len=3, terms=30)
        y = _random_element(rng, N=3, max_len=3, terms=30)
        ref = _product_reference(x, y)
        got = (x * y).terms
        assert set(got) <= set(ref)
        assert all(abs(got.get(k, 0) - v) < 1e-12 for k, v in ref.items())


def test_sort_matches_stable_argsort(rng):
    """_sort gives the keys in order and the stable permutation that sorts
    them, empty and single entries included."""
    for n, top in [(0, 1), (1, 1), (511, 50), (512, 50), (5000, 300), (5000, 2**40),
                   (5000, 2**62)]:
        key = rng.integers(0, top, n)
        got_key, got_order = cuntz._sort(key)
        order = np.argsort(key, kind="stable")
        assert np.array_equal(got_order, order) and np.array_equal(got_key, key[order])


def _coo(rng, n, keys, lines):
    """n COO entries with keys in [0, keys), line indices in [0, lines)
    and complex values; (key, line) pairs may repeat."""
    return (rng.integers(0, keys, n), rng.integers(0, lines, n),
            rng.normal(size=n) + 1j * rng.normal(size=n))


def _dense(rows, cols, vals, shape):
    out = np.zeros(shape, complex)
    np.add.at(out, (rows, cols), vals)
    return out


def test_join_matches_dense_reference(rng):
    """_join against a dense product A @ B on random COO inputs: repeated
    keys, no common key, single entries, both sides of _SMALL_JOIN and both
    ways the merge join sums its pairs (a bincount over the compressed
    left x right table when that is at most 2 pairs + 4096 cells, else a
    sort).  Each (left, right) comes out once."""
    # (A entries, B entries, key range, left range, right range)
    cases = [(1, 1, 1, 1, 1), (1, 40, 3, 1, 50), (40, 1, 3, 50, 1),
             (20, 30, 4, 6, 9), (40, 50, 8, 10, 12),                    # broadcast
             (60, 60, 5, 7, 9), (300, 400, 12, 20, 30), (1, 4000, 3, 1, 5000),  # bincount
             (300, 400, 60, 5000, 8000), (500, 2000, 1000, 600, 4000),
             (600, 800, 200, 10**6, 10**6)]                             # sort
    branches = set()
    for nA, nB, keys, lines_a, lines_b in cases:
        jA, left, va = _coo(rng, nA, keys, lines_a)
        jB, right, vb = _coo(rng, nB, keys, lines_b)
        ul, il = np.unique(left, return_inverse=True)
        ur, ir = np.unique(right, return_inverse=True)
        for shift in (0, keys):  # the second pass has no common key
            L, R, V = cuntz._join(jA, left, va, cuntz._Side(jB + shift, right, vb))
            assert len(set(zip(L.tolist(), R.tolist()))) == len(L)
            ref = (_dense(il, jA, va, (len(ul), 2 * keys))
                   @ _dense(jB + shift, ir, vb, (2 * keys, len(ur))))
            got = np.zeros_like(ref)
            got[np.searchsorted(ul, L), np.searchsorted(ur, R)] = V
            assert np.abs(got - ref).max() < 1e-12
            assert not (shift and V.any())
        pairs = int((jA[:, None] == jB[None, :]).sum())
        if nA * nB <= cuntz._SMALL_JOIN:
            branches.add("broadcast")
        else:
            branches.add("bincount" if len(ul) * len(ur) <= 2 * pairs + 4096 else "sort")
    assert branches == {"broadcast", "bincount", "sort"}

    # C = 0 with C[0, 0] = 1 * 1 + 1 * (-1) and keys 2, 3 unmatched, through
    # broadcast, bincount and sort: the merge join leaves out the exact zero
    for extra_a, extra_b in ((0, 0), (0, 3000), (5000, 3000)):
        jA = np.r_[0, 1, np.full(extra_a, 3)]
        left = np.r_[0, 0, np.arange(1, extra_a + 1)]
        jB = np.r_[0, 1, np.full(extra_b, 2)]
        right = np.r_[0, 0, np.arange(1, extra_b + 1)]
        vb = np.r_[1.0, -1.0, np.ones(extra_b)].astype(complex)
        L, R, V = cuntz._join(jA, left, np.ones(len(jA), complex),
                              cuntz._Side(jB, right, vb))
        assert not V.any()
        assert len(V) == (extra_b == 0)


# oracle_check residuals of the bundled entries up to alphabet 10, as the
# scipy.sparse CSR join gave them
ORACLE_RESIDUALS = {
    "z2_m2": (2.223874440884006e-16, 2.22343258278262e-16, 5.33167196845001e-16,
              3.638888761420081e-16),
    "z3_m3": (4.440892098500626e-16, 4.440892098500626e-16, 1.0007415106216803e-15,
              9.104505742017336e-16),
    "z4_m4": (1.6653345369377348e-16, 1.3877787807814457e-16, 5.495323605393213e-16,
              4.566033433644937e-16),
    "z2z2_m4": (1.3877787807814457e-16, 1.3877787807814457e-16, 3.3945305132446987e-16,
                3.6739403974420594e-16),
    "z3_m6": (4.440892098500626e-16, 4.440892098500626e-16, 1.2008898127460164e-15,
              8.95090418262362e-16),
    "z5_m5": (2.220446049250313e-16, 2.220446049250313e-16, 6.882211668485252e-16,
              4.25161353885613e-16),
}


def test_oracle_residuals_match_csr_join(corpus_tuples):
    """The merge join sums in another order than scipy's CSR product did; the
    oracle's residuals stay at rounding level, within 1e-15 of the CSR ones."""
    for name, want in ORACLE_RESIDUALS.items():
        got = oracle_check(corpus_tuples[name]).per_equation
        assert list(got) == ["rho_isometry", "rho_complete", "rho_squared", "rho_U"]
        assert np.abs(np.array(list(got.values())) - want).max() <= 1e-15, name


def test_families_act_member_by_member(rng):
    images = build_endomorphism(to_tuple(z3_m3())).images  # K = 6
    y = _random_element(rng, N=6, max_len=2, terms=4)
    pairs = [(images * y, lambda k: images.members(k, k + 1) * y),
             (y * images, lambda k: y * images.members(k, k + 1)),
             (images * images.adjoint(), lambda k: images.members(k, k + 1)
              * images.members(k, k + 1).adjoint())]
    for fam, member in pairs:
        assert fam.K == 6
        for k in range(6):
            assert normalize_residual(fam.members(k, k + 1) - member(k)) < 1e-12


def test_rho_matches_product_of_images(rng):
    """rho applied by the Horner recursion equals rho(S_mu) rho(S_nu)^*
    multiplied out from the generator images, term by term."""
    rho = build_endomorphism(to_tuple(z3_m3()))
    image = [rho.images.members(i, i + 1) for i in range(rho.N)]
    for _ in range(10):
        x = _random_element(rng, N=rho.N, max_len=2, terms=3)
        ref = CuntzElement.zero(rho.N)
        for (mu, nu), c in x.terms.items():
            term = CuntzElement.one(rho.N) * c
            for letter in mu:
                term = term * image[letter]
            for letter in reversed(nu):
                term = term * image[letter].adjoint()
            ref = ref + term
        assert normalize_residual(rho.apply(x) - ref) < 1e-12


# --- the oracle ----------------------------------------------------------------

def test_oracle_z2_m2():
    rep = oracle_check(to_tuple(z2_m2()), tolerance=1e-9)
    assert rep.passed
    assert rep.max_residual < 1e-12


def test_oracle_z2_m1_in_O3():
    t = build_z2_m1_tuple(1.0)
    assert t.alphabet == 3
    rep = oracle_check(t, tolerance=1e-9)
    assert rep.passed


def test_oracle_detects_perturbation():
    s = z2_m2()
    b = s.b.copy()
    b[1] += 1e-3
    bad = MNSolution(s.group, s.bichar, s.form, b, s.c)
    t = to_tuple(bad, check=False)
    rep = oracle_check(t, tolerance=1e-9)
    assert rep.per_equation["rho_squared"] >= 1e-4
    assert not rep.passed


def test_oracle_reports_real_residuals():
    """Nothing is pruned: a 5e-15 perturbation shows in the residuals, and an
    exact solution reads at rounding level."""
    s = z2_m2()
    assert oracle_check(to_tuple(s)).max_residual < 1e-15
    b = s.b.copy()
    b[1] += 5e-15
    bad = MNSolution(s.group, s.bichar, s.form, b, s.c)
    rep = oracle_check(to_tuple(bad, check=False))
    assert rep.per_equation["rho_squared"] > 2e-15


def test_alpha_is_homomorphism():
    rho = build_endomorphism(to_tuple(z3_m3()))
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = _random_element(rng, N=rho.N, max_len=2, terms=2)
        y = _random_element(rng, N=rho.N, max_len=2, terms=2)
        lhs = rho.alpha(1, x * y)
        rhs = rho.alpha(1, x) * rho.alpha(1, y)
        assert normalize_residual(lhs - rhs) < 1e-10


# --- Frobenius-Schur indicators ---------------------------------------------

def test_fs_extraspecial_signs():
    (nu21, _, _), rep = fs_indicators(build_extraspecial_tuple(1, "D", 1.0))
    assert nu21 == 1 and rep.passed
    (nu21, _, _), rep = fs_indicators(build_extraspecial_tuple(1, "Q", 1.0))
    assert nu21 == -1 and rep.passed


def test_fs_z2_m1_distinguishes_categories():
    vals = []
    for zeta in (1.0, ZETA3, ZETA3**2):
        (_, nu31, _), rep = fs_indicators(build_z2_m1_tuple(zeta))
        assert rep.passed
        vals.append(nu31)
        assert abs(nu31 - np.conj(zeta)) < 1e-12
    assert len({np.round(v, 8) for v in vals}) == 3


def test_fs_z3_m3_value():
    (_, nu31, _), rep = fs_indicators(to_tuple(z3_m3()))
    assert rep.passed
    assert abs(nu31 - np.sqrt(3) * np.exp(-1j * np.pi / 6)) < 1e-9


def _fs_reference(t):
    """fs_indicators read off the whole endomorphism: rho(S_e) as member e of
    {U(g) rho(S_e) U(g)^*}_g, the rho(T_i) as members of the images, and the
    non-scalar part as a difference formed before the zero test."""
    n, m = t.n, t.m
    N = n + m
    rho = build_endomorphism(t)
    Se = CuntzElement.word(N, (0,))
    rho_T = rho.images.members(n, N)
    base = Se.adjoint() * rho_T * (rho.images.members(0, 1) * Se)
    E3 = t.d * np.array([(CuntzElement.word(N, (), (n + i, 0)) * base).scalars()
                         for i in range(m)])
    x = n + np.arange(m)[:, None]
    j = np.arange(m)
    j2T = cuntz._entries(N, 1, 2, 0, 0, x * N + n + j, 0, t.M2)
    j1T = cuntz._entries(N, 1, 2, 0, 0, j * N + x, 0, t.M1)
    acc = j2T.adjoint() * (cuntz._fold(rho_T) * j1T)
    scalar = acc.scalars()[0]
    nu31_trace = complex(np.trace(t.M1 @ np.conj(t.M2)))
    checks = {
        "nu31_trace_vs_word": abs(nu31_trace - complex(np.trace(E3))),
        "E3_cubed_identity": float(np.max(np.abs(E3 @ E3 @ E3 - np.eye(m)))),
        "j1j2_period3": float(np.max(np.abs(
            np.linalg.matrix_power(t.M2 @ np.conj(t.M1), 3) - np.eye(m)))),
        "nu41_scalar_part": normalize_residual(acc - CuntzElement.one(N) * scalar),
    }
    nu41 = sum(np.conj(t.chi[g, g]) for g in range(n)) / t.d + scalar
    return (complex(t.eps), nu31_trace, nu41), checks


def test_fs_indicators_match_full_endomorphism(corpus_tuples):
    """fs_indicators builds only rho(S_e) and the rho(T_i); its values and
    checks are bit for bit those read off build_endomorphism."""
    cases = dict(corpus_tuples)
    for k, kind in [(1, "D"), (1, "Q"), (2, "D")]:
        cases[f"extraspecial-{k}{kind}"] = build_extraspecial_tuple(k, kind, ZETA3)
    for i, zeta in enumerate((1.0, ZETA3, ZETA3**2)):
        cases[f"z2_m1-{i}"] = build_z2_m1_tuple(zeta)
    for name, t in cases.items():
        values, rep = fs_indicators(t)
        ref_values, ref_checks = _fs_reference(t)
        assert np.array(values).tobytes() == np.array(ref_values).tobytes(), name
        assert list(rep.per_equation) == list(ref_checks), name
        assert np.array(list(rep.per_equation.values())).tobytes() \
            == np.array(list(ref_checks.values())).tobytes(), name


def _zero_test_reference(x):
    """normalize_residual with every member raised at once."""
    top = {}
    for a, b in x.blocks:
        top[a - b] = max(top.get(a - b, 0), b)
    y = cuntz._raised(x, lambda a, b: top[a - b] - b)
    return max((float(np.abs(v).max()) for _, _, v in y.blocks.values()), default=0.0)


def test_zero_test_matches_whole_family_raise(rng):
    def element():
        return _random_element(rng, N=3, max_len=3, terms=6)

    cases = [cuntz._stack(*(element() for _ in range(K))) for K in (1, 3, 6)]
    cases.append(cuntz._stack(element(), CuntzElement.zero(3), element()))
    cases.append(cuntz._stack(CuntzElement.zero(3), element()))
    for x in cases:
        assert normalize_residual(x) == pytest.approx(_zero_test_reference(x), abs=1e-15)


def _gathered(terms):
    """The sum of the terms, formed as an element."""
    total = terms[0]
    for x in terms[1:]:
        total = total + x
    return total


def test_zero_test_matches_on_oracle_residuals(monkeypatch):
    """The four residual families of the z3_m3 oracle, clean and perturbed.
    The oracle hands each residual to the zero test as its terms; the zero
    test of their gathered sum reads the same, bit for bit."""
    seen = []

    def recording(*terms):
        got = normalize_residual(*terms)
        assert len(terms) > 1 and got == normalize_residual(_gathered(terms))
        seen.append((got, _zero_test_reference(_gathered(terms))))
        return got

    monkeypatch.setattr(cuntz, "normalize_residual", recording)
    s = z3_m3()
    b = s.b.copy()
    b[1] += 1e-4
    for t in (to_tuple(s), to_tuple(MNSolution(s.group, s.bichar, s.form, b, s.c),
                                     check=False)):
        oracle_check(t)
    assert len(seen) == 8
    for got, ref in seen:
        assert got == pytest.approx(ref, abs=1e-15)
    assert max(got for got, _ in seen[4:]) > 1e-5


def _fan(N, mu, nu, c, drop=()):
    """c S_mu S_nu^* - sum_i c S_{mu i} S_{nu i}^* over the letters i not in
    drop: 0 in O_N when drop is empty."""
    out = CuntzElement.word(N, mu, nu, c)
    for i in range(N):
        if i not in drop:
            out = out - CuntzElement.word(N, mu + (i,), nu + (i,), c)
    return out


def test_zero_test_on_fans():
    """A complete fan reads exactly 0, at one level and across two, and a
    fan with one child missing reads |c|, in grades of both signs and for
    words longer than one spread table covers (N = 8, 9 letters)."""
    c = 0.3 - 1.7j
    for N, mu, nu in [(2, (), ()), (3, (1,), ()), (3, (), (2, 0)), (5, (4, 1), (3,)),
                      (8, (1,) * 9, (2,) * 8), (8, (5,) * 7, (6,) * 9)]:
        two = _fan(N, mu, nu, c) + _fan(N, mu + (0,), nu + (0,), c)
        assert normalize_residual(_fan(N, mu, nu, c)) == 0.0
        assert normalize_residual(two) == 0.0
        assert normalize_residual(_fan(N, mu, nu, c, drop=(N - 1,))) == abs(c)
        assert normalize_residual(two + CuntzElement.word(N, mu + (0, 1), nu + (0, 1), c)) \
            == abs(c)


def test_zero_test_on_families_and_empty_elements():
    c = 2.0 - 0.5j
    fan, gap = _fan(3, (), (1,), c), _fan(3, (), (1,), c, drop=(0,))
    assert normalize_residual(cuntz._stack(fan, CuntzElement.zero(3), fan)) == 0.0
    assert normalize_residual(cuntz._stack(fan, CuntzElement.zero(3), gap)) == abs(c)
    assert normalize_residual(CuntzElement.zero(3)) == 0.0
    assert normalize_residual(CuntzElement(3, K=4)) == 0.0


@pytest.mark.parametrize("K", [1, 3, 6])
def test_zero_test_tree_walk_matches_raise(rng, K):
    """Random families, each member with a planted fan, against the whole
    family raised to the top of each grade.  As two operands, x and -y with
    y = x/2 + z for another such family z (so their keys overlap), some
    members emptied, read bit for bit as the difference x - y (drawn from
    their own generator, so the shared one draws what it drew before)."""
    def family(gen, N):
        members = []
        for _ in range(K):
            mu, nu = (tuple(gen.integers(0, N, size=gen.integers(0, 3)).tolist())
                      for _ in range(2))
            members.append(_random_element(gen, N=N, max_len=3, terms=int(gen.integers(0, 10)))
                           + _fan(N, mu, nu, complex(gen.normal(), gen.normal())))
        return members

    own = np.random.default_rng(K)
    for _ in range(40):
        N = int(rng.integers(2, 5))
        members = family(rng, N)
        x = cuntz._stack(*members)
        assert normalize_residual(x) == pytest.approx(_zero_test_reference(x), abs=1e-15)
        others = family(own, N)
        empty = set(own.choice(K, size=int(own.integers(0, K + 1)), replace=False).tolist())
        y = cuntz._stack(*(CuntzElement.zero(N) if k in empty else member * 0.5 + other
                           for k, (member, other) in enumerate(zip(members, others))))
        for a, b in [(x, y), (y, x), (x, x)]:
            assert normalize_residual(a, -b) == normalize_residual(a - b)
        assert normalize_residual(x, -x) == 0.0
        nothing = CuntzElement(N, K=K)
        assert normalize_residual(nothing, -nothing) == normalize_residual(nothing - nothing) == 0.0
        assert normalize_residual(x, -nothing) == normalize_residual(x)


def test_oracle_memory_bound(corpus_tuples, traced_peak_mb):
    """The zero test walks the word tree and raises nothing, (iii) is read
    two folds down, and each residual reaches the zero test as its terms.
    Raising the rho^2 residual of z5_m5 whole took 390 MB, forming rho^2
    181 MB, and reading (iii) one fold down 79.5 MB; two folds down it
    peaked at 35.0 MB on z5_m5 and 9.7 MB on z4_m4 while the difference of
    the two sides was gathered first.  Without that it peaks at 30.6 MB and
    8.6 MB, and the bounds leave about 15 % over that."""
    assert traced_peak_mb(oracle_check, corpus_tuples["z5_m5"]) < 35.2
    assert traced_peak_mb(oracle_check, corpus_tuples["z4_m4"]) < 9.9


def _rho_squared_direct(t):
    """(iii) with rho^2 formed: the zero test of rho(R) - sigma(R)."""
    rho = build_endomorphism(t)
    return normalize_residual(rho.apply(rho.images) - cuntz._sigma(t, rho.images))


def test_rho_squared_matches_direct_route(corpus_tuples):
    """oracle_check reads (iii) two folds down; on the bundled entries up to
    alphabet 9 both readings are at rounding level, and on perturbed tuples
    they agree within a factor of 4."""
    small = [t for t in corpus_tuples.values() if t.alphabet <= 9]
    assert len(small) == 5
    for t in small:
        assert oracle_check(t).per_equation["rho_squared"] < 1e-14
        assert _rho_squared_direct(t) < 1e-14
    for s in (z2_m2(), z3_m3()):
        for eps in (1e-3, 1e-8, 5e-15):
            b = s.b.copy()
            b[1] += eps
            t = to_tuple(MNSolution(s.group, s.bichar, s.form, b, s.c), check=False)
            got, direct = oracle_check(t).per_equation["rho_squared"], _rho_squared_direct(t)
            assert direct / 4 <= got <= 4 * direct, (eps, got, direct)


@pytest.mark.parametrize("name", ["z2_m2", "z3_m3", "z4_m4"])
def test_rho_squared_reads_small_perturbations(name):
    """A 1e-6 change to one l coefficient, or a 1e-6 phase on j2, shows in
    the two-fold reading of (iii) at the size of the change."""
    t = to_tuple(getattr(corpus, name)())
    L = t.ltensor.copy()
    L[tuple(np.argwhere(L != 0)[0])] += 1e-6
    for bad in (replace(t, ltensor=L), replace(t, M2=t.M2 * np.exp(1e-6j))):
        assert oracle_check(bad).per_equation["rho_squared"] >= 1e-7


def test_split_reassembles(rng):
    """x_k = sum_i S_i x_(k,i) for the S_i^* split of a family, words with
    empty mu included (they split through sum_i S_i S_i^* = 1)."""
    N = 3
    for _ in range(20):
        members = [_random_element(rng, N=N, max_len=2, terms=6)
                   + CuntzElement.word(N, (), tuple(rng.integers(0, N, size=2)), 0.5j)
                   for _ in range(3)]
        x = cuntz._stack(*members)
        parts = cuntz._split(x)
        assert parts.K == 3 * N
        for k, member in enumerate(members):
            again = CuntzElement.zero(N)
            for i in range(N):
                again = again + CuntzElement.word(N, (i,)) * parts.members(k * N + i, k * N + i + 1)
            assert normalize_residual(again - member) <= 1e-15


def test_dump_format():
    x = CuntzElement.word(3, (0, 1), (2,), 0.5 + 0.25j)
    dump = x.dump()
    assert dump == [{"word": [0, 1, "*", 2], "coeff": [0.5, 0.25]}]


def test_normalize_idempotent_fixed_level():
    x = (CuntzElement.word(3, (0,), ()) * 0.3
         + CuntzElement.word(3, (1, 2), (0,)) * (1 - 2j))
    y = normalize(x, level=3)
    z = normalize(y, level=3)
    assert sorted(y.terms) == sorted(z.terms)
    for k in y.terms:
        assert abs(y.terms[k] - z.terms[k]) < 1e-15
