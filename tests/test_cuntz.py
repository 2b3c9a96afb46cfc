import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neargroup import cuntz
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
    """_sort packs an entry's index into the low bits of its key when there
    is room, and falls back to an argsort when there is not."""
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


def test_zero_test_matches_on_oracle_residuals(monkeypatch):
    """The four residual families of the z3_m3 oracle, clean and perturbed."""
    seen = []

    def recording(x):
        seen.append((normalize_residual(x), _zero_test_reference(x)))
        return seen[-1][0]

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


def test_oracle_memory_bound(corpus_tuples, traced_peak_mb):
    """The zero test raises one member at a time; raising the rho^2 residual
    of z5_m5 whole took 390 MB."""
    assert traced_peak_mb(oracle_check, corpus_tuples["z5_m5"]) < 240


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
