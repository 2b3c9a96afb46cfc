import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neargroup.abelian import (
    Bicharacter,
    FiniteAbelianGroup,
    Phase,
    QuadraticForm,
    ResourceError,
    automorphisms,
    enumerate_bicharacters,
    enumerate_quadratic_forms,
    even_quadratic_forms,
    fourier,
    lagrangian_subgroups,
    orthogonal_and_lagrangian,
    subgroup_generated_by,
    subgroups,
)

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z5 = FiniteAbelianGroup((5,))
Z22 = FiniteAbelianGroup((2, 2))


def bichar_zn(n, k=1):
    return Bicharacter(FiniteAbelianGroup((n,)), ((Phase(k, n),),))


# --- phases -----------------------------------------------------------------

def test_phase_reduction_and_arithmetic():
    p = Phase(6, 8)
    assert (p.num, p.den) == (3, 4)
    assert p * p == Phase(1, 2)
    assert p.conj() == Phase(1, 4)
    assert (p ** 4).is_one()
    assert abs(complex(p) - 1j ** 3) < 1e-15


# --- bicharacters -----------------------------------------------------------

def test_z2_unique_nondegenerate_bicharacter():
    bs = enumerate_bicharacters(Z2, nondegenerate_only=True)
    assert len(bs) == 1
    assert bs[0].phase((1,), (1,)) == Phase(1, 2)


def test_z3_two_bicharacters_two_aut_classes():
    # zeta3^{+-gh}, complex conjugates of each other
    bs = enumerate_bicharacters(Z3, nondegenerate_only=True)
    assert len(bs) == 2
    assert bs[0].conj() == bs[1]


def test_bicharacter_constructor_checks_its_gram():
    """A Gram matrix that is not k x k, not symmetric, or has an entry whose
    order does not divide gcd(n_i, n_j) is no bicharacter."""
    Z24 = FiniteAbelianGroup((2, 4))
    one, half, quarter = Phase(0), Phase(1, 2), Phase(1, 4)
    for gram in [((one,),),  # 1 x 1 on a rank-2 group
                 ((one, one), (one,)),  # ragged
                 ((one, half), (one, one)),  # asymmetric
                 ((one, quarter), (quarter, one)),  # order 4 does not divide gcd(2, 4)
                 ((quarter, one), (one, one))]:  # nor gcd(2, 2)
        with pytest.raises(ValueError):
            Bicharacter(Z24, gram)
    assert Bicharacter(Z24, ((half, half), (half, quarter))).D == 4


def test_bicharacter_resource_bound():
    with pytest.raises(ResourceError):
        enumerate_bicharacters(FiniteAbelianGroup((128,)))


# --- quadratic forms ----------------------------------------------------------

def test_bicharacter_matrix_is_the_per_entry_table():
    """matrix(), read from integer exponents, equals the per-entry phase
    table bit for bit on every bicharacter of these groups, degenerate ones
    included."""
    groups = [(2,), (3,), (4,), (5,), (6,), (8,), (12,), (2, 2), (2, 4), (2, 6),
              (3, 3), (2, 2, 2)]
    count = 0
    for factors in groups:
        G = FiniteAbelianGroup(factors)
        els = G.elements()
        for b in enumerate_bicharacters(G):
            ref = np.array([[b.phase(g, h).value() for h in els] for g in els])
            assert np.array_equal(b.matrix().view(np.uint64), ref.view(np.uint64)), (
                factors, b.gram)
            count += 1
    assert count == 179


def test_z2_forms():
    b = bichar_zn(2)
    forms = enumerate_quadratic_forms(b)
    assert len(forms) == 2
    vals = sorted(f.phase((1,)) for f in forms)
    assert vals == [Phase(1, 4), Phase(3, 4)]  # +-i
    assert all(f.is_even() for f in forms)
    assert all(f.is_valid() for f in forms)


def test_z3_even_form_value():
    b = bichar_zn(3)
    evens = even_quadratic_forms(b)
    assert len(evens) == 1
    assert evens[0].phase((1,)) == Phase(1, 3)
    assert evens[0].phase((2,)) == Phase(1, 3)


def test_z5_gauss_form():
    b = bichar_zn(5)
    target = {(g,): Phase(2 * g * g % 5, 5) for g in range(5)}
    assert any(all(f.phase(g) == target[g] for g in target)
               for f in enumerate_quadratic_forms(b))


def test_form_count_is_group_order():
    for G in (Z3, Z22, FiniteAbelianGroup((4,))):
        for b in enumerate_bicharacters(G):
            assert len(enumerate_quadratic_forms(b)) == G.order


# --- fourier -----------------------------------------------------------------

def test_delta_transforms_to_constant():
    b = bichar_zn(3)
    f = np.zeros(3)
    f[0] = 1.0
    assert np.allclose(fourier(f, b), np.ones(3) / math.sqrt(3))


def test_gauss_sum_relation_z5():
    b = bichar_zn(5)
    a = [f for f in enumerate_quadratic_forms(b)
         if all(f.phase((g,)) == Phase(2 * g * g % 5, 5) for g in range(5))][0]
    ah = fourier(a.table(), b)
    assert abs(abs(ah[0]) - 1) < 1e-12
    assert np.allclose(ah, ah[0] * np.conj(a.table()))


def test_z2_gauss_value():
    b = bichar_zn(2)
    a = [f for f in enumerate_quadratic_forms(b) if f.phase((1,)) == Phase(1, 4)][0]
    assert abs(fourier(a.table(), b)[0] - (1 + 1j) / math.sqrt(2)) < 1e-14


# --- automorphisms ------------------------------------------------------------

def test_automorphism_counts():
    assert len(automorphisms(Z2)) == 1
    assert len(automorphisms(Z5)) == 4
    assert len(automorphisms(Z22)) == 6  # GL(2, F2)


def test_automorphisms_listed_once_per_group():
    """Aut(G) is built once per group and shared, as a tuple."""
    for G in (Z5, Z22, FiniteAbelianGroup((3, 3))):
        auts = automorphisms(G)
        assert isinstance(auts, tuple) and automorphisms(G) is auts
        assert automorphisms(FiniteAbelianGroup(G.factors)) is auts


def test_automorphisms_bijective_and_closed():
    auts = automorphisms(Z22)
    for th in auts:
        assert len({th(g) for g in Z22}) == 4
    # closure under composition
    keys = {th.images for th in auts}
    for a in auts:
        for b in auts:
            assert a.compose(b).images in keys


# --- subgroups / lagrangians ---------------------------------------------------

def test_z2z2_lagrangian():
    from neargroup.corpus import z2z2_m4

    s = z2z2_m4()
    H = subgroup_generated_by(Z22, [(1, 1)])
    perp, isotropic, lagrangian = orthogonal_and_lagrangian(Z22, s.bichar, s.form, H)
    assert isotropic and lagrangian
    assert set(perp.elements) == {(0, 0), (1, 1)}


def test_z3z3_exactly_two_lagrangians():
    Z33 = FiniteAbelianGroup((3, 3))
    gram = ((Phase(1, 3), Phase(0)), (Phase(0), Phase(2, 3)))
    b = Bicharacter(Z33, gram)
    a = QuadraticForm(b, tuple(Phase((g[0] ** 2 - g[1] ** 2) % 3, 3) for g in Z33))
    assert a.is_valid() and a.is_even()
    lags = lagrangian_subgroups(Z33, b, a)
    assert sorted(H.elements for H in lags) == [
        ((0, 0), (1, 1), (2, 2)),
        ((0, 0), (1, 2), (2, 1)),
    ]


def test_trivial_subgroup_perp_is_group():
    b = bichar_zn(3)
    H = subgroup_generated_by(Z3, [])
    perp, isotropic, lagrangian = orthogonal_and_lagrangian(Z3, b, None, H)
    assert isotropic and not lagrangian
    assert len(perp.elements) == 3


def test_unclosed_subgroup_rejected():
    from neargroup.abelian import Subgroup

    H = Subgroup(Z3, (0, 1))
    with pytest.raises(ValueError):
        orthogonal_and_lagrangian(Z3, bichar_zn(3), None, H)


def test_canonicalization():
    G = FiniteAbelianGroup((2, 2, 3))
    C, iso = G.canonicalized()
    assert C.factors == (2, 6)
    images = {iso(g) for g in G}
    assert len(images) == 12
    for g in G:
        for h in G:
            assert iso(G.add(g, h)) == C.add(iso(g), iso(h))


# --- hypothesis property suites -------------------------------------------------

small_groups = st.sampled_from([
    FiniteAbelianGroup(f) for f in [(2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4)]
])


@settings(max_examples=30, deadline=None)
@given(small_groups, st.integers(0, 10**6))
def test_bicharacter_identities(G, pick):
    bs = enumerate_bicharacters(G)
    b = bs[pick % len(bs)]
    els = G.elements()
    for g in els:
        for h in els:
            assert b.phase(g, h) == b.phase(h, g)
            for gp in els:
                assert b.phase(G.add(g, gp), h) == b.phase(g, h) * b.phase(gp, h)


@settings(max_examples=20, deadline=None)
@given(small_groups, st.integers(0, 10**6), st.integers(0, 10**6))
def test_quadratic_form_identities(G, pick_b, pick_a):
    bs = enumerate_bicharacters(G)
    b = bs[pick_b % len(bs)]
    forms = enumerate_quadratic_forms(b)
    a = forms[pick_a % len(forms)]
    for g in G:
        for h in G:
            assert a.phase(G.add(g, h)) * b.phase(g, h) == a.phase(g) * a.phase(h)


@settings(max_examples=20, deadline=None)
@given(small_groups, st.integers(0, 10**6), st.data())
def test_plancherel_and_double_transform(G, pick, data):
    bs = enumerate_bicharacters(G, nondegenerate_only=True)
    if not bs:
        return
    b = bs[pick % len(bs)]
    f = np.array(data.draw(st.lists(
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        min_size=G.order, max_size=G.order)))
    fh = fourier(f, b)
    assert abs(np.linalg.norm(fh) - np.linalg.norm(f)) < 1e-9
    from neargroup.abelian import reflection

    assert np.allclose(fourier(fh, b), reflection(G) @ f, atol=1e-9)


# --- the index-table path against element-wise references ----------------------
#
# Each reference below evaluates one element (or one pair) at a time, with
# Fraction exponents and tuple arithmetic; the package reads the same data off
# the index tables and the bicharacter's exponent table.

TABLE_GROUPS = [FiniteAbelianGroup(f) for f in
                [(n,) for n in range(2, 13)] + [(2, 2), (2, 4), (2, 6), (3, 3), (2, 2, 2)]]


def ref_phase(b, g, h):
    """sum_ij g_i h_j q_ij over the Gram exponents q_ij, summed over their
    common denominator L."""
    L = math.lcm(*(p.den for row in b.gram for p in row))
    return Phase.from_fraction(Fraction(sum(gi * hj * b.gram[i][j].num * (L // b.gram[i][j].den)
                                            for i, gi in enumerate(g)
                                            for j, hj in enumerate(h)), L))


def ref_apply(th, g):
    G = th.group
    out = G.zero()
    for gi, img in zip(g, th.images):
        out = G.add(out, G.smul(gi, img))
    return out


def ref_radical(b):
    G = b.group
    return [g for g in G if all(ref_phase(b, g, e).is_one() for e in G.generators())]


def ref_bichar_pullback(b, th):
    gens = [ref_apply(th, e) for e in b.group.generators()]
    return Bicharacter(b.group, tuple(tuple(ref_phase(b, e, f) for f in gens) for e in gens))


def ref_form_values_pullback(a, images):
    """a(theta(g)) over the elements, given the index of theta(g) for each g."""
    return tuple(a.values[i] for i in images)


def ref_is_valid(a, b_table):
    """a(g+h) <g,h> = a(g) a(h) everywhere, given the exponents of ref_phase:
    the exponents of both sides differ by an integer."""
    G = a.group
    q = [p.exponent for p in a.values]
    return all((q[G.index_of(G.add(g, h))] + b_table[g, h] - q[i] - q[j]).denominator == 1
               for i, g in enumerate(G) for j, h in enumerate(G))


def ref_is_even(a):
    G = a.group
    return all(a.phase(G.neg(g)) == a.phase(g) for g in G)


def ref_inverse_images(th):
    G = th.group
    table = {ref_apply(th, g): g for g in G}
    return tuple(table[e] for e in G.generators())


def _units(D):
    return [k for k in range(1, D + 1) if math.gcd(k, D) == 1]


def same(x, ref):
    """x equals ref, built by the Phase constructor from reference values,
    under == and hash: the stored exponents are over the same least D."""
    return x == ref and hash(x) == hash(ref)


def test_bicharacters_on_the_exponent_table():
    """phase, radical, the Galois image at every unit k and the pull-back by
    every automorphism equal their element-wise references on every
    bicharacter, degenerate ones included; the images and pull-backs equal,
    under == and hash, the bicharacters built from the reference phases."""
    count = 0
    for G in TABLE_GROUPS:
        els, auts = G.elements(), automorphisms(G)
        for b in enumerate_bicharacters(G):
            assert all(b.phase(g, h) == ref_phase(b, g, h) for g in els for h in els), b
            assert b.radical() == ref_radical(b), b
            assert b.is_nondegenerate() == (len(ref_radical(b)) == 1), b
            D = b.exponents[0]
            for k in _units(D):
                gram = tuple(tuple(Phase.from_fraction(k * p.exponent) for p in row)
                             for row in b.gram)
                assert b.galois(k).gram == gram, (b, k)
                assert same(b.galois(k), Bicharacter(G, gram)), (b, k)
            assert b.conj() == b.galois(-1) == b.galois(D - 1)
            for th in auts:
                assert same(b.pullback(th), ref_bichar_pullback(b, th)), (b, th)
            count += 1
    assert count == 216


def test_automorphisms_on_the_index_tables():
    """permutation() is theta(g) element by element, inverse() inverts it,
    and every automorphism is a bijection."""
    count = 0
    for G in TABLE_GROUPS:
        els = G.elements()
        for th in automorphisms(G):
            perm = th.permutation()
            assert perm.tolist() == [G.index_of(ref_apply(th, g)) for g in els], th
            assert sorted(perm.tolist()) == list(range(G.order)), th
            inv = th.inverse()
            assert inv.images == ref_inverse_images(th), th
            assert inv.compose(th).is_identity() and th.compose(inv).is_identity(), th
            assert all(th(g) == ref_apply(th, g) for g in els), th
            count += 1
    assert count == 1 + 2 + 2 + 4 + 2 + 6 + 4 + 6 + 4 + 10 + 4 + 6 + 8 + 12 + 48 + 168


def test_quadratic_forms_on_the_index_tables():
    """enumerate_quadratic_forms gives |G| distinct forms of each
    bicharacter, so all of them; is_valid, is_even, the Galois image at every
    unit k and the pull-back by every automorphism equal their element-wise
    references on every one.  is_valid is also read on each form's values put over
    the next bicharacter in the list: a form fixes its bicharacter,
    <g,h> = a(g) a(h) / a(g+h), so that is never valid.  Every enumerated
    form, Galois image and pull-back equals, under == and hash, the form the
    Phase constructors build from its reference values."""
    forms = valid = even = 0
    for G in TABLE_GROUPS:
        els = G.elements()
        auts = [(th, [G.index_of(ref_apply(th, g)) for g in els]) for th in automorphisms(G)]
        bs = enumerate_bicharacters(G)
        tabs = {b: {(g, h): ref_phase(b, g, h).exponent for g in els for h in els} for b in bs}
        for b, other in zip(bs, bs[1:] + bs[:1]):
            pulled = [b.pullback(th) for th, _ in auts]
            ref_pulled = [ref_bichar_pullback(b, th) for th, _ in auts]
            b_forms = enumerate_quadratic_forms(b)
            assert len({a.values for a in b_forms}) == G.order  # all of them, with validity
            for a in b_forms:
                assert a.is_valid() and ref_is_valid(a, tabs[b]), a
                assert same(a, QuadraticForm(b, a.values)), a
                moved = QuadraticForm(other, a.values)
                assert moved.is_valid() == ref_is_valid(moved, tabs[other]), moved
                valid += moved.is_valid()
                assert a.is_even() == ref_is_even(a), a
                even += a.is_even()
                for k in _units(a.exponents[0]):
                    ak = a.galois(k)
                    assert ak.bichar == b.galois(k), (a, k)
                    ref_values = tuple(Phase.from_fraction(k * p.exponent) for p in a.values)
                    assert ak.values == ref_values, (a, k)
                    ref_gram = tuple(tuple(Phase.from_fraction(k * p.exponent) for p in row)
                                     for row in b.gram)
                    assert same(ak, QuadraticForm(Bicharacter(G, ref_gram), ref_values)), (a, k)
                assert a.conj() == a.galois(-1)
                for (th, images), bb, ref_bb in zip(auts, pulled, ref_pulled):
                    ap = a.pullback(th)
                    ref_values = ref_form_values_pullback(a, images)
                    assert ap.values == ref_values, (a, th)
                    assert ap.bichar == bb, (a, th)
                    assert same(ap, QuadraticForm(ref_bb, ref_values)), (a, th)
                forms += 1
    assert (forms, even, valid) == (1852, 850, 0)


def ref_pair_classes(G):
    """The element-wise pair enumeration the table path replaced: each pair
    keyed by its Gram exponents and form exponents, pulled back by every
    automorphism and moved by every Galois substitution entry by entry."""
    auts = automorphisms(G)
    els = G.elements()

    def key(b, a):
        return b.gram, tuple(p.exponent for p in a.values)

    def pulled(b, a, th):
        images = [G.index_of(ref_apply(th, g)) for g in els]
        return ref_bichar_pullback(b, th), ref_form_values_pullback(a, images)

    def galois(b, a, k):
        gram = tuple(tuple(Phase.from_fraction(k * p.exponent) for p in row) for row in b.gram)
        bk = Bicharacter(G, gram)
        return bk, QuadraticForm(bk, tuple(Phase.from_fraction(k * p.exponent)
                                           for p in a.values))

    rep_of, reps = {}, []
    for b in enumerate_bicharacters(G):
        if len(ref_radical(b)) != 1:
            continue
        for a in enumerate_quadratic_forms(b):
            if ref_is_even(a) and key(b, a) not in rep_of:
                for th in auts:
                    bb, vals = pulled(b, a, th)
                    rep_of.setdefault((bb.gram, tuple(p.exponent for p in vals)),
                                      len(reps))
                reps.append((b, a))
    lcm_den = math.lcm(*(p.den for b, a in reps for row in (*b.gram, a.values) for p in row))
    ids, out = {}, []
    for b, a in reps:
        least = min(rep_of[key(*galois(b, a, k))] for k in _units(lcm_den))
        out.append((b, a, ids.setdefault(least, len(ids))))
    return out


def test_pair_classes_matches_the_element_wise_enumeration():
    """pair_classes, keyed on permuted exponent arrays, gives the
    representatives, their order and the Galois orbit ids of the element-wise
    enumeration."""
    from neargroup.solvers import pair_classes

    for G in TABLE_GROUPS:
        assert pair_classes(G) == ref_pair_classes(G), G


def _orders_of(G, H):
    """The order of each coset g + H of G/H, one per coset."""
    hset, orders = set(H.elements), {}
    for g in G:
        coset = min(G.add(g, h) for h in hset)
        k, x = 1, g
        while x not in hset:
            k, x = k + 1, G.add(x, g)
        orders[coset] = k
    return sorted(orders.values())


def test_invariant_factors_from_element_orders():
    """G's element orders give canonicalized()'s factors, and each quotient
    G/H, read off its coset orders, has order |G|/|H| and the element orders
    of the group its factors name."""
    from neargroup.abelian import invariant_factors

    quotients = 0
    for G in TABLE_GROUPS + [FiniteAbelianGroup((2, 2, 3)), FiniteAbelianGroup((4, 6))]:
        assert invariant_factors([G.element_order(g) for g in G]) == G.canonicalized()[0].factors
        for H in subgroups(G):
            factors = invariant_factors(_orders_of(G, H))
            Q = FiniteAbelianGroup(factors) if factors else None
            assert (Q.order if Q else 1) == G.order // H.order, (G, H.elements)
            assert (sorted(Q.element_order(x) for x in Q) if Q else [1]) == _orders_of(G, H)
            quotients += 1
    assert quotients == 105


# --- subgroups and automorphism operations against the element-wise code ------

def ref_subgroup_generated_by(G, gens):
    """The tuple-set closure the index tables replaced: (sorted elements,
    generators)."""
    gens = [G.reduce(g) for g in gens]
    seen = {G.zero()}
    frontier = [G.zero()]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = G.add(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return tuple(sorted(seen)), tuple(gens)


def ref_subgroups(G):
    """The breadth-first search over generator sets the index tables
    replaced: (elements, generators) of every subgroup, sorted by order, then
    by elements."""
    trivial = ref_subgroup_generated_by(G, [])
    found = {trivial[0]: trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for els, gens in frontier:
            for g in G:
                if g in set(els):
                    continue
                K = ref_subgroup_generated_by(G, list(gens) + [g])
                if K[0] not in found:
                    found[K[0]] = K
                    nxt.append(K)
        frontier = nxt
    return sorted(found.values(), key=lambda K: (len(K[0]), K[0]))


def ref_orthogonal_and_lagrangian(G, b, a, els, gens):
    """H_perp's elements, isotropic and Lagrangian, read element by element
    off H's generators and elements."""
    perp = tuple(g for g in G if all(b.phase(g, h).is_one() for h in gens))
    isotropic = set(els) <= set(perp)
    lagrangian = set(els) == set(perp)
    if lagrangian and a is not None:
        lagrangian = all(a.phase(h).is_one() for h in els)
    return perp, isotropic, lagrangian


def ref_compose_images(th, other):
    return tuple(ref_apply(th, g) for g in other.images)


SUBGROUP_GROUPS = TABLE_GROUPS + [FiniteAbelianGroup((2, 2, 2, 2))]


def test_subgroups_match_the_element_wise_search():
    """subgroups() lists the subgroups of the tuple-set search, in its
    order; each is closed and is the subgroup generated by the search's
    generators."""
    count = 0
    for G in SUBGROUP_GROUPS:
        subs, ref = subgroups(G), ref_subgroups(G)
        assert [H.elements for H in subs] == [els for els, _ in ref], G
        for H, (els, gens) in zip(subs, ref):
            assert H.is_closed() and H.order == len(els), (G, els)
            assert subgroup_generated_by(G, gens) == H, (G, els)
            assert ref_subgroup_generated_by(G, gens)[0] == els, (G, els)
        count += len(subs)
    assert count == 79 + 67


def test_is_closed_on_small_index_sets():
    """is_closed holds for an index set of at most three elements exactly
    when it is the index set of a subgroup."""
    from neargroup.abelian import Subgroup

    for G in SUBGROUP_GROUPS:
        closed = {H.index for H in subgroups(G) if H.order <= 3}
        for k in (1, 2, 3):
            for index in itertools.combinations(range(G.order), k):
                assert Subgroup(G, index).is_closed() == (index in closed), (G, index)


def test_perp_and_lagrangians_match_the_element_wise_code():
    """For every pair (b, a) and every subgroup H, orthogonal_and_lagrangian
    gives the element-wise H_perp, isotropic and Lagrangian answers, with the
    form and without it.  The pairs are every nondegenerate b with each of
    its forms, and on Z2^4 (448 such b, 16 forms each) the pair_classes
    pairs."""
    from neargroup.solvers import pair_classes

    checked = lagrangians = 0
    for G in SUBGROUP_GROUPS:
        subs = list(zip(subgroups(G), ref_subgroups(G)))
        if G in TABLE_GROUPS:
            pairs = [(b, a) for b in enumerate_bicharacters(G, nondegenerate_only=True)
                     for a in enumerate_quadratic_forms(b)]
        else:
            pairs = [(b, a) for b, a, _ in pair_classes(G)]
        for b, a in pairs:
            for H, (els, gens) in subs:
                for form in (None, a):
                    perp, isotropic, lagrangian = orthogonal_and_lagrangian(G, b, form, H)
                    ref = ref_orthogonal_and_lagrangian(G, b, form, els, gens)
                    assert (perp.elements, isotropic, lagrangian) == ref, (b, form, els)
                    lagrangians += lagrangian and form is not None
                checked += 1
    assert (checked, lagrangians) == (7424, 114)


def test_automorphism_operations_match_the_element_wise_code():
    """compose and is_identity, read off the index permutations, equal the
    element-wise answers for every pair of automorphisms; inverse is checked
    against them in test_automorphisms_on_the_index_tables."""
    pairs = 0
    for G in TABLE_GROUPS:
        auts = automorphisms(G)
        for th in auts:
            for other in auts:
                composed, ref = th.compose(other), ref_compose_images(th, other)
                assert composed.images == ref, (th, other)
                assert composed.is_identity() == (list(ref) == G.generators()), (th, other)
                pairs += 1
    assert pairs == sum(k * k for k in (1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4, 6, 8, 12, 48, 168))
