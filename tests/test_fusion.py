import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from neargroup import fusion
from neargroup.abelian import (
    FiniteAbelianGroup,
    GroupAutomorphism,
    Phase,
    QuadraticForm,
    Bicharacter,
    automorphisms,
    lagrangian_subgroups,
    subgroup_generated_by,
)
from neargroup.cli import main
from neargroup.corpus import z2_m2, z2z2_m4, z2z2z3_m12, z3_m3, z3_m6, z4_m4, z5_m5
from neargroup.fusion import (
    _iso_type,
    d8_rep_data,
    dequiv_fusion,
    dequiv_twisted,
    dimension_diagnosis,
    equiv_fusion,
    find_near_group_subring,
    near_group_ring,
    out_group,
    PrincipalGraph,
    principal_graph,
)
from neargroup.solutions import GeneralSolution, dimension_d


# --- dimension diagnosis -----------------------------------------------------

def test_dimension_diagnosis_rational():
    d = dimension_diagnosis(3, 2)
    assert d.rational and (d.s, d.t) == (3, 1) and d.d.value == 3.0


def test_dimension_diagnosis_irrational():
    d = dimension_diagnosis(2, 2)
    assert not d.rational
    assert abs(d.d.value - (1 + math.sqrt(3))) < 1e-15


def test_dimension_diagnosis_extraspecial_regime():
    # n = 2 t^2, m = t, d = 2t: here t = 2 gives (n, m) = (8, 2)
    d = dimension_diagnosis(8, 2)
    assert d.rational and (d.s, d.t) == (2, 2) and d.d.value == 4.0
    # the (8, 4) variant is irrational (m^2 + 4n = 48)
    assert not dimension_diagnosis(8, 4).rational


def test_dimension_diagnosis_inconsistent():
    d = dimension_diagnosis(6, 1)  # d = 3 but 6 != s t^2 with st = 3
    assert d.rational and d.inconsistent


# --- K(G, m) and graphs ------------------------------------------------------

def test_near_group_ring_z2():
    ring = near_group_ring(FiniteAbelianGroup((2,)), 2)
    assert ring.associativity_residual() == 0
    rho = ring.index[("rho",)]
    assert ring.N[rho, rho, rho] == 2
    assert abs(ring.dimension_of(("rho",)) - (1 + math.sqrt(3))) < 1e-12
    assert ring.dimension_residual() < 1e-9


def test_fibonacci_ring():
    ring = near_group_ring(None, 1)
    assert abs(ring.dimension_of(("rho",)) - (1 + math.sqrt(5)) / 2) < 1e-12


def test_ring_d_squared_identity(corpus_all):
    for name, s in corpus_all.items():
        ring = near_group_ring(s.group, s.m)
        d = ring.dimension_of(("rho",))
        assert abs(d * d - (s.n + s.m * d)) < 1e-12, name


def test_principal_graph_norm():
    G = FiniteAbelianGroup((3,))
    gr = principal_graph(G, 2)
    d = (6 + math.sqrt(36 + 12)) / 2
    assert abs(gr.norm_squared() - (1 + 2 * d)) < 1e-9
    # figure shape: each w_g meets v_g once and v_rho twice; w_pi meets v_rho
    M = gr.incidence
    assert M.shape == (4, 4)
    assert np.allclose(M[:3, :3], np.eye(3))
    assert np.allclose(M[3, :3], 2.0)
    assert M[3, 3] == 1.0
    dot = gr.to_dot()
    assert dot.count('"v_rho" -- "w_(0,)"') == 2
    assert gr.metadata["self_dual_note"]


def test_principal_graph_invalid_l():
    with pytest.raises(ValueError):
        principal_graph(FiniteAbelianGroup((2,)), 0)


@pytest.mark.parametrize("name", ["even_labels", "odd_labels", "incidence", "metadata"])
def test_principal_graph_derives_its_fields(name):
    """The labels, incidence and metadata are derived from (group, l): passing
    one raises instead of being overwritten in silence."""
    with pytest.raises(TypeError):
        PrincipalGraph(FiniteAbelianGroup((3,)), 2, **{name: np.eye(4)})


# --- Out groups ----------------------------------------------------------------

def test_out_groups_mn():
    assert out_group(z2_m2()).order == 1
    assert out_group(z3_m3()).order == 1
    assert out_group(z4_m4()).order == 1
    res = out_group(z5_m5())
    assert res.order == 2 and res.isomorphism_type == "Z2"
    assert out_group(z2z2z3_m12()).order == 2


def test_out_group_z3_m6_dihedral():
    res = out_group(z3_m6(), grid=120)
    assert res.order == 8
    assert res.isomorphism_type == "D8"
    assert not res.inconclusive


def test_out_group_noisy_solution_is_inconclusive():
    """Noise of 1e-5 breaks the D8 symmetries only to within the gap between
    EQUAL_TOL and DISTINCT_TOL; out_group must say so."""
    s = z3_m6()
    rng = np.random.default_rng(7)
    noise = rng.normal(size=s.btensor.shape) + 1j * rng.normal(size=s.btensor.shape)
    noisy = GeneralSolution(s.acj, s.btensor + 1e-5 * noise)
    assert out_group(noisy, grid=32).inconclusive


def test_pair_order_not_found_is_inconclusive(monkeypatch):
    """A symmetry (id, u) with u = diag(e^{i sqrt 2}, e^{-i sqrt 2}) has no
    finite order: its element order is None, and out_group names no type and
    says it is inconclusive."""
    s = z3_m3()
    ident = GroupAutomorphism(s.group, ((1,),))
    u = np.diag(np.exp([1j * math.sqrt(2), -1j * math.sqrt(2)]))
    assert fusion._pair_order(ident, u) is None
    monkeypatch.setattr(fusion, "gauge_orbit_search",
                        lambda s1, s2, grid: [(0.0, ident, np.eye(2)), (0.0, ident, u)])
    res = out_group(s)
    assert res.order == 2 and res.element_orders == (1, None)
    assert res.isomorphism_type is None and res.inconclusive


@pytest.mark.parametrize("orders, name", [
    ((1, 2, 4, 4, 8, 8, 8, 8), "Z8"),
    ((1, 2, 2, 2, 4, 4, 4, 4), "Z4xZ2"),
    ((1, 2, 2, 2, 2, 2, 2, 2), "Z2^3"),
    ((1, 2, 2, 2, 2, 2, 4, 4), "D8"),
    ((1, 2, 4, 4, 4, 4, 4, 4), "Q8"),
    ((1, 2, 3, 3, 6, 6), "Z6"),
    ((1, 2, 2, 2, 3, 3), "S3"),
])
def test_iso_type_from_element_orders(orders, name):
    assert _iso_type(tuple(reversed(orders))) == name


def test_iso_type_unknown_profile():
    assert _iso_type((1, 2, 4, 4, 4, 4, 8, 8)) is None  # no group of order 8
    assert _iso_type((1,) + (3,) * 8) is None  # Z3xZ3: order 9, not tabulated


# --- de-equivariantization -------------------------------------------------------

def _z3z3_data():
    Z33 = FiniteAbelianGroup((3, 3))
    b = Bicharacter(Z33, ((Phase(1, 3), Phase(0)), (Phase(0), Phase(2, 3))))
    a = QuadraticForm(b, tuple(Phase((g[0] ** 2 - g[1] ** 2) % 3, 3) for g in Z33))
    return Z33, b, a


def test_dequiv_haagerup_pattern():
    Z33, b, a = _z3z3_data()
    lags = lagrangian_subgroups(Z33, b, a)
    assert len(lags) == 2
    for H in lags:
        ring = dequiv_fusion(Z33, b, a, H)
        s0 = ring.index[("sigma", min(l[1] for l in ring.labels if l[0] == "sigma"))]
        row = ring.N[s0, s0]
        # sigma^2 = 1 (+) sum_g alpha~_g sigma
        unit = ring.index[ring.unit_label()]
        assert row[unit] == 1
        sigma_idx = [ring.index[l] for l in ring.labels if l[0] == "sigma"]
        assert all(row[i] == 1 for i in sigma_idx)
        d_sigma = ring.dimensions()[s0]
        assert abs(d_sigma - (3 + math.sqrt(13)) / 2) < 1e-9


def test_dequiv_a7_even_part():
    s = z2z2_m4()
    G = s.group
    H = subgroup_generated_by(G, [(1, 1)])
    ring = dequiv_fusion(G, s.bichar, s.form, H)
    assert ring.rank == 4
    si = [i for i, l in enumerate(ring.labels) if l[0] == "sigma"][0]
    assert abs(ring.dimensions()[si] - (1 + math.sqrt(2))) < 1e-10


def test_dequiv_trivial_subgroup():
    s = z2z2_m4()
    H = subgroup_generated_by(s.group, [])
    ring = dequiv_fusion(s.group, s.bichar, s.form, H)
    assert ring.isomorphic_to(near_group_ring(s.group, 4))


def test_dequiv_rejects_nonisotropic():
    s = z2z2_m4()
    H = subgroup_generated_by(s.group, [(1, 0)])  # <g1, g1> = -1
    with pytest.raises(ValueError):
        dequiv_fusion(s.group, s.bichar, s.form, H)


def test_dequiv_non_associative_ring_is_an_input_error():
    """On Z9 with <1, 1> = 1/9, H = <3> is isotropic for this form, which is
    not even, and the rules it gives are not associative: a ValueError (the
    CLI's exit 2), not an assertion."""
    G = FiniteAbelianGroup((9,))
    b = Bicharacter(G, ((Phase(1, 9),),))
    a = QuadraticForm(b, tuple(Phase(k, 9) for k in (0, 5, 0, 3, 5, 6, 6, 5, 3)))
    assert not a.is_even()
    with pytest.raises(ValueError, match="not associative"):
        dequiv_fusion(G, b, a, subgroup_generated_by(G, [(3,)]))


def test_dequiv_dimension_bookkeeping():
    Z33, b, a = _z3z3_data()
    H = lagrangian_subgroups(Z33, b, a)[0]
    ring = dequiv_fusion(Z33, b, a, H)
    d_big = (9 + math.sqrt(81 + 36)) / 2
    s0 = ring.index[("sigma", (0, 0))]
    assert abs(ring.dimensions()[s0] - d_big / 3) < 1e-9  # d(sigma) = d / |H|


# --- twisted case ---------------------------------------------------------------

def _omega_table(G):
    two = {
        ((0, 0), (0, 0)): 1, ((0, 0), (1, 0)): 1, ((0, 0), (0, 1)): 1, ((0, 0), (1, 1)): 1,
        ((1, 0), (0, 0)): 1, ((1, 0), (1, 0)): 1, ((1, 0), (0, 1)): 1j, ((1, 0), (1, 1)): -1j,
        ((0, 1), (0, 0)): 1, ((0, 1), (1, 0)): -1j, ((0, 1), (0, 1)): 1, ((0, 1), (1, 1)): 1j,
        ((1, 1), (0, 0)): 1, ((1, 1), (1, 0)): 1j, ((1, 1), (0, 1)): -1j, ((1, 1), (1, 1)): 1,
    }
    return {((h[0], h[1], 0), (k[0], k[1], 0)): v for (h, k), v in two.items()}


def test_dequiv_twisted_z2z2z3_to_z3_m6():
    s = z2z2z3_m12()
    G = s.group
    H = subgroup_generated_by(G, [(1, 0, 0), (0, 1, 0)])
    ring = dequiv_twisted(G, s.bichar, s.form, H, _omega_table(G))
    assert ring.isomorphic_to(near_group_ring(FiniteAbelianGroup((3,)), 6))


def test_cli_dequiv_twisted_reads_the_cocycle_file(tmp_path, capsys):
    """``dequiv --cocycle FILE`` gives K(Z3, 6) from z2z2z3_m12 and closes
    the file it reads."""
    path = tmp_path / "omega.json"
    omega = _omega_table(FiniteAbelianGroup((2, 2, 3)))
    path.write_text(json.dumps([{"h": h, "k": k, "v": [complex(v).real, complex(v).imag]}
                                for (h, k), v in omega.items()]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--json", "dequiv", "bundled/z2z2z3_m12.json",
                     "--subgroup", "1,0,0;0,1,0", "--cocycle", str(path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    ring = near_group_ring(FiniteAbelianGroup((3,)), 6)
    assert data["name"] == ring.name
    assert data["structure_constants"] == ring.N.tolist()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_dequiv_twisted_rejects_bad_cocycle():
    s = z2z2z3_m12()
    G = s.group
    H = subgroup_generated_by(G, [(1, 0, 0), (0, 1, 0)])
    trivial = {(h, k): 1.0 for h in H.elements for k in H.elements}
    with pytest.raises(ValueError):
        dequiv_twisted(G, s.bichar, s.form, H, trivial)


def test_dequiv_twisted_s0_identity():
    # trivial H: s = 0, the transform returns K(G, m) itself
    s = z2_m2()
    H = subgroup_generated_by(s.group, [])
    ring = dequiv_twisted(s.group, s.bichar, s.form, H,
                          {((0,), (0,)): 1.0})
    assert ring.isomorphic_to(near_group_ring(s.group, 2))


# --- equivariantization -----------------------------------------------------------

def test_equiv_d8_contains_z2z2z3_m12():
    ring = equiv_fusion(FiniteAbelianGroup((3,)), 6, d8_rep_data())
    assert ring.associativity_residual() == 0
    sub = find_near_group_subring(ring)
    assert sub is not None
    target = near_group_ring(FiniteAbelianGroup((2, 2, 3)), 12)
    assert sub.isomorphic_to(target)


def test_equiv_z5_order_two():
    G = FiniteAbelianGroup((5,))
    theta = GroupAutomorphism(G, ((4,),))  # g -> -g
    ring = equiv_fusion(G, 5, theta)
    r1 = ring.index[("rho", 1)]
    row = ring.N[r1, r1]
    # rho~^2 = 1 + pi_1 + pi_2 + 3 rho~ + 2 gamma^ rho~
    assert row[ring.index[("g", (0,), 1)]] == 1
    assert row[ring.index[("pi", (1,))]] == 1
    assert row[ring.index[("pi", (2,))]] == 1
    assert row[r1] == 3
    assert row[ring.index[("rho", -1)]] == 2
    d = ring.dimensions()
    assert abs(d[r1] ** 2 - (5 + 5 * d[r1])) < 1e-8


def test_equiv_identity_doubles_trivially():
    G = FiniteAbelianGroup((5,))
    theta = GroupAutomorphism(G, ((1,),))
    ring = equiv_fusion(G, 5, theta)
    r1 = ring.index[("rho", 1)]
    assert ring.N[r1, r1, r1] == 5
    assert ring.N[r1, r1, ring.index[("rho", -1)]] == 0


def test_equiv_rejects_a_mismatched_m():
    """The D8-equivariantization is of K(G, 2n), the theta one of K(G, n)."""
    Z3, Z5 = FiniteAbelianGroup((3,)), FiniteAbelianGroup((5,))
    with pytest.raises(ValueError, match="not of K"):
        equiv_fusion(Z3, 3, d8_rep_data())
    with pytest.raises(ValueError, match="not of K"):
        equiv_fusion(Z5, 10, GroupAutomorphism(Z5, ((4,),)))


def test_gamma_validate_rejects_a_noncommutative_tensor():
    """t1 t2 = 1 but t2 t1 = t3: the dimensions still add up, but no Rep(Gamma)
    has such a tensor.  d8_rep_data() itself validates."""
    gamma = d8_rep_data()
    gamma.validate()
    T = gamma.tensor.copy()
    T[1, 2] = np.eye(5, dtype=int)[0]
    with pytest.raises(ValueError, match="not commutative"):
        dataclasses.replace(gamma, tensor=T).validate()


def test_gamma_validate_rejects_pi0_outside_the_names():
    for pi0 in (-1, 5):
        with pytest.raises(ValueError, match="pi0"):
            dataclasses.replace(d8_rep_data(), pi0=pi0).validate()


def test_gamma_validate_rejects_dims_of_another_length():
    with pytest.raises(ValueError, match="dims"):
        dataclasses.replace(d8_rep_data(), dims=(1, 1, 1, 1)).validate()


@pytest.mark.parametrize("factors", [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2),
                                     (2, 4), (3, 3), (2, 2, 2), (2, 2, 3)])
def test_equiv_rho_dimensions(factors):
    """The PF dimension of each rho~ label gamma^_pi rho~ is dim(pi) d(n, m):
    for D8 with m = 2n, and for every theta with theta^2 = 1 with m = n."""
    G = FiniteAbelianGroup(factors)
    n = G.order
    gamma = d8_rep_data()
    cases = [(gamma, 2 * n, dict(zip(gamma.names, gamma.dims)))]
    cases += [(th, n, {1: 1, -1: 1}) for th in automorphisms(G)
              if th.compose(th).is_identity()]
    for symmetry, m, dims in cases:
        ring = equiv_fusion(G, m, symmetry)
        d = dimension_d(n, m).value
        for lab, dim in dims.items():
            assert abs(ring.dimension_of(("rho", lab)) - dim * d) < 1e-9 * d, (symmetry, lab)
