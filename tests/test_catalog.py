import itertools
import json

import pytest

from quandles.catalog import (GROUP_COUNTS, GroupSpec, _build_uncached, _spec_order,
                              build, build_named, cyclic, dicyclic, dihedral,
                              groups_of_order, named_automorphism, product,
                              quaternion8, spec_from_name)
from quandles.errors import (CapacityError, ContractViolation, NameLookupError,
                             StructuralError)
from quandles.groups import (FiniteGroup, automorphism_group, center,
                             fixed_subgroup, groups_isomorphic)


@pytest.mark.parametrize("order", range(1, 17))
def test_counts_and_pairwise_distinct(order):
    specs = groups_of_order(order)
    assert len(specs) == GROUP_COUNTS[order - 1]
    groups = [build(s) for s in specs]
    for g in groups:
        assert g.order == order
        FiniteGroup(g.table, check=True)
    for g1, g2 in itertools.combinations(groups, 2):
        assert groups_isomorphic(g1, g2) is None, (g1.name, g2.name)


def test_groups_of_order_out_of_range():
    with pytest.raises(CapacityError):
        groups_of_order(17)
    with pytest.raises(CapacityError):
        groups_of_order(0)


def test_build_deterministic():
    for spec in (dihedral(5), quaternion8(), GroupSpec("c4c2_twist", ("order3",)),
                 product(cyclic(3), cyclic(4))):
        assert _build_uncached(spec).table == _build_uncached(spec).table


def test_build_order_cap():
    with pytest.raises(CapacityError):
        build(cyclic(200))


def test_spec_order_is_the_built_order():
    specs = [s for n in range(1, 17) for s in groups_of_order(n)]
    specs += [spec_from_name(name) for name in ("A5", "S5", "SL23", "S3xS3")]
    for spec in specs:
        assert _spec_order(spec) == build(spec).order, spec


def test_over_capacity_spec_is_refused_before_building(monkeypatch):
    from quandles import catalog
    from quandles.quandle import quandle_from_json

    def unbuildable(spec):
        raise AssertionError(f"{spec} was built")

    monkeypatch.setattr(catalog, "_build_uncached", unbuildable)
    for name in ("C1000", "S6", "S3xS3xS3"):
        with pytest.raises(CapacityError):
            build_named(name)
    payload = {"size": 2, "sym": [[0, 1], [0, 1]],
               "provenance": {"group": "C1000", "automorphism": [0, 1]}}
    with pytest.raises(StructuralError, match="outside 1..128"):
        quandle_from_json(json.dumps(payload))


def test_dihedral_presentation():
    d4 = build(dihedral(4))
    orders = sorted(d4.element_order(x) for x in range(8))
    assert orders.count(4) == 2
    assert build(cyclic(1)).order == 1


def test_dicyclic_presentation():
    dic3 = build(dicyclic(3))
    assert dic3.order == 12
    b = 6  # index of the generator b
    bsq = dic3.table[b][b]
    assert bsq == 3  # b^2 = a^3
    assert all(dic3.table[bsq][x] == dic3.table[x][bsq] for x in range(12))
    # b^-1 a b = a^-1
    binv = dic3.inv(b)
    assert dic3.table[dic3.table[binv][1]][b] == dic3.inv(1)


def test_product_structure():
    spec = product(cyclic(3), cyclic(4))
    g = build(spec)
    assert g.order == 12
    # the embedded factor copies commute elementwise
    for a in range(3):
        for b in range(4):
            left = a * 4  # (a, 0)
            right = b     # (0, b)
            assert g.table[left][right] == g.table[right][left] == a * 4 + b
    assert groups_isomorphic(g, build(cyclic(12))) is not None


def test_quaternion_is_dicyclic_2():
    assert build(quaternion8()).table == build(dicyclic(2)).table


def test_spec_names_round_trip():
    for name in ("C4xC2", "D6", "Dic3", "Q8", "A4", "S4", "C2xQ8", "SD16",
                 "SL23", "TW16", "QD16", "M16", "D8", "C15"):
        g = build_named(name)
        assert g.name == name
        assert spec_from_name(name) == g.spec
    with pytest.raises(NameLookupError):
        spec_from_name("E8")


def test_sd16_has_order_3_automorphism_and_tw16_does_not():
    sd = build_named("SD16")
    assert any(a.map_order() == 3 for a in automorphism_group(sd))
    tw = build_named("TW16")
    assert all(a.map_order() != 3 for a in automorphism_group(tw))
    assert groups_isomorphic(sd, build_named("D4xC2")) is None
    assert groups_isomorphic(tw, build_named("D4xC2")) is None


# (name, automorphism, expected map order, expected fixed-point count)
NAMED_MAP_DATA = [
    ("C4xC2", "psi_sigma", 4, 2),
    ("C4xC2", "psi_sigma^2", 2, 4),
    ("C4xC2", "psi_tau", 2, 4),
    ("C4xC2", "psi_sigma*psi_tau", 2, 4),
    ("C6xC2", "alpha_sigma", 6, 1),
    ("C6xC2", "alpha_sigma^2", 3, 3),
    ("C6xC2", "alpha_sigma^3", 2, 4),
    ("C6xC2", "alpha_tau", 2, 2),
    ("C6xC2", "alpha_tau*alpha_sigma", 2, 6),
    ("Dic3", "beta_sigma", 6, 6),
    ("Dic3", "beta_sigma^2", 3, 6),
    ("Dic3", "beta_sigma^3", 2, 6),
    ("Dic3", "beta_tau", 2, 4),
    ("Dic3", "beta_tau*beta_sigma", 2, 2),
    ("Q8", "psi_1", 1, 8),
    ("Q8", "psi_2", 2, 4),
    ("Q8", "psi_3", 2, 2),
    ("Q8", "psi_4", 3, 2),
    ("Q8", "psi_5", 4, 4),
    ("C2xC2xC2", "mat:0,0,1;1,0,0;0,1,0", 3, 2),
    ("C2xC2xC2", "mat:0,0,1;1,0,1;0,1,1", 4, 2),
    ("C2xC2xC2", "mat:0,0,1;1,0,0;0,1,1", 7, 1),
    ("C2xC2xC2", "mat:0,0,1;1,0,1;0,1,0", 7, 1),
    ("A4", "conj_perm:(1 2)", 2, 2),
    ("A4", "conj_perm:(1 2)(3 4)", 2, 4),
    ("A4", "conj_perm:(1 2 3)", 3, 3),
    ("A4", "conj_perm:(1 2 3 4)", 4, 2),
    ("D4", "phi:3,1", 2, 2),
    ("D4", "phi:1,1", 4, 4),
    ("C15", "mul:2", 4, 1),
]


@pytest.mark.parametrize("name,aut,order,fix", NAMED_MAP_DATA)
def test_named_automorphism_invariants(name, aut, order, fix):
    g = build_named(name)
    psi = named_automorphism(g, aut)
    assert psi.is_bijective
    assert psi.map_order() == order
    assert fixed_subgroup(psi).order == fix


def test_named_automorphism_errors():
    g = build_named("C4xC2")
    with pytest.raises(NameLookupError):
        named_automorphism(g, "alpha_sigma")
    with pytest.raises(ContractViolation):
        named_automorphism(build_named("D4"), "phi:2,0")  # 2 not a unit mod 4
    with pytest.raises(ContractViolation):
        named_automorphism(build_named("C2xC2"), "mat:1,1;1,1")  # singular


def test_composition_and_powers():
    q8 = build_named("Q8")
    psi5 = named_automorphism(q8, "psi_5")
    composed = named_automorphism(q8, "psi_3*psi_2")
    assert composed.images == psi5.images
    sq = named_automorphism(q8, "psi_4^3")
    assert sq.images == tuple(range(8))
    inv = named_automorphism(q8, "psi_4^-1")
    assert named_automorphism(q8, "psi_4").compose(inv).images == tuple(range(8))


def test_images_and_conj_and_classrep_atoms():
    d4 = build_named("D4")
    m = named_automorphism(d4, "images:[0,1,2,3,5,6,7,4]")
    assert m.map_order() == 4
    tau = named_automorphism(d4, "conj:4")
    assert tau.images == tuple(d4.conj(4, x) for x in range(8))
    rep = named_automorphism(d4, "classrep:0")
    assert rep.images == tuple(range(8))


def test_swap_and_factor_lift():
    s33 = build_named("S3xS3")
    sw = named_automorphism(s33, "swap")
    assert sw.map_order() == 2
    g = build_named("C2xQ8")
    lift = named_automorphism(g, "right:psi_4")
    assert lift.map_order() == 3
    assert fixed_subgroup(lift).order == 4
    left = named_automorphism(g, "left:id")
    assert left.images == tuple(range(16))


def test_center_of_twists():
    sd, _ = center(build_named("SD16")).as_group()
    assert sd.element_order_multiset() == (1, 2, 4, 4)
    tw, _ = center(build_named("TW16")).as_group()
    assert tw.element_order_multiset() == (1, 2, 2, 2)
