import json

import pytest

from quandles import invariants, quandle
from quandles.catalog import (build, build_named, cyclic, dihedral,
                              groups_of_order, named_automorphism, product,
                              semidirect_table, sl23_element_index)
from quandles.errors import ContractViolation, VerificationError
from quandles.groups import (FiniteGroup, GroupMap, Subgroup,
                             automorphism_conjugacy_classes,
                             automorphism_group, fixed_subgroup,
                             generated_subgroup, group_from_json,
                             group_to_json, groups_isomorphic, identity_map,
                             inner_automorphism, is_normal)
from quandles.invariants import (InvariantProfile, compute_P, compute_P2,
                                 descriptor_display, group_descriptor,
                                 inn_structure, profile,
                                 profile_to_json, restrict_to_P,
                                 transported_class, translation_elements,
                                 twisted_normalizer)
from quandles.iso import cached_profile
from quandles.quandle import Quandle, general_alexander, orbit_of
from quandles.verification import claim_structure

from oracles import inner_group, package_definitions

# every catalog group of order 1..16, then A5, S5 and SL23
SWEEP = [*(spec.name() for n in range(1, 17) for spec in groups_of_order(n)),
         "A5", "S5", "SL23"]


def test_compute_P_identity_map():
    for name in ("C4", "D4", "Q8"):
        g = build_named(name)
        assert compute_P(g, identity_map(g)).members == (0,)


def test_compute_P_dihedral_formula_instance():
    d4 = build(dihedral(4))
    p = compute_P(d4, named_automorphism(d4, "phi:3,1"))
    assert p.members == (0, 1, 2, 3)  # <sigma>, d = gcd(4, 1-3, 1) = 1


def test_compute_P_full_group_for_q8_rotation():
    q8 = build_named("Q8")
    assert compute_P(q8, named_automorphism(q8, "psi_4")).order == 8


def test_compute_P2():
    d4 = build(dihedral(4))
    assert compute_P2(d4, identity_map(d4)).members == (0,)
    # n=4, a=3, b=1: d=1, g2 = gcd(4, -2) = 2, so P^2 = <sigma^2>
    p2 = compute_P2(d4, named_automorphism(d4, "phi:3,1"))
    assert p2.members == (0, 2)


def test_compute_P2_abelian_is_double_difference_image():
    # over an abelian group the orbit subgroup is the image of x -> x - psi(x),
    # and the second orbit subgroup is the image of its square
    for name, aut in (("C9", "mul:4"), ("C4xC2", "psi_sigma"), ("C15", "mul:2")):
        g = build_named(name)
        psi = named_automorphism(g, aut)
        rho = [g.table[x][g.inv(psi.images[x])] for x in range(g.order)]
        p2 = compute_P2(g, psi)
        assert set(rho[rho[x]] for x in range(g.order)) == p2.member_set()


def test_psi_preserves_P():
    for order in range(1, 13):
        for spec in groups_of_order(order):
            g = build(spec)
            for psi in automorphism_group(g):
                _, _, embed = restrict_to_P(g, psi)
                assert {psi.images[m] for m in embed} == set(embed)


def test_P_normal_and_P2_normal_in_P():
    for order in range(1, 13):
        for spec in groups_of_order(order):
            g = build(spec)
            for psi in automorphism_group(g):
                p = compute_P(g, psi)
                assert is_normal(g, p)
                grp, restricted, _ = restrict_to_P(g, psi)
                assert is_normal(grp, compute_P(grp, restricted))


def _uncached_P(g, psi):
    """Reference: compute_P as it was before the per-input record, with the
    orbit/span check run on every call."""
    psi.require_automorphism()
    orbit = orbit_of(general_alexander(g, psi), 0)
    span = generated_subgroup(g, translation_elements(g, psi))
    if orbit != span.member_set():
        raise VerificationError("P mismatch")
    return span


def _uncached_restrict_to_P(g, psi):
    p = _uncached_P(g, psi)
    grp, embed = p.as_group()
    pos = {m: i for i, m in enumerate(embed)}
    images = tuple(pos[psi.images[m]] for m in embed)
    return grp, GroupMap(grp, grp, images, check=False), embed


def _uncached_P2(g, psi):
    grp, restricted, embed = _uncached_restrict_to_P(g, psi)
    return Subgroup(g, tuple(embed[i] for i in _uncached_P(grp, restricted).members))


def _p_record_cases():
    for order in range(1, 13):
        for spec in groups_of_order(order):
            g = build(spec)
            yield from ((g, psi) for psi in automorphism_group(g))
    # D4 with its elements 1..7 named in reverse, read back through JSON
    d4 = build_named("D4")
    perm = [0] + list(range(7, 0, -1))
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            table[perm[a]][perm[b]] = perm[d4.table[a][b]]
    h = group_from_json(group_to_json(FiniteGroup(table, name="D4r")))
    yield from ((h, psi) for psi in automorphism_group(h))


def test_p_record_matches_the_uncached_computation(empty_store):
    for g, psi in _p_record_cases():
        ref_p = _uncached_P(g, psi)
        ref_grp, ref_restricted, ref_embed = _uncached_restrict_to_P(g, psi)
        ref_p2 = _uncached_P2(g, psi)
        for _ in range(2):  # the first call builds the record, the second reads it
            p = compute_P(g, psi)
            assert p.parent is g and p.members == ref_p.members
            grp, restricted, embed = restrict_to_P(g, psi)
            assert grp.table == ref_grp.table and embed == ref_embed
            assert restricted.source is grp and restricted.target is grp
            assert restricted.images == ref_restricted.images
            p2 = compute_P2(g, psi)
            assert p2.parent is g and p2.members == ref_p2.members


def test_orbit_span_check_runs_once_per_input(monkeypatch, empty_store):
    checked = []
    real = invariants.orbit_of

    def recording(q, start):
        g, psi = q.provenance
        checked.append((g.table, psi.images))
        return real(q, start)

    monkeypatch.setattr(invariants, "orbit_of", recording)
    inputs = set()
    for name in ("D4", "Q8", "A4"):
        g = build_named(name)
        twin = FiniteGroup(g.table, name=f"{name}-twin")
        for psi in automorphism_group(g):
            psi_twin = GroupMap(twin, twin, psi.images)
            for h, phi in ((g, psi), (twin, psi_twin), (g, psi)):
                compute_P(h, phi)
                grp, restricted, _ = restrict_to_P(h, phi)
                compute_P2(h, phi)
                profile(h, phi)
                inputs.update({(g.table, psi.images), (grp.table, restricted.images)})
    assert len(checked) == len(set(checked)) == len(inputs)
    assert set(checked) == inputs


def test_failed_orbit_span_check_fails_every_call(monkeypatch, empty_store):
    d4 = build_named("D4")
    psi = named_automorphism(d4, "phi:3,1")
    monkeypatch.setattr(invariants, "orbit_of", lambda q, start: frozenset({0}))
    for call in (compute_P, restrict_to_P, compute_P2, compute_P):
        with pytest.raises(VerificationError):
            call(d4, psi)
    for records, p_groups in quandle._STORE.values():
        assert p_groups == {} and all("P" not in rec for rec in records.values())
    monkeypatch.setattr(invariants, "orbit_of", orbit_of)
    assert compute_P(d4, psi).members == (0, 1, 2, 3)


def test_failed_row_proof_fails_every_call(monkeypatch, empty_store):
    # swapping s_1(4) and s_1(5) leaves the orbit of e, P = {0, 1, 2, 3},
    # as it is, so only the row proof sees that s_1 is no longer L_t psi
    d4 = build_named("D4")
    psi = named_automorphism(d4, "phi:3,1")
    real = invariants.general_alexander

    def swapped(g, phi):
        sym = [list(row) for row in real(g, phi).sym]
        sym[1][4], sym[1][5] = sym[1][5], sym[1][4]
        return Quandle._trusted(tuple(map(tuple, sym)), (g, phi))

    assert orbit_of(swapped(d4, psi), 0) == frozenset(range(4))
    monkeypatch.setattr(invariants, "general_alexander", swapped)
    for call in (compute_P, profile, compute_P, profile):
        with pytest.raises(VerificationError, match="not L_t psi with t in P"):
            call(d4, psi)
    for records, p_groups in quandle._STORE.values():
        assert p_groups == {} and all("P" not in rec for rec in records.values())
    monkeypatch.setattr(invariants, "general_alexander", real)
    assert compute_P(d4, psi).members == (0, 1, 2, 3)


def test_equal_tables_share_the_p_group_but_not_the_parent():
    g = build_named("Dic3")
    twin = FiniteGroup(g.table, name="Dic3-twin")
    psi = named_automorphism(g, "beta_tau")
    psi_twin = GroupMap(twin, twin, psi.images)
    p, p_twin = compute_P(g, psi), compute_P(twin, psi_twin)
    assert p.parent is g and p_twin.parent is twin
    assert p.members == p_twin.members and is_normal(twin, p_twin)
    assert compute_P2(twin, psi_twin).parent is twin
    assert restrict_to_P(g, psi)[0] is restrict_to_P(twin, psi_twin)[0]
    with pytest.raises(ContractViolation):
        is_normal(g, p_twin)


def test_p_record_keeps_the_group_check():
    # a map of another group of the same order is refused on a record hit too
    c4, v4 = build_named("C4"), build_named("C2xC2")
    cached_profile(c4, identity_map(c4))
    for call in (compute_P, restrict_to_P, compute_P2, cached_profile,
                 general_alexander):
        with pytest.raises(ContractViolation):
            call(c4, identity_map(v4))


def test_twisted_normalizer_basics():
    g = build_named("D4")
    tn = twisted_normalizer(g, identity_map(g), Subgroup(g, (0,)))
    assert tn.order == 8
    psi = named_automorphism(g, "phi:3,1")
    p2 = compute_P2(g, psi)
    tn = twisted_normalizer(g, psi, p2)
    p = compute_P(g, psi)
    fix = fixed_subgroup(psi)
    pf = {g.table[a][b] for a in p.members for b in fix.members}
    assert pf <= tn.member_set()
    # P is normal in the twisted normalizer
    for a in tn.members:
        for x in p.members:
            assert g.conj(a, x) in p.member_set()


def test_twisted_normalizer_equals_PF_under_preconditions():
    for name, aut in (("D4", "phi:3,1"), ("D6", "phi:5,1"), ("Q8", "psi_3"),
                      ("Dic3", "beta_tau"), ("C4xC2", "psi_sigma")):
        g = build_named(name)
        psi = named_automorphism(g, aut)
        prof = profile(g, psi)
        assert prof.p1 and prof.p2
        p = compute_P(g, psi)
        fix = fixed_subgroup(psi)
        pf = {g.table[a][b] for a in p.members for b in fix.members}
        tn = twisted_normalizer(g, psi, compute_P2(g, psi))
        assert tn.member_set() == pf


def test_precondition_flags_table_cases():
    q8 = build_named("Q8")
    prof = profile(q8, named_automorphism(q8, "psi_4"))
    assert prof.p1 and not prof.p2
    s33 = build_named("S3xS3")
    prof = profile(s33, named_automorphism(s33, "swap"))
    assert not prof.p1 and prof.p2
    a4 = build_named("A4")
    prof = profile(a4, named_automorphism(a4, "conj_perm:(1 2)"))
    assert prof.p1 and not prof.p2
    g = build_named("C6xC2")
    prof = profile(g, identity_map(g))
    assert prof.p1 and prof.p2


def test_inn_structure_products():
    g = build_named("C6xC2")
    psi = named_automorphism(g, "alpha_sigma")
    r = inn_structure(g, psi)
    assert r.inn_size == 72 and r.p_size == 12 and r.psi_order == 6
    assert r.semidirect.order == 72
    assert set(r.embedding) == inner_group(general_alexander(g, psi)).elements
    r = inn_structure(g, identity_map(g))
    assert r.inn_size == 1 and r.psi_order == 1 and r.p_size == 1
    assert r.embedding == (tuple(range(12)),)


def test_inn_structure_dichotomy_outer_branch():
    # conjugation by an odd permutation restricts to an outer map of the
    # centerless orbit subgroup, so the inner group stays a twisted product
    a4 = build_named("A4")
    psi = named_automorphism(a4, "conj_perm:(1 2)")
    r = inn_structure(a4, psi)
    assert r.centerless_p and not r.psi_p_inner
    assert set(r.embedding) == inner_group(general_alexander(a4, psi)).elements
    assert r.direct_witness is None


def test_inn_structure_dichotomy_inner_branch():
    s4 = build_named("S4")
    three_cycle = next(i for i in range(24) if s4.element_order(i) == 3)
    r = inn_structure(s4, inner_automorphism(s4, three_cycle))
    assert r.centerless_p and r.psi_p_inner
    assert r.direct_witness is not None


def test_sl23_escapes_the_dichotomy():
    sl = build_named("SL23")
    psi = inner_automorphism(sl, sl23_element_index(((0, -1), (1, 0))))
    assert psi.map_order() == 2
    r = inn_structure(sl, psi)
    grp, _, _ = restrict_to_P(sl, psi)
    assert groups_isomorphic(grp, build_named("Q8")) is not None
    assert not r.centerless_p and r.psi_p_inner
    # the embedding is onto the closure, so the semidirect table is Inn's
    assert set(r.embedding) == inner_group(general_alexander(sl, psi)).elements
    assert groups_isomorphic(r.semidirect, build_named("Q8xC2")) is None


@pytest.mark.parametrize("name", ["C3", "D4", "Q8"])
@pytest.mark.parametrize("m", [2, 3])
def test_identity_action_semidirect_table_is_the_direct_product(name, m):
    # index (x, i) = i*|G| + x is the catalog product's index with C_m first
    g = build_named(name)
    expected = build(product(cyclic(m), g.spec)).table
    table = semidirect_table(g, build(cyclic(m)), [identity_map(g).images] * m)
    assert tuple(map(tuple, table)) == expected


def test_inn_size_law_over_catalog():
    # the row proof and the embedding against the closure oracle
    for name in SWEEP:
        g = build_named(name)
        for rep, _ in automorphism_conjugacy_classes(g):
            inn = inner_group(general_alexander(g, rep))
            r = inn_structure(g, rep)
            assert set(r.embedding) == inn.elements, (name, rep.images)
            assert r.inn_size == inn.order == r.p_size * r.psi_order
            assert cached_profile(g, rep).inn_size == inn.order
            if r.centerless_p:
                assert r.psi_p_inner == (r.direct_witness is not None)


def test_production_paths_close_no_group(empty_store):
    # the package holds no closure of a permutation group to call
    assert package_definitions("_greedy_closure", "inner_group", "PermGroup") == []
    for name in ("A5", "S5", "SL23"):
        g = build_named(name)
        for rep, _ in automorphism_conjugacy_classes(g):
            profile(g, rep)
    for name in ("S4", "SL23"):
        g = build_named(name)
        for rep, _ in automorphism_conjugacy_classes(g):
            inn_structure(g, rep)
    assert claim_structure().ok


def test_group_descriptor_catalog_resolution():
    d4 = build_named("D4")
    desc = group_descriptor(d4)
    assert desc[3] == "D4" and descriptor_display(desc) == "D4"
    trivial = build(cyclic(1))
    assert descriptor_display(group_descriptor(trivial)) == "1"
    s33 = build_named("S3xS3")
    desc = group_descriptor(s33)
    assert desc[3] is None and desc[0] == 36


def test_transported_class_well_defined_across_presentations():
    # the restriction class must look the same no matter which copy of the
    # abstract group carries it
    d6 = build(dihedral(6))
    c6c2 = build_named("C6xC2")
    dic3 = build_named("Dic3")
    cls_a = profile(d6, named_automorphism(d6, "phi:5,1")).psi_restricted_class
    cls_b = profile(c6c2, named_automorphism(c6c2, "alpha_tau")).psi_restricted_class
    cls_c = profile(dic3, named_automorphism(dic3, "beta_tau*beta_sigma")).psi_restricted_class
    assert cls_a == cls_b == cls_c
    c6 = build(cyclic(6))
    assert cls_a == transported_class(c6, named_automorphism(c6, "mul:5"))


def test_transported_class_is_the_least_conjugate():
    # reference: the least tau . psi . tau^-1 over all of Aut(G)
    for order in range(1, 13):
        for spec in groups_of_order(order):
            g = build(spec)
            auts = automorphism_group(g)
            for psi in auts:
                least = min(tau.compose(psi).compose(tau.inverse()).images
                            for tau in auts)
                assert transported_class(g, psi)[2] == least, (g.name, psi.images)


def test_profile_fields():
    c8 = build_named("C2xC2xC2")
    m3 = named_automorphism(c8, "mat:0,0,1;1,0,0;0,1,0")
    prof = profile(c8, m3)
    assert (prof.group_order, prof.psi_order, prof.fix_size) == (8, 3, 2)
    assert prof.p_iso_type[3] == "C2xC2"
    c2c2 = build_named("C2xC2")
    expected = transported_class(c2c2, named_automorphism(c2c2, "mat:0,1;1,1"))
    assert prof.psi_restricted_class == expected

    d6 = build_named("D6")
    prof = profile(d6, named_automorphism(d6, "phi:5,1"))
    assert (prof.psi_order, prof.fix_size, prof.p_iso_type[3]) == (2, 2, "C6")

    g = build_named("C4")
    prof = profile(g, identity_map(g))
    assert (prof.group_order, prof.psi_order, prof.fix_size) == (4, 1, 4)
    assert prof.p_iso_type[3] == "C1" and prof.p1 and prof.p2


def test_profile_serialization():
    g = build_named("Q8")
    prof = profile(g, named_automorphism(g, "psi_4"))
    data = json.loads(profile_to_json(prof))
    assert data["version"] == "profile.v1"
    fields = ("group_order", "psi_order", "fix_size", "p_iso_type",
              "p2_iso_type", "psi_restricted_class", "p_fix_size",
              "tn_size", "p1", "p2", "inn_size")
    assert InvariantProfile.FIELDS == fields  # separator_against reads them in this order
    for field in fields:
        assert field in data
    assert data["p1"] is True and data["p2"] is False
    assert data["p_iso_type"]["name"] == "Q8"


def test_simple_groups_have_full_orbit():
    for p in (2, 3, 5, 7, 11, 13):
        g = build(cyclic(p))
        for psi in automorphism_group(g):
            if psi.images == tuple(range(p)):
                continue
            assert compute_P(g, psi).order == p
    a5 = build_named("A5")
    swap01 = inner_automorphism(a5, next(
        i for i in range(60) if a5.element_order(i) == 2))
    assert compute_P(a5, swap01).order == 60


def test_profile_equal_within_isomorphism_classes():
    from quandles.classify import classify_order
    for order in (8, 12):
        report = classify_order(order)
        for cls in report.classes:
            profs = {report.profiles[i] for i in cls}
            assert len(profs) == 1
