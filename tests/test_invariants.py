import json

import pytest

from quandles import groups, invariants, iso, quandle
from quandles.catalog import (build, build_named, cyclic, dihedral,
                              groups_of_order, named_automorphism, product,
                              semidirect_table, sl23_element_index)
from quandles.errors import ContractViolation, VerificationError
from quandles.groups import (FiniteGroup, GroupMap, Subgroup, automorphism_classes,
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
from quandles.iso import cached_profile, verify_quandle_witness
from quandles.quandle import Quandle, general_alexander, orbit_of, row_index
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
        rho = [g.table[x][g._inv[psi.images[x]]] for x in range(g.order)]
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


def test_p_is_spanned_once_per_input(monkeypatch, empty_store):
    # the first restrict_to_P of an input spans its translations once and
    # proves no Subgroup; compute_P and compute_P2 read the spans kept in the
    # records of the input and of psi|P, so on warm records nothing is spanned
    cases = list(_p_record_cases())
    spans, proofs, p_groups = [], [], set()
    real_span, real_post_init = groups._span, Subgroup.__post_init__

    def counting_span(g, elements):
        spans.append(g.table)
        return real_span(g, elements)

    def counting_post_init(sub):
        real_post_init(sub)
        proofs.append((sub.parent.table, sub.members))

    monkeypatch.setattr(groups, "_span", counting_span)
    monkeypatch.setattr(invariants, "_span", counting_span)
    monkeypatch.setattr(Subgroup, "__post_init__", counting_post_init)
    for g, psi in cases:
        grp, _, members = restrict_to_P(g, psi)
        assert spans == [g.table] and proofs == []
        p_groups.add(id(grp))
        p2 = compute_P2(g, psi).members  # spans psi|P's translations, and P's generating set
        spans.clear()
        assert restrict_to_P(g, psi)[2] == members
        assert compute_P(g, psi).members == members and compute_P2(g, psi).members == p2
        assert spans == proofs == []
    assert len(p_groups) < len(cases)  # some inputs share a P group
    assert package_definitions("translation", "_p_record") == []


def test_spanned_subgroups_equal_their_proofs(empty_store):
    # compute_P, compute_P2 and generated_subgroup make their Subgroup from one
    # span, unchecked: each equals the Subgroup that proves its members, and
    # keeps the span's own generators, which span exactly those members
    for g, psi in _p_record_cases():
        grp, restricted, embed = restrict_to_P(g, psi)
        t = list(quandle._translations(g, psi))
        made = ((compute_P(g, psi), t),
                (compute_P2(g, psi), [embed[u] for u in quandle._translations(grp, restricted)]),
                (generated_subgroup(g, t[::-1]), t[::-1]))
        for sub, spanned in made:
            proof = Subgroup(g, sub.members)
            assert (sub, hash(sub), sub.member_set()) == (proof, hash(proof), proof.member_set())
            assert sub._gens == groups._span(g, spanned)[0]
            assert groups._span(g, sub._gens)[1] == set(sub.members)


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


def test_a_p_that_psi_moves_is_refused(monkeypatch, empty_store):
    # orbit and span agree on {e, tau}, which phi_{1,1} maps onto {e, tau sigma}
    d4 = build(dihedral(4))
    psi = named_automorphism(d4, "phi:1,1")
    monkeypatch.setattr(invariants, "_span", lambda g, elements: ((4,), {0, 4}))
    monkeypatch.setattr(invariants, "orbit_of", lambda q, start: frozenset({0, 4}))
    with pytest.raises(VerificationError, match="^P is not invariant under psi on D4$"):
        restrict_to_P(d4, psi)


@pytest.mark.parametrize("name", ["D4", "A4", "S3xS3"])
def test_row_proof_reads_every_distinct_row(monkeypatch, empty_store, name):
    # one copy of one row, at each point in turn, with two entries away
    # from 0 swapped: it keeps s_x(e) but is no longer L_t psi, and it is
    # refused whether the other copies of its old row are there or not
    g = build_named(name)
    real = invariants.general_alexander
    for psi, _ in automorphism_conjugacy_classes(g):
        sym = real(g, psi).sym
        for x in range(g.order):
            rows = [list(r) for r in sym]
            y1, y2 = [y for y in range(g.order) if y not in (0, x)][:2]
            rows[x][y1], rows[x][y2] = rows[x][y2], rows[x][y1]
            corrupted = tuple(map(tuple, rows))
            monkeypatch.setattr(invariants, "general_alexander",
                                lambda h, phi: Quandle._trusted(corrupted, (h, phi)))
            with pytest.raises(VerificationError):
                compute_P(g, psi)


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


def test_changed_rows_get_their_own_row_index(empty_store):
    # the changed copy keeps the record's provenance but indexes its own
    # rows, so the witness check sees the swap; the record's index stays
    d4 = build_named("D4")
    psi = named_automorphism(d4, "phi:3,1")
    q, identity = general_alexander(d4, psi), tuple(range(d4.order))
    sym = [list(row) for row in q.sym]
    sym[1][4], sym[1][5] = sym[1][5], sym[1][4]
    changed = Quandle._trusted(tuple(map(tuple, sym)), q.provenance)
    assert verify_quandle_witness(q, q, identity)
    assert not verify_quandle_witness(changed, q, identity)
    assert not verify_quandle_witness(q, changed, identity)
    assert row_index(changed)[0] == tuple(dict.fromkeys(changed.sym))
    assert row_index(general_alexander(d4, psi)) is row_index(q)
    assert row_index(q)[0] == tuple(dict.fromkeys(q.sym))


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


@pytest.mark.parametrize("name, members", [("C8", (0, 2, 4, 6)), ("C2xC2", (0, 3))])
def test_twisted_normalizer_refuses_a_subgroup_of_another_group(name, members):
    # is_normal's rule; the members are read as indices of C4 otherwise
    c4 = build_named("C4")
    with pytest.raises(ContractViolation, match="subgroup belongs to a different group"):
        twisted_normalizer(c4, named_automorphism(c4, "mul:3"),
                           Subgroup(build_named(name), members))


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_twisted_normalizer_refuses_an_automorphism_of_another_group(n):
    # psi runs over the automorphisms of the other catalog groups of order n
    # that are not automorphisms of G, and H over G's cyclic subgroups; such a
    # psi used to give a subgroup, or a closure error that named the wrong fault
    gs = [build(spec) for spec in groups_of_order(n)]
    for g in gs:
        own = {a.images for a in automorphism_group(g)}
        cyclic = {h.members: h for h in (generated_subgroup(g, [x]) for x in range(n))}
        for psi in (a for other in gs for a in automorphism_group(other)):
            if psi.images in own:
                continue
            for h in cyclic.values():
                with pytest.raises(ContractViolation,
                                   match="automorphism does not belong to this group"):
                    twisted_normalizer(g, psi, h)
    # a twin of G, with G's table, takes G's automorphisms and gets G's answer
    c4 = build_named("C4")
    twin, psi = FiniteGroup(c4.table, check=False), named_automorphism(c4, "mul:3")
    assert (twisted_normalizer(twin, psi, Subgroup(twin, (0, 2))).members
            == twisted_normalizer(c4, psi, Subgroup(c4, (0, 2))).members)



@pytest.mark.parametrize("entry", [translation_elements, transported_class])
def test_translations_and_transported_class_refuse_an_automorphism_of_another_group(entry):
    # (0, 2, 3, 1) is an automorphism of C2xC2, not of C4: translation_elements
    # used to return [0, 2, 3] for it, and transported_class a bare KeyError
    c4, v = build_named("C4"), build_named("C2xC2")
    with pytest.raises(ContractViolation, match="automorphism does not belong to this group"):
        entry(c4, GroupMap(v, v, (0, 2, 3, 1)))
    # a twin of C4, with C4's table, takes C4's automorphisms and gets C4's answer
    twin, psi = FiniteGroup(c4.table, check=False), named_automorphism(c4, "mul:3")
    assert entry(twin, psi) == entry(c4, psi)

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


# every catalog group of order 1..12, then S4, SL23 and S3xS3
CLASS_SWEEP = [*(spec.name() for n in range(1, 13) for spec in groups_of_order(n)),
               "S4", "SL23", "S3xS3"]


@pytest.mark.parametrize("name", CLASS_SWEEP)
def test_profile_is_a_class_function(empty_store, name):
    # tau in Aut(G) is an isomorphism Q(G, psi) -> Q(G, tau psi tau^-1), so
    # every field is the same on an Aut(G)-class: cached_profile keeps each
    # map's class's least member's profile
    g = build_named(name)
    classes = automorphism_classes(g)
    for psi in automorphism_group(g):
        prof = profile(g, psi)
        assert prof == profile(g, GroupMap(g, g, classes[psi.images])), psi.images
        assert cached_profile(g, psi) == prof


@pytest.mark.parametrize("name", ["S4", "SL23", "S3xS3"])
def test_decide_profiles_one_map_per_class(monkeypatch, empty_store, name):
    # each class representative against a conjugate that differs from it
    # where one does: only the representatives are profiled
    g = build_named(name)
    profiled, real = [], iso.profile
    monkeypatch.setattr(iso, "profile", lambda g, psi: profiled.append(psi.images) or real(g, psi))
    reps = [rep for rep, _ in automorphism_conjugacy_classes(g)]
    for rep in reps:
        conjugate = next((c for c in map(rep.conjugate_by, automorphism_group(g))
                          if c != rep), rep)
        assert iso.decide(g, rep, g, conjugate).result == "isomorphic"
    assert profiled == [rep.images for rep in reps]


def test_inn_embedding_check_fails_on_the_direct_product(monkeypatch):
    # with its action ignored, semidirect_table builds P x C_m, which does not
    # embed in Inn(Q(D4, psi)) as P x| C_m does: the row check must say so
    real = invariants.semidirect_table
    monkeypatch.setattr(invariants, "semidirect_table", lambda base, top, action: real(
        base, top, [tuple(range(base.order))] * len(action)))
    g = build_named("D4")
    psi = GroupMap(g, g, (0, 3, 2, 1, 5, 4, 7, 6))
    with pytest.raises(VerificationError, match="does not embed"):
        inn_structure(g, psi)
