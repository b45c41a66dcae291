import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import groups
from quandles.catalog import (build, build_named, cyclic, dihedral, groups_of_order,
                              named_automorphism)
from quandles.errors import CapacityError, ContractViolation, StructuralError
from quandles.groups import (FiniteGroup, GroupMap, Subgroup, all_group_isomorphisms,
                             automorphism_classes, automorphism_conjugacy_classes,
                             automorphism_group, center, fixed_subgroup,
                             generated_subgroup, group_from_json, group_to_json,
                             groups_isomorphic, identity_map, inner_automorphism,
                             is_normal, is_simple)
from quandles.iso import ISOMORPHIC, decide, verify_quandle_witness
from quandles.quandle import general_alexander

from oracles import greedy_closure, inner_group, package_definitions


def test_identity_and_latin_square_enforced():
    with pytest.raises(StructuralError):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(StructuralError):
        FiniteGroup([[1, 0], [0, 1]])


@pytest.mark.parametrize("table", [[[0, 1.9], [1.2, 0.3]], [[0, 1.0], [1, 0]],
                                   [["0", "1"], ["1", "0"]], [[0, None], [None, 0]]])
def test_non_integer_entries_are_refused(table):
    with pytest.raises(StructuralError):
        FiniteGroup(table)
    c2 = FiniteGroup([[0, 1], [1, 0]])
    with pytest.raises(StructuralError):
        GroupMap(c2, c2, (0, table[0][1]))


def test_associativity_enforced():
    # Latin square with identity row/column that is not a group (order 5
    # quasigroup): swap two entries of C_5 away from row/column 0
    t = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    t[1][2], t[1][4] = t[1][4], t[1][2]
    t[2][2], t[2][4] = t[2][4], t[2][2]
    with pytest.raises(StructuralError):
        FiniteGroup(t)


def test_multiply_identity_and_cyclic():
    c4 = build(cyclic(4))
    assert c4.mul(1, 3) == 0
    for a in range(4):
        assert c4.mul(0, a) == a == c4.mul(a, 0)


def test_multiply_dihedral_relation():
    # ordering e, s, s^2, s^3, t, ts, ts^2, ts^3: s * t = t s^3
    d4 = build(dihedral(4))
    assert d4.mul(1, 4) == 7


def test_mul_range_check():
    c4 = build(cyclic(4))
    with pytest.raises(StructuralError):
        c4.mul(0, 4)


def test_inverse():
    c6 = build(cyclic(6))
    assert c6.inv(2) == 4
    assert c6.inv(0) == 0
    q8 = build_named("Q8")
    # ordering 1, i, -1, -i, j, k, -j, -k
    assert q8.inv(1) == 3
    assert q8.inv(4) == 6
    assert q8.inv(2) == 2


def test_element_order():
    c15 = build(cyclic(15))
    assert c15.element_order(3) == 5
    assert c15.element_order(0) == 1
    from quandles.catalog import sl23_element_index
    sl = build_named("SL23")
    a_idx = sl23_element_index(((0, -1), (1, 0)))
    assert sl.element_order(a_idx) == 4
    for g in (c15, sl):
        for x in range(g.order):
            assert g.order % g.element_order(x) == 0


def test_generated_subgroup():
    c12 = build(cyclic(12))
    assert generated_subgroup(c12, {8}).members == (0, 4, 8)
    assert generated_subgroup(c12, set()).members == (0,)
    d6 = build(dihedral(6))
    sub = generated_subgroup(d6, {2, 6})  # <s^2, t>
    assert sub.order == 6
    grp, _ = sub.as_group()
    assert groups_isomorphic(grp, build(dihedral(3))) is not None


def test_subgroup_validation():
    c12 = build(cyclic(12))
    with pytest.raises(StructuralError):
        Subgroup(c12, (0, 1))  # not closed
    with pytest.raises(StructuralError):
        Subgroup(c12, (4, 8))  # missing identity


def test_is_normal():
    d6 = build(dihedral(6))
    assert is_normal(d6, Subgroup(d6, tuple(range(6))))
    assert is_normal(d6, Subgroup(d6, tuple(range(12))))
    s3 = build_named("S3")
    # <(12)> = {id, the first transposition in lex order}
    refl = next(x for x in range(6) if s3.element_order(x) == 2)
    assert not is_normal(s3, generated_subgroup(s3, {refl}))


def test_center():
    c6 = build(cyclic(6))
    assert center(c6).order == 6
    q8 = build_named("Q8")
    z = center(q8)
    assert z.members == (0, 2)  # {1, -1}
    a4 = build_named("A4")
    assert center(a4).members == (0,)


def test_is_simple():
    for p in (2, 3, 5, 7, 11, 13):
        assert is_simple(build(cyclic(p)))
    assert not is_simple(build(cyclic(4)))
    assert not is_simple(build_named("S3"))
    assert not is_simple(build_named("A4"))
    assert is_simple(build_named("A5"))


def _per_element_closure_scan(g):
    """is_simple by one normal closure per element x != e."""
    if g.order == 1:
        return False
    for x in range(1, g.order):
        closure = {0, x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for a in range(g.order):
                c = g.conj(a, y)
                if c not in closure:
                    closure.add(c)
                    frontier.append(c)
            for z in tuple(closure):
                for w in (g.table[y][z], g.table[z][y]):
                    if w not in closure:
                        closure.add(w)
                        frontier.append(w)
        if len(closure) < g.order:
            return False
    return True


def test_closure_scan_per_class_matches_the_per_element_scan():
    specs = [s for n in range(1, 17) for s in groups_of_order(n)]
    extra = [build_named(name) for name in ("A5", "S4", "S5", "SL23", "S3xS3")]
    simple = []
    for g in [build(s) for s in specs] + extra:
        assert groups._normal_closure_scan(g) == _per_element_closure_scan(g), g.name
        if groups._normal_closure_scan(g):
            simple.append(g.name)
    assert simple == ["C2", "C3", "C5", "C7", "C11", "C13", "A5"]


def _two_sided_closure(g, gens):
    """The subgroup generated by ``gens``: each new element times every
    member, on both sides."""
    members, frontier = {0} | set(gens), [0, *set(gens)]
    while frontier:
        x = frontier.pop()
        for y in tuple(members):
            for z in (g.table[x][y], g.table[y][x]):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return tuple(sorted(members))


@pytest.mark.parametrize("name", [s.name() for n in range(1, 17)
                                  for s in groups_of_order(n)] + ["A4", "S4"])
@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 10 ** 6), max_size=4))
def test_right_closure_is_the_two_sided_closure(name, draws):
    g = build_named(name)
    gens = [v % g.order for v in draws]
    assert generated_subgroup(g, gens).members == _two_sided_closure(g, gens)


def test_is_simple_is_the_closure_scan_computed_once(monkeypatch):
    specs = [s for n in range(1, 17) for s in groups_of_order(n)]
    extra = [build_named(name) for name in ("A5", "S4", "S5", "SL23")]
    for g in [build(s) for s in specs] + extra:
        assert is_simple(g) == groups._normal_closure_scan(g)
    scanned = []
    real_scan = groups._normal_closure_scan

    def recording(g):
        scanned.append(g)
        return real_scan(g)

    monkeypatch.setattr(groups, "_normal_closure_scan", recording)
    a5, c6 = (FiniteGroup(build_named(name).table, name=name, check=False)
              for name in ("A5", "C6"))
    for _ in range(3):
        assert is_simple(a5) and not is_simple(c6)
    assert scanned == [a5, c6]
    a5_again = FiniteGroup(a5.table, name="A5", check=False)
    assert is_simple(a5_again)  # another group object is scanned again
    assert scanned == [a5, c6, a5_again]


def test_groups_isomorphic_basics():
    c4 = build(cyclic(4))
    c22 = build_named("C2xC2")
    assert groups_isomorphic(c4, c22) is None
    for g in (c4, c22, build_named("D4")):
        wit = groups_isomorphic(g, g)
        assert wit is not None and wit.images == tuple(range(g.order))


def test_groups_isomorphic_witness_verifies():
    d3 = build(dihedral(3))
    s3 = build_named("S3")
    wit = groups_isomorphic(d3, s3)
    assert wit is not None
    GroupMap(d3, s3, wit.images, check=True)  # re-verify the homomorphism
    assert wit.is_bijective


def test_sl23_orbit_subgroup_is_quaternion():
    from quandles.catalog import sl23_element_index
    from quandles.invariants import compute_P
    from quandles.groups import inner_automorphism
    sl = build_named("SL23")
    a_idx = sl23_element_index(((0, -1), (1, 0)))
    p = compute_P(sl, inner_automorphism(sl, a_idx))
    grp, _ = p.as_group()
    assert groups_isomorphic(grp, build_named("Q8")) is not None


def _aut_count_all_bijections(g: FiniteGroup) -> int:
    n = g.order
    return sum(
        all(images[g.table[a][b]] == g.table[images[a]][images[b]]
            for a in range(n) for b in range(n))
        for images in ((0,) + perm
                       for perm in itertools.permutations(range(1, n))))


@pytest.mark.parametrize("order", range(1, 9))
def test_automorphism_count_against_bijection_filter(order):
    for spec in groups_of_order(order):
        g = build(spec)
        assert len(automorphism_group(g)) == _aut_count_all_bijections(g)


def test_automorphism_counts_known():
    assert len(automorphism_group(build(cyclic(15)))) == 8
    assert len(automorphism_group(build_named("Q8"))) == 24
    # general linear group size by the q-formula
    q = 8
    expected = (q - 1) * (q - 2) * (q - 4)
    assert len(automorphism_group(build_named("C2xC2xC2"))) == expected


def test_automorphisms_are_homomorphisms():
    for name in ("C4xC2", "D4", "Q8", "A4"):
        g = build_named(name)
        for psi in automorphism_group(g):
            GroupMap(g, g, psi.images, check=True)
            assert psi.is_bijective


def test_automorphism_capacity_bound():
    a5 = build_named("A5")
    with pytest.raises(CapacityError):
        automorphism_group(a5, bound=50)
    assert len(automorphism_group(a5, bound=60)) == 120
    # the enumeration is kept on the group, but the bound is checked again
    for enumerate_aut in (automorphism_group, automorphism_conjugacy_classes):
        with pytest.raises(CapacityError):
            enumerate_aut(a5, bound=50)


def test_automorphism_count_bound(monkeypatch):
    c2_3 = build_named("C2xC2xC2")
    monkeypatch.setattr(groups, "AUT_COUNT_BOUND", 167)
    with pytest.raises(CapacityError):
        automorphism_group(FiniteGroup(c2_3.table), bound=8)
    monkeypatch.setattr(groups, "AUT_COUNT_BOUND", 168)
    assert len(automorphism_group(FiniteGroup(c2_3.table), bound=8)) == 168


def test_conjugacy_classes_partition_and_closure():
    for name in ("D4", "Q8", "C2xC2xC2", "A4", "C15"):
        g = build_named(name)
        auts = automorphism_group(g)
        classes = automorphism_conjugacy_classes(g)
        assert sum(size for _, size in classes) == len(auts)
        lookup = {}
        for idx, (rep, _) in enumerate(classes):
            orbit = {t.compose(rep).compose(t.inverse()).images for t in auts}
            assert rep.images == min(orbit)
            for im in orbit:
                lookup[im] = idx
        assert len(lookup) == len(auts)
        for psi in auts:
            for t in auts:
                conj = t.compose(psi).compose(t.inverse()).images
                assert lookup[conj] == lookup[psi.images]
        rep_of = automorphism_classes(g)
        assert list(rep_of) == sorted(rep_of) == [a.images for a in auts]
        for im, idx in lookup.items():
            assert rep_of[im] == classes[idx][0].images


def test_conjugacy_classes_abelian_are_singletons():
    g = build(cyclic(15))
    classes = automorphism_conjugacy_classes(g)
    assert all(size == 1 for _, size in classes)
    assert len(classes) == 8


def _classes_on_tuples(g: FiniteGroup) -> dict:
    """Reference: automorphism_classes on whole image tuples.  Aut sorted by
    order over every point, generators chosen by a tuple closure (largest
    order first, then by image array), conjugation orbits found by hashing
    each conjugate."""
    perms = sorted(groups._iso_images(g, g))
    have, gens = {tuple(range(g.order))}, []
    for p in sorted(perms, key=groups._perm_order, reverse=True):
        if p in have:
            continue
        gens.append(p)
        frontier, mults = list(have), (p,)
        while frontier:
            grown = []
            for q in frontier:
                for r in mults:
                    s = tuple(q[v] for v in r)
                    if s not in have:
                        have.add(s)
                        grown.append(s)
            frontier, mults = grown, gens
    assert have == set(perms)
    rep_of = {}
    for p in perms:
        if p in rep_of:
            continue
        orbit, frontier = {p}, [p]
        while frontier:
            q = frontier.pop()
            for t in gens:
                r = tuple(t[q[v]] for v in groups._perm_inverse(t))
                if r not in orbit:
                    orbit.add(r)
                    frontier.append(r)
        rep_of.update(dict.fromkeys(orbit, min(orbit)))
    return {p: rep_of[p] for p in perms}


# every catalog group of order <= 16: C1 has no generators and a cyclic
# group one, the edge cases of a key made from generator images
@pytest.mark.parametrize("name", [
    *(spec.name() for n in range(1, 17) for spec in groups_of_order(n)),
    "A5", "S5", "SL23", "S3xS3", "S4", "C2xC2xC2xC2-relabelled"])
def test_automorphism_classes_match_the_tuple_reference(name):
    if name.endswith("-relabelled"):
        import random
        perm = list(range(1, 16))
        random.Random(16).shuffle(perm)
        g = _relabelled(build_named("C2xC2xC2xC2"), [0] + perm)
        g = group_from_json(group_to_json(g))
    else:
        g = build_named(name)
    fresh = FiniteGroup(g.table, name=g.name, check=False)
    got = automorphism_classes(fresh, bound=128)
    assert list(got.items()) == list(_classes_on_tuples(g).items())


@pytest.mark.parametrize("edit", ["drop the last", "repeat the last"])
def test_automorphism_classes_prove_the_generators_close(monkeypatch, edit):
    # a transversal that misses its last point (an automorphism missing: the
    # products are not closed under composition) or repeats it (an
    # automorphism listed twice: fewer distinct keys than products) is
    # refused instead of split into classes
    real = groups._stabilizer_chain

    def edited(g):
        chain = real(g)
        level = max(chain, key=len)
        level[-1:] = [] if edit == "drop the last" else level[-1:] * 2
        return chain

    monkeypatch.setattr(groups, "_stabilizer_chain", edited)
    match = "not closed|close to" if edit == "drop the last" else "distinct keys"
    with pytest.raises(ContractViolation, match=match):
        automorphism_classes(FiniteGroup(build_named("D4").table))


def test_automorphism_classes_refuse_conjugators_that_do_not_generate(monkeypatch):
    # a Schreier-Sims that never grows past two conjugators leaves the scan
    # short of Aut(Q8), which needs three
    real = groups._schreier_sims

    def capped(degree):
        extend, orders = real(degree), [1]

        def extend_twice(p):
            if len(orders) < 3 and (m := extend(p)) > orders[-1]:
                orders.append(m)
            return orders[-1]
        return extend_twice

    monkeypatch.setattr(groups, "_schreier_sims", capped)
    with pytest.raises(ContractViolation, match="close to"):
        automorphism_classes(FiniteGroup(build_named("Q8").table))


def test_automorphism_classes_take_no_orders_and_no_closure(monkeypatch):
    def refused(*_):
        raise AssertionError("automorphism_classes needs no order and no closure")

    assert package_definitions("_greedy_closure", "inner_group", "PermGroup") == []
    monkeypatch.setattr(groups, "_perm_order", refused)
    got = automorphism_classes(FiniteGroup(build_named("C2xC2xC2xC2").table))
    assert len(got) == 20160 and len(set(got.values())) == 14  # GL(4, 2) = A8


_SIFT_GROUPS = [*(spec.name() for n in range(1, 17) for spec in groups_of_order(n)),
                "A5", "S5", "SL23"]


@pytest.mark.parametrize("name", _SIFT_GROUPS)
def test_schreier_sims_order_is_the_closure_size(name):
    # one chain extended by seeded random members of Aut(G), each order
    # checked, and by a member of the group so far, which must sift through;
    # then the point symmetries of each class-representative quandle, which
    # generate its inner group
    import random
    g = build_named(name)
    auts, rng = list(automorphism_classes(g)), random.Random(name)
    gens, extend = rng.sample(auts, min(3, len(auts))), groups._schreier_sims(g.order)
    for k in range(1, len(gens) + 1):
        closure = greedy_closure(g.order, gens[:k], len(auts))
        assert extend(gens[k - 1]) == len(closure) == extend(max(closure))
    for rep, _ in automorphism_conjugacy_classes(g):
        q = general_alexander(g, rep)
        extend = groups._schreier_sims(q.size)
        assert [extend(s) for s in q.sym][-1] == inner_group(q).order


def _per_point_orbit_classes(conjs, n: int) -> list[int]:
    """Reference for the class orbits: each index's least class member, from
    orbits walked one point at a time under every conjugator."""
    rep = [-1] * n
    for i in range(n):
        if rep[i] < 0:
            rep[i], orbit = i, [i]
            for q in orbit:
                for c in conjs:
                    if rep[r := c[q]] < 0:
                        rep[r] = i
                        orbit.append(r)
    return rep


@pytest.mark.parametrize("name", _SIFT_GROUPS)
def test_class_orbits_match_the_per_point_walk(monkeypatch, name):
    # the conjugators automorphism_classes hands to groups._closure, walked
    # again by the reference
    walked, real = [], groups._closure

    def recording(maps, points):
        walked.append(maps)
        return real(maps, points)

    monkeypatch.setattr(groups, "_closure", recording)
    got = automorphism_classes(FiniteGroup(build_named(name).table, name=name, check=False))
    perms = list(got)
    assert walked and all(maps is walked[0] for maps in walked)
    rep = _per_point_orbit_classes(walked[0], len(perms))
    assert list(got.items()) == [(p, perms[r]) for p, r in zip(perms, rep)]


def test_over_capacity_aut_is_refused_before_it_is_built(monkeypatch):
    # |GL(5, 2)| = 9,999,360 is the product of the chain's level sizes, so
    # the refusal comes after a few dozen searches, not 100,001 automorphisms
    real, leaves = groups._descend, []

    def counting(levels, dt, fixed, im, used, gim, i):
        if i == len(levels):
            leaves.append(im)
        return real(levels, dt, fixed, im, used, gim, i)

    monkeypatch.setattr(groups, "_descend", counting)
    with pytest.raises(CapacityError, match="9999360 automorphisms"):
        automorphism_classes(FiniteGroup(build_named("C2xC2xC2xC2xC2").table))
    assert 0 < len(leaves) < 100


def test_aut_d4_classes_match_affine_reps():
    from quandles.catalog import dihedral_phi
    d4 = build(dihedral(4))
    classes = automorphism_conjugacy_classes(d4)
    assert len(classes) == 5
    expected = {dihedral_phi(d4, a, b).images
                for a, b in ((1, 0), (1, 1), (1, 2), (3, 1), (3, 2))}
    got_orbits = []
    auts = automorphism_group(d4)
    for rep, _ in classes:
        got_orbits.append({t.compose(rep).compose(t.inverse()).images
                           for t in auts})
    for images in expected:
        assert sum(images in orbit for orbit in got_orbits) == 1


def test_fixed_subgroup():
    d4 = build(dihedral(4))
    assert fixed_subgroup(identity_map(d4)).order == 8
    from quandles.catalog import dihedral_phi
    assert fixed_subgroup(dihedral_phi(d4, 3, 1)).order == 2
    c15 = build(cyclic(15))
    from quandles.catalog import cyclic_mul
    assert fixed_subgroup(cyclic_mul(c15, 2)).order == 1


def test_group_map_validation():
    c4 = build(cyclic(4))
    with pytest.raises(StructuralError):
        GroupMap(c4, c4, (0, 2, 1, 3))  # not a homomorphism
    with pytest.raises(StructuralError):
        GroupMap(c4, c4, (1, 0, 3, 2))  # identity not fixed
    m = GroupMap(c4, c4, (0, 3, 2, 1))
    assert m.map_order() == 2
    assert m.inverse().images == m.images
    with pytest.raises(ContractViolation):
        GroupMap(c4, c4, (0, 0, 0, 0), check=False).require_automorphism()


def test_group_map_equality_ignores_check():
    # ``check`` says how a map was built, not which map it is
    d4 = build_named("D4")
    checked = named_automorphism(d4, "phi:3,1")
    unchecked = GroupMap(d4, d4, checked.images, check=False)
    assert checked == unchecked and hash(checked) == hash(unchecked)
    assert repr(checked) == repr(unchecked)
    assert checked != GroupMap(d4, d4, identity_map(d4).images, check=False)


def test_inner_automorphism():
    d4 = build(dihedral(4))
    assert inner_automorphism(d4, 0).images == tuple(range(8))
    tau = inner_automorphism(d4, 4)
    GroupMap(d4, d4, tau.images, check=True)
    assert tau.map_order() == 2


def test_group_json_round_trip():
    g = build_named("D4")
    text = group_to_json(g)
    back = group_from_json(text)
    assert back.table == g.table and back.name == g.name
    with pytest.raises(StructuralError):
        group_from_json("{not json")
    with pytest.raises(StructuralError):
        group_from_json('{"name": "x", "order": 2, "table": [[0, 1], [1, 1]]}')


@pytest.mark.parametrize("field, value", [
    ("table", 5), ("table", [[0, 1], 3]), ("table", [[0, 1], [1, "0"]]),
    ("order", "x"), ("order", None), ("order", 2.5)])
def test_group_from_json_rejects_malformed_fields(field, value):
    data = json.loads(group_to_json(build_named("C2")))
    data[field] = value
    with pytest.raises(StructuralError):
        group_from_json(json.dumps(data))


def _relabelled(g: FiniteGroup, perm) -> FiniteGroup:
    """The copy of g whose element x is called perm[x] (perm fixes 0)."""
    inv = [0] * g.order
    for i, v in enumerate(perm):
        inv[v] = i
    table = [[perm[g.table[inv[i]][inv[j]]] for j in range(g.order)]
             for i in range(g.order)]
    return FiniteGroup(table, name=f"{g.name}-relabelled")


def test_element_relabelling_does_not_change_isomorphism_type():
    # orderings are conventions: conjugating the table by any permutation
    # fixing 0 produces an isomorphic group with identical invariants
    import random
    rng = random.Random(7)
    for name in ("D4", "Q8", "Dic3"):
        g = build_named(name)
        perm = list(range(1, g.order))
        rng.shuffle(perm)
        shuffled = _relabelled(g, [0] + perm)
        wit = groups_isomorphic(g, shuffled)
        assert wit is not None
        assert shuffled.element_order_multiset() == g.element_order_multiset()


def _closure_search_images(src: FiniteGroup, dst: FiniteGroup):
    """Reference: isomorphisms src -> dst by growing a partial injective
    homomorphism by closure at every node, generator images tried in
    increasing index order (the enumeration order ``_iso_images`` keeps)."""
    if src.order != dst.order:
        return
    gens = groups.generating_set(src)
    mapping, used = {0: 0}, {0}

    def extend(x, y):
        added, stack = [], [(x, y)]
        while stack:
            a, b = stack.pop()
            cur = mapping.get(a)
            if cur is not None:
                if cur != b:
                    break
                continue
            if b in used:
                break
            mapping[a] = b
            used.add(b)
            added.append(a)
            for c, d in list(mapping.items()):
                stack.append((src.table[a][c], dst.table[b][d]))
                stack.append((src.table[c][a], dst.table[d][b]))
        else:
            return added
        for a in added:
            used.discard(mapping.pop(a))
        return None

    def rec(i):
        if i == len(gens):
            yield tuple(mapping[a] for a in range(src.order))
            return
        want = src.element_order(gens[i])
        for y in range(dst.order):
            if dst.element_order(y) != want or y in used:
                continue
            added = extend(gens[i], y)
            if added is None:
                continue
            yield from rec(i + 1)
            for a in added:
                used.discard(mapping.pop(a))

    yield from rec(0)


def _enumeration_order_cases():
    for n in range(1, 17):
        grps = [build(spec) for spec in groups_of_order(n)]
        yield from itertools.product(grps, repeat=2)
    for name in ("A5", "S4", "S5", "SL23", "S3xS3"):
        g = build_named(name)
        yield g, g
    for name in ("D4", "Q8", "C2xC2xC2xC2"):
        g = build_named(name)
        perm = [0] + list(range(g.order - 1, 0, -1))
        h = _relabelled(g, perm)
        yield from ((g, h), (h, g), (h, h))


def test_iso_images_keep_the_closure_search_order():
    # groups_isomorphic's first witness and all_group_isomorphisms' order
    # (hence the theorem-1-3 and abelian-nelson witnesses) rest on this order
    for a, b in _enumeration_order_cases():
        assert list(groups._iso_images(a, b)) == list(_closure_search_images(a, b)), \
            (a.name, b.name)


def test_self_isomorphisms_come_in_sorted_enumeration_order():
    # all_group_isomorphisms(g, g) streams Aut(g) from _iso_images and builds
    # no automorphism_classes; the first compatible h of the P-isomorphism
    # search rests on this order
    cases = [build(spec) for n in range(1, 17) for spec in groups_of_order(n)]
    cases += [build_named(name) for name in ("A5", "S5", "SL23")]
    for g in cases:
        enumerated = list(groups._iso_images(g, g))
        assert [h.images for h in all_group_isomorphisms(g, g)] == enumerated, g.name
        assert enumerated == sorted(enumerated), g.name
    h = FiniteGroup(build_named("C2xC2xC2xC2").table, name="C2xC2xC2xC2", check=False)
    assert sum(1 for _ in all_group_isomorphisms(h, h)) == 20160
    assert h._aut_classes is None


_SMALL_CATALOG = [spec for n in range(1, 13) for spec in groups_of_order(n)]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_relabelled_group_has_the_same_aut_and_quandles(data):
    g = build(data.draw(st.sampled_from(_SMALL_CATALOG)))
    perm = [0] + data.draw(st.permutations(range(1, g.order)))
    h = group_from_json(group_to_json(_relabelled(g, perm)))
    wit = groups_isomorphic(g, h)
    assert wit is not None
    GroupMap(g, h, wit.images, check=True)
    classes_g, classes_h = automorphism_classes(g), automorphism_classes(h)
    assert len(classes_g) == len(classes_h)
    assert (sorted(Counter(classes_g.values()).values())
            == sorted(Counter(classes_h.values()).values()))
    psi = data.draw(st.sampled_from(automorphism_group(g)))
    images = [0] * g.order
    for x, y in enumerate(psi.images):
        images[perm[x]] = perm[y]
    psi_h = GroupMap(h, h, images)
    v = decide(g, psi, h, psi_h)
    assert v.result == ISOMORPHIC
    assert verify_quandle_witness(general_alexander(g, psi),
                                  general_alexander(h, psi_h), v.witness)
