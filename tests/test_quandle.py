import json
import sys

import pytest

from quandles import iso, quandle
from quandles.catalog import (build, build_named, cyclic, dihedral,
                              groups_of_order, named_automorphism)
from quandles.classify import classify_order
from quandles.errors import ContractViolation, StructuralError
from quandles.groups import (GroupMap, automorphism_conjugacy_classes,
                             automorphism_group, identity_map)
from quandles.invariants import compute_P
from quandles.quandle import (PermGroup, Quandle, check_axioms,
                              general_alexander, inner_group, is_connected,
                              make_quandle, orbit_of, quandle_from_json,
                              quandle_order, quandle_to_json, subquandle,
                              trivial_quandle)

# a valid quandle whose point symmetries have non-constant orders:
# s_0 is a 4-cycle on the other points, everything else is trivial
LOPSIDED = ((0, 2, 3, 4, 1), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4),
            (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))

# fails the distributivity axiom: s_0 and s_1 are incompatible transpositions
BROKEN_Q3 = ((0, 2, 1, 3, 4), (2, 1, 0, 3, 4), (0, 1, 2, 3, 4),
             (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))


def test_trivial_quandle():
    q = trivial_quandle(4)
    assert all(q.sym[x][y] == y for x in range(4) for y in range(4))
    g = build(cyclic(4))
    assert general_alexander(g, identity_map(g)).sym == q.sym


def test_general_alexander_formula_c4():
    g = build(cyclic(4))
    q = general_alexander(g, named_automorphism(g, "mul:3"))
    for x in range(4):
        for y in range(4):
            assert q.sym[x][y] == (3 * y - 2 * x) % 4
    assert q.sym[1][0] == 2


def test_general_alexander_dihedral_translation_row():
    # s_{t^e s^i}(e) = s^{(-1)^e (1-a) i + e b}
    for n in range(3, 9):
        g = build(dihedral(n))
        for a in range(1, n):
            from math import gcd
            if gcd(a, n) != 1:
                continue
            for b in range(n):
                q = general_alexander(g, named_automorphism(g, f"phi:{a},{b}"))
                for eps in (0, 1):
                    for i in range(n):
                        x = eps * n + i
                        sign = -1 if eps else 1
                        expect = (sign * (1 - a) * i + eps * b) % n
                        assert q.sym[x][0] == expect


def test_axioms_pass_for_all_catalog_quandles_up_to_12():
    for order in range(1, 13):
        for spec in groups_of_order(order):
            g = build(spec)
            for psi in automorphism_group(g):
                assert check_axioms(general_alexander(g, psi)) == []


def test_axiom_violations_reported():
    bad_q1 = [[1, 0, 2], [0, 1, 2], [0, 1, 2]]
    violations = check_axioms(Quandle(3, tuple(map(tuple, bad_q1))))
    assert ("Q1", 0) in violations
    violations = check_axioms(Quandle(5, BROKEN_Q3))
    assert violations and violations[0][0] == "Q3"
    with pytest.raises(StructuralError):
        make_quandle(BROKEN_Q3)
    not_perm = [[0, 0, 0], [0, 1, 2], [0, 1, 2]]
    violations = check_axioms(Quandle(3, tuple(map(tuple, not_perm))))
    assert any(v[0] == "Q2" for v in violations)


def test_general_alexander_requires_automorphism():
    g = build(cyclic(4))
    from quandles.groups import GroupMap
    not_bijective = GroupMap(g, g, (0, 2, 0, 2), check=False)
    with pytest.raises(ContractViolation):
        general_alexander(g, not_bijective)


def test_left_translations_are_automorphisms():
    for name in ("C4xC2", "D4", "Q8", "Dic3"):
        g = build_named(name)
        for psi in automorphism_group(g):
            q = general_alexander(g, psi)
            for a in range(g.order):
                tr = tuple(g.table[a][y] for y in range(g.order))
                assert all(tr[q.sym[x][y]] == q.sym[tr[x]][tr[y]]
                           for x in range(g.order) for y in range(g.order))


def test_translations_by_orbit_elements_are_inner():
    for name, aut in (("D4", "phi:3,1"), ("Q8", "psi_4"), ("C4xC2", "psi_sigma")):
        g = build_named(name)
        psi = named_automorphism(g, aut)
        q = general_alexander(g, psi)
        inn = inner_group(q)
        for x in compute_P(g, psi).members:
            tr = tuple(g.table[x][y] for y in range(g.order))
            assert tr in inn


def test_displacement_group_is_left_translation_by_orbit():
    # the subgroup generated by s_x . s_y^-1 consists exactly of the
    # left translations by elements of the identity orbit
    for name, aut in (("D4", "phi:3,1"), ("Dic3", "beta_tau"), ("Q8", "psi_4")):
        g = build_named(name)
        psi = named_automorphism(g, aut)
        q = general_alexander(g, psi)
        gens = []
        for x in range(g.order):
            sx = q.sym[x]
            se_inv = [0] * g.order
            for i, v in enumerate(q.sym[0]):
                se_inv[v] = i
            gens.append(tuple(sx[se_inv[y]] for y in range(g.order)))
        dis = PermGroup(g.order, gens)
        expected = {tuple(g.table[p][y] for y in range(g.order))
                    for p in compute_P(g, psi).members}
        assert dis.elements == expected


def test_inner_group_sizes():
    assert inner_group(trivial_quandle(5)).order == 1
    g = build_named("C4xC2")
    q = general_alexander(g, named_automorphism(g, "psi_sigma"))
    assert inner_group(q).order == 16
    q8 = build_named("Q8")
    assert inner_group(general_alexander(q8, named_automorphism(q8, "psi_4"))).order == 24


def test_inner_group_elements_are_quandle_automorphisms():
    g = build_named("D4")
    q = general_alexander(g, named_automorphism(g, "phi:3,1"))
    for f in inner_group(q).elements:
        assert all(f[q.sym[x][y]] == q.sym[f[x]][f[y]]
                   for x in range(q.size) for y in range(q.size))


def test_perm_group_closure_bound():
    from quandles.errors import CapacityError
    g = build_named("Q8")
    q = general_alexander(g, named_automorphism(g, "psi_4"))
    with pytest.raises(CapacityError):
        inner_group(q, bound=5)


def test_quandle_order():
    assert quandle_order(trivial_quandle(3)) == 1
    d6 = build(dihedral(6))
    assert quandle_order(general_alexander(d6, named_automorphism(d6, "phi:1,1"))) == 6
    c8 = build_named("C2xC2xC2")
    m5 = named_automorphism(c8, "mat:0,0,1;1,0,0;0,1,1")
    assert quandle_order(general_alexander(c8, m5)) == 7
    with pytest.raises(ContractViolation):
        quandle_order(Quandle(5, LOPSIDED))


def test_quandle_order_matches_map_order_on_catalog():
    for order in range(1, 13):
        for spec in groups_of_order(order):
            g = build(spec)
            for psi in automorphism_group(g):
                assert quandle_order(general_alexander(g, psi)) == psi.map_order()


def test_is_connected():
    assert not is_connected(trivial_quandle(2))
    c5 = build(cyclic(5))
    assert is_connected(general_alexander(c5, named_automorphism(c5, "mul:2")))
    g = build_named("C4xC2")
    assert not is_connected(general_alexander(g, named_automorphism(g, "psi_sigma")))


def test_connected_iff_orbit_is_everything():
    for order in range(1, 13):
        for spec in groups_of_order(order):
            g = build(spec)
            for psi in automorphism_group(g):
                q = general_alexander(g, psi)
                p = compute_P(g, psi)
                assert is_connected(q) == (p.order == g.order)
                assert orbit_of(q, 0) == p.member_set()


def test_subquandle():
    g = build_named("D4")
    psi = named_automorphism(g, "phi:3,1")
    q = general_alexander(g, psi)
    full, _ = subquandle(q, range(8))
    assert full.sym == q.sym
    single, _ = subquandle(q, {3})
    assert single.size == 1
    p = compute_P(g, psi)
    sub, embed = subquandle(q, p.members)
    assert sub.size == 4 and embed == p.members
    with pytest.raises(ContractViolation):
        subquandle(q, {0, 1})


def test_quandle_json_round_trip():
    g = build_named("D4")
    q = general_alexander(g, named_automorphism(g, "phi:3,1"))
    back = quandle_from_json(quandle_to_json(q))
    assert back.sym == q.sym
    assert back.provenance is not None
    assert back.provenance[0].name == "D4"
    plain = quandle_from_json(quandle_to_json(trivial_quandle(3)))
    assert plain.provenance is None
    with pytest.raises(StructuralError):
        quandle_from_json('{"size": 2, "sym": [[1, 0], [0, 1]]}')
    tampered = quandle_to_json(q).replace('"size": 8', '"size": 9')
    with pytest.raises(StructuralError):
        quandle_from_json(tampered)
    # provenance must reproduce the stored table
    other = general_alexander(g, named_automorphism(g, "phi:1,1"))
    mixed = json.loads(quandle_to_json(q))
    mixed["sym"] = [list(r) for r in other.sym]
    with pytest.raises(StructuralError):
        quandle_from_json(json.dumps(mixed))


def _record_axiom_checks(monkeypatch):
    """Empty the memo of passed checks and record, from here on, every
    check_axioms argument and every general_alexander (table, images) input."""
    monkeypatch.setattr(quandle, "_AXIOMS_PASSED", {})
    iso._cached_profile_key.cache_clear()
    checked, inputs = [], []
    real_check, real_ga = quandle.check_axioms, quandle.general_alexander

    def recording_check(q):
        checked.append(q)
        return real_check(q)

    def recording_ga(g, psi):
        inputs.append((g.table, psi.images))
        return real_ga(g, psi)

    monkeypatch.setattr(quandle, "check_axioms", recording_check)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quandles" and \
                getattr(module, "general_alexander", None) is real_ga:
            monkeypatch.setattr(module, "general_alexander", recording_ga)
    return checked, inputs


def test_axioms_checked_once_per_input(monkeypatch):
    checked, inputs = _record_axiom_checks(monkeypatch)
    classify_order(8)
    a5 = build_named("A5")
    reps = [rep for rep, _ in automorphism_conjugacy_classes(a5, bound=128)]
    iso.decide(a5, reps[1], a5, reps[2])
    keys = [(q.provenance[0].table, q.provenance[1].images) for q in checked]
    assert len(inputs) > len(set(inputs))  # the same inputs are built again
    assert len(checked) == len(set(keys)) == len(set(inputs))
    assert set(keys) == set(inputs)


def test_failed_axiom_check_is_not_remembered(monkeypatch):
    checked, _ = _record_axiom_checks(monkeypatch)
    d4 = build_named("D4")
    swap = GroupMap(d4, d4, (0, 2, 1, 3, 4, 5, 6, 7), check=False)
    for _ in range(2):
        with pytest.raises(StructuralError):
            general_alexander(d4, swap)
    assert len(checked) == 2
