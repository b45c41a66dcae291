import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import iso, quandle
from quandles.catalog import (build, build_named, cyclic, dihedral,
                              groups_of_order, named_automorphism)
from quandles.classify import classify_order
from quandles.errors import ContractViolation, StructuralError
from quandles.groups import (FiniteGroup, GroupMap, Subgroup, _composer,
                             automorphism_classes,
                             automorphism_conjugacy_classes,
                             automorphism_group, generated_subgroup,
                             generating_set, group_from_json, group_to_json,
                             identity_map, is_normal)
from quandles.invariants import (compute_P, compute_P2, restrict_to_P,
                                 twisted_normalizer)
from quandles.iso import verify_quandle_witness
from quandles.quandle import (Quandle, check_axioms, general_alexander,
                              is_connected, make_quandle, orbit_of,
                              quandle_from_json, quandle_order,
                              quandle_to_json, subquandle, trivial_quandle)

from oracles import PermGroup, inner_group

# a valid quandle whose point symmetries have non-constant orders:
# s_0 is a 4-cycle on the other points, everything else is trivial
LOPSIDED = ((0, 2, 3, 4, 1), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4),
            (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))

# fails the distributivity axiom: s_0 and s_1 are incompatible transpositions
BROKEN_Q3 = ((0, 2, 1, 3, 4), (2, 1, 0, 3, 4), (0, 1, 2, 3, 4),
             (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))

# (Q3) holds at 0 and 1 (s_0 = s_1 = id) but fails at 2 and 3, whose
# transpositions (0 1) and (1 2) do not commute
BROKEN_Q3_AWAY_FROM_0 = ((0, 1, 2, 3), (0, 1, 2, 3), (1, 0, 2, 3), (0, 2, 1, 3))

_SMALL_CATALOG = [spec for n in range(1, 13) for spec in groups_of_order(n)]


def _full_check_axioms(q: Quandle) -> list[tuple]:
    """Reference: check_axioms with (Q3) tested at every x, y, z."""
    n, sym = q.size, q.sym
    bad: list[tuple] = []
    full = frozenset(range(n))
    for x in range(n):
        if sym[x][x] != x:
            bad.append(("Q1", x))
    for x in range(n):
        if frozenset(sym[x]) != full:
            bad.append(("Q2", x))
    if bad:
        return bad
    for x in range(n):
        sx = sym[x]
        for y in range(n):
            sxy = sym[sx[y]]
            sy = sym[y]
            for z in range(n):
                if sx[sy[z]] != sxy[sx[z]]:
                    bad.append(("Q3", x, y, z))
                    break
            else:
                continue
            break
    return bad


def _cell_q3_violation(sym, x: int) -> tuple[int, int] | None:
    """Reference: the least (y, z) breaking (Q3) at x, one y at a time."""
    sx = sym[x]
    for y, sy in enumerate(sym):
        sxy = sym[sx[y]]
        if list(map(sx.__getitem__, sy)) != list(map(sxy.__getitem__, sx)):
            return y, next(z for z in range(len(sx)) if sx[sy[z]] != sxy[sx[z]])
    return None


def _cell_witness(q1: Quandle, q2: Quandle, images) -> bool:
    """Reference: verify_quandle_witness one cell (x, y) at a time."""
    images = tuple(images)
    n = q1.size
    if q2.size != n or len(images) != n or set(images) != set(range(n)):
        return False
    s1, s2 = q1.sym, q2.sym
    return all(images[s1[x][y]] == s2[images[x]][images[y]]
               for x in range(n) for y in range(n))


def _cell_subgroup_error(g: FiniteGroup, members) -> str | None:
    """Reference: the message of Subgroup's closure check, one product
    (a, b) at a time, or None when the members form a subgroup."""
    members = tuple(sorted(set(members)))
    ms = set(members)
    if 0 not in ms:
        return "subgroup must contain the identity"
    for a in members:
        if not 0 <= a < g.order:
            return f"member {a} out of range"
        if g._inv[a] not in ms:
            return f"subgroup not closed under inverse at {a}"
        for b in members:
            if g.table[a][b] not in ms:
                return f"subgroup not closed under product at ({a},{b})"
    return None


def _cell_hom_error(g: FiniteGroup, images) -> str | None:
    """Reference: the first (a, b) breaking images[ab] = images[a] images[b]."""
    t = g.table
    return next((f"not a homomorphism at ({a},{b})" for a in range(g.order)
                 for b in range(g.order) if images[t[a][b]] != t[images[a]][images[b]]), None)


def _cell_is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """Reference: every member of h conjugated by every element of g."""
    ms = set(h.members)
    return all(g.conj(a, x) in ms for a in range(g.order) for x in h.members)


def _cell_twisted_normalizer(g: FiniteGroup, psi: GroupMap, h: Subgroup) -> tuple[int, ...]:
    """Reference: the x with x y psi(x)^-1 in h for every member y of h."""
    hs = set(h.members)
    return tuple(x for x in range(g.order)
                 if all(g.table[g.table[x][y]][g._inv[psi.images[x]]] in hs for y in h.members))


def _full_closure(q: Quandle) -> set[tuple[int, ...]]:
    """Reference: closure of every distinct s_x under composition."""
    gens = set(q.sym)
    have = {tuple(range(q.size))}
    frontier = list(have)
    while frontier:
        p = frontier.pop()
        for gen in gens:
            r = tuple(gen[v] for v in p)
            if r not in have:
                have.add(r)
                frontier.append(r)
    return have


def _small_catalog_quandles():
    for spec in _SMALL_CATALOG:
        g = build(spec)
        for psi in automorphism_group(g):
            yield general_alexander(g, psi)


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
    for q in _small_catalog_quandles():
        assert check_axioms(q) == _full_check_axioms(q) == []


def test_axiom_check_lists_the_full_scan_violations():
    for table in (BROKEN_Q3, BROKEN_Q3_AWAY_FROM_0):
        q = Quandle(len(table), table)
        assert check_axioms(q) == _full_check_axioms(q) != []


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_axiom_check_on_corrupted_quandles(data):
    # swapping two off-diagonal entries of one row keeps (Q1) and (Q2)
    g = build(data.draw(st.sampled_from(groups_of_order(data.draw(st.integers(3, 12))))))
    q = general_alexander(g, data.draw(st.sampled_from(automorphism_group(g))))
    x = data.draw(st.integers(0, q.size - 1))
    y1, y2 = data.draw(st.lists(st.sampled_from([y for y in range(q.size) if y != x]),
                                min_size=2, max_size=2, unique=True))
    rows = [list(r) for r in q.sym]
    rows[x][y1], rows[x][y2] = rows[x][y2], rows[x][y1]
    corrupted = Quandle(q.size, tuple(map(tuple, rows)))
    assert check_axioms(corrupted) == _full_check_axioms(corrupted)


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


def _same_refusal(want: str | None, make, *args) -> None:
    """make(*args) raises StructuralError with the message ``want``, or
    succeeds when ``want`` is None."""
    if want is None:
        make(*args)
    else:
        with pytest.raises(StructuralError) as exc:
            make(*args)
        assert str(exc.value) == want


def _same_kernel_verdicts(g: FiniteGroup, psi: GroupMap) -> None:
    n, t, inv, im = g.order, g.table, g._inv, psi.images
    q = general_alexander(g, psi)
    assert q.sym == tuple(tuple(t[x][im[t[inv[x]][y]]] for y in range(n)) for x in range(n))
    # (Q3) at every point of Q, of Q with its first and last rows swapped,
    # and of Q with s_1(0) and s_1(2) swapped, which keeps (Q1) and (Q2)
    tables = [q.sym]
    if n > 2:
        swapped = list(q.sym)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        row = list(q.sym[1])
        row[0], row[2] = row[2], row[0]
        tables += [tuple(swapped), q.sym[:1] + (tuple(row),) + q.sym[2:]]
    for sym in tables:
        rows = list(map(_composer, sym))
        assert ([quandle._q3_violation(sym, rows, x) for x in range(n)]
                == [_cell_q3_violation(sym, x) for x in range(n)])
        if sym is not q.sym:
            corrupted = Quandle(n, sym)
            assert check_axioms(corrupted) == _full_check_axioms(corrupted)
    # tau is an isomorphism Q(G, psi) -> Q(G, tau psi tau^-1); then tau
    # with two images swapped, and with one image repeated
    tau = max(automorphism_classes(g))
    q2 = general_alexander(g, psi.conjugate_by(GroupMap(g, g, tau, check=False)))
    assert verify_quandle_witness(q, q2, tau) and _cell_witness(q, q2, tau)
    if n > 2:
        swapped_images = (0, tau[2], tau[1], *tau[3:])
        for images in (swapped_images, (0, 0, *tau[2:])):
            assert verify_quandle_witness(q, q2, images) == _cell_witness(q, q2, images)
        _same_refusal(_cell_hom_error(g, swapped_images), GroupMap, g, g, swapped_images)
    # P, P^2 and the cyclic subgroup of each generator of G; each without
    # its largest member, and with the least element outside it
    for h in (compute_P(g, psi), compute_P2(g, psi),
              *(generated_subgroup(g, [a]) for a in generating_set(g))):
        assert is_normal(g, h) == _cell_is_normal(g, h)
        assert twisted_normalizer(g, psi, h).members == _cell_twisted_normalizer(g, psi, h)
        outside = next((x for x in range(n) if x not in h), None)
        for members in (h.members, h.members[:-1], (*h.members, outside)):
            if None not in members:
                _same_refusal(_cell_subgroup_error(g, members), Subgroup, g, members)


@pytest.mark.parametrize("name", [
    *(spec.name() for n in range(1, 17) for spec in groups_of_order(n)), "A5", "S5", "SL23"])
def test_row_kernels_match_the_cell_references(name):
    # every Aut-class representative of G, and the map it restricts to on
    # its P group and on that group's P group (P^2), each input once
    g, seen = build_named(name), set()
    for rep, _ in automorphism_conjugacy_classes(g):
        p_grp, p_psi, _ = restrict_to_P(g, rep)
        p2_grp, p2_psi, _ = restrict_to_P(p_grp, p_psi)
        for grp, psi in ((g, rep), (p_grp, p_psi), (p2_grp, p2_psi)):
            if (grp.table, psi.images) not in seen:
                seen.add((grp.table, psi.images))
                _same_kernel_verdicts(grp, psi)


def test_row_kernels_on_size_one_inputs():
    # itemgetter of a single index returns a scalar, not a tuple
    c1 = build_named("C1")
    q = general_alexander(c1, identity_map(c1))
    assert q.sym == trivial_quandle(1).sym == ((0,),)
    assert check_axioms(q) == check_axioms(trivial_quandle(1)) == []
    assert quandle._q3_violation(q.sym, [_composer((0,))], 0) is None
    assert _composer((0,))((7,)) == (7,) and _composer(())((7,)) == ()
    assert verify_quandle_witness(q, trivial_quandle(1), (0,))
    assert not verify_quandle_witness(q, q, (1,))
    assert Subgroup(c1, (0,)).members == Subgroup(build_named("S3"), (0,)).members == (0,)
    assert is_normal(c1, Subgroup(c1, (0,))) and FiniteGroup(((0,),)).order == 1
    assert twisted_normalizer(c1, identity_map(c1), Subgroup(c1, (0,))).members == (0,)
    assert GroupMap(c1, c1, (0,)).images == (0,)


def test_out_of_range_members_are_refused_as_structural_errors():
    # a member past the group was met first as an index into a table row
    g = build_named("S3")
    for members, bad in (((0, 1, 6), 6), ((-1, 0), -1), ((-2, 0, 9), -2)):
        with pytest.raises(StructuralError, match=f"member {bad} out of range"):
            Subgroup(g, members)


def test_associativity_is_refused_at_the_first_triple():
    # a loop of order 5 (1 * 1 = e, so not C5): the triple named is the
    # first (i, j, k) of the cell-by-cell scan
    t = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    i, j, k = next((i, j, k) for i in range(5) for j in range(5) for k in range(5)
                   if t[t[i][j]][k] != t[i][t[j][k]])
    _same_refusal(f"associativity fails at ({i},{j},{k})", FiniteGroup, t)


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


def test_inner_group_is_the_closure_of_every_symmetry():
    quandles = list(_small_catalog_quandles())
    for name in ("A5", "S4"):
        g = build_named(name)
        quandles += [general_alexander(g, rep)
                     for rep, _ in automorphism_conjugacy_classes(g, bound=128)]
    for q in quandles:
        inn = inner_group(q)
        assert inn.generators == tuple(sorted(set(q.sym)))
        assert inn.elements == _full_closure(q)


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


def _c2_payload(**fields) -> str:
    """The JSON of Q(C2, id), with ``fields`` replaced (``automorphism``
    inside the provenance)."""
    c2 = build_named("C2")
    data = json.loads(quandle_to_json(general_alexander(c2, identity_map(c2))))
    for key, value in fields.items():
        (data["provenance"] if key == "automorphism" else data)[key] = value
    return json.dumps(data)


@pytest.mark.parametrize("fields", [
    {"provenance": [1, 2]}, {"provenance": "S3"}, {"provenance": 7},
    {"automorphism": "ab"}, {"automorphism": [0, 5]}, {"automorphism": [0, -1]},
    {"automorphism": None}, {"automorphism": [0, 1.0]},
    {"sym": 5}, {"sym": [[0, 1], 5]}, {"sym": [[0, 1], [0, None]]},
    {"size": "x"}, {"size": None},
    {"provenance": {"group": "C0", "automorphism": [0, 1]}},
    {"provenance": {"group": "Dic1", "automorphism": [0, 1]}},
    {"provenance": {"group": "C200", "automorphism": [0, 1]}}])
def test_quandle_from_json_rejects_malformed_fields(fields):
    with pytest.raises(StructuralError):
        quandle_from_json(_c2_payload(**fields))


@pytest.mark.parametrize("load", [group_from_json, quandle_from_json])
@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"size"'])
def test_json_loaders_reject_a_payload_that_is_not_an_object(load, text):
    with pytest.raises(StructuralError):
        load(text)


def test_quandle_from_json_drops_a_provenance_outside_the_catalog():
    q = quandle_from_json(_c2_payload(provenance={"group": "Foo", "automorphism": [0, 1]}))
    assert q.provenance is None and q.sym == ((0, 1), (0, 1))
    assert quandle_from_json(_c2_payload(provenance={"group": "C2"})).provenance is None


def _json_paths(value, path=()):
    """Every position in a JSON value, as the keys and indices leading to it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _json_paths(item, (*path, key))


def _json_payloads():
    s3 = build_named("S3")
    psi = automorphism_group(s3)[1]
    return [(quandle_from_json, quandle_to_json(general_alexander(s3, psi))),
            (quandle_from_json, quandle_to_json(trivial_quandle(3))),
            (group_from_json, group_to_json(s3))]


# group names with parameters that cannot be built (C0, Dic1) or that can;
# S_n and A_n stop at n = 5, so no name asks for a large build
_GROUP_NAMES = st.one_of(
    st.builds("{}{}".format, st.sampled_from(["C", "D", "Dic"]), st.integers(0, 9)),
    st.builds("{}{}".format, st.sampled_from(["S", "A"]), st.integers(0, 5)))
_WRONG_TYPED = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(-2, 9),
    st.text(alphabet="ab[]{} ", max_size=3), _GROUP_NAMES,
    st.lists(st.integers(-2, 9), max_size=4),
    st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["group", "automorphism", "a"]),
                    st.one_of(st.integers(0, 3), _GROUP_NAMES), max_size=2))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_json_loaders_load_or_raise_structural_error(data):
    load, text = data.draw(st.sampled_from(_json_payloads()))
    payload = json.loads(text)
    path = data.draw(st.sampled_from(list(_json_paths(payload))))
    value = data.draw(_WRONG_TYPED)
    if path:
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        payload = value
    try:
        load(json.dumps(payload))
    except StructuralError:
        pass


def _record_axiom_checks(monkeypatch):
    """Record, from here on, every check_axioms argument and every
    general_alexander (table, images) input."""
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


@pytest.mark.usefixtures("empty_store")
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


@pytest.mark.usefixtures("empty_store")
def test_failed_axiom_check_is_not_remembered(monkeypatch):
    checked, _ = _record_axiom_checks(monkeypatch)
    d4 = build_named("D4")
    swap = GroupMap(d4, d4, (0, 2, 1, 3, 4, 5, 6, 7), check=False)
    for _ in range(2):
        with pytest.raises(StructuralError):
            general_alexander(d4, swap)
    assert len(checked) == 2


@pytest.mark.usefixtures("empty_store")
def test_store_holds_one_record_per_input(monkeypatch):
    checked, inputs = _record_axiom_checks(monkeypatch)
    profiled = []
    real_profile = iso.profile

    def recording_profile(g, psi):
        profiled.append((g.table, psi.images))
        return real_profile(g, psi)

    monkeypatch.setattr(iso, "profile", recording_profile)
    classify_order(8)
    a5 = build_named("A5")
    reps = [rep for rep, _ in automorphism_conjugacy_classes(a5, bound=128)]
    iso.decide(a5, reps[1], a5, reps[2])
    stored = [(t, im) for t, (records, _) in quandle._STORE.items() for im in records]
    assert len(stored) == len(set(inputs)) and set(stored) == set(inputs)

    d4 = build_named("D4")
    twin = FiniteGroup(d4.table, name="D4-twin")
    assert quandle._stored(twin, identity_map(twin)) is quandle._stored(d4, identity_map(d4))
    for psi in automorphism_group(d4):
        psi_twin = GroupMap(twin, twin, psi.images)
        assert iso.cached_profile(twin, psi_twin) is iso.cached_profile(d4, psi)
        general_alexander(twin, psi_twin)

    # the profile a record keeps is the one computed on an anonymous copy
    for spec in _SMALL_CATALOG:
        g = build(spec)
        anon = FiniteGroup(g.table, check=False)
        for psi in automorphism_group(g):
            ref = real_profile(anon, GroupMap(anon, anon, psi.images, check=False))
            assert iso.cached_profile(g, psi) == ref
    keys = [(q.provenance[0].table, q.provenance[1].images) for q in checked]
    assert len(keys) == len(set(keys)) and len(profiled) == len(set(profiled))


def test_a_group_keeps_its_store_entry_per_store(monkeypatch):
    # the table is hashed once per group object and store; twin groups still
    # share an entry, and a store swapped in (as by the empty_store fixture)
    # is not answered from an entry kept for another one
    class CountingStore(dict):
        lookups = 0

        def setdefault(self, key, default):
            CountingStore.lookups += 1
            return super().setdefault(key, default)

    d4 = build_named("D4")  # cached by the catalog across tests
    psi = named_automorphism(d4, "phi:3,1")
    general_alexander(d4, psi)
    shared = quandle._stored(d4, psi)
    assert psi.images in shared[0]
    monkeypatch.setattr(quandle, "_STORE", CountingStore())
    assert quandle._stored(d4, psi) == ({}, {})
    twin = FiniteGroup(d4.table, name="D4-twin")
    psi_twin = GroupMap(twin, twin, psi.images)
    for _ in range(3):
        general_alexander(d4, psi)
        compute_P(twin, psi_twin)
    assert CountingStore.lookups == 2
    assert quandle._stored(twin, psi_twin) is quandle._stored(d4, psi)
    records, p_groups = quandle._stored(d4, psi)
    assert list(records) == [psi.images] and len(p_groups) == 1
    monkeypatch.undo()
    assert quandle._stored(d4, psi) is shared and quandle._stored(twin, psi_twin) is shared


@pytest.mark.parametrize("rows", [[[0.7, 1.2], [0.1, 1.9]], [[0, 1.0], [0, 1]],
                                  [["0", "1"], ["0", "1"]], [[0, 1], [0, b"1"]]])
def test_non_integer_entries_are_refused(rows):
    with pytest.raises(StructuralError):
        make_quandle(rows)
    with pytest.raises(StructuralError):
        Quandle(2, rows)


def test_quandle_converts_and_checks_rows_from_outside():
    q = Quandle(2, [[0, 1], [0, 1]])
    assert q.sym == ((0, 1), (0, 1)) and all(type(r) is tuple for r in q.sym)
    assert make_quandle([[0, 1], [0, 1]]) == q
    for size, rows in ((3, [[0, 1], [0, 1]]), (2, [[0, 1], [0]])):
        with pytest.raises(StructuralError):
            Quandle(size, rows)


@pytest.mark.usefixtures("empty_store")
def test_recent_rows_are_kept_under_each_callers_group():
    d4 = build_named("D4")
    psi = named_automorphism(d4, "phi:3,1")
    q = general_alexander(d4, psi)
    assert general_alexander(d4, psi).sym is q.sym
    twin = FiniteGroup(d4.table, name="D4-twin")
    q_twin = general_alexander(twin, GroupMap(twin, twin, psi.images))
    assert q_twin.sym is q.sym and q_twin.provenance[0] is twin
    assert "D4-twin" in repr(q_twin) and "D4-twin" not in repr(q)
    assert json.loads(quandle_to_json(q_twin))["provenance"]["group"] == "D4-twin"
    assert json.loads(quandle_to_json(q))["provenance"]["group"] == "D4"


@pytest.mark.usefixtures("empty_store")
def test_evicted_rows_are_rebuilt_without_a_second_axiom_check(monkeypatch):
    checked, _ = _record_axiom_checks(monkeypatch)
    d4 = build_named("D4")
    psi = named_automorphism(d4, "phi:3,1")
    first = general_alexander(d4, psi)
    a5, cells = build_named("A5"), 0
    for other in automorphism_group(a5, bound=60):
        if cells > quandle.ROW_CELLS:
            break
        general_alexander(a5, other)
        cells += a5.order ** 2
    assert cells > quandle.ROW_CELLS and len(checked) == 1 + cells // a5.order ** 2
    kept = list(quandle._RECENT.values())
    assert quandle._row_cells == sum(len(rec["rows"]) ** 2 for rec in kept)
    assert quandle._row_cells <= quandle.ROW_CELLS
    again = general_alexander(d4, psi)
    assert again == first and again.sym is not first.sym
    assert len(checked) == 1 + cells // a5.order ** 2
    assert general_alexander(d4, psi).sym is again.sym
