import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.catalog import (build, build_named, cyclic, dihedral,
                              groups_of_order, named_automorphism)
from quandles import groups, iso
from quandles.classify import _pair_objects, classify_order
from quandles.errors import (CapacityError, ContractViolation, StructuralError,
                             VerificationError)
from quandles.groups import (FiniteGroup, GroupMap, automorphism_classes,
                             automorphism_conjugacy_classes, automorphism_group,
                             group_from_json, group_to_json, groups_isomorphic,
                             identity_map, is_simple)
from quandles.iso import (ISOMORPHIC, NOT_ISOMORPHIC, UNDECIDED,
                          abelian_decider, brute_force_iso, cached_profile,
                          check_theorem39_properties, decide, isomorphic_method,
                          normalize_witness, simple_group_decider, theorem13_iso,
                          verdict_from_json, verify_quandle_witness)
from quandles.invariants import restrict_to_P
from quandles.quandle import general_alexander, trivial_quandle


def _ga(name, aut):
    g = build_named(name)
    psi = named_automorphism(g, aut)
    return g, psi, general_alexander(g, psi)


def test_self_isomorphism():
    _, _, q = _ga("D4", "phi:3,1")
    v = brute_force_iso(q, q)
    assert v.result == ISOMORPHIC
    assert verify_quandle_witness(q, q, v.witness)


def test_brute_force_size_mismatch_and_capacity():
    assert brute_force_iso(trivial_quandle(3), trivial_quandle(4)).result == NOT_ISOMORPHIC
    with pytest.raises(CapacityError):
        brute_force_iso(trivial_quandle(5), trivial_quandle(5), bound=4)


def test_brute_force_on_plain_tables():
    # non-Alexander inputs are allowed: relabelling a quandle is detected
    _, _, q = _ga("Q8", "psi_4")
    from quandles.quandle import Quandle
    perm = [0, 3, 1, 2, 6, 4, 7, 5]
    inv = [0] * 8
    for i, v in enumerate(perm):
        inv[v] = i
    sym = tuple(tuple(perm[q.sym[inv[x]][inv[y]]] for y in range(8))
                for x in range(8))
    shuffled = Quandle(8, sym)
    v = brute_force_iso(q, shuffled)
    assert v.result == ISOMORPHIC
    assert verify_quandle_witness(q, shuffled, v.witness)


def test_published_order8_merges_decided():
    cases = [
        (("D4", "phi:3,1"), ("Q8", "psi_3"), ISOMORPHIC),
        (("C4xC2", "psi_sigma"), ("C2xC2xC2", "mat:0,0,1;1,0,1;0,1,1"), ISOMORPHIC),
        (("D4", "phi:1,1"), ("Q8", "psi_5"), ISOMORPHIC),
        (("D4", "phi:1,2"), ("D4", "phi:3,2"), ISOMORPHIC),
        (("C2xC2xC2", "mat:0,0,1;1,0,0;0,1,1"),
         ("C2xC2xC2", "mat:0,0,1;1,0,1;0,1,0"), NOT_ISOMORPHIC),
        (("Q8", "psi_4"), ("D4", "phi:3,1"), NOT_ISOMORPHIC),
    ]
    for (n1, a1), (n2, a2), want in cases:
        g1, p1, q1 = _ga(n1, a1)
        g2, p2, q2 = _ga(n2, a2)
        v = decide(g1, p1, g2, p2)
        assert v.result == want, (n1, a1, n2, a2)
        assert brute_force_iso(q1, q2).result == want


def test_theorem13_undecided_when_preconditions_fail():
    g, psi, _ = _ga("Q8", "psi_4")
    v = theorem13_iso(g, psi, g, psi)
    assert v.result == UNDECIDED
    a4, c12, _ = _ga("A4", "conj_perm:(1 2)")
    assert theorem13_iso(a4, c12, a4, c12).result == UNDECIDED


def test_theorem13_verdict_matches_example_pair():
    c10 = build(cyclic(10))
    d5 = build(dihedral(5))
    v = theorem13_iso(c10, named_automorphism(c10, "mul:3"),
                      d5, named_automorphism(d5, "phi:3,1"))
    assert v.result == ISOMORPHIC and v.witness is not None
    v = theorem13_iso(build(dihedral(8)), named_automorphism(build(dihedral(8)), "phi:1,2"),
                      build(dihedral(8)), named_automorphism(build(dihedral(8)), "phi:5,2"))
    assert v.result == NOT_ISOMORPHIC


def test_theorem13_rejects_a_bad_constructed_witness(monkeypatch):
    monkeypatch.setattr(iso, "_thm13_witness",
                        lambda g1, *_args: (0,) * g1.order)
    c10 = build(cyclic(10))
    d5 = build(dihedral(5))
    with pytest.raises(VerificationError):
        theorem13_iso(c10, named_automorphism(c10, "mul:3"),
                      d5, named_automorphism(d5, "phi:3,1"))


def test_identical_inputs_isomorphic_with_identity():
    g, psi, q = _ga("D6", "phi:5,1")
    v = theorem13_iso(g, psi, g, psi)
    assert v.result == ISOMORPHIC
    assert verify_quandle_witness(q, q, v.witness)


def test_simple_group_decider():
    c7 = build(cyclic(7))
    m2 = named_automorphism(c7, "mul:2")
    m3 = named_automorphism(c7, "mul:3")
    assert simple_group_decider(c7, m2, c7, m2).result == ISOMORPHIC
    assert simple_group_decider(c7, m2, c7, m3).result == NOT_ISOMORPHIC
    c5 = build(cyclic(5))
    a2 = named_automorphism(c5, "mul:2")
    a3 = named_automorphism(c5, "mul:3")
    assert simple_group_decider(c5, a2, c5, a3).result == \
        brute_force_iso(general_alexander(c5, a2), general_alexander(c5, a3)).result
    with pytest.raises(ContractViolation):
        simple_group_decider(build(cyclic(4)), identity_map(build(cyclic(4))),
                             build(cyclic(4)), identity_map(build(cyclic(4))))


def _parent_simple_group_decider(g, psi1, psi2):
    """The three-argument decider the four-argument one replaced."""
    if not is_simple(g):
        raise ContractViolation(f"{g.name} is not simple")
    for tau in automorphism_classes(g, bound=128):
        if tuple(tau[v] for v in psi1.images) == tuple(psi2.images[v] for v in tau):
            q1 = general_alexander(g, psi1)
            q2 = general_alexander(g, psi2)
            return iso._checked(q1, q2, iso.IsoVerdict(ISOMORPHIC, iso.METHOD_SIMPLE,
                                                       witness=tau))
    return iso.IsoVerdict(NOT_ISOMORPHIC, iso.METHOD_SIMPLE,
                          note="maps are not conjugate in the automorphism group")


def _parent_simple_verdict(g1, psi1, g2, psi2):
    """The route ``decide`` ran on two simple groups before the fold."""
    q1, q2 = general_alexander(g1, psi1), general_alexander(g2, psi2)
    theta = groups_isomorphic(g2, g1)
    if theta is None:
        return iso.IsoVerdict(NOT_ISOMORPHIC, iso.METHOD_SIMPLE,
                              note="simple groups not isomorphic")
    transported = theta.compose(psi2).compose(theta.inverse())
    inner = _parent_simple_group_decider(g1, psi1, transported)
    if inner.result != ISOMORPHIC:
        return iso.IsoVerdict(NOT_ISOMORPHIC, iso.METHOD_SIMPLE, note=inner.note)
    tau = inner.witness
    theta_inv = theta.inverse()
    witness = tuple(theta_inv.images[tau[x]] for x in range(g1.order))
    return iso._checked(q1, q2, iso.IsoVerdict(ISOMORPHIC, iso.METHOD_SIMPLE,
                                               witness=witness))


def _relabelled(g, seed):
    """g with its non-identity elements renamed at random, through JSON."""
    perm = list(range(1, g.order))
    random.Random(seed).shuffle(perm)
    perm = [0] + perm
    inv = [0] * g.order
    for i, v in enumerate(perm):
        inv[v] = i
    table = [[perm[g.table[inv[i]][inv[j]]] for j in range(g.order)]
             for i in range(g.order)]
    h = group_from_json(group_to_json(FiniteGroup(table, name=f"{g.name}-relabelled")))
    return h, perm


def _carried(psi, h, perm):
    """psi moved onto the relabelled copy h: perm[x] -> perm[psi(x)]."""
    images = [0] * h.order
    for x, v in enumerate(psi.images):
        images[perm[x]] = perm[v]
    return GroupMap(h, h, tuple(images), check=False)


def test_folded_simple_decider_matches_the_parent_route():
    pairs = []
    for p in (2, 3, 5, 7, 11, 13):
        g = build(cyclic(p))
        units = automorphism_group(g)
        pairs += [(g, a, g, b) for a in units for b in units]
    c5, c7 = build(cyclic(5)), build(cyclic(7))
    pairs.append((c5, identity_map(c5), c7, named_automorphism(c7, "mul:3")))
    a5 = build_named("A5")
    reps = [rep for rep, _ in automorphism_conjugacy_classes(a5, bound=128)]
    pairs += [(a5, r1, a5, r2) for r1 in reps for r2 in reps]
    auts = automorphism_group(a5, bound=128)
    pairs += [(a5, rep, a5, rep.conjugate_by(tau)) for rep in reps for tau in auts[::23]]
    b5, perm = _relabelled(a5, 5)
    pairs += [(a5, rep, b5, _carried(rep.conjugate_by(tau), b5, perm))
              for rep in reps for tau in auts[::41]]
    pairs += [(b5, _carried(reps[2], b5, perm), a5, reps[3])]
    for g1, p1, g2, p2 in pairs:
        want = _parent_simple_verdict(g1, p1, g2, p2).to_json_dict()
        assert simple_group_decider(g1, p1, g2, p2).to_json_dict() == want, (
            g1.name, p1.images, g2.name, p2.images)


def test_symmetric_decider_matches_the_search_oracle():
    """Aut(S_n) = Inn(S_n) for n = 3, 4, 5: Aut-conjugacy decides."""
    for name in ("S3", "S4", "S5"):
        g = build_named(name)
        reps = [rep for rep, _ in automorphism_conjugacy_classes(g, bound=128)]
        for r1, r2 in itertools.combinations(reps, 2):
            v = simple_group_decider(g, r1, g, r2)
            oracle = brute_force_iso(general_alexander(g, r1), general_alexander(g, r2),
                                     bound=120)
            assert v.result == oracle.result == NOT_ISOMORPHIC, (name, r1.images, r2.images)
        auts = automorphism_group(g, bound=128)
        for rep in reps:
            conj = rep.conjugate_by(auts[len(auts) // 2 + 1])
            v = simple_group_decider(g, rep, g, conj)
            assert v.result == ISOMORPHIC and v.method == "simple-group-conjugacy"
            assert verify_quandle_witness(general_alexander(g, rep),
                                          general_alexander(g, conj), v.witness)
    d3 = build_named("D3")
    for a1, a2, want in (("phi:1,1", "phi:1,2", ISOMORPHIC),
                         ("phi:2,1", "phi:1,1", NOT_ISOMORPHIC)):
        p1, p2 = named_automorphism(d3, a1), named_automorphism(d3, a2)
        assert simple_group_decider(d3, p1, d3, p2).result == want == brute_force_iso(
            general_alexander(d3, p1), general_alexander(d3, p2)).result
    for name in ("SL23", "C6", "S3xS3"):  # orders of S_n, or not simple
        g = build_named(name)
        with pytest.raises(ContractViolation):
            simple_group_decider(g, identity_map(g), g, identity_map(g))


def test_relabelled_s5_conjugates_are_decided_isomorphic():
    s5 = build_named("S5")
    h, perm = _relabelled(s5, 120)
    psi = _carried(named_automorphism(s5, "conj_perm:(1 2 3)(4 5)"), h, perm)
    tau = _carried(named_automorphism(s5, "conj_perm:(1 4)(2 5 3)"), h, perm)
    for g1, p1 in ((h, psi), (s5, named_automorphism(s5, "conj_perm:(1 2 3)(4 5)"))):
        conj = psi.conjugate_by(tau)
        v = decide(g1, p1, h, conj)
        assert (v.result, v.method) == (ISOMORPHIC, "simple-group-conjugacy")
        assert verify_quandle_witness(general_alexander(g1, p1),
                                      general_alexander(h, conj), v.witness)


def test_small_symmetric_pairs_keep_their_methods(monkeypatch):
    """S3, D3 and S4 pairs always have another route, so the S_n row never
    changes what ``decide`` reports on them."""
    pairs = []
    for name in ("S3", "D3", "S4"):
        g = build_named(name)
        reps = [rep for rep, _ in automorphism_conjugacy_classes(g, bound=128)]
        tau = automorphism_group(g, bound=128)[-1]
        pairs += [(g, r1, g, r2) for r1 in reps for r2 in reps]
        pairs += [(g, rep, g, rep.conjugate_by(tau)) for rep in reps]
    now = [decide(*pair).to_json() for pair in pairs]
    assert all('"simple-group-conjugacy"' not in v for v in now)
    monkeypatch.setattr(iso, "_aut_conjugacy_decides", is_simple)
    assert now == [decide(*pair).to_json() for pair in pairs]


def test_abelian_decider():
    c9 = build(cyclic(9))
    assert abelian_decider(c9, named_automorphism(c9, "mul:4"),
                           c9, named_automorphism(c9, "mul:7")).result == ISOMORPHIC
    g = build_named("C2xC2xC2")
    m5 = named_automorphism(g, "mat:0,0,1;1,0,0;0,1,1")
    m6 = named_automorphism(g, "mat:0,0,1;1,0,1;0,1,0")
    assert abelian_decider(g, m5, g, m6).result == NOT_ISOMORPHIC
    with pytest.raises(ContractViolation):
        d4 = build_named("D4")
        abelian_decider(d4, identity_map(d4), d4, identity_map(d4))


def test_abelian_decider_stops_at_the_first_intertwining_h(monkeypatch):
    # psi is fixed-point free, so P is all of C2^5, whose Aut = GL(5, 2) has
    # about 1.0e7 elements; h = id intertwines psi with itself and comes first
    real = groups._iso_images

    def capped(src, dst):
        for count, images in enumerate(real(src, dst)):
            assert count < 1000, "Aut(P) enumerated past the first match"
            yield images

    monkeypatch.setattr(groups, "_iso_images", capped)
    g = build_named("C2xC2xC2xC2xC2")
    # the companion matrix of x^5 + x^2 + 1, which has no root in F_2
    psi = named_automorphism(g, "mat:0,0,0,0,1;1,0,0,0,0;0,1,0,0,1;0,0,1,0,0;0,0,0,1,0@2")
    assert [x for x in range(g.order) if psi.images[x] == x] == [0]
    v = decide(g, psi, g, psi)
    assert (v.result, v.method) == (ISOMORPHIC, "abelian-nelson")
    assert restrict_to_P(g, psi)[0]._aut_classes is None


def test_abelian_decider_agrees_with_theorem13():
    # on abelian groups the translation test of the shared P-isomorphism
    # search always passes, so both routes find the same first h
    compared = 0
    for n in range(1, 13):
        _, _, maps = _pair_objects(n)
        reps = [maps[cls[0]] for cls in classify_order(n).classes
                if maps[cls[0]][0].is_abelian]
        for (g1, psi1), (g2, psi2) in itertools.product(reps, repeat=2):
            a = abelian_decider(g1, psi1, g2, psi2)
            t = theorem13_iso(g1, psi1, g2, psi2)
            assert (a.result, a.witness) == (t.result, t.witness)
            compared += a.result == ISOMORPHIC
    assert compared > 0


def test_conjugate_automorphisms_give_isomorphic_quandles():
    for order in range(2, 13):
        for spec in groups_of_order(order):
            g = build(spec)
            auts = automorphism_group(g)
            step = max(1, len(auts) // 3)
            for psi in auts[::step]:
                for tau in auts[:3]:
                    conj = tau.compose(psi).compose(tau.inverse())
                    v = decide(g, psi, g, conj)
                    assert v.result == ISOMORPHIC, (g.name, psi.images)


def test_decide_methods_recorded():
    d4 = build_named("D4")
    v = decide(d4, named_automorphism(d4, "phi:1,2"),
               d4, named_automorphism(d4, "phi:3,2"))
    assert v.method == "dihedral-formula"
    c7 = build(cyclic(7))
    v = decide(c7, named_automorphism(c7, "mul:2"), c7, named_automorphism(c7, "mul:3"))
    assert v.method == "invariant-separation" and v.separator is not None
    v = decide(c7, named_automorphism(c7, "mul:2"), c7, named_automorphism(c7, "mul:2"))
    assert v.method == "simple-group-conjugacy"
    c9 = build(cyclic(9))
    v = decide(c9, named_automorphism(c9, "mul:4"), c9, named_automorphism(c9, "mul:7"))
    assert v.method == "abelian-nelson"


def test_decide_explicit_method_selection():
    g1, p1, q1 = _ga("D4", "phi:1,2")
    g2, p2, _ = _ga("D4", "phi:3,2")
    assert decide(g1, p1, g2, p2, method="brute").method == "brute-force"
    assert decide(g1, p1, g2, p2, method="thm13").method == "theorem-1-3"
    with pytest.raises(ContractViolation):
        decide(g1, p1, g2, p2, method="magic")


def test_decide_undecided_above_capacity(monkeypatch):
    monkeypatch.setattr(iso, "DEFAULT_BRUTE_BOUND", 4)
    s33 = build_named("S3xS3")
    swap = named_automorphism(s33, "swap")
    v = decide(s33, swap, s33, swap)
    assert v.result == UNDECIDED
    assert v.note is not None


def test_invariant_separation_is_sound():
    # whenever profiles separate a pair, the search agrees
    reps = []
    for spec in groups_of_order(8):
        g = build(spec)
        for rep, _ in automorphism_conjugacy_classes(g):
            reps.append((g, rep))
    for (g1, p1), (g2, p2) in itertools.combinations(reps, 2):
        prof1, prof2 = cached_profile(g1, p1), cached_profile(g2, p2)
        if prof1.separator_against(prof2) is not None:
            bf = brute_force_iso(general_alexander(g1, p1),
                                 general_alexander(g2, p2))
            assert bf.result == NOT_ISOMORPHIC


def test_witnesses_pass_structure_checks():
    pairs = [
        (("C10", "mul:3"), ("D5", "phi:3,1")),
        (("D4", "phi:1,2"), ("D4", "phi:3,2")),
        (("C4xC2", "psi_sigma"), ("C2xC2xC2", "mat:0,0,1;1,0,1;0,1,1")),
        (("C6xC2", "alpha_sigma^2"), ("A4", "conj_perm:(1 2 3)")),
    ]
    for (n1, a1), (n2, a2) in pairs:
        g1, p1, q1 = _ga(n1, a1)
        g2, p2, q2 = _ga(n2, a2)
        v = decide(g1, p1, g2, p2)
        assert v.result == ISOMORPHIC
        w = normalize_witness(q2, v.witness)
        report = check_theorem39_properties(w, g1, p1, g2, p2)
        assert report.ok, report.details


def test_theorem39_requires_normalized_witness():
    g1, p1, q1 = _ga("C10", "mul:3")
    g2, p2, q2 = _ga("D5", "phi:3,1")
    v = decide(g1, p1, g2, p2)
    if v.witness[0] != 0:
        with pytest.raises(ContractViolation):
            check_theorem39_properties(v.witness, g1, p1, g2, p2)
    with pytest.raises(ContractViolation):
        check_theorem39_properties(tuple(range(10)), g1, p1, g2, p2)


def test_theorem39_identity_witness():
    g, psi, _ = _ga("Q8", "psi_4")
    report = check_theorem39_properties(tuple(range(8)), g, psi, g, psi)
    assert report.ok


def test_verdict_json_round_trip():
    g1, p1, _ = _ga("D4", "phi:1,2")
    g2, p2, _ = _ga("D4", "phi:3,2")
    v = decide(g1, p1, g2, p2)
    back = verdict_from_json(v.to_json())
    assert back == v
    data = json.loads(v.to_json())
    assert data["result"] == "isomorphic"
    assert "witness" in data


@pytest.mark.parametrize("text", [
    "{}", "[]", "not json", '{"result": "isomorphic"}',
    '{"result": "isomorphic", "method": "brute-force", "witness": "ab"}',
    '{"result": "isomorphic", "method": "brute-force", "witness": [0, "1"]}',
    '{"result": "isomorphic", "method": "brute-force", "witness": null}',
    '{"result": 5, "method": [], "note": {}}',
    '{"result": "iso", "method": "brute-force"}',
    '{"result": null, "method": "brute-force"}',
    '{"result": "not-isomorphic", "method": 3}',
    '{"result": "not-isomorphic", "method": null}',
    '{"result": "not-isomorphic", "method": "brute-force", "separator": ["P"]}',
    '{"result": "not-isomorphic", "method": "brute-force", "note": null}',
])
def test_verdict_json_is_checked(text):
    with pytest.raises(StructuralError):
        verdict_from_json(text)


def test_symmetric_group_classes_match_quandle_classes():
    # the correspondence between map conjugacy and quandle isomorphism,
    # checked exhaustively for the two smallest nontrivial symmetric groups
    for name in ("S3", "S4"):
        g = build_named(name)
        classes = automorphism_conjugacy_classes(g, bound=128)
        for (r1, _), (r2, _) in itertools.combinations(classes, 2):
            v = decide(g, r1, g, r2)
            assert v.result == NOT_ISOMORPHIC, (name, r1.images, r2.images)
        for rep, _ in classes:
            tau = automorphism_group(g, bound=128)[3]
            conj = tau.compose(rep).compose(tau.inverse())
            assert decide(g, rep, g, conj).result == ISOMORPHIC


def test_alternating_5_simple_route():
    a5 = build_named("A5")
    classes = automorphism_conjugacy_classes(a5, bound=128)
    assert len(classes) == 7
    nontrivial = [rep for rep, _ in classes if rep.map_order() > 1]
    r1, r2 = nontrivial[0], nontrivial[1]
    assert decide(a5, r1, a5, r2).result == NOT_ISOMORPHIC
    tau = automorphism_group(a5, bound=128)[7]
    conj = tau.compose(r1).compose(tau.inverse())
    v = decide(a5, r1, a5, conj)
    assert v.result == ISOMORPHIC
    q1 = general_alexander(a5, r1)
    q2 = general_alexander(a5, conj)
    assert verify_quandle_witness(q1, q2, v.witness)


def test_a5_routes_match_brute_force_on_every_representative_pair():
    # the search shares no step with the routes decide runs on A5, which is
    # past the cross-check size; as the paper's first theorem says for a
    # simple group, two representatives give isomorphic quandles exactly
    # when they are the same one
    a5 = build_named("A5")
    reps = [rep for rep, _ in automorphism_conjugacy_classes(a5, bound=128)]
    pairs = list(itertools.combinations_with_replacement(range(len(reps)), 2))
    assert len(pairs) == 28
    for i, j in pairs:
        got = decide(a5, reps[i], a5, reps[j]).result
        want = brute_force_iso(general_alexander(a5, reps[i]),
                               general_alexander(a5, reps[j]), bound=64).result
        assert got == want == (ISOMORPHIC if i == j else NOT_ISOMORPHIC), (i, j)


def test_symmetric_5_conjugation_witnesses():
    s5 = build_named("S5")
    classes = automorphism_conjugacy_classes(s5, bound=128)
    assert len(classes) == 7
    auts = automorphism_group(s5, bound=128)
    rep = classes[1][0]
    tau = auts[11]
    conj = tau.compose(rep).compose(tau.inverse())
    q1 = general_alexander(s5, rep)
    q2 = general_alexander(s5, conj)
    assert verify_quandle_witness(q1, q2, tau.images)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_decide_is_symmetric(data):
    """Both directions give the same verdict and method; each isomorphic
    witness holds in its own direction, under the method that
    isomorphic_method names without deciding."""
    order = data.draw(st.integers(1, 12))
    sides = []
    for _ in range(2):
        g = build(data.draw(st.sampled_from(groups_of_order(order))))
        psi = data.draw(st.sampled_from(sorted(automorphism_classes(g))))
        sides.append((g, GroupMap(g, g, psi)))
    (g1, psi1), (g2, psi2) = sides
    forward = decide(g1, psi1, g2, psi2)
    backward = decide(g2, psi2, g1, psi1)
    assert (forward.result, forward.method) == (backward.result, backward.method)
    if forward.result == ISOMORPHIC:
        assert verify_quandle_witness(general_alexander(g1, psi1),
                                      general_alexander(g2, psi2), forward.witness)
        assert verify_quandle_witness(general_alexander(g2, psi2),
                                      general_alexander(g1, psi1), backward.witness)
        assert isomorphic_method(g1, psi1, g2, psi2) == forward.method
        assert isomorphic_method(g2, psi2, g1, psi1) == forward.method


def _triple_joint_refine(q1, q2, k1=None, k2=None):
    """The joint refinement that sorts (c[y], c[s_x(y)], c[s_y(x)]) triples."""
    def relabel(k1, k2):
        key_ids = {k: i for i, k in enumerate(sorted(set(k1) | set(k2)))}
        return [key_ids[k] for k in k1], [key_ids[k] for k in k2]

    if k1 is None:
        k1 = [(iso._cycle_type(q1.sym[x]),) for x in range(q1.size)]
        k2 = [(iso._cycle_type(q2.sym[x]),) for x in range(q2.size)]
    c1, c2 = relabel(k1, k2)
    while True:
        def step(q, c):
            return [
                (c[x], tuple(sorted((c[y], c[q.sym[x][y]], c[q.sym[y][x]])
                                    for y in range(q.size))))
                for x in range(q.size)
            ]
        n1, n2 = relabel(step(q1, c1), step(q2, c2))
        if len(set(n1) | set(n2)) == len(set(c1) | set(c2)):
            return n1, n2
        c1, c2 = n1, n2


def _reference_brute_force_iso(q1, q2, individualize, bound=iso.DEFAULT_BRUTE_BOUND):
    """The search with the full first refinement on every input; with
    ``individualize`` the pinned identity also gets a color of its own and
    the colorings are refined again, otherwise nothing more is pruned."""
    if q1.size != q2.size:
        return iso.IsoVerdict(NOT_ISOMORPHIC, iso.METHOD_BRUTE, note="sizes differ")
    n = q1.size
    if n > bound:
        raise CapacityError(f"brute force capped at size {bound}, got {n}")
    c1, c2 = _triple_joint_refine(q1, q2)
    if sorted(c1) != sorted(c2):
        return iso.IsoVerdict(NOT_ISOMORPHIC, iso.METHOD_BRUTE,
                              note="structural colorings differ")
    cand = [sorted(y for y in range(n) if c2[y] == c1[x]) for x in range(n)]
    s1, s2 = q1.sym, q2.sym
    m = [-1] * n
    minv = [-1] * n
    trail = []

    def attempt(a, b):
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            cur = m[x]
            if cur >= 0:
                if cur != y:
                    return False
                continue
            if minv[y] >= 0 or c1[x] != c2[y]:
                return False
            m[x] = y
            minv[y] = x
            trail.append(x)
            for z in range(n):
                w = m[z]
                if w >= 0:
                    stack.append((s1[x][z], s2[y][w]))
                    stack.append((s1[z][x], s2[w][y]))
        return True

    def undo(mark):
        while len(trail) > mark:
            x = trail.pop()
            minv[m[x]] = -1
            m[x] = -1

    if q1.is_general_alexander() and q2.is_general_alexander():
        if not attempt(0, 0):
            return iso.IsoVerdict(NOT_ISOMORPHIC, iso.METHOD_BRUTE,
                                  note="identity pinning fails")
        if individualize:
            c1, c2 = _triple_joint_refine(q1, q2, [(c, x == 0) for x, c in enumerate(c1)],
                                          [(c, x == 0) for x, c in enumerate(c2)])
            if sorted(c1) != sorted(c2):
                return iso.IsoVerdict(NOT_ISOMORPHIC, iso.METHOD_BRUTE)

    def search():
        best_x, best_cands = -1, None
        for x in range(n):
            if m[x] >= 0:
                continue
            live = [y for y in cand[x] if minv[y] < 0]
            if not live:
                return None
            if best_cands is None or len(live) < len(best_cands):
                best_x, best_cands = x, live
                if len(live) == 1:
                    break
        if best_cands is None:
            return tuple(m)
        for y in best_cands:
            mark = len(trail)
            if attempt(best_x, y):
                res = search()
                if res is not None:
                    return res
            undo(mark)
        return None

    witness = search()
    if witness is None:
        return iso.IsoVerdict(NOT_ISOMORPHIC, iso.METHOD_BRUTE)
    return iso.IsoVerdict(ISOMORPHIC, iso.METHOD_BRUTE, witness=witness)


def _pruned_search_inputs():
    from quandles.classify import boundary_pair
    from quandles.quandle import Quandle
    for order in range(1, 13):
        _groups, _pairs, maps = _pair_objects(order)
        quandles = [general_alexander(g, psi) for g, psi in maps]
        yield from itertools.product(quandles, repeat=2)
    # the order-16 class representatives that share ord(psi) and |Fix|
    report = classify_order(16, beyond_paper=True)
    _groups, _pairs, maps = _pair_objects(16)
    reps = [cls[0] for cls in report.classes]
    for a, b in itertools.combinations(reps, 2):
        pa, pb = report.profiles[a], report.profiles[b]
        if (pa.psi_order, pa.fix_size) == (pb.psi_order, pb.fix_size):
            yield general_alexander(*maps[a]), general_alexander(*maps[b])
    g1, psi1, g2, reps = boundary_pair()
    for rep in reps:
        yield general_alexander(g1, psi1), general_alexander(g2, rep)
    for name in ("S4", "SL23", "S3xS3"):
        g = build_named(name)
        tau = automorphism_group(g, bound=128)[3]
        for rep, _ in automorphism_conjugacy_classes(g, bound=128):
            conj = tau.compose(rep).compose(tau.inverse())
            yield general_alexander(g, rep), general_alexander(g, conj)
    # a bare table without provenance takes the unpinned path
    _, _, q = _ga("Q8", "psi_4")
    perm = [0, 3, 1, 2, 6, 4, 7, 5]
    inv = [perm.index(i) for i in range(8)]
    yield q, Quandle(8, tuple(tuple(perm[q.sym[inv[x]][inv[y]]] for y in range(8))
                              for x in range(8)))


def test_pruned_search_matches_the_unpruned_one():
    # pruning by the refined coloring removes only subtrees without an
    # isomorphism fixing 0, so result, note and first witness are unchanged
    counts = {}
    for q1, q2 in _pruned_search_inputs():
        pruned = brute_force_iso(q1, q2).to_json_dict()
        unpruned = _reference_brute_force_iso(q1, q2, individualize=False)
        assert pruned == unpruned.to_json_dict(), (q1, q2)
        counts[pruned["result"]] = counts.get(pruned["result"], 0) + 1
    assert counts[ISOMORPHIC] > 0 and counts[NOT_ISOMORPHIC] > 0


def test_brute_force_skips_only_a_uniform_first_refinement():
    # for Q(G, psi) the first refinement is constant on each side, so
    # skipping it and sorting one int per point pair change no verdict,
    # note, witness or color; inputs without provenance keep the full
    # refinement
    from quandles.quandle import Quandle
    seen = {}
    for order in range(1, 13):
        quandles = [general_alexander(g, rep)
                    for spec in groups_of_order(order) for g in [build(spec)]
                    for rep, _ in automorphism_conjugacy_classes(g)]
        inputs = [quandles]
        if order <= 8:
            inputs.append([Quandle(q.size, q.sym) for q in quandles])
        for qs in inputs:
            for q1, q2 in itertools.product(qs, repeat=2):
                got = brute_force_iso(q1, q2).to_json_dict()
                want = _reference_brute_force_iso(q1, q2, individualize=True)
                assert got == want.to_json_dict(), (q1, q2)
                # the int keys give the same color numbers as the triples
                pinned = [[(0, x == 0) for x in range(q.size)] for q in (q1, q2)]
                for keys in ([None, None], pinned):
                    assert (iso._joint_refine(q1, q2, *keys)
                            == _triple_joint_refine(q1, q2, *keys))
                seen[got.get("note")] = seen.get(got.get("note"), 0) + 1
    assert seen[None] > 0 and seen["structural colorings differ"] > 0


def test_dihedral_claim_builds_each_phi_once(monkeypatch):
    from quandles import catalog
    from quandles.verification import claim_dihedral_formulas
    real, calls = catalog._map_from_formula, []

    def counting(g, fn):
        calls.append((g.order, tuple(fn(x) for x in range(g.order))))
        return real(g, fn)

    monkeypatch.setattr(catalog, "_map_from_formula", counting)
    assert claim_dihedral_formulas().ok
    # one phi_{a,b} per unit a and b mod n, for n = 1..8
    assert len(calls) == len(set(calls)) == 123


# the dispatch before routes were listed in report order: a priority tuple
# picked the reported method, and each formula route ran its own structural
# decider for the witness
_REFERENCE_PRIORITY = (iso.METHOD_SEPARATION, iso.METHOD_SIMPLE, iso.METHOD_ABELIAN,
                       iso.METHOD_DIHEDRAL, iso.METHOD_CYCLIC, iso.METHOD_THM13,
                       iso.METHOD_BRUTE)


def _reference_formula_route(g1, psi1, g2, psi2):
    from quandles.dihedral import (cyclic_iso_decider, dihedral_aut_from_map,
                                   dihedral_iso_decider)
    spec = g1.spec
    if spec is None or spec != g2.spec:
        return None
    if spec.kind == "dihedral":
        x, y = dihedral_aut_from_map(g1, psi1), dihedral_aut_from_map(g2, psi2)
        if x is None or y is None:
            return None
        method, same, structural = (iso.METHOD_DIHEDRAL, dihedral_iso_decider(x, y),
                                    iso.theorem13_iso)
    elif spec.kind == "cyclic":
        n = g1.order
        a1 = psi1.images[1] if n > 1 else 1
        a2 = psi2.images[1] if n > 1 else 1
        method, same, structural = (iso.METHOD_CYCLIC, cyclic_iso_decider(n, a1, a2),
                                    iso.abelian_decider)
    else:
        return None

    def run(*_):
        if not same:
            return iso.IsoVerdict(NOT_ISOMORPHIC, method)
        inner = structural(g1, psi1, g2, psi2)
        if inner.result != ISOMORPHIC:
            raise VerificationError(f"{method} says isomorphic but {inner.method} disagrees")
        return iso.IsoVerdict(ISOMORPHIC, method, witness=inner.witness)

    return method, run


def _reference_routes(g1, psi1, g2, psi2):
    bound = iso.DEFAULT_BRUTE_BOUND
    prof1, prof2 = cached_profile(g1, psi1), cached_profile(g2, psi2)
    routes = []
    separator = prof1.separator_against(prof2)
    if separator is not None:
        routes.append((iso.METHOD_SEPARATION, lambda *_: iso.IsoVerdict(
            NOT_ISOMORPHIC, iso.METHOD_SEPARATION, separator=separator)))
    if psi1.map_order() == 1 and psi2.map_order() == 1:
        if g1.order == g2.order:
            routes.append((iso.METHOD_BRUTE, lambda *_: iso.IsoVerdict(
                ISOMORPHIC, iso.METHOD_BRUTE, witness=tuple(range(g1.order)))))
    elif is_simple(g1) and is_simple(g2):
        routes.append((iso.METHOD_SIMPLE, simple_group_decider))
    if g1.is_abelian and g2.is_abelian:
        routes.append((iso.METHOD_ABELIAN, abelian_decider))
    formula = _reference_formula_route(g1, psi1, g2, psi2)
    if formula is not None:
        routes.append(formula)
    cross_check = max(g1.order, g2.order) <= iso.CROSS_CHECK_SIZE
    if (cross_check or not routes) and prof1.p1 and prof1.p2 and prof2.p1 and prof2.p2:
        routes.append((iso.METHOD_THM13, theorem13_iso))
    if (cross_check or not routes) and max(g1.order, g2.order) <= bound:
        routes.append((iso.METHOD_BRUTE, lambda *_: brute_force_iso(
            general_alexander(g1, psi1), general_alexander(g2, psi2), bound=bound)))
    if (not routes and iso._aut_conjugacy_decides(g1)
            and iso._aut_conjugacy_decides(g2)):
        routes.append((iso.METHOD_SIMPLE, simple_group_decider))
    return routes


def _reference_best_method(methods):
    return min(methods, key=_REFERENCE_PRIORITY.index, default=None)


def _reference_decide(g1, psi1, g2, psi2):
    verdicts = [run(g1, psi1, g2, psi2) for _, run in _reference_routes(g1, psi1, g2, psi2)]
    if not verdicts:
        return iso.IsoVerdict(UNDECIDED, iso.METHOD_THM13,
                              note="all applicable methods exhausted or above capacity")
    if len({v.result for v in verdicts}) > 1:
        raise VerificationError("deciders disagree")
    best = _reference_best_method(v.method for v in verdicts)
    return next(v for v in verdicts if v.method == best)


def _dispatch_pin_inputs():
    for order in range(1, 13):
        yield from itertools.product(_pair_objects(order)[2], repeat=2)
    # above CROSS_CHECK_SIZE, where theorem 1.3 now runs beside a formula route
    for name in ("D9", "D10", "C17", "C20"):
        g = build_named(name)
        reps = [(g, rep) for rep, _ in automorphism_conjugacy_classes(g)]
        yield from itertools.product(reps, repeat=2)
    # the large-groups pairs of seed 1: each non-identity class representative
    # against a conjugate and against the next representative
    rng = random.Random(1)
    for name in ("A5", "S5", "SL23", "S3xS3", "S4"):
        g = build_named(name)
        auts = automorphism_group(g)
        reps = [rep for rep, _ in automorphism_conjugacy_classes(g) if rep.map_order() != 1]
        for i, rep in enumerate(reps):
            order = list(auts)
            rng.shuffle(order)
            conj = next(c for c in (rep.conjugate_by(tau) for tau in order)
                        if c.images != rep.images)
            yield (g, rep), (g, conj)
            yield (g, rep), (g, reps[(i + 1) % len(reps)])


def test_dispatch_matches_the_priority_dispatch():
    # routes listed in report order give the verdict, witness and method of
    # the priority tuple over the old listing, with formula routes bare
    decided = 0
    for (g1, psi1), (g2, psi2) in _dispatch_pin_inputs():
        want = _reference_decide(g1, psi1, g2, psi2)
        assert decide(g1, psi1, g2, psi2).to_json_dict() == want.to_json_dict()
        assert isomorphic_method(g1, psi1, g2, psi2) == _reference_best_method(
            m for m, _ in _reference_routes(g1, psi1, g2, psi2))
        decided += 1
    assert decided == 1839 + 520 + 56


def _count_structural_searches(monkeypatch):
    calls = []
    real = iso._p_isomorphism_verdict

    def counting(*args):
        calls.append(args[4])
        return real(*args)

    monkeypatch.setattr(iso, "_p_isomorphism_verdict", counting)
    return calls


def test_formula_routes_run_no_second_structural_search(monkeypatch):
    calls = _count_structural_searches(monkeypatch)
    g, psi1, _ = _ga("D6", "phi:5,1")
    _, psi2, _ = _ga("D6", "phi:5,3")
    v = decide(g, psi1, g, psi2)
    assert (v.result, v.method, calls) == (ISOMORPHIC, iso.METHOD_DIHEDRAL,
                                           [iso.METHOD_THM13])
    assert v.witness == theorem13_iso(g, psi1, g, psi2).witness
    calls.clear()
    c9, a4, _ = _ga("C9", "mul:4")
    _, a7, _ = _ga("C9", "mul:7")
    v = decide(c9, a4, c9, a7)
    assert (v.result, v.method) == (ISOMORPHIC, iso.METHOD_ABELIAN)
    assert calls == [iso.METHOD_ABELIAN]


def test_formula_disagreement_still_aborts(monkeypatch):
    g, psi1, _ = _ga("D6", "phi:5,1")
    _, psi2, _ = _ga("D6", "phi:5,3")
    monkeypatch.setattr(iso, "theorem13_iso", lambda *_: iso.IsoVerdict(
        NOT_ISOMORPHIC, iso.METHOD_THM13))
    with pytest.raises(VerificationError, match="deciders disagree"):
        decide(g, psi1, g, psi2)
