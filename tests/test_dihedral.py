from math import gcd

import pytest

from quandles.catalog import build, build_named, dihedral, named_automorphism
from quandles.dihedral import (DihedralAut, are_conjugate_dn,
                               conjugacy_reps_aut_dn, cyclic_iso_decider,
                               cyclic_to_dihedral, dihedral_aut_from_map,
                               dihedral_iso_decider, fix_size_dn,
                               p_subgroups_dn)
from quandles.errors import ContractViolation
from quandles.groups import GroupMap, fixed_subgroup
from quandles.invariants import compute_P, compute_P2


def test_dihedral_aut_validation():
    with pytest.raises(ContractViolation):
        DihedralAut(4, 2, 0)
    x = DihedralAut(4, 7, 9)
    assert (x.a, x.b) == (3, 1)
    with pytest.raises(ContractViolation):
        are_conjugate_dn(DihedralAut(4, 1, 0), DihedralAut(5, 1, 0))


def test_conjugacy_reps_published_lists():
    def pairs(n):
        return {(r.a, r.b) for r in conjugacy_reps_aut_dn(n)}

    assert pairs(4) == {(1, 0), (1, 1), (1, 2), (3, 1), (3, 2)}
    assert pairs(5) == {(1, 0), (1, 1), (2, 1), (3, 1), (4, 1)}
    assert pairs(6) == {(1, 0), (1, 1), (1, 2), (1, 3), (5, 1), (5, 2)}
    assert pairs(8) == {(1, 0), (1, 1), (1, 2), (1, 4),
                        (3, 1), (3, 2), (7, 1), (7, 2),
                        (5, 1), (5, 2), (5, 4)}
    assert len(conjugacy_reps_aut_dn(8)) == 11


def test_are_conjugate_examples():
    assert are_conjugate_dn(DihedralAut(4, 3, 1), DihedralAut(4, 3, 3))
    assert not are_conjugate_dn(DihedralAut(4, 1, 2), DihedralAut(4, 3, 2))
    x = DihedralAut(6, 5, 1)
    assert are_conjugate_dn(x, x)


def _all_auts(n):
    units = [a for a in range(n) if gcd(a, n) == 1] if n > 1 else [0]
    return [DihedralAut(n, a, b) for a in units
            for b in (range(n) if n > 1 else [0])]


@pytest.mark.parametrize("n", range(3, 9))
def test_conjugacy_formula_vs_brute(n):
    g = build(dihedral(n))
    from quandles.groups import automorphism_group
    auts = automorphism_group(g)
    class_of = {}
    seen = set()
    nclasses = 0
    for aut in auts:
        if aut.images in seen:
            continue
        orbit = {t.compose(aut).compose(t.inverse()).images for t in auts}
        seen |= orbit
        for im in orbit:
            class_of[im] = nclasses
        nclasses += 1
    all_dn = _all_auts(n)
    for i, x in enumerate(all_dn):
        for y in all_dn[i + 1:]:
            brute = class_of[x.as_group_map(g).images] == class_of[y.as_group_map(g).images]
            assert are_conjugate_dn(x, y) == brute
    reps = conjugacy_reps_aut_dn(n)
    assert len(reps) == nclasses
    assert {class_of[r.as_group_map(g).images] for r in reps} == set(range(nclasses))


def test_fix_size_examples():
    assert fix_size_dn(DihedralAut(4, 1, 1)) == 4
    assert fix_size_dn(DihedralAut(4, 1, 0)) == 8
    assert fix_size_dn(DihedralAut(8, 5, 2)) == 4
    assert fix_size_dn(DihedralAut(8, 1, 2)) == 8


@pytest.mark.parametrize("n", range(1, 9))
def test_fix_and_p_formulas_vs_enumeration(n):
    g = build(dihedral(n))
    for x in _all_auts(n):
        psi = x.as_group_map(g)
        assert fix_size_dn(x) == fixed_subgroup(psi).order
        d, g2 = p_subgroups_dn(x)
        p = compute_P(g, psi)
        if n > 1:
            assert p.member_set() == {(d * j) % n for j in range(n // d)}
            step = d * g2
            assert compute_P2(g, psi).member_set() == \
                {(step * j) % n for j in range(max(1, n // step))}
        else:
            assert p.members == (0,)


def test_p_subgroup_examples():
    assert p_subgroups_dn(DihedralAut(4, 3, 1))[0] == 1
    assert p_subgroups_dn(DihedralAut(4, 1, 0))[0] == 4
    assert p_subgroups_dn(DihedralAut(8, 1, 2))[0] == 2
    assert p_subgroups_dn(DihedralAut(8, 5, 2))[0] == 2


def test_dihedral_iso_decider_examples():
    assert dihedral_iso_decider(DihedralAut(4, 1, 2), DihedralAut(4, 3, 2))
    assert not dihedral_iso_decider(DihedralAut(8, 1, 2), DihedralAut(8, 5, 2))
    x = DihedralAut(6, 5, 2)
    assert dihedral_iso_decider(x, x)


def test_cyclic_to_dihedral_examples():
    t = cyclic_to_dihedral(5, 3)
    assert (t.n, t.a, t.b) == (5, 3, 1)
    t = cyclic_to_dihedral(3, 5)
    assert (t.a, t.b) == (2, 1)
    t = cyclic_to_dihedral(4, 1)
    assert (t.a, t.b) == (1, 0)  # b = g = n collapses to 0
    with pytest.raises(ContractViolation):
        cyclic_to_dihedral(4, 2)
    with pytest.raises(ContractViolation, match="^a=3 is not a unit mod 6$"):
        cyclic_to_dihedral(3, 3)


def test_cyclic_twin_profiles_match_up_to_n10():
    # beyond the witness range the invariant profiles still line up
    from quandles.catalog import build_named, named_automorphism
    from quandles.iso import cached_profile
    for n in range(2, 11):
        c2n = build_named(f"C{2 * n}")
        dn = build(dihedral(n))
        for a in range(1, 2 * n, 2):
            if gcd(a, 2 * n) != 1:
                continue
            twin = cyclic_to_dihedral(n, a)
            p1 = cached_profile(c2n, named_automorphism(c2n, f"mul:{a}"))
            p2 = cached_profile(dn, twin.as_group_map(dn))
            assert p1.separator_against(p2) is None, (n, a)


def test_cyclic_iso_decider_examples():
    # over a prime square every multiplier 1 + k p lands in one class
    assert cyclic_iso_decider(9, 4, 7)
    assert cyclic_iso_decider(9, 4, 4)
    assert not cyclic_iso_decider(15, 2, 4)
    assert not cyclic_iso_decider(9, 2, 4)
    with pytest.raises(ContractViolation):
        cyclic_iso_decider(9, 3, 4)


def test_dihedral_aut_from_map_round_trip():
    for n in (3, 4, 5, 6, 8):
        g = build(dihedral(n))
        for x in _all_auts(n):
            back = dihedral_aut_from_map(g, x.as_group_map(g))
            assert back == x
    # degenerate sizes route to the generic machinery
    g2 = build(dihedral(2))
    assert dihedral_aut_from_map(g2, named_automorphism(g2, "id")) is None


def test_dihedral_aut_from_map_refuses_a_map_off_the_affine_pattern():
    d4 = build(dihedral(4))  # index e*4 + i is tau^e sigma^i
    # the endomorphism sigma -> tau, tau -> tau maps the rotation to a reflection
    onto_tau = GroupMap(d4, d4, tuple(4 * ((x // 4 + x % 4) % 2) for x in range(8)))
    assert dihedral_aut_from_map(d4, onto_tau) is None
    # agrees with phi_{1,0} at sigma and tau, not at sigma^2 and sigma^3
    swapped = GroupMap(d4, d4, (0, 1, 3, 2, 4, 5, 6, 7), check=False)
    assert dihedral_aut_from_map(d4, swapped) is None


@pytest.mark.parametrize("n, a, name", [(4, 3, "D5"), (5, 1, "D4"), (6, 5, "D3")])
def test_as_group_map_refuses_a_group_other_than_its_own_dn(n, a, name):
    # phi_{a,b} reads n off the group it is given, so D5 gave D5's phi_{3,1}
    with pytest.raises(ContractViolation, match=f"of D{n} is not a map of this group"):
        DihedralAut(n, a, 1).as_group_map(build_named(name))
    assert DihedralAut(n, a, 1).as_group_map() == named_automorphism(
        build(dihedral(n)), f"phi:{a},1")


@pytest.mark.parametrize("call", [
    lambda: cyclic_to_dihedral(0, 1),
    lambda: cyclic_iso_decider(0, 1, 1),
    lambda: cyclic_iso_decider(-3, 1, 1),
    lambda: conjugacy_reps_aut_dn(0),
], ids=["cyclic_to_dihedral", "cyclic_iso_decider-0", "cyclic_iso_decider-neg",
        "conjugacy_reps_aut_dn"])
def test_formulas_refuse_a_modulus_below_one(call):
    with pytest.raises(ContractViolation):
        call()
