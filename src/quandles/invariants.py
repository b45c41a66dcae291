"""The invariant suite for Q(G, psi).

The central object is P: the orbit of the identity under the inner group,
which always equals the subgroup generated by {x psi(x)^-1}.  Both
computations run on the first call for each (table, images) input and must
agree; a mismatch is an internal bug, not a warning.  On top of P sit P^2,
Fix, the twisted normalizer, the two isomorphism-criterion preconditions,
and the inner-group structure, all bundled into a hashable InvariantProfile
used for pruning and as table rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from .catalog import build, cyclic_action, groups_of_order, semidirect_table
from .errors import VerificationError
from .groups import (FiniteGroup, GroupMap, Subgroup, automorphism_classes,
                     center, generated_subgroup, groups_isomorphic, is_normal)
from .quandle import (PermGroup, _stored, general_alexander, inner_group,
                      orbit_of)

PROFILE_VERSION = "profile.v1"


def translation_elements(g: FiniteGroup, psi: GroupMap) -> list[int]:
    """The set {s_x(e)} = {x psi(x)^-1 : x in G}, with duplicates removed."""
    im = psi.images
    return sorted({g.table[x][g._inv[im[x]]] for x in range(g.order)})


def _p_record(g: FiniteGroup, psi: GroupMap) -> tuple[tuple[int, ...], GroupMap]:
    """(P's members, which are also its embedding into G, and psi|_P on the
    shared P group), built and cross-checked on the first call per
    (table, images) and kept in the input's record."""
    records, p_groups = _stored(g, psi)
    im = psi.images
    rec = records.get(im, {}).get("P")
    if rec is not None:
        return rec
    orbit = orbit_of(general_alexander(g, psi), 0)
    span = generated_subgroup(g, translation_elements(g, psi))
    if orbit != span.member_set():
        raise VerificationError(
            f"P mismatch on {g.name}: orbit {sorted(orbit)} vs "
            f"generated subgroup {list(span.members)}")
    members = span.members
    pos = {m: i for i, m in enumerate(members)}
    if any(im[m] not in pos for m in members):
        raise VerificationError(f"P is not invariant under psi on {g.name}")
    grp = p_groups.get(members)
    if grp is None:
        grp = p_groups[members] = span.as_group()[0]
    rec = records[im]["P"] = members, GroupMap(
        grp, grp, tuple(pos[im[m]] for m in members), check=False)
    return rec


def compute_P(g: FiniteGroup, psi: GroupMap) -> Subgroup:
    """Orbit of e under the inner group; cross-checked against <{x psi(x)^-1}>."""
    return Subgroup(g, _p_record(g, psi)[0])


def restrict_to_P(g: FiniteGroup, psi: GroupMap) -> tuple[FiniteGroup, GroupMap, tuple[int, ...]]:
    """The subquandle data (P as a group, psi|_P, embedding into G)."""
    members, restricted = _p_record(g, psi)
    return restricted.source, restricted, members


def compute_P2(g: FiniteGroup, psi: GroupMap) -> Subgroup:
    """P applied to Q(P, psi|_P), returned as a subgroup of G."""
    grp, restricted, embed = restrict_to_P(g, psi)
    return Subgroup(g, tuple(embed[i] for i in _p_record(grp, restricted)[0]))


def twisted_normalizer(g: FiniteGroup, psi: GroupMap, h: Subgroup) -> Subgroup:
    """{x : x H psi(x)^-1 = H}; always a subgroup."""
    psi.require_automorphism()
    hs = h.member_set()
    members = []
    for x in range(g.order):
        px = g._inv[psi.images[x]]
        if all(g.table[g.table[x][y]][px] in hs for y in h.members):
            members.append(x)
    return Subgroup(g, tuple(members))


@dataclass
class InnStructureReport:
    perm_group: PermGroup
    inn_size: int
    p_size: int
    psi_order: int
    product_holds: bool
    semidirect_witness: GroupMap | None
    centerless_p: bool
    psi_p_inner: bool
    direct_witness: GroupMap | None


def psi_restricted_is_inner(grp: FiniteGroup, restricted: GroupMap) -> bool:
    return any(all(grp.conj(a, x) == restricted.images[x] for x in range(grp.order))
               for a in range(grp.order))


def inn_structure(g: FiniteGroup, psi: GroupMap) -> InnStructureReport:
    """Inn(Q(G,psi)) with the size law |Inn| = |P| * ord(psi) and, when P is
    centerless, the direct-vs-semidirect dichotomy driven by whether psi|_P
    is inner."""
    psi.require_automorphism()
    q = general_alexander(g, psi)
    inn = inner_group(q)
    grp, restricted, _ = restrict_to_P(g, psi)
    m = psi.map_order()
    product_holds = inn.order == grp.order * m

    direct_witness = None
    centerless = center(grp).order == 1
    inner_flag = psi_restricted_is_inner(grp, restricted)
    inn_as_group, _ = inn.as_group(name="Inn")
    cm, powers = cyclic_action(restricted.images, m)
    sd = FiniteGroup(semidirect_table(grp, cm, powers),
                     name=f"{grp.name}:C{m}", check=False)
    semidirect_witness = groups_isomorphic(inn_as_group, sd)
    if centerless:
        direct = FiniteGroup(semidirect_table(grp, cm, powers[:1] * m),
                             name=f"{grp.name}xC{m}", check=False)
        direct_witness = groups_isomorphic(inn_as_group, direct)

    return InnStructureReport(
        perm_group=inn, inn_size=inn.order, p_size=grp.order, psi_order=m,
        product_holds=product_holds, semidirect_witness=semidirect_witness,
        centerless_p=centerless, psi_p_inner=inner_flag,
        direct_witness=direct_witness)


# ---------------------------------------------------------------------------
# canonical descriptors
# ---------------------------------------------------------------------------

@cache
def _catalog_groups(order: int):
    if order > 16:
        return ()
    return tuple((spec.name(), build(spec)) for spec in groups_of_order(order))


def _catalog_match(grp: FiniteGroup) -> tuple[str | None, GroupMap | None]:
    """(name, isomorphism grp -> catalog copy) of the first catalog group of
    grp's order that grp is isomorphic to, or (None, None)."""
    for name, cand in _catalog_groups(grp.order):
        h0 = groups_isomorphic(grp, cand)
        if h0 is not None:
            return name, h0
    return None, None


def group_descriptor(grp: FiniteGroup) -> tuple:
    """(order, element-order multiset, abelian flag, catalog name or None)."""
    return (grp.order, grp.element_order_multiset(), grp.is_abelian, _catalog_match(grp)[0])


def descriptor_display(desc: tuple) -> str:
    order, _orders, abelian, name = desc
    if name is not None:
        return "1" if name == "C1" else name
    return f"?ord{order}{'ab' if abelian else ''}"


def transported_class(grp: FiniteGroup, auto: GroupMap) -> tuple:
    """Conjugacy class id of ``auto`` in Aut(grp), stated on the catalog copy.

    The map is transported along any isomorphism grp -> catalog copy; the
    resulting Aut-conjugacy class does not depend on the choice.  For groups
    outside the catalog the id degrades to (order of the map, fixed count).
    """
    name, h0 = _catalog_match(grp)
    if name is None:
        fixed = sum(1 for x in range(grp.order) if auto.images[x] == x)
        return ("fallback", auto.map_order(), fixed)
    return ("class", name, automorphism_classes(h0.target)[auto.conjugate_by(h0).images])


# ---------------------------------------------------------------------------
# the bundled profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantProfile:
    group_order: int
    psi_order: int
    fix_size: int
    p_iso_type: tuple
    p2_iso_type: tuple
    psi_restricted_class: tuple
    p_fix_size: int
    tn_size: int
    p1: bool
    p2: bool
    inn_size: int

    FIELDS = ("group_order", "psi_order", "fix_size", "p_iso_type",
              "p2_iso_type", "psi_restricted_class", "p_fix_size",
              "tn_size", "p1", "p2", "inn_size")

    def separator_against(self, other: InvariantProfile) -> str | None:
        return next((f for f in self.FIELDS if getattr(self, f) != getattr(other, f)), None)

    def to_json_dict(self) -> dict:
        out = {"version": PROFILE_VERSION, **{f: getattr(self, f) for f in self.FIELDS}}
        for f in ("p_iso_type", "p2_iso_type"):
            order, orders, abelian, name = out[f]
            out[f] = {"order": order, "element_orders": list(orders),
                      "abelian": abelian, "name": name}
        out["psi_restricted_class"] = [list(v) if isinstance(v, tuple) else v
                                       for v in self.psi_restricted_class]
        return out


def profile(g: FiniteGroup, psi: GroupMap) -> InvariantProfile:
    """Assemble the full invariant profile of Q(G, psi)."""
    psi.require_automorphism()
    grp, restricted, embed = restrict_to_P(g, psi)
    # P's members are sorted, so P^2 as a group of P has the table it has in G
    p2_grp = restrict_to_P(grp, restricted)[0]
    p2_sub = compute_P2(g, psi)
    fix = [x for x in range(g.order) if psi.images[x] == x]
    p_members = set(embed)
    tn = twisted_normalizer(g, psi, p2_sub)
    m = psi.map_order()
    inn_size = inner_group(general_alexander(g, psi)).order
    if inn_size != grp.order * m:
        raise VerificationError(
            f"|Inn| = {inn_size} differs from |P| * ord(psi) = "
            f"{grp.order * m} on {g.name}")
    im = psi.images
    translations_p = {g.table[x][g._inv[im[x]]] for x in embed}
    return InvariantProfile(
        group_order=g.order,
        psi_order=m,
        fix_size=len(fix),
        p_iso_type=group_descriptor(grp),
        p2_iso_type=group_descriptor(p2_grp),
        psi_restricted_class=transported_class(grp, restricted),
        p_fix_size=len(p_members.intersection(fix)),
        tn_size=tn.order,
        p1=is_normal(g, p2_sub),
        p2=translations_p == p2_sub.member_set(),
        inn_size=inn_size,
    )


def profile_to_json(p: InvariantProfile) -> str:
    return json.dumps(p.to_json_dict(), sort_keys=True)
