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
from dataclasses import dataclass, fields
from functools import cache
from itertools import compress
from operator import getitem, itemgetter

from .catalog import build, cyclic_action, groups_of_order, semidirect_table
from .errors import ContractViolation, VerificationError
from .groups import (FiniteGroup, GroupMap, Subgroup, _composer, _perm_inverse, _span,
                     automorphism_classes, center, generating_set,
                     groups_isomorphic, is_normal)
from .quandle import _kept, _stored, _translations, general_alexander, orbit_of, row_index

PROFILE_VERSION = "profile.v1"


def translation_elements(g: FiniteGroup, psi: GroupMap) -> list[int]:
    """The set {s_x(e)} = {x psi(x)^-1 : x in G}, with duplicates removed."""
    psi.require_automorphism(g)
    return sorted(set(_translations(g, psi)))


def restrict_to_P(g: FiniteGroup, psi: GroupMap) -> tuple[FiniteGroup, GroupMap, tuple[int, ...]]:
    """(P as a group, psi|_P on it, P's members, which are also its embedding
    into G), built and cross-checked on the first call per (table, images)
    and kept in the input's record with its span's generators; inputs with
    equal tables and equal P members share the P group, built once.

    Q's distinct rows prove Inn(Q) = {L_p psi^k : p in P, k < ord(psi)}: each
    row s_x is checked to be L_t psi with t = s_x(e) in P, and psi(P) = P,
    so those maps form a group that holds every s_x and has |P| ord(psi)
    members (f(e) gives p, and then psi^k).  It lies in Inn, as s_e = psi,
    L_t = s_x psi^-1, and the t generate the orbit of e, which is P."""
    return _p_facts(g, psi)[:3]


def _p_facts(g: FiniteGroup, psi: GroupMap):  # restrict_to_P's values, then P's generators in G
    def make():
        im = psi.images
        q = general_alexander(g, psi)
        orbit = orbit_of(q, 0)
        gens, span = _span(g, _translations(g, psi))
        if orbit != span:
            raise VerificationError(
                f"P mismatch on {g.name}: orbit {sorted(orbit)} vs "
                f"generated subgroup {sorted(span)}")
        members = tuple(sorted(span))
        pos = {m: i for i, m in enumerate(members)}
        if any(im[m] not in pos for m in members):
            raise VerificationError(f"P is not invariant under psi on {g.name}")
        psi_of = _composer(im)
        if any(row[0] not in pos or row != psi_of(g.table[row[0]]) for row in row_index(q)[0]):
            raise VerificationError(f"a row of Q({g.name}, psi) is not L_t psi with t in P")
        p_groups, pick = _stored(g, psi)[1], _composer(members)
        if (grp := p_groups.get(members)) is None:
            grp = p_groups[members] = Subgroup._spanned(g, members, gens).as_group()[0]
        return grp, GroupMap(grp, grp, _composer(pick(im))(pos), check=False), members, gens
    return _kept(g, psi, "P", make)


def compute_P(g: FiniteGroup, psi: GroupMap) -> Subgroup:
    """Orbit of e under the inner group; cross-checked against <{x psi(x)^-1}>."""
    return Subgroup._spanned(g, *_p_facts(g, psi)[2:])


def compute_P2(g: FiniteGroup, psi: GroupMap) -> Subgroup:
    """P applied to Q(P, psi|_P), returned as a subgroup of G."""
    grp, restricted, embed, _ = _p_facts(g, psi)  # embed keeps P^2's members sorted in G
    return Subgroup._spanned(g, *(_composer(ids)(embed) for ids in _p_facts(grp, restricted)[2:]))


def twisted_normalizer(g: FiniteGroup, psi: GroupMap, h: Subgroup) -> Subgroup:
    """{x : x H psi(x)^-1 = H}; always a subgroup.  x H psi(x)^-1 is
    x H x^-1 . x psi(x)^-1, so it is H iff x normalizes H (tested on H's
    generators) and x psi(x)^-1 lies in H.  Each test reads a column over G:
    the translations, and x y x^-1 = (x y) x^-1 for each generator y of H."""
    psi.require_automorphism(g)
    if h.parent is not g:
        raise ContractViolation("subgroup belongs to a different group")
    t, inside = g.table, h.member_set().__contains__
    conj = (map(getitem, map(t.__getitem__, map(itemgetter(y), t)), g._inv) for y in h._gens)
    tests = zip(*(map(inside, col) for col in (_translations(g, psi), *conj)))
    return Subgroup(g, tuple(compress(range(g.order), map(all, tests))))


@dataclass
class InnStructureReport:
    p_size: int
    psi_order: int
    semidirect: FiniteGroup
    embedding: tuple[tuple[int, ...], ...]
    centerless_p: bool
    psi_p_inner: bool
    direct_witness: GroupMap | None

    @property
    def inn_size(self) -> int:
        return len(self.embedding)


def inn_structure(g: FiniteGroup, psi: GroupMap) -> InnStructureReport:
    """Inn(Q(G,psi)) as P x| C_m, m = ord(psi), and, when P is centerless,
    the direct-vs-semidirect dichotomy driven by whether psi|_P is inner.

    The embedding iota sends index k*|P| + p of the semidirect product to
    L_p psi^k on G's points.  It is checked to be an injective homomorphism
    whose image holds every s_x; with the row proof of P, that image is
    Inn, so |Inn| = |P| * m."""
    grp, restricted, embed = restrict_to_P(g, psi)
    m = psi.map_order()
    cm, powers = cyclic_action(restricted.images, m)
    sd = FiniteGroup(semidirect_table(grp, cm, powers),
                     name=f"{grp.name}:C{m}", check=False)
    iota = tuple(tuple(map(g.table[p].__getitem__, pw))
                 for pw in cyclic_action(psi.images, m)[1] for p in embed)
    after = [(s, _composer(iota[s])) for s in generating_set(sd)]  # iota(a) . iota(s)
    if (any(iota[row[s]] != comp(iota[a]) for a, row in enumerate(sd.table) for s, comp in after)
            or len(set(iota)) != len(iota)
            or not set(iota).issuperset(row_index(general_alexander(g, psi))[0])):
        raise VerificationError(f"P x| C{m} does not embed onto Inn(Q({g.name}, psi))")

    centerless = center(grp).order == 1
    direct = FiniteGroup(semidirect_table(grp, cm, powers[:1] * m),
                         name=f"{grp.name}xC{m}", check=False) if centerless else None
    return InnStructureReport(
        p_size=grp.order, psi_order=m, semidirect=sd, embedding=iota,
        centerless_p=centerless,
        psi_p_inner=any(all(grp.conj(a, x) == restricted.images[x]
                            for x in range(grp.order)) for a in range(grp.order)),
        direct_witness=direct and groups_isomorphic(direct, sd))


# ---------------------------------------------------------------------------
# canonical descriptors
# ---------------------------------------------------------------------------

@cache
def _catalog_groups(order: int):
    if order > 16:
        return ()
    return tuple((spec.name(), build(spec)) for spec in groups_of_order(order))


def _catalog_match(grp: FiniteGroup) -> tuple:
    """(name, isomorphism h0: grp -> catalog copy, composer of h0^-1) of the first catalog
    group of grp's order that grp is isomorphic to, or Nones, found once per group object."""
    if grp._catalog is None:
        grp._catalog = next(((name, h0, _composer(_perm_inverse(h0.images)))
                             for name, cand in _catalog_groups(grp.order)
                             if (h0 := groups_isomorphic(grp, cand)) is not None), (None,) * 3)
    return grp._catalog


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

    The map is transported as h0 . auto . h0^-1 along any isomorphism h0:
    grp -> catalog copy, whose choice does not change the class.  Outside the
    catalog the id degrades to (order of the map, fixed count).
    """
    auto.require_automorphism(grp)
    name, h0, inv = _catalog_match(grp)  # inv: a -> a . h0^-1
    if name is None:
        fixed = sum(1 for x in range(grp.order) if auto.images[x] == x)
        return ("fallback", auto.map_order(), fixed)
    return ("class", name, automorphism_classes(h0.target)[_composer(inv(auto.images))(h0.images)])


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


InvariantProfile.FIELDS = tuple(f.name for f in fields(InvariantProfile))


def profile(g: FiniteGroup, psi: GroupMap) -> InvariantProfile:
    """Assemble the full invariant profile of Q(G, psi)."""
    psi.require_automorphism()
    grp, restricted, embed = restrict_to_P(g, psi)
    # P's members are sorted, so P^2 as a group of P has the table it has in G
    p2_grp, _, p2_local = restrict_to_P(grp, restricted)
    p2_sub = compute_P2(g, psi)
    fix = [x for x in range(g.order) if psi.images[x] == x]
    p_members = set(embed)
    tn = twisted_normalizer(g, psi, p2_sub)
    m = psi.map_order()
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
        p2=set(_translations(grp, restricted)) == set(p2_local),  # on P's indices
        inn_size=grp.order * m,  # proved by restrict_to_P's row check
    )


def profile_to_json(p: InvariantProfile) -> str:
    return json.dumps(p.to_json_dict(), sort_keys=True)
