"""Quandle isomorphism deciders.

Two independent routes exist for every decision: a complete backtracking
search over point maps (the oracle) and the structural criterion for
generalized Alexander quandles satisfying the two preconditions (P1)/(P2),
plus formula deciders for simple or symmetric, abelian, cyclic and
dihedral sources.
``decide`` runs every applicable route and aborts on disagreement; an
isomorphic verdict always carries an exhaustively verified witness.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, replace
from operator import add

from .catalog import build, symmetric
from .dihedral import cyclic_iso_decider, dihedral_aut_from_map, dihedral_iso_decider
from .errors import CapacityError, ContractViolation, VerificationError
from .groups import (AUT_COUNT_BOUND, FiniteGroup, GroupMap, _composer, _cycle_type, _int_rows,
                     all_group_isomorphisms, automorphism_classes, generating_set,
                     groups_isomorphic, is_simple)
from .invariants import InvariantProfile, profile, restrict_to_P, translation_elements
from .quandle import Quandle, _kept, _translations, general_alexander, row_index

ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not-isomorphic"
UNDECIDED = "undecided"

METHOD_BRUTE = "brute-force"
METHOD_THM13 = "theorem-1-3"
METHOD_SEPARATION = "invariant-separation"
METHOD_SIMPLE = "simple-group-conjugacy"
METHOD_DIHEDRAL = "dihedral-formula"
METHOD_CYCLIC = "cyclic-formula"
METHOD_ABELIAN = "abelian-nelson"

DEFAULT_BRUTE_BOUND = 64
CROSS_CHECK_SIZE = 16


@dataclass(frozen=True)
class IsoVerdict:
    result: str
    method: str
    witness: tuple[int, ...] | None = None
    separator: str | None = None
    note: str | None = None

    def to_json_dict(self) -> dict:
        out = {"result": self.result, "method": self.method}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.separator is not None:
            out["separator"] = self.separator
        if self.note is not None:
            out["note"] = self.note
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def verify_quandle_witness(q1: Quandle, q2: Quandle, images) -> bool:
    """f is a bijection of indices (not 3.0) with f(s_x(y)) = s'_{f(x)}(f(y)) for all x, y:
    f . s_x = s'_{f(x)} . f, once per (x's row, f(x)'s row): per distinct row for a witness."""
    images = tuple(images)
    n = q1.size
    if (q2.size != n or len(images) != n or set(images) != set(range(n))
            or not all(hasattr(type(v), "__index__") for v in images)):
        return False
    (d1, r1), (d2, r2), images_of = row_index(q1), row_index(q2), _composer(images)
    return all(_composer(d1[a])(images) == images_of(d2[b]) for a, b in set(zip(r1, images_of(r2))))


def _checked(q1: Quandle, q2: Quandle, verdict: IsoVerdict) -> IsoVerdict:
    if verdict.result == ISOMORPHIC:
        if verdict.witness is None or not verify_quandle_witness(q1, q2, verdict.witness):
            raise VerificationError(
                f"method {verdict.method} produced an invalid witness")
    return verdict


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

# The ids of color keys and signatures, shared by every refinement in the process.
_COLOR_IDS: dict = {}


def _refine(q: Quandle, keys) -> list[int]:
    """The stable coloring of q from ``keys``: a point's next color is the id
    of its signature, its color and the sorted triples (c[y], c[s_x(y)],
    c[s_y(x)]) over all y, each packed into one int of fields as wide as the
    largest color, until a round splits no color.  Ids are shared and a
    signature holds a color of the round before, so colorings refined apart
    compare as joint ones do (McKay and Piperno, 2014)."""
    ids, c = _COLOR_IDS, None
    rows, cols = list(map(_composer, q.sym)), list(map(_composer, zip(*q.sym)))
    new = [ids.setdefault(k, len(ids)) for k in keys]
    while c is None or len(set(new)) != len(set(c)):
        c, w = new, max(new, default=0).bit_length()
        hi, mid = [v << 2 * w for v in c], [v << w for v in c]
        new = [ids.setdefault((cx, w, tuple(sorted(map(add, map(add, hi, row(mid)), col(c))))),
                              len(ids)) for cx, row, col in zip(c, rows, cols)]
    return new


def brute_force_iso(q1: Quandle, q2: Quandle,
                    bound: int = DEFAULT_BRUTE_BOUND) -> IsoVerdict:
    """Complete decision by backtracking point-map search.

    For two generalized Alexander quandles the first coloring is skipped:
    each s_x = L_x psi L_x^-1 has psi's cycle type and the left translations
    are automorphisms, so it is constant on each side and separates the
    inputs iff the cycle types of s_0 = psi differ, read once per map (a
    Quandle's provenance is proved when it is made).  The image of 0 is then
    pinned to 0 (an isomorphism composed with a left translation fixes the
    identity), and one descent takes the first candidate that extends at
    each node.  Only if it reaches no leaf is each side's coloring with 0
    individualized read from its record, as in McKay (1981), and the search
    run again from the pin.  Every isomorphism reached under the pin
    preserves the refined colors, so pruning by them removes only subtrees
    without an isomorphism, and a leaf of the first descent is the refined
    search's first leaf.  Candidates come from the unrefined colors, one
    list per color, and the refined colors only skip values, so the variable
    and value order, and hence the first witness found, are those of the
    unpruned search."""
    if q1.size != q2.size:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE, note="sizes differ")
    n = q1.size
    if n > bound:
        raise CapacityError(f"brute force capped at size {bound}, got {n}")
    alexander = q1.is_general_alexander() and q2.is_general_alexander()
    if alexander:  # side 2's one color differs iff the cycle types do
        c1, c2 = [0] * n, [int(q1.provenance[1].cycle_type != q2.provenance[1].cycle_type)] * n
    else:
        c1, c2 = (_refine(q, map(_cycle_type, q.sym)) for q in (q1, q2))
    if sorted(c1) != sorted(c2):
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE,
                          note="structural colorings differ")
    key, cand = c1, {c: [y for y in range(n) if c2[y] == c] for c in set(c1)}
    s1, s2 = q1.sym, q2.sym
    m = [-1] * n
    minv = [-1] * n
    trail: list[int] = []

    def bind(x: int, y: int) -> bool:  # x maps to y, unless x is mapped, y taken or colors differ
        if (cur := m[x]) >= 0 or minv[y] >= 0 or c1[x] != c2[y]:
            return cur == y
        m[x], minv[y] = y, x
        trail.append(x)
        return True

    def attempt(a: int, b: int) -> bool:
        # each forced pair is mapped as it is found, and each newly mapped point is then
        # checked against itself and every point mapped before it
        i = len(trail)
        if not bind(a, b):
            return False
        while i < len(trail):
            x = trail[i]
            y = m[x]
            row1, row2 = s1[x], s2[y]
            for z in trail[:i + 1]:
                w = m[z]
                u, v = row1[z], row2[w]
                if m[u] != v and not bind(u, v):
                    return False
                u, v = s1[z][x], s2[w][y]
                if m[u] != v and not bind(u, v):
                    return False
            i += 1
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            x = trail.pop()
            minv[m[x]] = -1
            m[x] = -1

    def search(first: bool = False) -> tuple[int, ...] | None:
        # attempt maps a point only to one of its color, and key's colors have the same
        # multiset on both sides, so each class has as many unmapped points on side 2 as
        # on side 1: the live list of an unmapped x is never empty
        best_x, best_cands, seen = -1, None, set()
        for x in range(n):  # points of one class share their live list
            if m[x] >= 0 or key[x] in seen:
                continue
            seen.add(key[x])
            live = [y for y in cand[key[x]] if minv[y] < 0]
            if best_cands is None or len(live) < len(best_cands):
                best_x, best_cands = x, live
                if len(live) == 1:
                    break
        if best_cands is None:
            return tuple(m)
        for y in best_cands:
            mark = len(trail)
            if c2[y] == c1[best_x] and attempt(best_x, y):
                res = search(first)
                if res is not None or first:
                    return res
            undo(mark)
        return None

    if alexander:
        attempt(0, 0)  # it holds: s_0(0) = 0 on both sides
    witness = search(first=alexander)
    if witness is None and alexander:  # refine once the first descent has failed
        undo(1)
        c1, c2 = (_kept(*q.provenance, "colours", lambda: _refine(q, [x == 0 for x in range(n)]))
                  for q in (q1, q2))
        if sorted(c1) != sorted(c2):
            return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE)
        witness = search()
    if witness is None:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE)
    return _checked(q1, q2, IsoVerdict(ISOMORPHIC, METHOD_BRUTE, witness=witness))


# ---------------------------------------------------------------------------
# the structural criterion and its constructive witness
# ---------------------------------------------------------------------------

def cached_profile(g: FiniteGroup, psi: GroupMap, source=None) -> InvariantProfile:
    """profile(g, psi), computed once per Aut(G)-class: tau in Aut(G) maps Q(G, psi) onto
    Q(G, tau psi tau^-1), P, P^2, Fix and the twisted normalizer onto theirs, and psi|P to a
    conjugate, so every field is a class invariant and psi's record keeps its class's least
    member's profile, or the profile of the pair ``source`` that a verified isomorphism maps
    from.  Past the class map's bounds, or off it (not a homomorphism), psi's own."""
    def make():
        if source is not None:
            return cached_profile(*source)
        try:
            rep = automorphism_classes(g)[psi.images]
        except (CapacityError, KeyError):
            rep = psi.images
        return (profile(g, psi) if rep == psi.images
                else cached_profile(g, GroupMap(g, g, rep, check=False)))
    return _kept(g, psi, "profile", make)


def theorem13_iso(g1: FiniteGroup, psi1: GroupMap,
                  g2: FiniteGroup, psi2: GroupMap) -> IsoVerdict:
    """The structural criterion: under (P1) and (P2) on both sides,
    isomorphic iff |G| = |G'|, |Fix| = |Fix'| and some group isomorphism
    h : P -> P' intertwines the restricted maps and carries the translation
    set into the primed translation set.  Returns undecided when the
    preconditions fail; isomorphic verdicts carry a witness assembled from
    h by the coset construction."""
    prof1, prof2 = cached_profile(g1, psi1), cached_profile(g2, psi2)
    if not (prof1.p1 and prof1.p2 and prof2.p1 and prof2.p2):
        return IsoVerdict(UNDECIDED, METHOD_THM13,
                          note="preconditions (P1)/(P2) not satisfied")
    if g1.order != g2.order:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_THM13, note="orders differ")
    if prof1.fix_size != prof2.fix_size:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_THM13,
                          note="fixed-point counts differ")
    return _p_isomorphism_verdict(
        g1, psi1, g2, psi2, METHOD_THM13,
        "no compatible isomorphism between the P subgroups")


def _p_isomorphism_verdict(g1: FiniteGroup, psi1: GroupMap, g2: FiniteGroup,
                           psi2: GroupMap, method: str, note: str) -> IsoVerdict:
    """Search the group isomorphisms h : P -> P' for one that intertwines the
    restricted maps and carries the translation set into the primed one;
    the first such h yields the witness, otherwise not-isomorphic.  None is
    listed when the profiles' classes of psi|P and psi'|P' differ, as h
    would conjugate one map into the other and keep its class.  After
    AUT_COUNT_BOUND h without a match, it raises CapacityError."""
    if (cached_profile(g1, psi1).psi_restricted_class
            != cached_profile(g2, psi2).psi_restricted_class):
        return IsoVerdict(NOT_ISOMORPHIC, method, note=note)
    pg1, r1, embed1 = restrict_to_P(g1, psi1)
    pg2, r2, embed2 = restrict_to_P(g2, psi2)
    pos1 = {m: i for i, m in enumerate(embed1)}
    pos2 = {m: i for i, m in enumerate(embed2)}
    trans1_local = {pos1[t] for t in translation_elements(g1, psi1)}
    trans2_local = {pos2[t] for t in translation_elements(g2, psi2)}
    for count, h in enumerate(all_group_isomorphisms(pg1, pg2)):
        if count == AUT_COUNT_BOUND:
            raise CapacityError(f"no match among {count} isomorphisms P -> P'")
        if any(h.images[r1.images[x]] != r2.images[h.images[x]]
               for x in range(pg1.order)):
            continue
        if not {h.images[t] for t in trans1_local} <= trans2_local:
            continue
        witness = _thm13_witness(g1, psi1, g2, psi2, embed1, embed2, h)
        return _checked(general_alexander(g1, psi1), general_alexander(g2, psi2),
                        IsoVerdict(ISOMORPHIC, method, witness=witness))
    return IsoVerdict(NOT_ISOMORPHIC, method, note=note)


def _thm13_witness(g1: FiniteGroup, psi1: GroupMap, g2: FiniteGroup,
                   psi2: GroupMap, embed1, embed2, h: GroupMap) -> tuple[int, ...]:
    """Assemble a point map from a compatible h : P -> P' by the existence
    proof's coset matching.  Each coset aP, named by its least element a and
    taken in increasing order, is matched with the first unmatched a'P' that
    holds some c with t'(c) = h(t(a)), scanned in increasing a' and in the
    order of the members of P'; then k(a) = c and f(x) = h(x a^-1) k(a) on aP.
    As t(ap) = (a t_P(p) a^-1) t(a), (P2) and (P1) make the translations over
    aP the whole coset t(a)P^2, so a'P' holds h(t(a)) exactly when a' lies in
    the P'^2-fiber the proof matches a's fiber with, and the order pairs the
    i-th member of each fiber with the i-th member of its image."""
    mul1, inv1, mul2 = g1.table, g1._inv, g2.table
    t1, t2 = list(_translations(g1, psi1)), list(_translations(g2, psi2))
    h_on_g = {embed1[i]: embed2[h.images[i]] for i in range(len(embed1))}
    rep1, rep2 = (list(map(min, map(_composer(e), g.table)))
                  for g, e in ((g1, embed1), (g2, embed2)))
    unmatched, k = sorted(set(rep2)), {}
    for a in sorted(set(rep1)):
        target = h_on_g[t1[a]]
        c = next((c for a2 in unmatched for c in map(mul2[a2].__getitem__, embed2)
                  if t2[c] == target), None)
        if c is None:
            raise VerificationError("no unmatched P'-coset holds the required translation")
        k[a] = c
        unmatched.remove(rep2[c])
    return tuple(mul2[h_on_g[mul1[x][inv1[a]]]][k[a]] for x, a in enumerate(rep1))


# ---------------------------------------------------------------------------
# specialized deciders
# ---------------------------------------------------------------------------

def _aut_conjugacy_decides(g: FiniteGroup) -> bool:
    """G is simple, or G is isomorphic to S_n with 3 <= n <= 5, where Aut(S_n)
    = Inn(S_n) (Hoelder); S_6, whose Aut is twice Inn, is never claimed."""
    n = {6: 3, 24: 4, 120: 5}.get(g.order)
    return is_simple(g) or (
        n is not None and groups_isomorphic(g, build(symmetric(n))) is not None)


def simple_group_decider(g1: FiniteGroup, psi1: GroupMap,
                         g2: FiniteGroup, psi2: GroupMap) -> IsoVerdict:
    """For G, G' simple or symmetric (see ``_aut_conjugacy_decides``): the
    quandles are isomorphic iff some theta : G' -> G carries psi2 into the
    Aut(G)-class of psi1.  A conjugator tau gives the witness theta^-1 . tau."""
    if not (_aut_conjugacy_decides(g1) and _aut_conjugacy_decides(g2)):
        raise ContractViolation(
            f"{g1.name} or {g2.name} is neither simple nor S_n with n <= 5")
    psi1.require_automorphism(g1)
    psi2.require_automorphism(g2)
    theta = groups_isomorphic(g2, g1)
    if theta is None:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_SIMPLE,
                          note="simple groups not isomorphic")
    target, im1, classes = psi2.conjugate_by(theta).images, psi1.images, automorphism_classes(g1)
    if classes[im1] != classes[target]:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_SIMPLE,
                          note="maps are not conjugate in the automorphism group")
    # tau psi1 = target tau iff the two agree on the generators
    tau = next(t for t in classes if all(t[im1[x]] == target[t[x]] for x in generating_set(g1)))
    return _checked(general_alexander(g1, psi1), general_alexander(g2, psi2), IsoVerdict(
        ISOMORPHIC, METHOD_SIMPLE, witness=tuple(map(theta.inverse().images.__getitem__, tau))))


def abelian_decider(g1: FiniteGroup, psi1: GroupMap,
                    g2: FiniteGroup, psi2: GroupMap) -> IsoVerdict:
    """For abelian groups: isomorphic iff the orders agree and some group
    isomorphism between the two P subgroups intertwines the restrictions.
    Here x -> x psi(x)^-1 is a homomorphism, so the translation set is all
    of P and the translation test of the shared search always passes."""
    if not (g1.is_abelian and g2.is_abelian):
        raise ContractViolation("abelian decider needs abelian groups")
    if g1.order != g2.order:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_ABELIAN, note="orders differ")
    return _p_isomorphism_verdict(
        g1, psi1, g2, psi2, METHOD_ABELIAN,
        "no intertwining isomorphism between the P subgroups")


def _formula_verdict(g1, psi1, g2, psi2) -> IsoVerdict | None:
    """The closed-form test for two maps on the same dihedral or cyclic
    catalog group, or None when it does not apply.  The verdict is bare:
    ``decide`` takes an isomorphic one's witness from the abelian or
    theorem 1.3 route listed beside it, which must agree."""
    spec = g1.spec
    if spec is None or spec != g2.spec:
        return None
    if spec.kind == "dihedral":
        x, y = dihedral_aut_from_map(g1, psi1), dihedral_aut_from_map(g2, psi2)
        if x is None or y is None:
            return None
        method, same = METHOD_DIHEDRAL, dihedral_iso_decider(x, y)
    elif spec.kind == "cyclic":
        n = g1.order
        a1 = psi1.images[1] if n > 1 else 1
        a2 = psi2.images[1] if n > 1 else 1
        method, same = METHOD_CYCLIC, cyclic_iso_decider(n, a1, a2)
    else:
        return None
    return IsoVerdict(ISOMORPHIC if same else NOT_ISOMORPHIC, method)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _routes(g1: FiniteGroup, psi1: GroupMap, g2: FiniteGroup,
            psi2: GroupMap) -> list[tuple[str, Callable]]:
    """(method, decider) for every route ``decide`` runs on this pair, in the
    order of the method it reports, so the first route names the verdict; a
    decider takes (g1, psi1, g2, psi2).  Each route is listed only where its
    verdict is decisive: theorem 1.3 only under (P1)/(P2) on both sides,
    brute force only up to DEFAULT_BRUTE_BOUND, read at call time.  Brute
    force cross-checks every pair up to CROSS_CHECK_SIZE and runs above it
    only when no earlier route applies.  Theorem 1.3 follows the same rule,
    except that it never runs beside the abelian route, which makes the
    same search, and beside a formula route runs only when the formula says
    isomorphic, to supply the witness.  Aut-conjugacy on S_n runs only when
    no other route applies."""
    prof1, prof2 = cached_profile(g1, psi1), cached_profile(g2, psi2)
    routes: list[tuple[str, Callable]] = []
    separator = prof1.separator_against(prof2)
    if separator is not None:
        routes.append((METHOD_SEPARATION, lambda *_: IsoVerdict(
            NOT_ISOMORPHIC, METHOD_SEPARATION, separator=separator)))
    trivial = psi1.map_order() == 1 and psi2.map_order() == 1
    if not trivial and is_simple(g1) and is_simple(g2):
        routes.append((METHOD_SIMPLE, simple_group_decider))
    abelian = g1.is_abelian and g2.is_abelian
    if abelian:
        routes.append((METHOD_ABELIAN, abelian_decider))
    formula = _formula_verdict(g1, psi1, g2, psi2)
    if formula is not None:
        routes.append((formula.method, lambda *_: formula))
    # two trivial quandles: isomorphic iff equal size
    same_trivial = trivial and g1.order == g2.order
    cross_check = max(g1.order, g2.order) <= CROSS_CHECK_SIZE
    structural = (formula.result == ISOMORPHIC if formula is not None
                  else cross_check or not (routes or same_trivial))
    if (structural and not abelian
            and prof1.p1 and prof1.p2 and prof2.p1 and prof2.p2):
        routes.append((METHOD_THM13, theorem13_iso))
    if same_trivial:
        routes.append((METHOD_BRUTE, lambda *_: IsoVerdict(
            ISOMORPHIC, METHOD_BRUTE, witness=tuple(range(g1.order)))))
    bound = DEFAULT_BRUTE_BOUND
    if (cross_check or not routes) and max(g1.order, g2.order) <= bound:
        routes.append((METHOD_BRUTE, lambda *_: brute_force_iso(
            general_alexander(g1, psi1), general_alexander(g2, psi2), bound=bound)))
    if not routes and _aut_conjugacy_decides(g1) and _aut_conjugacy_decides(g2):
        routes.append((METHOD_SIMPLE, simple_group_decider))
    return routes


def isomorphic_method(g1: FiniteGroup, psi1: GroupMap, g2: FiniteGroup,
                      psi2: GroupMap) -> str | None:
    """The method ``decide`` reports when the pair is isomorphic: every route
    it runs is then decisive and agrees, and the first is reported.  Found
    without running a decider."""
    return next((m for m, _ in _routes(g1, psi1, g2, psi2)), None)


def decide(g1: FiniteGroup, psi1: GroupMap, g2: FiniteGroup, psi2: GroupMap,
           method: str = "auto") -> IsoVerdict:
    """Cascade dispatch over every applicable decider.

    All applicable routes run (subject to capacity) and any two verdicts
    must agree; disagreement aborts the process.  The first route's verdict
    is returned, carrying the first witness any route found."""
    q1 = general_alexander(g1, psi1)
    q2 = general_alexander(g2, psi2)
    if method == "brute":
        return brute_force_iso(q1, q2, bound=DEFAULT_BRUTE_BOUND)
    if method == "thm13":
        return theorem13_iso(g1, psi1, g2, psi2)
    if method != "auto":
        raise ContractViolation(f"unknown method {method!r}")

    verdicts = [run(g1, psi1, g2, psi2) for _, run in _routes(g1, psi1, g2, psi2)]
    if not verdicts:
        return IsoVerdict(UNDECIDED, METHOD_THM13,
                          note="all applicable methods exhausted or above capacity")
    if len({v.result for v in verdicts}) > 1:
        detail = ", ".join(f"{v.method}={v.result}" for v in verdicts)
        raise VerificationError(f"deciders disagree: {detail}")
    witness = next((v.witness for v in verdicts if v.witness is not None), None)
    return _checked(q1, q2, replace(verdicts[0], witness=witness))


# ---------------------------------------------------------------------------
# witness structure checks
# ---------------------------------------------------------------------------

def normalize_witness(q2: Quandle, images) -> tuple[int, ...]:
    """Compose with a left translation so the identity maps to the identity.

    Valid for generalized Alexander targets, where every left translation is
    a quandle automorphism."""
    if q2.provenance is None:
        raise ContractViolation("normalization needs a generalized Alexander target")
    if sorted(images := _int_rows([images], "witness images")[0]) != list(range(q2.size)):
        raise ContractViolation("witness images are not a permutation of the target's points")
    g2, _ = q2.provenance
    shift = g2._inv[images[0]]
    return tuple(g2.table[shift][v] for v in images)


@dataclass
class Theorem39Report:
    clauses: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())


def check_theorem39_properties(images, g1: FiniteGroup, psi1: GroupMap,
                               g2: FiniteGroup, psi2: GroupMap) -> Theorem39Report:
    """Structure checks for a verified identity-preserving witness:
    (i) it maps P onto P' and restricts to a subquandle isomorphism,
    (ii) it intertwines the defining automorphisms,
    (iii) its restriction to P is a group isomorphism,
    (iv) it maps P-cosets to P'-cosets."""
    images = tuple(images)
    q1 = general_alexander(g1, psi1)
    q2 = general_alexander(g2, psi2)
    if not verify_quandle_witness(q1, q2, images):
        raise ContractViolation("not a quandle isomorphism")
    if images[0] != 0:
        raise ContractViolation("witness must fix the identity; normalize first")
    _, _, embed1 = restrict_to_P(g1, psi1)
    _, _, embed2 = restrict_to_P(g2, psi2)
    p1, p2 = set(embed1), set(embed2)
    return Theorem39Report(clauses={
        "i": {images[x] for x in p1} == p2 and all(
            images[q1.sym[x][y]] == q2.sym[images[x]][images[y]] for x in p1 for y in p1),
        "ii": all(images[psi1.images[x]] == psi2.images[images[x]] for x in range(g1.order)),
        "iii": all(images[g1.table[x][y]] == g2.table[images[x]][images[y]]
                   for x in p1 for y in p1),
        "iv": all({images[g1.table[x][p]] for p in p1} == {g2.table[images[x]][p] for p in p2}
                  for x in range(g1.order))})
