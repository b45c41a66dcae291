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

from .catalog import build, symmetric
from .dihedral import cyclic_iso_decider, dihedral_aut_from_map, dihedral_iso_decider
from .errors import CapacityError, ContractViolation, StructuralError, VerificationError
from .groups import (FiniteGroup, GroupMap, _cycle_type, _json_ints, _json_object,
                     all_group_isomorphisms, automorphism_classes,
                     groups_isomorphic, is_simple)
from .invariants import (InvariantProfile, compute_P2, profile, restrict_to_P,
                         translation_elements)
from .quandle import Quandle, _stored, general_alexander

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


def verdict_from_json(text: str) -> IsoVerdict:
    """Read back ``to_json``'s output; a malformed payload is a StructuralError."""
    data = _json_object(text, ("result", "method"))
    if data["result"] not in (ISOMORPHIC, NOT_ISOMORPHIC, UNDECIDED) or not all(
            isinstance(data.get(k, ""), str) for k in ("method", "separator", "note")):
        raise StructuralError("result is not a verdict, or method, separator or note not a string")
    witness = tuple(_json_ints(data["witness"], "witness")) if "witness" in data else None
    return IsoVerdict(result=data["result"], method=data["method"], witness=witness,
                      separator=data.get("separator"), note=data.get("note"))


def verify_quandle_witness(q1: Quandle, q2: Quandle, images) -> bool:
    """f is a bijection with f(s_x(y)) = s'_{f(x)}(f(y)) for all x, y."""
    images = tuple(images)
    n = q1.size
    if q2.size != n or len(images) != n or set(images) != set(range(n)):
        return False
    s1, s2 = q1.sym, q2.sym
    return all(images[s1[x][y]] == s2[images[x]][images[y]]
               for x in range(n) for y in range(n))


def _checked(q1: Quandle, q2: Quandle, verdict: IsoVerdict) -> IsoVerdict:
    if verdict.result == ISOMORPHIC:
        if verdict.witness is None or not verify_quandle_witness(q1, q2, verdict.witness):
            raise VerificationError(
                f"method {verdict.method} produced an invalid witness")
    return verdict


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def _joint_refine(q1: Quandle, q2: Quandle, k1=None,
                  k2=None) -> tuple[list[int], list[int]]:
    """Iterated structural coloring computed jointly so colors are comparable.

    It starts from the cycle types of the symmetries unless initial keys
    ``k1``/``k2`` are given; an isomorphism that preserves the initial keys
    preserves the final colors.  Triples of colors sort as base-k ints."""
    def relabel(k1, k2):
        key_ids = {k: i for i, k in enumerate(sorted(set(k1) | set(k2)))}
        return [key_ids[k] for k in k1], [key_ids[k] for k in k2]

    def step(q, c, k):
        return [(c[x], tuple(sorted([(cy * k + c[r]) * k + c[t]
                                     for cy, r, t in zip(c, row, col)])))
                for x, (row, col) in enumerate(zip(q.sym, zip(*q.sym)))]

    if k1 is None:
        k1 = [(_cycle_type(q1.sym[x]),) for x in range(q1.size)]
        k2 = [(_cycle_type(q2.sym[x]),) for x in range(q2.size)]
    c1, c2 = relabel(k1, k2)
    while True:
        k = len(set(c1) | set(c2))
        n1, n2 = relabel(step(q1, c1, k), step(q2, c2, k))
        if len(set(n1) | set(n2)) == k:
            return n1, n2
        c1, c2 = n1, n2


def brute_force_iso(q1: Quandle, q2: Quandle,
                    bound: int = DEFAULT_BRUTE_BOUND) -> IsoVerdict:
    """Complete decision by backtracking point-map search.

    For two generalized Alexander quandles the first coloring is skipped:
    each s_x = L_x psi L_x^-1 has psi's cycle type and the left translations
    are automorphisms, so it is constant on each side and separates the
    inputs iff the cycle types of s_0 differ (provenance is proved on JSON
    load).  The image of 0 is then pinned to 0 (an isomorphism composed with
    a left translation fixes the identity), 0 is individualized and both
    colorings are refined jointly once, as in McKay (1981) and McKay and
    Piperno (2014).  Every isomorphism reached under the pin fixes 0, so it
    preserves the refined colors; pruning by them removes only subtrees
    without an isomorphism.  Candidate lists come from the unrefined
    colors, so the variable and value order, and hence the first witness
    found, are those of the unpruned search."""
    if q1.size != q2.size:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE, note="sizes differ")
    n = q1.size
    if n > bound:
        raise CapacityError(f"brute force capped at size {bound}, got {n}")
    alexander = q1.is_general_alexander() and q2.is_general_alexander()
    if alexander:  # side 2's one color differs iff the cycle types do
        c1, c2 = [0] * n, [int(_cycle_type(q1.sym[0]) != _cycle_type(q2.sym[0]))] * n
    else:
        c1, c2 = _joint_refine(q1, q2)
    if sorted(c1) != sorted(c2):
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE,
                          note="structural colorings differ")
    cand = [sorted(y for y in range(n) if c2[y] == c1[x]) for x in range(n)]
    s1, s2 = q1.sym, q2.sym
    m = [-1] * n
    minv = [-1] * n
    trail: list[int] = []

    def attempt(a: int, b: int) -> bool:
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

    def undo(mark: int) -> None:
        while len(trail) > mark:
            x = trail.pop()
            minv[m[x]] = -1
            m[x] = -1

    if alexander:
        if not attempt(0, 0):
            return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE,
                              note="identity pinning fails")
        c1, c2 = _joint_refine(q1, q2, [(c, x == 0) for x, c in enumerate(c1)],
                               [(c, x == 0) for x, c in enumerate(c2)])
        if sorted(c1) != sorted(c2):
            return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE)

    def search() -> tuple[int, ...] | None:
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
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE)
    return _checked(q1, q2, IsoVerdict(ISOMORPHIC, METHOD_BRUTE, witness=witness))


# ---------------------------------------------------------------------------
# the structural criterion and its constructive witness
# ---------------------------------------------------------------------------

def cached_profile(g: FiniteGroup, psi: GroupMap) -> InvariantProfile:
    """profile(g, psi), computed once per (table, images) and kept in its record."""
    records = _stored(g, psi)[0]
    prof = records.get(psi.images, {}).get("profile")
    if prof is None:
        prof = records[psi.images]["profile"] = profile(g, psi)
    return prof


def _translation_of(g: FiniteGroup, psi: GroupMap, x: int) -> int:
    return g.table[x][g._inv[psi.images[x]]]


def theorem13_iso(g1: FiniteGroup, psi1: GroupMap,
                  g2: FiniteGroup, psi2: GroupMap) -> IsoVerdict:
    """The structural criterion: under (P1) and (P2) on both sides,
    isomorphic iff |G| = |G'|, |Fix| = |Fix'| and some group isomorphism
    h : P -> P' intertwines the restricted maps and carries the translation
    set into the primed translation set.  Returns undecided when the
    preconditions fail; isomorphic verdicts carry a witness assembled from
    h by the coset construction."""
    prof1 = cached_profile(g1, psi1)
    prof2 = cached_profile(g2, psi2)
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
    the first such h yields the witness, otherwise not-isomorphic."""
    pg1, r1, embed1 = restrict_to_P(g1, psi1)
    pg2, r2, embed2 = restrict_to_P(g2, psi2)
    pos1 = {m: i for i, m in enumerate(embed1)}
    pos2 = {m: i for i, m in enumerate(embed2)}
    trans1_local = {pos1[t] for t in translation_elements(g1, psi1)}
    trans2_local = {pos2[t] for t in translation_elements(g2, psi2)}
    for h in all_group_isomorphisms(pg1, pg2):
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
    """Assemble a point map from a compatible h : P -> P'.

    The construction follows the four-step existence proof: compare the
    translation classes modulo P^2 on both sides, match the fibers of the
    coset maps, correct each matched representative inside its P'-coset so
    translations agree on the nose, then glue h on P-parts with the matched
    coset representatives."""
    mul1, inv1 = g1.table, g1._inv
    mul2 = g2.table
    h_on_g = {embed1[i]: embed2[h.images[i]] for i in range(len(embed1))}
    psq2 = compute_P2(g2, psi2).members
    rep1, fibers1 = _coset_fibers(g1, psi1, embed1, compute_P2(g1, psi1).members)
    _, fibers2 = _coset_fibers(g2, psi2, embed2, psq2)

    k0: dict[int, int] = {}
    matched: set[frozenset] = set()
    for value, block in sorted(fibers1.items(), key=lambda kv: sorted(kv[0])):
        u = _translation_of(g1, psi1, block[0])
        target_value = frozenset(mul2[h_on_g[u]][q] for q in psq2)
        if target_value not in fibers2:
            raise VerificationError("fiber image missing on the primed side")
        block2 = fibers2[target_value]
        if len(block) != len(block2) or target_value in matched:
            raise VerificationError("fiber sizes disagree in the coset matching")
        matched.add(target_value)
        for a, a2 in zip(sorted(block), sorted(block2)):
            k0[a] = a2
    if len(matched) != len(fibers2):
        raise VerificationError("coset matching is not onto")

    k: dict[int, int] = {}
    for a, a2 in k0.items():
        target = h_on_g[_translation_of(g1, psi1, a)]
        for p in embed2:
            cand = mul2[a2][p]
            if _translation_of(g2, psi2, cand) == target:
                k[a] = cand
                break
        else:
            raise VerificationError(
                "no coset correction achieves the required translation")

    images = []
    for x in range(g1.order):
        a = rep1[x]
        p = mul1[inv1[a]][x]
        core = mul1[mul1[a][p]][inv1[a]]
        images.append(mul2[h_on_g[core]][k[a]])
    return tuple(images)


def _coset_fibers(g: FiniteGroup, psi: GroupMap, p_members, psq
                  ) -> tuple[list[int], dict[frozenset, list[int]]]:
    """(the least element of xP for each x, the coset representatives
    grouped by the P^2-coset of their translation)."""
    t = g.table
    rep = [min(t[x][p] for p in p_members) for x in range(g.order)]
    fibers: dict[frozenset, list[int]] = {}
    for a in sorted(set(rep)):
        u = _translation_of(g, psi, a)
        fibers.setdefault(frozenset(t[u][q] for q in psq), []).append(a)
    return rep, fibers


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
    theta = groups_isomorphic(g2, g1)
    if theta is None:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_SIMPLE,
                          note="simple groups not isomorphic")
    target = psi2.conjugate_by(theta).images
    for tau in automorphism_classes(g1):
        if tuple(tau[v] for v in psi1.images) == tuple(target[v] for v in tau):
            theta_inv = theta.inverse().images
            return _checked(general_alexander(g1, psi1), general_alexander(g2, psi2),
                            IsoVerdict(ISOMORPHIC, METHOD_SIMPLE,
                                       witness=tuple(theta_inv[v] for v in tau)))
    return IsoVerdict(NOT_ISOMORPHIC, METHOD_SIMPLE,
                      note="maps are not conjugate in the automorphism group")


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
        x = dihedral_aut_from_map(g1, psi1)
        y = dihedral_aut_from_map(g2, psi2)
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
    prof1 = cached_profile(g1, psi1)
    prof2 = cached_profile(g2, psi2)
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
    g2, _ = q2.provenance
    shift = g2._inv[images[0]]
    return tuple(g2.table[shift][v] for v in images)


@dataclass
class Theorem39Report:
    clauses: dict[str, bool]
    details: dict[str, str]

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
    clauses: dict[str, bool] = {}
    details: dict[str, str] = {}

    mapped = {images[x] for x in p1}
    clauses["i"] = mapped == p2 and all(
        images[q1.sym[x][y]] == q2.sym[images[x]][images[y]]
        for x in p1 for y in p1)
    if not clauses["i"]:
        details["i"] = f"f(P) = {sorted(mapped)} vs P' = {sorted(p2)}"

    bad = [x for x in range(g1.order)
           if images[psi1.images[x]] != psi2.images[images[x]]]
    clauses["ii"] = not bad
    if bad:
        details["ii"] = f"intertwining fails at {bad[:3]}"

    bad = [(x, y) for x in p1 for y in p1
           if images[g1.table[x][y]] != g2.table[images[x]][images[y]]]
    clauses["iii"] = not bad
    if bad:
        details["iii"] = f"multiplicativity on P fails at {bad[:3]}"

    ok = True
    for x in range(g1.order):
        lhs = {images[g1.table[x][p]] for p in p1}
        rhs = {g2.table[images[x]][p] for p in p2}
        if lhs != rhs:
            ok = False
            details["iv"] = f"coset image fails at {x}"
            break
    clauses["iv"] = ok
    return Theorem39Report(clauses=clauses, details=details)
