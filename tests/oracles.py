"""Reference implementations that the tests compare the package against.

The inner group of a quandle as the closure of its point symmetries under
composition.  The package reads Inn(Q(G, psi)) off P and psi instead and
closes no permutation group this way, so the closure lives here, next to
the tests that use it as their oracle.  The Aut-conjugacy verdict for
simple and symmetric groups, with every automorphism compared on every
point, where the package compares them on the group's generators.  The
theorem 1.3 witness built step by step as the existence proof states it,
with the P^2-fiber tables the package's one coset matching does without.
The reference labels of a pair found by resolving every label of its order,
where the package reads them from an index built once per order.  The
witness check with one row composition per point on each side, where the
package composes once per distinct row.  The table of Q(G, psi) by its
definition, one cell at a time, where the package builds one row per
distinct translation once psi is proved a homomorphism.  The point-map
search whose closure pops forced pairs from a stack and maps each when it
is popped, where the package maps a forced pair as soon as it is found.
"""

from __future__ import annotations

import importlib
import pkgutil

import quandles
from quandles.errors import CapacityError, StructuralError, VerificationError
from quandles.groups import _composer, _cycle_type, automorphism_classes, groups_isomorphic
from quandles.invariants import compute_P2
from quandles.iso import (DEFAULT_BRUTE_BOUND, ISOMORPHIC, METHOD_BRUTE, METHOD_SIMPLE,
                          NOT_ISOMORPHIC, IsoVerdict, _checked, _refine)
from quandles.labels import ORDER8_LABELS, ORDER12_LABELS, label_class_images
from quandles.quandle import _kept, _translations

INNER_CLOSURE_BOUND = 10 ** 6


def greedy_closure(degree: int, perms, bound: int) -> set[tuple[int, ...]]:
    """The closure of ``perms`` under composition.  A member already in the
    closure built so far is skipped; one that is not joins the generators,
    and the closure grows again: the elements held so far times the new
    generator, then each new element times every generator (closing under
    right multiplication alone suffices in a finite group).  Raises
    CapacityError rather than let the closure grow past ``bound`` elements."""
    have = {tuple(range(degree))}
    gens: list[tuple[int, ...]] = []
    for p in perms:
        if p in have:
            continue
        gens.append(p)
        frontier, mults = list(have), (p,)
        while frontier:
            grown = []
            for q in frontier:
                for r in mults:
                    s = tuple(map(q.__getitem__, r))
                    if s not in have:
                        if len(have) >= bound:
                            raise CapacityError(f"closure exceeded bound {bound}")
                        have.add(s)
                        grown.append(s)
            frontier, mults = grown, gens
    return have


class PermGroup:
    """A permutation group given by generators, with its closure materialized."""

    def __init__(self, degree: int, generators, bound: int = INNER_CLOSURE_BOUND):
        self.degree = degree
        self.generators = tuple(tuple(p) for p in generators)
        for p in self.generators:
            if sorted(p) != list(range(degree)):
                raise StructuralError("generator is not a permutation")
        self.elements = frozenset(greedy_closure(degree, self.generators, bound))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm) -> bool:
        return tuple(perm) in self.elements


def inner_group(q, bound: int = INNER_CLOSURE_BOUND) -> PermGroup:
    """Closure of the point symmetries {s_x} under composition; a symmetry
    already in the closure of those before it adds nothing and is skipped."""
    return PermGroup(q.size, sorted(set(q.sym)), bound=bound)


def simple_group_verdict(g1, psi1, g2, psi2) -> IsoVerdict:
    """``iso.simple_group_decider``'s verdict, by a scan of tau in
    ``automorphism_classes`` order that compares tau psi1 with target tau,
    target = theta psi2 theta^-1, a whole row at a time; the first tau that
    matches gives the witness theta^-1 tau."""
    theta = groups_isomorphic(g2, g1)
    if theta is None:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_SIMPLE, note="simple groups not isomorphic")
    target, theta_inv = psi2.conjugate_by(theta).images, theta.inverse().images
    for tau in automorphism_classes(g1):
        if tuple(tau[v] for v in psi1.images) == tuple(target[v] for v in tau):
            return IsoVerdict(ISOMORPHIC, METHOD_SIMPLE,
                              witness=tuple(theta_inv[v] for v in tau))
    return IsoVerdict(NOT_ISOMORPHIC, METHOD_SIMPLE,
                      note="maps are not conjugate in the automorphism group")


def point_witness(q1, q2, images) -> bool:
    """``iso.verify_quandle_witness``'s predicate, f . s_x = s'_{f(x)} . f
    compared at every point x, with both sides composed anew at each x."""
    images = tuple(images)
    n = q1.size
    if (q2.size != n or len(images) != n or set(images) != set(range(n))
            or not all(hasattr(type(v), "__index__") for v in images)):
        return False
    s1, s2, images_of = q1.sym, q2.sym, _composer(images)
    return all(_composer(s1[x])(images) == images_of(s2[images[x]]) for x in range(n))


def definition_table(g, psi) -> tuple[tuple[int, ...], ...]:
    """Q(G, psi)'s table by its definition, s_x(y) = x psi(x^-1 y), at every
    x and y; for any map psi, a homomorphism or not."""
    t, inv, im = g.table, g._inv, psi.images
    return tuple(tuple(t[x][im[t[inv[x]][y]]] for y in range(g.order)) for x in range(g.order))


def fiber_matching_witness(g1, psi1, g2, psi2, embed1, embed2, h) -> tuple[int, ...]:
    """``iso._thm13_witness``'s point map, by the four-step existence proof:
    compare the translation classes modulo P^2 on both sides, match the
    fibers of the coset maps, correct each matched representative inside its
    P'-coset so translations agree on the nose, then glue h on P-parts with
    the matched coset representatives."""
    mul1, inv1, mul2 = g1.table, g1._inv, g2.table
    t1, t2 = list(_translations(g1, psi1)), list(_translations(g2, psi2))
    h_on_g = {embed1[i]: embed2[h.images[i]] for i in range(len(embed1))}
    psq2 = compute_P2(g2, psi2).members
    rep1, fibers1 = _coset_fibers(g1, t1, embed1, compute_P2(g1, psi1).members)
    _, fibers2 = _coset_fibers(g2, t2, embed2, psq2)

    k0: dict[int, int] = {}
    matched: set[frozenset] = set()
    for block in fibers1.values():  # each block is built in increasing order
        u = t1[block[0]]
        target_value = frozenset(mul2[h_on_g[u]][q] for q in psq2)
        if target_value not in fibers2:
            raise VerificationError("fiber image missing on the primed side")
        block2 = fibers2[target_value]
        if len(block) != len(block2) or target_value in matched:
            raise VerificationError("fiber sizes disagree in the coset matching")
        matched.add(target_value)
        k0.update(zip(block, block2))
    if len(matched) != len(fibers2):
        raise VerificationError("coset matching is not onto")

    k: dict[int, int] = {}
    for a, a2 in k0.items():
        target = h_on_g[t1[a]]
        for p in embed2:
            cand = mul2[a2][p]
            if t2[cand] == target:
                k[a] = cand
                break
        else:
            raise VerificationError(
                "no coset correction achieves the required translation")

    images = []
    for x in range(g1.order):
        a = rep1[x]
        core = mul1[x][inv1[a]]  # x a^-1 = a (a^-1 x) a^-1
        images.append(mul2[h_on_g[core]][k[a]])
    return tuple(images)


def _coset_fibers(g, trans, p_members, psq) -> tuple[list[int], dict[frozenset, list[int]]]:
    """(the least element of xP for each x, the coset representatives, in
    increasing order, grouped by the P^2-coset of their translation trans[a])."""
    t = g.table
    rep = list(map(min, map(_composer(p_members), t)))
    fibers: dict[frozenset, list[int]] = {}
    for a in sorted(set(rep)):
        fibers.setdefault(frozenset(t[trans[a]][q] for q in psq), []).append(a)
    return rep, fibers


def package_definitions(*names: str) -> list[tuple[str, str]]:
    """(module, name) for each of ``names`` that the package or one of its
    submodules defines."""
    modules = [quandles, *(importlib.import_module(f"quandles.{info.name}")
                           for info in pkgutil.iter_modules(quandles.__path__))]
    return [(m.__name__, n) for m in modules for n in names if hasattr(m, n)]


def label_scan(order: int, group_name: str, class_images: tuple[int, ...]) -> list[str]:
    """The labels of the order whose construction lands in the group's class
    with this canonical representative, in table order, every label resolved."""
    table = ORDER8_LABELS if order == 8 else ORDER12_LABELS if order == 12 else {}
    return [label for label in table
            if label_class_images(label) == (group_name, class_images)]


def stack_closure_iso(q1, q2, bound: int = DEFAULT_BRUTE_BOUND) -> IsoVerdict:
    """iso.brute_force_iso with its closure as a stack of forced pairs: a
    pair is pushed when it is found, unless its point already has that
    image, and mapped, or refused, when it is popped."""
    if q1.size != q2.size:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE, note="sizes differ")
    n = q1.size
    if n > bound:
        raise CapacityError(f"brute force capped at size {bound}, got {n}")
    alexander = q1.is_general_alexander() and q2.is_general_alexander()
    if alexander:
        c1, c2 = [0] * n, [int(q1.provenance[1].cycle_type != q2.provenance[1].cycle_type)] * n
    else:
        c1, c2 = (_refine(q, map(_cycle_type, q.sym)) for q in (q1, q2))
    if sorted(c1) != sorted(c2):
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE, note="structural colorings differ")
    key, cand = c1, {c: [y for y in range(n) if c2[y] == c] for c in set(c1)}
    s1, s2 = q1.sym, q2.sym
    m, minv, trail = [-1] * n, [-1] * n, []

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
            for z in trail:
                w = m[z]
                u, v = s1[x][z], s2[y][w]
                if m[u] != v:
                    stack.append((u, v))
                u, v = s1[z][x], s2[w][y]
                if m[u] != v:
                    stack.append((u, v))
        return True

    def undo(mark):
        while len(trail) > mark:
            x = trail.pop()
            minv[m[x]] = -1
            m[x] = -1

    def search(first=False):
        best_x, best_cands, seen = -1, None, set()
        for x in range(n):
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
        attempt(0, 0)
    witness = search(first=alexander)
    if witness is None and alexander:
        undo(1)
        c1, c2 = (_kept(*q.provenance, "colours", lambda: _refine(q, [x == 0 for x in range(n)]))
                  for q in (q1, q2))
        if sorted(c1) != sorted(c2):
            return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE)
        witness = search()
    if witness is None:
        return IsoVerdict(NOT_ISOMORPHIC, METHOD_BRUTE)
    return _checked(q1, q2, IsoVerdict(ISOMORPHIC, METHOD_BRUTE, witness=witness))
