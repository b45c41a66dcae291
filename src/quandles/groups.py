"""Finite groups as immutable Cayley tables over element indices 0..n-1.

Index 0 is always the identity.  Everything downstream (subgroups,
automorphisms, conjugacy classes, brute-force group isomorphism) works on
plain integer tables, which is adequate for the orders this package targets.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType

from .errors import CapacityError, ContractViolation, StructuralError

DEFAULT_AUT_BOUND = 128
# every group of order <= 16 has at most 20,160 automorphisms (those of
# C2^4), so its Aut is small enough to hold; above it Aut can be huge
# (|GL(5, 2)| is about 1.0e7 at order 32), so automorphism_classes holds
# at most AUT_COUNT_BOUND of them, whatever the order bound
HELD_AUT_ORDER = 16
AUT_COUNT_BOUND = 10 ** 5


def _int_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` as int tuples; a float or string entry is refused, not truncated or parsed."""
    try:
        return tuple(tuple(map(operator.index, row)) for row in rows)
    except TypeError as exc:
        raise StructuralError(f"{what} has an entry that is not an integer: {exc}") from None


class FiniteGroup:
    """A finite group given by its multiplication table (table[a][b] = a*b)."""

    __slots__ = ("name", "order", "table", "spec", "_inv", "_elt_orders",
                 "_abelian", "_center", "_gens", "_aut_classes", "_simple", "_store")

    def __init__(self, table, name: str = "G", spec=None, check: bool = True):
        self.table = _int_rows(table, "group table")
        self.order = len(self.table)
        self.name = name
        self.spec = spec
        self._center = None
        self._gens = None
        self._aut_classes = None
        self._simple = None
        self._store = None  # (store, entry), kept by quandle._stored
        if check:
            self._validate()
        self._inv = self._compute_inverses()
        self._elt_orders = None
        self._abelian = None

    def _validate(self) -> None:
        n = self.order
        if n == 0:
            raise StructuralError("empty table")
        full = frozenset(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise StructuralError(f"row {i} has length {len(row)}, expected {n}")
            if frozenset(row) != full:
                raise StructuralError(f"row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if frozenset(self.table[i][j] for i in range(n)) != full:
                raise StructuralError(f"column {j} is not a permutation of 0..{n - 1}")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise StructuralError("index 0 is not a two-sided identity")
        t = self.table
        for i in range(n):
            ti = t[i]
            for j in range(n):
                tij = t[ti[j]]
                tj = t[j]
                for k in range(n):
                    if tij[k] != ti[tj[k]]:
                        raise StructuralError(
                            f"associativity fails at ({i},{j},{k})")

    def _compute_inverses(self):
        try:
            return tuple(row.index(0) for row in self.table)
        except ValueError:
            raise StructuralError("an element has no inverse") from None

    def _check_index(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise StructuralError(f"element index {a} out of range for {self.name}")

    def mul(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return self.table[a][b]

    def inv(self, a: int) -> int:
        self._check_index(a)
        return self._inv[a]

    def conj(self, a: int, x: int) -> int:
        """a * x * a^-1."""
        return self.table[self.table[a][x]][self._inv[a]]

    def element_order(self, a: int) -> int:
        self._check_index(a)
        if self._elt_orders is None:
            orders = []
            for x in range(self.order):
                k, y = 1, x
                while y != 0:
                    y = self.table[y][x]
                    k += 1
                orders.append(k)
            self._elt_orders = tuple(orders)
        return self._elt_orders[a]

    def element_order_multiset(self) -> tuple[int, ...]:
        self.element_order(0)
        return tuple(sorted(self._elt_orders))

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self.table
            self._abelian = all(t[a][b] == t[b][a]
                                for a in range(self.order)
                                for b in range(a + 1, self.order))
        return self._abelian

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` given by its sorted member indices."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        g = self.parent
        ms = set(self.members)
        if 0 not in ms:
            raise StructuralError("subgroup must contain the identity")
        for a in self.members:
            if not 0 <= a < g.order:
                raise StructuralError(f"member {a} out of range")
            if g._inv[a] not in ms:
                raise StructuralError(f"subgroup not closed under inverse at {a}")
            for b in self.members:
                if g.table[a][b] not in ms:
                    raise StructuralError(
                        f"subgroup not closed under product at ({a},{b})")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in set(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def as_group(self, name: str | None = None) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Reindex onto 0..k-1; returns (group, embedding new-index -> parent-index)."""
        pos = {m: i for i, m in enumerate(self.members)}
        table = [[pos[self.parent.table[a][b]] for b in self.members]
                 for a in self.members]
        label = name or f"{self.parent.name}|sub{len(self.members)}"
        return FiniteGroup(table, name=label, check=False), self.members


@dataclass(frozen=True)
class GroupMap:
    """A homomorphism between element index sets, stored as an image array."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]
    check: bool = field(default=True, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "images", _int_rows([self.images], "image array")[0]
                           if self.check else tuple(self.images))
        if len(self.images) != self.source.order:
            raise StructuralError("image array length mismatch")
        if self.check:
            if any(not 0 <= v < self.target.order for v in self.images):
                raise StructuralError("image index out of range")
            if self.images[0] != 0:
                raise StructuralError("homomorphism must send identity to identity")
            s, t = self.source.table, self.target.table
            im = self.images
            for a in range(self.source.order):
                for b in range(self.source.order):
                    if im[s[a][b]] != t[im[a]][im[b]]:
                        raise StructuralError(
                            f"not a homomorphism at ({a},{b})")

    def __call__(self, a: int) -> int:
        return self.images[a]

    @property
    def is_bijective(self) -> bool:
        return len(set(self.images)) == self.source.order == self.target.order

    def require_automorphism(self) -> None:
        if self.source is not self.target and self.source.table != self.target.table:
            raise ContractViolation("map is not an endomorphism")
        if not self.is_bijective:
            raise ContractViolation("map is not bijective")

    def inverse(self) -> GroupMap:
        if not self.is_bijective:
            raise ContractViolation("cannot invert a non-bijective map")
        return GroupMap(self.target, self.source, _perm_inverse(self.images), check=False)

    def compose(self, other: GroupMap) -> GroupMap:
        """self after other (function composition self . other)."""
        if other.target.order != self.source.order:
            raise ContractViolation("composition shape mismatch")
        return GroupMap(other.source, self.target,
                        tuple(self.images[v] for v in other.images), check=False)

    def conjugate_by(self, tau: GroupMap) -> GroupMap:
        """tau . self . tau^-1; tau may carry the map onto another group."""
        return tau.compose(self).compose(tau.inverse())

    def map_order(self) -> int:
        """Order of the map under composition (finite since bijective)."""
        self.require_automorphism()
        return _perm_order(self.images)


def identity_map(g: FiniteGroup) -> GroupMap:
    return GroupMap(g, g, tuple(range(g.order)), check=False)


def inner_automorphism(g: FiniteGroup, a: int) -> GroupMap:
    """Conjugation x -> a x a^-1."""
    g._check_index(a)
    return GroupMap(g, g, tuple(g.conj(a, x) for x in range(g.order)), check=False)


def generated_subgroup(g: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup containing ``gens``: {e} closed under right
    multiplication by the generators, which in a finite group is closed
    under inverse too."""
    gens = tuple(set(gens))
    for a in gens:
        g._check_index(a)
    members, frontier = {0}, [0]
    while frontier:
        row = g.table[frontier.pop()]
        for a in gens:
            if row[a] not in members:
                members.add(row[a])
                frontier.append(row[a])
    return Subgroup(g, tuple(members))


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    if h.parent is not g:
        raise ContractViolation("subgroup belongs to a different group")
    ms = h.member_set()
    return all(g.conj(a, x) in ms for a in range(g.order) for x in h.members)


def center(g: FiniteGroup) -> Subgroup:
    if g._center is None:
        t = g.table
        members = tuple(z for z in range(g.order)
                        if all(t[x][z] == t[z][x] for x in range(g.order)))
        g._center = Subgroup(g, members)
    return g._center


def is_simple(g: FiniteGroup) -> bool:
    """No proper nontrivial normal subgroup; scanned once per group object."""
    if g._simple is None:
        g._simple = _normal_closure_scan(g)
    return g._simple


def _normal_closure_scan(g: FiniteGroup) -> bool:
    """True iff each conjugacy class other than {e} generates all of G (the
    normal closure of its elements); stops at the first class that does not."""
    classes = {frozenset(g.conj(a, x) for a in range(g.order)) for x in range(1, g.order)}
    return g.order > 1 and all(generated_subgroup(g, c).order == g.order for c in classes)


def generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """Greedy generating set: repeatedly add the smallest index outside the closure."""
    if g._gens is not None:
        return g._gens
    gens: list[int] = []
    closure = {0}
    while len(closure) < g.order:
        nxt = min(x for x in range(g.order) if x not in closure)
        gens.append(nxt)
        closure = set(generated_subgroup(g, gens).members)
    g._gens = tuple(gens)
    return g._gens


def _iso_images(src: FiniteGroup, dst: FiniteGroup):
    """Yield image arrays of isomorphisms src -> dst, in lexicographic order
    of the images of ``generating_set(src)``, which fix a homomorphism.

    Level i of the subgroup chain <g_0> < <g_0, g_1> < ... tries each image
    of g_i of matching element order, fills in the level's new elements
    along a spanning tree (x = parent * g_k), rejects a repeated image and
    checks im[x * g_k] = im[x] * im[g_k] on the level's other edges."""
    if src.order != dst.order:
        return
    st, dt = src.table, dst.table
    gens = generating_set(src)
    levels = []
    members, seen = [0], {0}
    for i, g in enumerate(gens):
        tree, checks = [], []
        start, pos = len(members), 0
        # members grows as it is walked; earlier levels' members need only g_i
        while pos < len(members):
            x = members[pos]
            for k in (range(i + 1) if pos >= start else (i,)):
                z = st[x][gens[k]]
                if z in seen:
                    checks.append((x, k, z))
                else:
                    seen.add(z)
                    members.append(z)
                    tree.append((z, x, k))
            pos += 1
        want = src.element_order(g)
        candidates = [y for y in range(dst.order) if dst.element_order(y) == want]
        levels.append((candidates, tree, checks))

    im = [0] * src.order
    used = [True] + [False] * (dst.order - 1)
    gim = [0] * len(gens)

    def rec(i: int):
        if i == len(levels):
            yield tuple(im)
            return
        candidates, tree, checks = levels[i]
        for y in candidates:
            gim[i] = y
            filled = 0
            for x, parent, k in tree:
                v = dt[im[parent]][gim[k]]
                if used[v]:
                    break
                used[v] = True
                im[x] = v
                filled += 1
            if filled == len(tree) and all(
                    im[z] == dt[im[x]][gim[k]] for x, k, z in checks):
                yield from rec(i + 1)
            for x, _, _ in tree[:filled]:
                used[im[x]] = False

    yield from rec(0)


def groups_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> GroupMap | None:
    """A witness isomorphism if one exists, else None."""
    if g1.order != g2.order:
        return None
    if g1.table == g2.table:
        return identity_map(g1) if g1 is g2 else GroupMap(
            g1, g2, tuple(range(g1.order)), check=False)
    if g1.is_abelian != g2.is_abelian:
        return None
    if g1.element_order_multiset() != g2.element_order_multiset():
        return None
    if center(g1).order != center(g2).order:
        return None
    for images in _iso_images(g1, g2):
        return GroupMap(g1, g2, images, check=False)
    return None


def all_group_isomorphisms(g1: FiniteGroup, g2: FiniteGroup):
    """All isomorphisms g1 -> g2 (possibly none), in the order of ``_iso_images``.

    For g1 is g2, Aut(g) is read from ``automorphism_classes`` when that is
    already built or g has order at most HELD_AUT_ORDER, so a group's Aut
    is enumerated once however often it is asked for; any other Aut is
    streamed, so a caller that stops at the first match never holds it.
    Both come in the same order: the keys of ``automorphism_classes`` are
    sorted, and so is ``_iso_images(g, g)``.  ``generating_set`` adds the
    least index outside the closure, so every index below g_k lies in
    <g_0..g_{k-1}>, whose images those of g_0..g_{k-1} fix, and position
    g_k of an image array holds the image of g_k.  Two image arrays
    therefore first differ at the first generator whose images differ, and
    the lexicographic order of generator images is the sorted order."""
    if g1 is g2:
        if g1._aut_classes is None and g1.order <= HELD_AUT_ORDER:
            automorphism_classes(g1)
        if g1._aut_classes is not None:
            for images in g1._aut_classes:
                yield GroupMap(g1, g1, images, check=False)
            return
    if g1.order != g2.order or g1.element_order_multiset() != g2.element_order_multiset():
        return
    for images in _iso_images(g1, g2):
        yield GroupMap(g1, g2, images, check=False)


def automorphism_group(g: FiniteGroup, bound: int = DEFAULT_AUT_BOUND) -> list[GroupMap]:
    """Every automorphism exactly once, sorted by image array."""
    return [GroupMap(g, g, im, check=False) for im in automorphism_classes(g, bound)]


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _perm_order(p: tuple[int, ...], points=None) -> int:
    """Order of a permutation under composition: the lcm of the lengths of its
    cycles through ``points`` (by default all; for an automorphism, generators)."""
    order, seen = 1, [False] * len(p)
    for start in range(len(p)) if points is None else points:
        v, length = start, 0
        while not seen[v]:
            seen[v] = True
            v = p[v]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def _greedy_closure(degree: int, perms, bound: int) -> set[tuple[int, ...]]:
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


def automorphism_classes(g: FiniteGroup, bound: int = DEFAULT_AUT_BOUND) -> MappingProxyType:
    """Read-only map from each automorphism's image array, in sorted order,
    to the lexicographically minimal member of its Aut(g)-conjugacy class.

    Aut(g) is enumerated once per group object (``_iso_images``) and split
    on indices into the sorted list, which an automorphism's images of
    ``generating_set(g)`` look up.  Generators of Aut(g), chosen greedily
    by largest order, then by image array, act on the indices as arrays.
    Right multiplication must close them to every index, else
    ContractViolation; conjugation orbits are the classes, and an orbit's
    least index is its least image array.  The order check runs on every call;
    past AUT_COUNT_BOUND automorphisms the enumeration raises CapacityError."""
    if g.order > bound:
        raise CapacityError(
            f"automorphism enumeration capped at order {bound}, got {g.order}")
    if g._aut_classes is None:
        perms = sorted(islice(_iso_images(g, g), AUT_COUNT_BOUND + 1))
        if len(perms) > AUT_COUNT_BOUND:
            raise CapacityError(f"more than {AUT_COUNT_BOUND} automorphisms to enumerate")
        n, gens = len(perms), generating_set(g)
        # every automorphism fixes 0; taking it first gives itemgetter an
        # argument on C1, and a tuple, not a scalar, on a cyclic group
        key = operator.itemgetter(0, *gens)
        index = {key(p): i for i, p in enumerate(perms)}
        orders = [_perm_order(p, gens) for p in perms]
        have, held, mults, conjs = [True] + [False] * (n - 1), [0], [], []
        for i in sorted(range(n), key=orders.__getitem__, reverse=True):
            if have[i]:
                continue
            t = perms[i]
            right, conj = operator.itemgetter(*key(t)), operator.itemgetter(*key(_perm_inverse(t)))
            try:
                mults.append([index[right(p)] for p in perms])
                conjs.append([index[tuple(map(t.__getitem__, conj(p)))] for p in perms])
            except KeyError:
                raise ContractViolation("the automorphisms enumerated are not closed") from None
            have, held = [True] + [False] * (n - 1), [0]
            for q in held:  # held grows as it is walked
                for m in mults:
                    if not have[s := m[q]]:
                        have[s] = True
                        held.append(s)
        if len(held) != n:
            raise ContractViolation(f"Aut's generators close to {len(held)} of {n} members")
        rep = [-1] * n
        for i in range(n):
            if rep[i] < 0:
                rep[i], orbit = i, [i]
                for q in orbit:
                    for c in conjs:
                        if rep[r := c[q]] < 0:
                            rep[r] = i
                            orbit.append(r)
        g._aut_classes = MappingProxyType({p: perms[r] for p, r in zip(perms, rep)})
    return g._aut_classes


def automorphism_conjugacy_classes(
        g: FiniteGroup, bound: int = DEFAULT_AUT_BOUND
) -> list[tuple[GroupMap, int]]:
    """Conjugacy classes of Aut(g): (lexicographically minimal representative, size)."""
    sizes = Counter(automorphism_classes(g, bound).values())
    return [(GroupMap(g, g, rep, check=False), size)
            for rep, size in sorted(sizes.items())]


def fixed_subgroup(psi: GroupMap) -> Subgroup:
    psi.require_automorphism()
    g = psi.source
    return Subgroup(g, tuple(x for x in range(g.order) if psi.images[x] == x))


def group_to_json(g: FiniteGroup) -> str:
    return json.dumps({"name": g.name, "order": g.order,
                       "table": [list(row) for row in g.table]},
                      sort_keys=True)


def group_from_json(text: str) -> FiniteGroup:
    data = _json_object(text, ("name", "order", "table"))
    order = _json_int(data["order"], "order")
    g = FiniteGroup(_json_rows(data["table"], "table"), name=str(data["name"]))
    if g.order != order:
        raise StructuralError("declared order does not match table size")
    return g


def _json_object(text: str, fields) -> dict:
    """The JSON object in ``text``, which must have every key in ``fields``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise StructuralError("payload is not a JSON object")
    for key in fields:
        if key not in data:
            raise StructuralError(f"missing field {key!r}")
    return data


def _json_int(value, field: str) -> int:
    if type(value) is not int:
        raise StructuralError(f"field {field!r} is not an integer")
    return value


def _json_ints(value, field: str) -> list[int]:
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise StructuralError(f"field {field!r} is not a list of integers")
    return value


def _json_rows(value, field: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise StructuralError(f"field {field!r} is not a list of rows")
    for row in value:
        _json_ints(row, field)
    return value
