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
from types import MappingProxyType

from .errors import CapacityError, ContractViolation, StructuralError

DEFAULT_AUT_BOUND = 128
# the most automorphisms automorphism_classes holds, whatever the order bound (C2^5 has ~1e7)
AUT_COUNT_BOUND = 10 ** 5


def _int_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` as int tuples; a float or string entry is refused, not truncated or parsed."""
    try:
        return tuple(tuple(map(operator.index, row)) for row in rows)
    except TypeError as exc:
        raise StructuralError(f"{what} has an entry that is not an integer: {exc}") from None


def _composer(p):
    """q -> q . p = (q[p[0]], q[p[1]], ...), one C call for len(p) > 1 (for
    one index, itemgetter returns a scalar, not a tuple)."""
    return operator.itemgetter(*p) if len(p) > 1 else lambda q: tuple(q[i] for i in p)


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
        cols = tuple(zip(*self.table))
        for j, col in enumerate(cols):
            if frozenset(col) != full:
                raise StructuralError(f"column {j} is not a permutation of 0..{n - 1}")
        if not self.table[0] == cols[0] == tuple(range(n)):
            raise StructuralError("index 0 is not a two-sided identity")
        t, after = self.table, list(map(_composer, self.table))
        for i, ti in enumerate(t):  # (i j) k against i (j k), a row of k at a time
            for j, tj in enumerate(t):
                if t[ti[j]] != after[j](ti):
                    k = next(k for k in range(n) if t[ti[j]][k] != ti[tj[k]])
                    raise StructuralError(f"associativity fails at ({i},{j},{k})")

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
        if self._abelian is None:  # the table equals its transpose
            self._abelian = tuple(zip(*self.table)) == self.table
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
        g, members, ms = self.parent, self.members, frozenset(self.members)
        object.__setattr__(self, "_member_set", ms)  # not a field: eq and hash ignore it
        if 0 not in ms:
            raise StructuralError("subgroup must contain the identity")
        if not 0 <= members[0] <= members[-1] < g.order:
            a = members[0] if members[0] < 0 else members[-1]
            raise StructuralError(f"member {a} out of range")
        row_of = _composer(members)
        for a in members:
            if g._inv[a] not in ms:
                raise StructuralError(f"subgroup not closed under inverse at {a}")
            if not ms.issuperset(row_of(g.table[a])):
                b = next(b for b in members if g.table[a][b] not in ms)
                raise StructuralError(f"subgroup not closed under product at ({a},{b})")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in self._member_set

    def member_set(self) -> frozenset[int]:
        return self._member_set

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
            s, t, im = self.source.table, self.target.table, self.images
            im_of = _composer(im)
            for a, row in enumerate(s):  # im . L_a against L_im(a) . im
                if _composer(row)(im) != im_of(t[im[a]]):
                    b = next(b for b in range(len(row)) if im[row[b]] != t[im[a]][im[b]])
                    raise StructuralError(f"not a homomorphism at ({a},{b})")

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
    """Smallest subgroup containing ``gens``: their closure under right
    multiplication (``_span``), which in a finite group is a subgroup."""
    gens = tuple(gens)
    for a in gens:
        g._check_index(a)
    return Subgroup(g, tuple(_span(g, gens)[1]))


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """a h a^-1 in H for every generator a of G and h of H: a conjugate of
    the finite H that lies in H is H, so G's generators, and G, normalize H."""
    if h.parent is not g:
        raise ContractViolation("subgroup belongs to a different group")
    ms, hgens = h.member_set(), _span(g, h.members)[0]
    return all(g.conj(a, x) in ms for a in generating_set(g) for x in hgens)


def center(g: FiniteGroup) -> Subgroup:
    if g._center is None:  # z is central iff its row of the table equals its column
        g._center = Subgroup(g, tuple(z for z, (row, col) in enumerate(
            zip(g.table, zip(*g.table))) if row == col))
    return g._center


def is_simple(g: FiniteGroup) -> bool:
    """No proper nontrivial normal subgroup; scanned once per group object."""
    if g._simple is None:
        g._simple = _normal_closure_scan(g)
    return g._simple


def _normal_closure_scan(g: FiniteGroup) -> bool:
    """True iff each conjugacy class other than {e} generates all of G (the
    normal closure of its elements); stops at the first class that does not.
    Each class is walked once, as an orbit under conjugation by G's generators."""
    conjs, seen = [inner_automorphism(g, a).images for a in generating_set(g)], {0}
    for x in range(1, g.order):
        if x not in seen:
            seen |= (c := _closure(conjs, {x}))
            if len(_span(g, c)[1]) < g.order:
                return False
    return g.order > 1


def generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """Greedy generating set: repeatedly add the smallest index outside the closure."""
    if g._gens is None:
        g._gens = _span(g, range(g.order))[0]
    return g._gens


def _span(g: FiniteGroup, elements) -> tuple[tuple[int, ...], set[int]]:
    """(generators, closure) of ``elements``, taken in order: one outside the
    closure so far joins the generators, and the closure grows by right
    multiplication (enough in a finite group), the elements held times the
    new generator and then each new element times every generator."""
    t, gens, have = g.table, [], {0}
    for a in elements:
        if a in have:
            continue
        gens.append(a)
        frontier, mults = list(have), (a,)
        while frontier:
            grown = []
            for row in map(t.__getitem__, frontier):
                for b in mults:
                    if (c := row[b]) not in have:
                        have.add(c)
                        grown.append(c)
            frontier, mults = grown, gens
    return tuple(gens), have


def _closure(maps, points) -> set[int]:
    """``points`` closed under the index arrays ``maps``: each point is sent once through each."""
    points = set(points)
    for c in (walk := list(points)):  # walk grows as it is walked
        for m in maps:
            if (d := m[c]) not in points:
                points.add(d)
                walk.append(d)
    return points


def _transversal(gens, orbit: dict) -> dict:
    """``orbit``, {point c: u_c}, closed under ``gens``: s takes c to s(c) with
    u_{s(c)} = s u_c, so from {b: identity} u_c carries b to c (a Schreier
    vector's transversal; Seress, Permutation Group Algorithms, 2003, ch. 4)."""
    for c in (points := list(orbit)):  # points grows as it is walked
        for s in gens:
            if (d := s[c]) not in orbit:
                orbit[d] = tuple(map(s.__getitem__, orbit[c]))
                points.append(d)
    return orbit


def _levels(src: FiniteGroup, dst: FiniteGroup) -> list:
    """Level i of the chain <g_0> < <g_0, g_1> < ... of ``generating_set(src)``:
    the candidate images of g_i in dst (its element order), the level's new
    elements as a spanning tree (x = parent * g_k) and its other edges."""
    st, gens = src.table, generating_set(src)
    levels, members, seen = [], [0], {0}
    for i, g in enumerate(gens):
        tree, checks, start = [], [], len(members)
        # members grows as it is walked; earlier levels' members need only g_i
        for pos, x in enumerate(members):
            for k in (range(i + 1) if pos >= start else (i,)):
                z = st[x][gens[k]]
                if z in seen:
                    checks.append((x, k, z))
                else:
                    seen.add(z)
                    members.append(z)
                    tree.append((z, x, k))
        want = src.element_order(g)
        levels.append(([y for y in range(dst.order) if dst.element_order(y) == want], tree, checks))
    return levels


def _iso_images(src: FiniteGroup, dst: FiniteGroup, levels=None, fixed=()):
    """Yield image arrays of isomorphisms src -> dst in lexicographic order of
    the images of ``generating_set(src)``, which fix a homomorphism.  Level i
    of ``levels`` (default ``_levels(src, dst)``) tries each candidate image
    of g_i, or only ``fixed[i]`` for i < len(fixed), fills in its tree,
    rejects a repeated image and checks im[x * g_k] = im[x] * im[g_k] on its
    other edges."""
    if src.order == dst.order:
        n, levels = dst.order, _levels(src, dst) if levels is None else levels
        yield from _descend(levels, dst.table, fixed, [0] * n,
                            [True] + [False] * (n - 1), [0] * len(levels), 0)


def _descend(levels, dt, fixed, im, used, gim, i: int):
    # module-level, not a closure on itself: an abandoned search leaves no cycle
    if i == len(levels):
        yield tuple(im)
        return
    candidates, tree, checks = levels[i]
    for y in (fixed[i],) if i < len(fixed) else candidates:
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
            yield from _descend(levels, dt, fixed, im, used, gim, i + 1)
        for x, _, _ in tree[:filled]:
            used[im[x]] = False


def _stabilizer_chain(g: FiniteGroup) -> list[list[tuple[int, ...]]]:
    """Transversals of Aut(g) on the base ``generating_set(g)``: level i holds
    one automorphism fixing g_0..g_{i-1} per image of g_i.  From the last level
    on, each candidate outside the orbit under the strong generators so far is
    searched for: a hit is a strong generator, a miss proves it no image."""
    levels, gens, strong, chain = _levels(g, g), generating_set(g), [], []
    for i in reversed(range(len(levels))):
        orbit = {gens[i]: tuple(range(g.order))}
        for y in levels[i][0]:
            if y not in orbit and (s := next(_iso_images(g, g, levels, gens[:i] + (y,)), None)):
                strong.append(s)
                _transversal(strong, orbit)
        chain.append(list(orbit.values()))
    return chain[::-1]


def _products(levels, perms) -> list[tuple[int, ...]]:
    """u_0 ... u_{k-1} p for every p in ``perms`` and u_i in ``levels[i]``."""
    for level in reversed(levels):
        perms = [q for p in perms for q in map(operator.itemgetter(*p), level)]
    return perms


def groups_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> GroupMap | None:
    """A witness isomorphism if one exists, else None."""
    if g1.order != g2.order:
        return None
    if g1.table == g2.table:
        return GroupMap(g1, g2, tuple(range(g1.order)), check=False)
    if g1.is_abelian != g2.is_abelian:
        return None
    if g1.element_order_multiset() != g2.element_order_multiset():
        return None
    if center(g1).order != center(g2).order:
        return None
    images = next(_iso_images(g1, g2), None)
    return None if images is None else GroupMap(g1, g2, images, check=False)


def all_group_isomorphisms(g1: FiniteGroup, g2: FiniteGroup):
    """All isomorphisms g1 -> g2 (possibly none), streamed, so a caller that
    stops at the first match never holds them all.  They come sorted, as
    ``_iso_images`` yields them: ``generating_set`` adds the least index
    outside the closure, so every index below g_k lies in <g_0..g_{k-1}>,
    whose images those of g_0..g_{k-1} fix, and position g_k of an image
    array holds the image of g_k.  Two image arrays therefore first differ
    at the first generator whose images differ, and the lexicographic order
    of generator images is the sorted order."""
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


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted lengths of a permutation's cycles."""
    seen, lengths = [False] * len(p), []
    for start in range(len(p)):
        v, length = start, 0
        while not seen[v]:
            seen[v] = True
            v = p[v]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def _perm_order(p: tuple[int, ...]) -> int:
    """Order of a permutation under composition: the lcm of its cycle lengths."""
    return math.lcm(*_cycle_type(p))


def _schreier_sims(degree: int):
    """extend(p), which adds p to the generators of a group on range(degree)
    and returns its order, by the deterministic Schreier-Sims algorithm
    (Seress, Permutation Group Algorithms, 2003, ch. 4).  Level i holds base
    point b_i, the strong generators fixing b_0..b_{i-1} and, per point c of
    b_i's orbit under them, some u_c with u_c(b_i) = c and its inverse.  A p
    in the group sifts to the identity through the levels.  Otherwise what
    is left of it at level j, where its sift stops, joins the strong
    generators (with a new base point if it fixes them all), and from level
    j up every Schreier generator u_{s(c)}^-1 s u_c must sift to the
    identity through the levels below; one that does not joins in the same
    way.  The order is the product of the orbit sizes."""
    ident = tuple(range(degree))
    strong, base, levels = [], [], []

    def level(i):
        gens = [s for s in strong if all(s[b] == b for b in base[:i])]
        orbit = _transversal(gens, {base[i]: ident})
        return gens, {c: (u, _perm_inverse(u)) for c, u in orbit.items()}

    def sift(p, i):
        while i < len(base) and (u := levels[i][1].get(p[base[i]])):
            p, i = tuple(map(u[1].__getitem__, p)), i + 1
        return p, i

    def add(h, i, j):
        """h, sifted down to level j, joins the strong generators; levels i..j are rebuilt."""
        strong.append(h)
        if j == len(base):
            base.append(next(x for x in ident if h[x] != x))
        levels[i:j + 1] = [level(k) for k in range(i, j + 1)]
        return j

    def extend(p):
        h, j = sift(p, 0)
        i = -1 if h == ident else add(h, 0, j)
        while i >= 0:
            gens, orbit = levels[i]
            # s u_c sifted from level i itself: its first step is the Schreier generator
            h, j = next((hj for u, _ in orbit.values() for s in gens
                         if (hj := sift(tuple(map(s.__getitem__, u)), i))[0] != ident), (ident, i))
            i = i - 1 if h == ident else add(h, i + 1, j)
        return math.prod(len(orbit) for _, orbit in levels)

    return extend


def automorphism_classes(g: FiniteGroup, bound: int = DEFAULT_AUT_BOUND) -> MappingProxyType:
    """Read-only map from each automorphism's image array, in sorted order,
    to the lexicographically minimal member of its Aut(g)-conjugacy class.

    Aut(g) is built once per group object: past AUT_COUNT_BOUND automorphisms
    (the product of ``_stabilizer_chain(g)``'s level sizes) CapacityError,
    else every product of one automorphism per level, sorted, whose images of
    ``generating_set(g)`` must be distinct keys that look up their index.  A
    scan from the largest index down keeps an automorphism as a conjugator
    only if it enlarges the group the conjugators generate, whose order one
    Schreier-Sims chain on g's points proves (``_schreier_sims``, which a
    candidate already in that group only sifts through), and must end at
    |Aut(g)|.  Each conjugator acts on the indices as an array; conjugation
    orbits are the classes, an orbit's least index its least image array.
    The order check runs on every call."""
    if g.order > bound:
        raise CapacityError(
            f"automorphism enumeration capped at order {bound}, got {g.order}")
    if g._aut_classes is None:
        chain = _stabilizer_chain(g)
        if (n := math.prod(map(len, chain))) > AUT_COUNT_BOUND:
            raise CapacityError(f"{n} automorphisms, more than {AUT_COUNT_BOUND} to enumerate")
        perms = sorted(_products(chain, [tuple(range(g.order))]))
        gens = generating_set(g)
        # every automorphism fixes 0; taking it first gives itemgetter an
        # argument on C1, and a tuple, not a scalar, on a cyclic group
        key = operator.itemgetter(0, *gens)
        index = dict(zip(map(key, perms), range(n)))
        if len(index) != n:
            raise ContractViolation(f"the chain's {n} products have {len(index)} distinct keys")
        conjugators, size, scan, extend = [], 1, reversed(perms), _schreier_sims(g.order)
        while size < n and (t := next(scan, None)):
            if (m := extend(t)) > size:
                conjugators, size = conjugators + [t], m
        if size != n:
            raise ContractViolation(f"Aut's generators close to {size} of {n} members")
        try:  # t p t^-1 for every p, read at 0 and the generators
            conjs = [list(map(index.__getitem__, zip(*[map(t.__getitem__, map(
                operator.itemgetter(inv[k]), perms)) for k in (0, *gens)])))
                for t, inv in zip(conjugators, map(_perm_inverse, conjugators))]
        except KeyError:
            raise ContractViolation("the automorphisms enumerated are not closed") from None
        rep = [-1] * n
        for i in range(n):
            if rep[i] < 0:
                for r in _closure(conjs, {i}):
                    rep[r] = i
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
