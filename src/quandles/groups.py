"""Finite groups as immutable Cayley tables over element indices 0..n-1.

Index 0 is always the identity.  Everything downstream (subgroups,
automorphisms, conjugacy classes, brute-force group isomorphism) works on
plain integer tables, which is adequate for the orders this package targets.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import CapacityError, ContractViolation, StructuralError

DEFAULT_AUT_BOUND = 128
# the most automorphisms automorphism_classes holds, whatever the order bound (C2^5 has ~1e7)
AUT_COUNT_BOUND = 10 ** 5
# automorphism_classes holds image arrays as byte strings, one byte per point
BYTE_POINTS = 256


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
                 "_abelian", "_gens", "_aut_classes", "_catalog", "_simple", "_store")

    def __init__(self, table, name: str = "G", spec=None, check: bool = True):
        self.table = _int_rows(table, "group table")
        self.order = len(self.table)
        self.name = name
        self.spec = spec
        self._gens = None
        self._aut_classes = None  # the class map, or the message that refused it
        self._catalog = None  # (name, isomorphism, inverse composer), by invariants._catalog_match
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
        members = _int_rows([self.members], "subgroup members")[0]
        object.__setattr__(self, "members", tuple(sorted(set(members))))
        g, members, ms = self.parent, self.members, frozenset(self.members)
        object.__setattr__(self, "_member_set", ms)  # not a field: eq and hash ignore it
        if 0 not in ms:
            raise StructuralError("subgroup must contain the identity")
        if not 0 <= members[0] <= members[-1] < g.order:
            a = members[0] if members[0] < 0 else members[-1]
            raise StructuralError(f"member {a} out of range")
        # a finite subset is a subgroup iff it is its own span; its generators are kept
        gens, span = _span(g, members)
        object.__setattr__(self, "_gens", gens)
        for a in members if len(span) != len(ms) else ():  # name the first failure
            if g._inv[a] not in ms:
                raise StructuralError(f"subgroup not closed under inverse at {a}")
            if (b := next((b for b in members if g.table[a][b] not in ms), None)) is not None:
                raise StructuralError(f"subgroup not closed under product at ({a},{b})")

    @classmethod
    def _spanned(cls, parent: FiniteGroup, members, gens) -> Subgroup:
        """A ``_span``'s closure, from its sorted members and kept generators: no check."""
        (sub := object.__new__(cls)).__dict__.update(
            parent=parent, members=members, _member_set=frozenset(members), _gens=gens)
        return sub

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in self._member_set

    def member_set(self) -> frozenset[int]:
        return self._member_set

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Reindex onto 0..k-1, one row composition per member (row a is pos . L_a
        at the members); returns (group, embedding new-index -> parent-index)."""
        g, members, pick = self.parent, self.members, _composer(self.members)
        pos = {m: i for i, m in enumerate(members)}
        table = [_composer(pick(g.table[a]))(pos) for a in members]
        return FiniteGroup(table, name=f"{g.name}|sub{len(members)}", check=False), members


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

    # the fixed facts are cached in the instance dict, not fields: eq, hash and repr ignore them
    @functools.cached_property
    def is_bijective(self) -> bool:
        return len(set(self.images)) == self.source.order == self.target.order

    def require_automorphism(self, g: FiniteGroup | None = None) -> None:
        if self.source is not self.target and self.source.table != self.target.table:
            raise ContractViolation("map is not an endomorphism")
        if not self.is_bijective:
            raise ContractViolation("map is not bijective")
        if g is not None and self.source is not g and self.source.table != g.table:
            raise ContractViolation("automorphism does not belong to this group")

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
        return math.lcm(*self.cycle_type)

    @functools.cached_property
    def cycle_type(self) -> tuple[int, ...]:
        """The sorted cycle lengths of the images; map_order is their lcm."""
        return _cycle_type(self.images)


def identity_map(g: FiniteGroup) -> GroupMap:
    return GroupMap(g, g, tuple(range(g.order)), check=False)


def inner_automorphism(g: FiniteGroup, a: int) -> GroupMap:
    """Conjugation x -> a x a^-1."""
    g._check_index(a)
    return GroupMap(g, g, tuple(g.conj(a, x) for x in range(g.order)), check=False)


def generated_subgroup(g: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup containing ``gens``: their closure under right
    multiplication (``_span``), which in a finite group is a subgroup."""
    gens = _int_rows([gens], "generators")[0]
    for a in gens:
        g._check_index(a)
    gens, span = _span(g, gens)
    return Subgroup._spanned(g, tuple(sorted(span)), gens)


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """a h a^-1 in H for every generator a of G and h of H: a conjugate of
    the finite H that lies in H is H, so G's generators, and G, normalize H."""
    if h.parent is not g:
        raise ContractViolation("subgroup belongs to a different group")
    ms = h.member_set()
    return all(g.conj(a, x) in ms for a in generating_set(g) for x in h._gens)


def center(g: FiniteGroup) -> Subgroup:
    """Built on each call: z is central iff its row of the table equals its column."""
    return Subgroup(g, tuple(z for z, (row, col) in enumerate(
        zip(g.table, zip(*g.table))) if row == col))


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
            if y not in orbit and (h := next(_iso_images(g, g, levels, gens[:i] + (y,)), None)):
                strong.append(h)
                # u_{s(c)} = s u_c carries g_i to s(c) (a Schreier vector's transversal;
                # Seress, Permutation Group Algorithms, 2003, ch. 4)
                for c in (points := list(orbit)):  # points grows as it is walked
                    for s in strong:
                        if (d := s[c]) not in orbit:
                            orbit[d] = tuple(map(s.__getitem__, orbit[c]))
                            points.append(d)
        chain.append(list(orbit.values()))
    return chain[::-1]


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


def _walk_generators(n: int, right) -> list[int]:
    """Generators of a group on the indices range(n), 0 its identity, with
    p . t_i = right(i)[p]: while the walk from 0 under the arrays of those
    kept so far leaves an index unreached, the largest such joins them.
    right(i)[0] = i, so each one joined is reached: the walk ends at all n."""
    kept, rights, walk, reached = [], [], [0], bytearray(n)
    reached[0] = 1
    while len(walk) < n:
        kept.append(i := reached.rindex(0))
        rights.append(right(i))
        for p in walk:  # walk grows as it is walked
            for r in rights:
                if not reached[q := r[p]]:
                    reached[q] = 1
                    walk.append(q)
    return kept


class _ClassMap(Mapping):
    """automorphism_classes' map: its byte string, key index and each index's
    class minimum, from one pass over the orbits of the index arrays ``conjs``,
    and (representative, size) by class minimum, which is the class's first
    member.  A lookup checks the whole slice at its key's index, or raises
    KeyError."""

    def __init__(self, g: FiniteGroup, buf: bytes, index: dict, conjs: list):
        d, rep = g.order, [-1] * len(index)
        for i in range(len(rep)):
            if rep[i] < 0:
                rep[i], orbit = i, [i]
                for q in orbit:  # orbit grows as it is walked
                    for c in conjs:
                        if rep[r := c[q]] < 0:
                            rep[r] = i
                            orbit.append(r)
        self._buf, self._d, self._gens, self._index, self._rep = buf, d, g._gens, index, rep
        self._classes = {r: (GroupMap(g, g, tuple(buf[r * d:(r + 1) * d]), check=False), k)
                         for r, k in Counter(rep).items()}

    def __getitem__(self, images):
        d = self._d
        try:  # bytes() refuses a non-int and an entry outside 0..255
            p = bytes(images) if isinstance(images, tuple) else b""
            key = bytes(map(p.__getitem__, self._gens)).ljust(8, b"\0")
            if self._buf[(i := self._index[memoryview(key).cast("Q")[0]]) * d:(i + 1) * d] == p:
                return self._classes[self._rep[i]][0].images
        except (TypeError, ValueError, IndexError, KeyError):
            pass
        raise KeyError(images)

    def __iter__(self):
        return zip(*[iter(self._buf)] * self._d)

    def __len__(self) -> int:
        return len(self._rep)


def automorphism_classes(g: FiniteGroup, bound: int = DEFAULT_AUT_BOUND) -> Mapping:
    """Read-only map from each automorphism's image array, in sorted order,
    to the lexicographically minimal member of its Aut(g)-conjugacy class.

    Orders above ``bound`` or BYTE_POINTS raise CapacityError on every call.
    Aut(g) is built, or refused, once per group object: past AUT_COUNT_BOUND
    automorphisms (the product of ``_stabilizer_chain(g)``'s level sizes) CapacityError,
    else every product of one automorphism per level, walked from level 0,
    as one byte string of image arrays end to end: p . u is
    ``u.translate(p + rest)``, one translate per prefix over the level's
    members joined.  A prefix's products agree below g_i =
    ``generating_set(g)[i]`` (indices below it lie in <g_0..g_{i-1}>) and
    differ at g_i, so one sort of the level's d-byte slices keeps the
    prefixes' order.  The key of p, its images of the g_j a byte each in 8
    bytes read as an int (|gens| <= log2 |g| <= 8), must be distinct and looks
    up its index.  The conjugators t are ``_walk_generators`` of the indices
    under p -> p . t, whose keys are the column slices at t(g_j): the
    products hold the identity, are closed under each step and are all
    reached, so they are the group the conjugators generate.  Conjugation
    by t acts on the indices as the keys of t p t^-1, the column slices at
    t^-1(g_j) translated through t; its orbits are the classes, an orbit's
    least index its least image array, as ``_ClassMap`` labels them."""
    if g.order > bound:
        raise CapacityError(
            f"automorphism enumeration capped at order {bound}, got {g.order}")
    if (d := g.order) > BYTE_POINTS:
        raise CapacityError(f"byte-string automorphisms capped at {BYTE_POINTS} points, got {d}")
    if isinstance(g._aut_classes, str):  # an earlier call's refusal
        raise CapacityError(g._aut_classes)
    if g._aut_classes is None:
        chain = _stabilizer_chain(g)
        if (n := math.prod(map(len, chain))) > AUT_COUNT_BOUND:
            g._aut_classes = f"{n} automorphisms, more than {AUT_COUNT_BOUND} to enumerate"
            raise CapacityError(g._aut_classes)
        rest, buf = bytes(range(d, BYTE_POINTS)), bytes(range(d))
        for level in chain:
            us = b"".join(map(bytes, level))
            buf = b"".join([us.translate(buf[i:i + d] + rest) for i in range(0, len(buf), d)])
            buf = b"".join(sorted([buf[i:i + d] for i in range(0, len(buf), d)]))

        def keys(cols, table=None):  # per p, its images at cols through table; C1's key is 0
            packed = bytearray(8 * n)
            for j, c in enumerate(cols):
                packed[j::8] = buf[c::d].translate(table)
            return memoryview(packed).cast("Q").tolist()

        gens = generating_set(g)
        index = dict(zip(keys(gens), range(n)))
        if len(index) != n:
            raise ContractViolation(f"the chain's {n} products have {len(index)} distinct keys")
        try:  # the index arrays of p -> p . t, then of p -> t p t^-1
            kept = _walk_generators(
                n, lambda i: _composer(keys(buf[i * d + x] for x in gens))(index))
            conjs = [_composer(keys((t.index(x) for x in gens), t + rest))(index)
                     for t in (buf[i * d:(i + 1) * d] for i in kept)]
        except KeyError:
            raise ContractViolation("the automorphisms enumerated are not closed") from None
        g._aut_classes = _ClassMap(g, buf, index, conjs)
    return g._aut_classes


def automorphism_conjugacy_classes(g: FiniteGroup, bound: int = DEFAULT_AUT_BOUND
                                   ) -> list[tuple[GroupMap, int]]:
    """Conjugacy classes of Aut(g): (least representative, size), the kept maps in a new list."""
    return list(automorphism_classes(g, bound)._classes.values())


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
