"""Constructors for every group isomorphism type of order <= 16, plus the
specific larger groups the package needs (S_n, A_n for n <= 5, SL(2,3),
products such as S3xS3 and C2xQ8).

Element ordering conventions are pinned per kind so that named automorphisms
and the dihedral formula machinery always agree with the Cayley tables:

* cyclic C_n: element i is the residue i, addition mod n;
* direct product AxB: index(a, b) = a * |B| + b;
* dihedral D_n (order 2n): index(tau^eps sigma^i) = eps * n + i;
* dicyclic Dic_m (order 4m, Q8 = Dic_2): index(a^i b^eps) = eps * 2m + i;
* symmetric/alternating: permutation tuples in lexicographic order
  (identity first);
* SL(2,3) and other ad-hoc element sets: identity first, rest sorted.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import factorial, gcd, prod

from .errors import CapacityError, ContractViolation, NameLookupError, StructuralError
from .groups import (FiniteGroup, GroupMap, automorphism_group,
                     groups_isomorphic, identity_map, inner_automorphism)

MAX_BUILD_ORDER = 128

# isomorphism type counts for orders 1..16
GROUP_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14)


@dataclass(frozen=True)
class GroupSpec:
    """A buildable group description: kind plus integer/spec parameters."""

    kind: str
    params: tuple = ()

    def name(self) -> str:
        return _spec_name(self)


def _spec_name(spec: GroupSpec) -> str:
    k, p = spec.kind, spec.params
    if k == "cyclic":
        return f"C{p[0]}"
    if k == "dihedral":
        return f"D{p[0]}"
    if k == "dicyclic":
        return "Q8" if p[0] == 2 else f"Dic{p[0]}"
    if k == "symmetric":
        return f"S{p[0]}"
    if k == "alternating":
        return f"A{p[0]}"
    if k == "sl2_3":
        return "SL23"
    if k == "product":
        return "x".join(sub.name() for sub in p)
    if k == "semidirect_cyclic":
        n, m, act = p
        if (n, m, act) == (8, 2, 3):
            return "QD16"
        if (n, m, act) == (8, 2, 5):
            return "M16"
        return f"C{n}r{act}C{m}"
    if k == "c4c2_twist":
        return "SD16" if p[0] == "order3" else "TW16"
    raise StructuralError(f"unknown spec kind {k!r}")


def cyclic(n: int) -> GroupSpec:
    return GroupSpec("cyclic", (n,))


def dihedral(n: int) -> GroupSpec:
    return GroupSpec("dihedral", (n,))


def dicyclic(m: int) -> GroupSpec:
    return GroupSpec("dicyclic", (m,))


def quaternion8() -> GroupSpec:
    return GroupSpec("dicyclic", (2,))


def symmetric(n: int) -> GroupSpec:
    return GroupSpec("symmetric", (n,))


def alternating(n: int) -> GroupSpec:
    return GroupSpec("alternating", (n,))


def sl23() -> GroupSpec:
    return GroupSpec("sl2_3", ())


def product(*specs: GroupSpec) -> GroupSpec:
    return GroupSpec("product", tuple(specs))


_build_cache: dict[GroupSpec, FiniteGroup] = {}


def build(spec: GroupSpec) -> FiniteGroup:
    """Expand a spec into a verified Cayley table (deterministic)."""
    cached = _build_cache.get(spec)
    if cached is not None:
        return cached
    if not 1 <= _spec_order(spec) <= MAX_BUILD_ORDER:
        raise CapacityError(f"{spec.name()}: order outside 1..{MAX_BUILD_ORDER}")
    g = _build_uncached(spec)
    _build_cache[spec] = g
    return g


def _spec_order(spec: GroupSpec) -> int:
    """The order of the group a spec builds; S_n and A_n count n > 8 as 8."""
    k, p = spec.kind, spec.params
    if k == "product":
        return prod(_spec_order(sub) for sub in p)
    if k in ("symmetric", "alternating"):
        n = factorial(min(max(p[0], 0), 8))
        return n if k == "symmetric" else max(n // 2, 1)
    if k == "semidirect_cyclic":
        return p[0] * p[1]
    scale = {"cyclic": 1, "dihedral": 2, "dicyclic": 4}
    return scale[k] * p[0] if k in scale else {"sl2_3": 24, "c4c2_twist": 16}.get(k, 1)


def _build_uncached(spec: GroupSpec) -> FiniteGroup:
    k, p = spec.kind, spec.params
    if k == "cyclic":
        return _cyclic_group(p[0], spec)
    if k == "dihedral":
        return _dihedral_group(p[0], spec)
    if k == "dicyclic":
        return _dicyclic_group(p[0], spec)
    if k == "symmetric":
        return _perm_group(list(itertools.permutations(range(p[0]))), spec)
    if k == "alternating":
        perms = [q for q in itertools.permutations(range(p[0])) if _parity(q) == 0]
        return _perm_group(perms, spec)
    if k == "sl2_3":
        return _sl23_group(spec)
    if k == "product":
        return _product_group([build(sub) for sub in p], spec)
    if k == "semidirect_cyclic":
        return _semidirect_cyclic_group(*p, spec=spec)
    if k == "c4c2_twist":
        return _c4c2_twist_group(p[0], spec)
    raise StructuralError(f"unknown spec kind {k!r}")


def _cyclic_group(n: int, spec: GroupSpec) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=spec.name(), spec=spec, check=False)


def _dihedral_group(n: int, spec: GroupSpec) -> FiniteGroup:
    size = 2 * n

    def mul(x, y):
        e1, i1 = divmod(x, n)
        e2, i2 = divmod(y, n)
        i = (i1 if e2 == 0 else -i1) + i2
        return ((e1 + e2) % 2) * n + i % n

    table = [[mul(x, y) for y in range(size)] for x in range(size)]
    return FiniteGroup(table, name=spec.name(), spec=spec, check=False)


def _dicyclic_group(m: int, spec: GroupSpec) -> FiniteGroup:
    if m < 2:
        raise CapacityError("dicyclic parameter must be >= 2")
    size, nn = 4 * m, 2 * m

    def mul(x, y):
        # x = a^i1 b^e1, y = a^i2 b^e2 with b a^i = a^-i b and b^2 = a^m
        e1, i1 = divmod(x, nn)
        e2, i2 = divmod(y, nn)
        if e1 == 0:
            return e2 * nn + (i1 + i2) % nn
        if e2 == 0:
            return nn + (i1 - i2) % nn
        return (i1 - i2 + m) % nn

    table = [[mul(x, y) for y in range(size)] for x in range(size)]
    return FiniteGroup(table, name=spec.name(), spec=spec, check=True)


def _parity(perm: tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return inv % 2


def _perm_group(perms: list[tuple[int, ...]], spec: GroupSpec) -> FiniteGroup:
    perms = sorted(perms)
    pos = {q: i for i, q in enumerate(perms)}
    table = [[pos[tuple(a[b[i]] for i in range(len(b)))] for b in perms]
             for a in perms]
    g = FiniteGroup(table, name=spec.name(), spec=spec, check=False)
    return g


def _product_group(factors: list[FiniteGroup], spec: GroupSpec) -> FiniteGroup:
    if len(factors) < 2:
        raise CapacityError("product needs at least two factors")
    g = factors[0]
    for h in factors[1:]:
        size = g.order * h.order
        table = [[0] * size for _ in range(size)]
        for a1 in range(g.order):
            for b1 in range(h.order):
                x = a1 * h.order + b1
                for a2 in range(g.order):
                    ga = g.table[a1][a2]
                    for b2 in range(h.order):
                        table[x][a2 * h.order + b2] = ga * h.order + h.table[b1][b2]
        g = FiniteGroup(table, name="tmp", spec=None, check=False)
    return FiniteGroup(g.table, name=spec.name(), spec=spec, check=False)


_SL23_ELEMENTS: list[tuple[int, int, int, int]] | None = None


def _sl23_elements() -> list[tuple[int, int, int, int]]:
    global _SL23_ELEMENTS
    if _SL23_ELEMENTS is None:
        mats = [(a, b, c, d)
                for a in range(3) for b in range(3)
                for c in range(3) for d in range(3)
                if (a * d - b * c) % 3 == 1]
        ident = (1, 0, 0, 1)
        mats.remove(ident)
        _SL23_ELEMENTS = [ident] + sorted(mats)
    return _SL23_ELEMENTS


def _sl23_group(spec: GroupSpec) -> FiniteGroup:
    mats = _sl23_elements()
    pos = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        a, b, c, d = x
        e, f, gg, h = y
        return ((a * e + b * gg) % 3, (a * f + b * h) % 3,
                (c * e + d * gg) % 3, (c * f + d * h) % 3)

    table = [[pos[mul(x, y)] for y in mats] for x in mats]
    return FiniteGroup(table, name=spec.name(), spec=spec, check=False)


def sl23_element_index(mat) -> int:
    """Index of a matrix ((a,b),(c,d)) mod 3 inside the SL23 ordering."""
    a, b, c, d = (int(v) % 3 for v in (mat[0][0], mat[0][1], mat[1][0], mat[1][1]))
    flat = (a, b, c, d)
    mats = _sl23_elements()
    if flat not in mats:
        raise StructuralError(f"{flat} is not in SL(2,3)")
    return mats.index(flat)


def semidirect_table(base: FiniteGroup, act: GroupMap, m: int) -> list[list[int]]:
    """Cayley table of base x| C_m with C_m acting through powers of ``act``:
    (x, i)(y, j) = (x * act^i(y), i + j), index((x, i)) = i*|base| + x."""
    powers = [tuple(range(base.order))]
    for _ in range(m - 1):
        powers.append(tuple(act.images[v] for v in powers[-1]))
    size = base.order * m
    table = [[0] * size for _ in range(size)]
    for i in range(m):
        pwi = powers[i]
        for x in range(base.order):
            u = i * base.order + x
            for j in range(m):
                for y in range(base.order):
                    v = j * base.order + y
                    table[u][v] = ((i + j) % m) * base.order + base.table[x][pwi[y]]
    return table


def _semidirect_cyclic_group(n: int, m: int, act: int, spec: GroupSpec) -> FiniteGroup:
    if pow(act, m, n) != 1 % n or gcd(act, n) != 1:
        raise CapacityError(f"invalid semidirect action {act} mod {n}")
    base = build(cyclic(n))
    act_map = GroupMap(base, base, tuple((act * i) % n for i in range(n)), check=False)
    return FiniteGroup(semidirect_table(base, act_map, m), name=spec.name(),
                       spec=spec, check=True)


_C4C2_TWISTS: dict[str, FiniteGroup] | None = None


def _c4c2_twist_group(variant: str, spec: GroupSpec) -> FiniteGroup:
    """The two non-product groups (C4xC2) x| C2.

    All involutive twisting actions are scanned; the resulting groups fall
    into exactly three isomorphism types, one of which is D4xC2 (already
    covered by the product constructor).  Exactly one of the remaining two
    admits an automorphism of order 3; that one is exposed as SD16 and the
    other as TW16.  Uniqueness is asserted at build time.
    """
    global _C4C2_TWISTS
    if _C4C2_TWISTS is None:
        base = build(product(cyclic(4), cyclic(2)))
        d4c2 = build(product(dihedral(4), cyclic(2)))
        types: list[FiniteGroup] = []
        for amap in automorphism_group(base):
            if amap.map_order() != 2:
                continue
            g = FiniteGroup(semidirect_table(base, amap, 2), name="scan", check=True)
            if any(groups_isomorphic(g, t) is not None for t in types):
                continue
            types.append(g)
        named: dict[str, FiniteGroup] = {}
        for g in types:
            if groups_isomorphic(g, d4c2) is not None:
                continue
            has3 = any(a.map_order() == 3 for a in automorphism_group(g))
            key = "order3" if has3 else "plain"
            if key in named:
                raise StructuralError("twist scan: order-3 criterion is not "
                                      "a unique selector")
            named[key] = g
        if set(named) != {"order3", "plain"}:
            raise StructuralError("twist scan did not find both expected types")
        _C4C2_TWISTS = named
    g = _C4C2_TWISTS[variant]
    return FiniteGroup(g.table, name=spec.name(), spec=spec, check=False)


_ORDER16_SPECS = (
    cyclic(16),
    product(cyclic(4), cyclic(4)),
    GroupSpec("c4c2_twist", ("order3",)),         # SD16
    GroupSpec("semidirect_cyclic", (4, 4, 3)),    # C4 x| C4
    product(cyclic(8), cyclic(2)),
    GroupSpec("semidirect_cyclic", (8, 2, 5)),    # M16 (modular)
    dihedral(8),
    GroupSpec("semidirect_cyclic", (8, 2, 3)),    # QD16 (semidihedral)
    dicyclic(4),
    product(cyclic(4), cyclic(2), cyclic(2)),
    product(dihedral(4), cyclic(2)),
    product(quaternion8(), cyclic(2)),
    GroupSpec("c4c2_twist", ("plain",)),          # TW16
    product(cyclic(2), cyclic(2), cyclic(2), cyclic(2)),
)


def groups_of_order(n: int) -> list[GroupSpec]:
    """One spec per isomorphism type of order n (n <= 16)."""
    if not 1 <= n <= 16:
        raise CapacityError(f"catalog covers orders 1..16, got {n}")
    if n == 16:
        return list(_ORDER16_SPECS)
    out: list[GroupSpec] = [cyclic(n)]
    if n == 4:
        out.append(product(cyclic(2), cyclic(2)))
    elif n == 6:
        out.append(dihedral(3))
    elif n == 8:
        out += [product(cyclic(4), cyclic(2)),
                product(cyclic(2), cyclic(2), cyclic(2)),
                dihedral(4), quaternion8()]
    elif n == 9:
        out.append(product(cyclic(3), cyclic(3)))
    elif n == 10:
        out.append(dihedral(5))
    elif n == 12:
        out += [product(cyclic(6), cyclic(2)), dihedral(6), dicyclic(3),
                alternating(4)]
    elif n == 14:
        out.append(dihedral(7))
    return out


_CLI_NAME_RE = re.compile(r"^([A-Za-z]+)(\d*)$")


def spec_from_name(name: str) -> GroupSpec:
    """Parse a CLI-facing group name such as C4xC2, D6, Dic3, Q8, SD16, SL23."""
    parts = name.split("x")
    if len(parts) > 1:
        return product(*(spec_from_name(part) for part in parts))
    token = parts[0]
    if token == "Q8":
        return quaternion8()
    if token == "SL23":
        return sl23()
    if token == "SD16":
        return GroupSpec("c4c2_twist", ("order3",))
    if token == "TW16":
        return GroupSpec("c4c2_twist", ("plain",))
    if token == "QD16":
        return GroupSpec("semidirect_cyclic", (8, 2, 3))
    if token == "M16":
        return GroupSpec("semidirect_cyclic", (8, 2, 5))
    if token == "C4rC4" or token == "C4r3C4":
        return GroupSpec("semidirect_cyclic", (4, 4, 3))
    m = _CLI_NAME_RE.match(token)
    if m and m.group(2):
        kind, num = m.group(1), int(m.group(2))
        if kind == "C":
            return cyclic(num)
        if kind == "D":
            return dihedral(num)
        if kind == "Dic":
            return dicyclic(num)
        if kind == "S":
            return symmetric(num)
        if kind == "A":
            return alternating(num)
    raise NameLookupError(f"unknown group name {name!r}")


def build_named(name: str) -> FiniteGroup:
    return build(spec_from_name(name))


# ---------------------------------------------------------------------------
# named automorphisms
# ---------------------------------------------------------------------------

def _map_from_formula(g: FiniteGroup, fn) -> GroupMap:
    images = tuple(fn(x) for x in range(g.order))
    try:
        m = GroupMap(g, g, images, check=True)
    except StructuralError as exc:
        raise ContractViolation(f"formula is not a homomorphism: {exc}") from exc
    if not m.is_bijective:
        raise ContractViolation("formula is not bijective")
    return m


def _pair_index(g: FiniteGroup, second_order: int):
    def enc(i, j):
        return i * second_order + j

    def dec(x):
        return divmod(x, second_order)

    return enc, dec


def _c4c2_named(g: FiniteGroup, name: str) -> GroupMap:
    enc, dec = _pair_index(g, 2)
    if name == "psi_sigma":
        def fn(x):
            i, j = dec(x)
            return enc((i + 2 * j) % 4, (i + j) % 2)
    elif name == "psi_tau":
        def fn(x):
            i, j = dec(x)
            return enc((-i) % 4, (i + j) % 2)
    else:
        raise NameLookupError(name)
    return _map_from_formula(g, fn)


def _c6c2_named(g: FiniteGroup, name: str) -> GroupMap:
    enc, dec = _pair_index(g, 2)
    if name == "alpha_sigma":
        def fn(x):
            i, j = dec(x)
            return enc((2 * i + 3 * j) % 6, (i + j) % 2)
    elif name == "alpha_tau":
        def fn(x):
            i, j = dec(x)
            return enc((-i) % 6, (i + j) % 2)
    else:
        raise NameLookupError(name)
    return _map_from_formula(g, fn)


def _dic3_named(g: FiniteGroup, name: str) -> GroupMap:
    def dec(x):
        return divmod(x, 6)  # (eps, i) with index = eps*6 + i

    def enc(eps, i):
        return eps * 6 + i % 6

    if name == "beta_sigma":
        def fn(x):
            eps, i = dec(x)
            return enc(eps, i + eps)
    elif name == "beta_tau":
        def fn(x):
            eps, i = dec(x)
            return enc(eps, -i)
    else:
        raise NameLookupError(name)
    return _map_from_formula(g, fn)


_Q8_NAMED = {
    # ordering: 0:1 1:i 2:-1 3:-i 4:j 5:k 6:-j 7:-k
    "psi_1": (0, 1, 2, 3, 4, 5, 6, 7),
    "psi_2": (0, 1, 2, 3, 6, 7, 4, 5),
    "psi_3": (0, 4, 2, 6, 1, 7, 3, 5),
    "psi_4": (0, 4, 2, 6, 5, 1, 7, 3),
    "psi_5": (0, 4, 2, 6, 3, 5, 1, 7),
}


def _q8_named(g: FiniteGroup, name: str) -> GroupMap:
    if name not in _Q8_NAMED:
        raise NameLookupError(name)
    return GroupMap(g, g, _Q8_NAMED[name], check=True)


def dihedral_phi(g: FiniteGroup, a: int, b: int) -> GroupMap:
    """phi_{a,b} on a catalog dihedral group: tau^e sigma^i -> tau^e sigma^{a i + e b}."""
    if g.spec is None or g.spec.kind != "dihedral":
        raise ContractViolation("phi_{a,b} maps are defined on dihedral groups only")
    n = g.spec.params[0]
    if gcd(a, n) != 1:
        raise ContractViolation(f"a={a} is not a unit mod {n}")

    def fn(x):
        eps, i = divmod(x, n)
        return eps * n + (a * i + eps * b) % n

    return _map_from_formula(g, fn)


def cyclic_mul(g: FiniteGroup, a: int) -> GroupMap:
    """Multiplication by a unit a on a catalog cyclic group."""
    if g.spec is None or g.spec.kind != "cyclic":
        raise ContractViolation("mul maps are defined on cyclic groups only")
    n = g.spec.params[0]
    if gcd(a, n) != 1:
        raise ContractViolation(f"a={a} is not a unit mod {n}")
    return GroupMap(g, g, tuple((a * i) % n for i in range(n)), check=False)


def matrix_map(g: FiniteGroup, rows: list[list[int]], p: int) -> GroupMap:
    """v -> M v on an elementary abelian group (C_p)^k with lexicographic packing."""
    k = len(rows)
    if g.order != p ** k:
        raise ContractViolation(f"group order {g.order} is not {p}^{k}")

    def dec(x):
        digits = []
        for _ in range(k):
            digits.append(x % p)
            x //= p
        return list(reversed(digits))

    def enc(vec):
        x = 0
        for v in vec:
            x = x * p + (v % p)
        return x

    def fn(x):
        vec = dec(x)
        return enc([sum(rows[i][j] * vec[j] for j in range(k)) % p for i in range(k)])

    return _map_from_formula(g, fn)


def swap_map(g: FiniteGroup) -> GroupMap:
    """(x, y) -> (y, x) on a square direct product A x A."""
    if g.spec is None or g.spec.kind != "product" or len(g.spec.params) != 2 \
            or g.spec.params[0] != g.spec.params[1]:
        raise ContractViolation("swap is defined on square products only")
    half = build(g.spec.params[0]).order

    def fn(x):
        i, j = divmod(x, half)
        return j * half + i

    return _map_from_formula(g, fn)


def factor_lift(g: FiniteGroup, side: str, inner: GroupMap) -> GroupMap:
    """Lift an automorphism of one factor of a binary product, identity elsewhere."""
    if g.spec is None or g.spec.kind != "product" or len(g.spec.params) != 2:
        raise ContractViolation("factor lifts need a binary product group")
    second = build(g.spec.params[1]).order

    if side == "left":
        def fn(x):
            i, j = divmod(x, second)
            return inner.images[i] * second + j
    elif side == "right":
        def fn(x):
            i, j = divmod(x, second)
            return i * second + inner.images[j]
    else:
        raise NameLookupError(side)
    return _map_from_formula(g, fn)


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse 1-based cycle notation like "(1 2)(3 4)" into a 0-based image tuple."""
    images = list(range(degree))
    for grp in re.findall(r"\(([^()]*)\)", text):
        entries = [int(tok) - 1 for tok in re.split(r"[,\s]+", grp.strip()) if tok]
        if any(not 0 <= v < degree for v in entries):
            raise StructuralError(f"cycle entry out of range in {text!r}")
        if len(set(entries)) != len(entries):
            raise StructuralError(f"repeated entry in cycle {grp!r}")
        for idx, v in enumerate(entries):
            images[v] = entries[(idx + 1) % len(entries)]
    return tuple(images)


def perm_conjugation(g: FiniteGroup, perm: tuple[int, ...]) -> GroupMap:
    """x -> p x p^-1 on a symmetric/alternating catalog group, p any permutation.

    For A_n this also covers the outer automorphisms induced by odd
    permutations of S_n.
    """
    if g.spec is None or g.spec.kind not in ("symmetric", "alternating"):
        raise ContractViolation("permutation conjugation needs an S_n or A_n group")
    deg = g.spec.params[0]
    if len(perm) != deg:
        raise ContractViolation("permutation degree mismatch")
    elems = (sorted(itertools.permutations(range(deg)))
             if g.spec.kind == "symmetric"
             else sorted(q for q in itertools.permutations(range(deg))
                         if _parity(q) == 0))
    pos = {q: i for i, q in enumerate(elems)}
    pinv = [0] * deg
    for i, v in enumerate(perm):
        pinv[v] = i

    def conj(q):
        return tuple(perm[q[pinv[i]]] for i in range(deg))

    return GroupMap(g, g, tuple(pos[conj(q)] for q in elems), check=False)


_ATOM_RE = re.compile(r"^(?P<head>[A-Za-z_0-9]+)(?::(?P<arg>.*))?$")


def named_automorphism(g: FiniteGroup, name: str) -> GroupMap:
    """Resolve a named automorphism on a catalog group.

    Composite names combine atoms with ``*`` (composition, leftmost applied
    last) and ``^k`` (iterated composition), e.g. ``psi_tau*psi_sigma^2``.
    Atoms:

    * ``id``;
    * ``psi_sigma``/``psi_tau`` on C4xC2; ``alpha_sigma``/``alpha_tau`` on
      C6xC2; ``beta_sigma``/``beta_tau`` on Dic3; ``psi_1`` .. ``psi_5`` on Q8;
    * ``phi:a,b`` on a dihedral group; ``mul:a`` on a cyclic group;
    * ``mat:r11,r12;r21,r22@p`` on an elementary abelian (C_p)^k;
    * ``conj:i`` (conjugation by element index i) on any group;
    * ``conj_perm:(1 2)(3 4)`` on S_n/A_n (p may be any permutation of S_n);
    * ``swap`` on a square product A x A;
    * ``left:<atom>``/``right:<atom>`` lifting a factor automorphism of a
      binary product;
    * ``classrep:i`` for the i-th (0-based) canonical conjugacy class
      representative of Aut(G);
    * ``images:[...]`` with an explicit image array.
    """
    maps = [_named_atom(g, part.strip()) for part in _split_composition(name)]
    out = maps[0]
    for m in maps[1:]:
        out = out.compose(m)
    return out


def _split_composition(name: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    cur = ""
    for ch in name:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "*" and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    if any(not p.strip() for p in parts):
        raise NameLookupError(f"malformed automorphism name {name!r}")
    return parts


def _named_atom(g: FiniteGroup, name: str) -> GroupMap:
    power = 1
    if "^" in name and not name.startswith("images"):
        name, _, exp = name.rpartition("^")
        try:
            power = int(exp)
        except ValueError as exc:
            raise NameLookupError(f"bad exponent in {name!r}^{exp!r}") from exc
    base = _named_base(g, name.strip())
    if power == 1:
        return base
    if power < 0:
        base = base.inverse()
        power = -power
    out = identity_map(g)
    for _ in range(power):
        out = base.compose(out)
    return out


def _named_base(g: FiniteGroup, name: str) -> GroupMap:
    if name == "id":
        return identity_map(g)
    m = _ATOM_RE.match(name)
    head = m.group("head") if m else None
    arg = m.group("arg") if m else None
    kind = g.spec.kind if g.spec is not None else None

    if name.startswith("images:"):
        payload = name[len("images:"):].strip()
        vals = [int(t) for t in re.split(r"[,\s]+", payload.strip("[]")) if t]
        gm = GroupMap(g, g, tuple(vals), check=True)
        if not gm.is_bijective:
            raise ContractViolation("image array is not bijective")
        return gm
    if head == "conj" and arg is not None:
        return inner_automorphism(g, int(arg))
    if head == "conj_perm" and arg is not None:
        deg = g.spec.params[0] if g.spec and g.spec.kind in ("symmetric", "alternating") else 0
        if not deg:
            raise ContractViolation("conj_perm needs an S_n or A_n group")
        return perm_conjugation(g, parse_cycles(arg, deg))
    if head == "classrep" and arg is not None:
        from .groups import automorphism_conjugacy_classes
        classes = automorphism_conjugacy_classes(g)
        idx = int(arg)
        if not 0 <= idx < len(classes):
            raise NameLookupError(f"classrep index {idx} out of range")
        return classes[idx][0]
    if head == "phi" and arg is not None:
        a, b = (int(t) for t in arg.split(","))
        return dihedral_phi(g, a, b)
    if head == "mul" and arg is not None:
        return cyclic_mul(g, int(arg))
    if head == "mat" and arg is not None:
        body, _, ptxt = arg.partition("@")
        p = int(ptxt) if ptxt else 2
        rows = [[int(t) for t in row.split(",")] for row in body.split(";")]
        return matrix_map(g, rows, p)
    if name == "swap":
        return swap_map(g)
    if head in ("left", "right") and arg is not None:
        factor = build(g.spec.params[0 if head == "left" else 1])
        return factor_lift(g, head, _named_atom(factor, arg))
    if kind == "product" and g.spec.params == (cyclic(4), cyclic(2)):
        return _c4c2_named(g, name)
    if kind == "product" and g.spec.params == (cyclic(6), cyclic(2)):
        return _c6c2_named(g, name)
    if kind == "dicyclic" and g.spec.params == (3,):
        return _dic3_named(g, name)
    if kind == "dicyclic" and g.spec.params == (2,):
        return _q8_named(g, name)
    raise NameLookupError(f"automorphism {name!r} is not defined on {g.name}")
