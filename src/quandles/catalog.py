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
from collections import namedtuple
from dataclasses import dataclass
from functools import cache, reduce
from math import factorial, gcd, prod

from .errors import CapacityError, ContractViolation, NameLookupError, StructuralError
from .groups import (FiniteGroup, GroupMap, _cycle_type, _perm_inverse,
                     automorphism_conjugacy_classes, identity_map, inner_automorphism)

MAX_BUILD_ORDER = 128


@dataclass(frozen=True)
class GroupSpec:
    """A buildable group description: kind plus integer/spec parameters."""

    kind: str
    params: tuple = ()

    def name(self) -> str:
        k, p = self.kind, self.params
        if self in _SPEC_NAMES:
            return _SPEC_NAMES[self]
        if k in _PREFIXES:
            return f"{_PREFIXES[k]}{p[0]}"
        if k == "product":
            return "x".join(sub.name() for sub in p)
        if k == "semidirect_cyclic":
            return f"C{p[0]}r{p[2]}C{p[1]}"
        raise StructuralError(f"unknown spec kind {k!r}")


# the names that are not a kind's prefix followed by its parameter
_NAMED_SPECS = {
    "Q8": GroupSpec("dicyclic", (2,)),
    "SL23": GroupSpec("sl2_3", ()),
    "SD16": GroupSpec("c4c2_twist", ("order3",)),
    "TW16": GroupSpec("c4c2_twist", ("plain",)),
    "QD16": GroupSpec("semidirect_cyclic", (8, 2, 3)),
    "M16": GroupSpec("semidirect_cyclic", (8, 2, 5)),
}
_SPEC_NAMES = {spec: name for name, spec in _NAMED_SPECS.items()}


def cyclic(n: int) -> GroupSpec:
    return GroupSpec("cyclic", (n,))


def dihedral(n: int) -> GroupSpec:
    return GroupSpec("dihedral", (n,))


def dicyclic(m: int) -> GroupSpec:
    return GroupSpec("dicyclic", (m,))


def symmetric(n: int) -> GroupSpec:
    return GroupSpec("symmetric", (n,))


def alternating(n: int) -> GroupSpec:
    return GroupSpec("alternating", (n,))


def product(*specs: GroupSpec) -> GroupSpec:
    return GroupSpec("product", tuple(specs))


_build_cache: dict[GroupSpec, FiniteGroup] = {}


def build(spec: GroupSpec) -> FiniteGroup:
    """Expand a spec into a verified Cayley table (deterministic)."""
    if spec not in _build_cache:
        if not 1 <= _spec_order(spec) <= MAX_BUILD_ORDER:
            raise CapacityError(f"{spec.name()}: order outside 1..{MAX_BUILD_ORDER}")
        _build_cache[spec] = _build_uncached(spec)
    return _build_cache[spec]


def _spec_order(spec: GroupSpec) -> int:
    """The order of the group a spec builds; S_n and A_n count n > 8 as 8."""
    if spec.kind not in _GROUP_KINDS:
        raise StructuralError(f"unknown spec kind {spec.kind!r}")
    return _GROUP_KINDS[spec.kind].order(*spec.params)


def _build_uncached(spec: GroupSpec) -> FiniteGroup:
    kind = _GROUP_KINDS[spec.kind]
    return FiniteGroup(kind.table(*spec.params), name=spec.name(), spec=spec, check=kind.check)


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral_table(n: int) -> list[list[int]]:
    def mul(x, y):
        e1, i1 = divmod(x, n)
        e2, i2 = divmod(y, n)
        i = (i1 if e2 == 0 else -i1) + i2
        return ((e1 + e2) % 2) * n + i % n

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def _dicyclic_table(m: int) -> list[list[int]]:
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

    return [[mul(x, y) for y in range(size)] for x in range(size)]


def _parity(perm: tuple[int, ...]) -> int:
    return (len(perm) - len(_cycle_type(perm))) % 2  # n minus the number of cycles


@cache
def _perm_positions(spec: GroupSpec) -> dict[tuple[int, ...], int]:
    """The index of each element of S_n or A_n: lexicographic order, as
    ``itertools.permutations`` yields them."""
    perms = itertools.permutations(range(spec.params[0]))
    members = (q for q in perms if spec.kind == "symmetric" or _parity(q) == 0)
    return {q: i for i, q in enumerate(members)}


def _perm_table(spec: GroupSpec) -> list[list[int]]:
    pos = _perm_positions(spec)
    return [[pos[tuple(map(a.__getitem__, b))] for b in pos] for a in pos]


def _product_table(*factors: GroupSpec) -> list[list[int]]:
    """A x B x ... as the semidirect product with the identity action."""
    if len(factors) < 2:
        raise CapacityError("product needs at least two factors")
    top = build(product(*factors[:-1]) if len(factors) > 2 else factors[0])
    base = build(factors[-1])
    return semidirect_table(base, top, [tuple(range(base.order))] * top.order)


@cache
def _sl23_elements() -> list[tuple[int, int, int, int]]:
    ident = (1, 0, 0, 1)
    mats = [m for m in itertools.product(range(3), repeat=4)  # in sorted order
            if m != ident and (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    return [ident] + mats


def _sl23_table() -> list[list[int]]:
    mats = _sl23_elements()
    pos = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        a, b, c, d = x
        e, f, gg, h = y
        return ((a * e + b * gg) % 3, (a * f + b * h) % 3,
                (c * e + d * gg) % 3, (c * f + d * h) % 3)

    return [[pos[mul(x, y)] for y in mats] for x in mats]


def sl23_element_index(mat) -> int:
    """Index of a matrix ((a,b),(c,d)) mod 3 inside the SL23 ordering."""
    flat = tuple(int(v) % 3 for v in (mat[0][0], mat[0][1], mat[1][0], mat[1][1]))
    mats = _sl23_elements()
    if flat not in mats:
        raise StructuralError(f"{flat} is not in SL(2,3)")
    return mats.index(flat)


def semidirect_table(base: FiniteGroup, top: FiniteGroup, action) -> list[list[int]]:
    """Cayley table of base x| top, ``action[t]`` the image array of the
    automorphism of base that t acts by: (t, x)(u, y) = (tu, x * action[t](y)),
    index((t, x)) = t*|base| + x.  The identity action gives top x base."""
    n, table = base.order, []
    for trow, act in zip(top.table, action):
        for bx in base.table:
            row = [bx[v] for v in act]
            table.append([tu * n + w for tu in trow for w in row])
    return table


def cyclic_action(images: tuple[int, ...], m: int) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """C_m acting through an automorphism: (C_m, image arrays of psi^0..psi^(m-1)).
    C_m is made here, not by ``build``, so m is not held to MAX_BUILD_ORDER."""
    powers = [tuple(range(len(images)))]
    for _ in range(m - 1):
        powers.append(tuple(map(images.__getitem__, powers[-1])))
    return FiniteGroup(_cyclic_table(m), name=f"C{m}", spec=cyclic(m), check=False), powers


def _semidirect_cyclic_table(n: int, m: int, act: int) -> list[list[int]]:
    if pow(act, m, n) != 1 % n or gcd(act, n) != 1:
        raise CapacityError(f"invalid semidirect action {act} mod {n}")
    return semidirect_table(build(cyclic(n)),
                            *cyclic_action(tuple((act * i) % n for i in range(n)), m))


# SD16 and TW16 as (C4xC2) x| C2, by the involution of C4xC2 that the C2
# acts by; the product's third twist is D4xC2.  SD16 is the one of the two
# with an automorphism of order 3.
_C4C2_TWISTS = {"order3": (0, 5, 2, 7, 4, 1, 6, 3), "plain": (0, 1, 3, 2, 4, 5, 7, 6)}


def _twist_table(twist: str) -> list[list[int]]:
    return semidirect_table(build(product(cyclic(4), cyclic(2))),
                            *cyclic_action(_C4C2_TWISTS[twist], 2))


# kind -> name prefix (None if named another way), order and Cayley table as
# functions of the spec's params, and whether FiniteGroup checks the table
_Kind = namedtuple("_Kind", "prefix order table check")
_GROUP_KINDS = {
    "cyclic": _Kind("C", lambda n: n, _cyclic_table, False),
    "dihedral": _Kind("D", lambda n: 2 * n, _dihedral_table, False),
    "dicyclic": _Kind("Dic", lambda m: 4 * m, _dicyclic_table, True),
    "symmetric": _Kind("S", lambda n: factorial(min(max(n, 0), 8)),
                       lambda n: _perm_table(symmetric(n)), False),
    "alternating": _Kind("A", lambda n: max(_spec_order(symmetric(n)) // 2, 1),
                         lambda n: _perm_table(alternating(n)), False),
    "sl2_3": _Kind(None, lambda: 24, _sl23_table, False),
    "product": _Kind(None, lambda *factors: prod(map(_spec_order, factors)),
                     _product_table, False),
    "semidirect_cyclic": _Kind(None, lambda n, m, act: n * m, _semidirect_cyclic_table, True),
    "c4c2_twist": _Kind(None, lambda twist: 16, _twist_table, True),
}
_PREFIXES = {kind: entry.prefix for kind, entry in _GROUP_KINDS.items() if entry.prefix}
_KINDS = {prefix: kind for kind, prefix in _PREFIXES.items()}


# the groups of each order after C_n, in the order pair indices follow
_CATALOG_NAMES = {
    4: ("C2xC2",),
    6: ("D3",),
    8: ("C4xC2", "C2xC2xC2", "D4", "Q8"),
    9: ("C3xC3",),
    10: ("D5",),
    12: ("C6xC2", "D6", "Dic3", "A4"),
    14: ("D7",),
    16: ("C4xC4", "SD16", "C4r3C4", "C8xC2", "M16", "D8", "QD16", "Dic4", "C4xC2xC2",
         "D4xC2", "Q8xC2", "TW16", "C2xC2xC2xC2"),
}


def groups_of_order(n: int) -> list[GroupSpec]:
    """One spec per isomorphism type of order n (n <= 16)."""
    if not 1 <= n <= 16:
        raise CapacityError(f"catalog covers orders 1..16, got {n}")
    return [cyclic(n), *map(spec_from_name, _CATALOG_NAMES.get(n, ()))]


_CLI_NAME_RE = re.compile(r"^([A-Za-z]+)([0-9]*)$")


def spec_from_name(name: str) -> GroupSpec:
    """Parse a CLI-facing group name such as C4xC2, D6, Dic3, Q8, SD16, SL23."""
    parts = name.split("x")
    if len(parts) > 1:
        return product(*(spec_from_name(part) for part in parts))
    token = parts[0]
    if token in _NAMED_SPECS:
        return _NAMED_SPECS[token]
    if token in ("C4rC4", "C4r3C4"):  # an alias, then the spec's own name
        return GroupSpec("semidirect_cyclic", (4, 4, 3))
    m = _CLI_NAME_RE.match(token)
    if m and m.group(2) and m.group(1) in _KINDS:
        return GroupSpec(_KINDS[m.group(1)], (int(m.group(2)),))
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


# (spec name, atom) -> (k, f): the element x = u*k + v maps to f(u, v)
_NAMED_FORMULAS = {
    # C4xC2 and C6xC2: index (i, j) = i*2 + j
    ("C4xC2", "psi_sigma"): (2, lambda i, j: (i + 2 * j) % 4 * 2 + (i + j) % 2),
    ("C4xC2", "psi_tau"): (2, lambda i, j: -i % 4 * 2 + (i + j) % 2),
    ("C6xC2", "alpha_sigma"): (2, lambda i, j: (2 * i + 3 * j) % 6 * 2 + (i + j) % 2),
    ("C6xC2", "alpha_tau"): (2, lambda i, j: -i % 6 * 2 + (i + j) % 2),
    # Dic3: index a^i b^eps = eps*6 + i
    ("Dic3", "beta_sigma"): (6, lambda eps, i: eps * 6 + (i + eps) % 6),
    ("Dic3", "beta_tau"): (6, lambda eps, i: eps * 6 + -i % 6),
}

_Q8_NAMED = {
    # ordering: 0:1 1:i 2:-1 3:-i 4:j 5:k 6:-j 7:-k
    "psi_1": (0, 1, 2, 3, 4, 5, 6, 7),
    "psi_2": (0, 1, 2, 3, 6, 7, 4, 5),
    "psi_3": (0, 4, 2, 6, 1, 7, 3, 5),
    "psi_4": (0, 4, 2, 6, 5, 1, 7, 3),
    "psi_5": (0, 4, 2, 6, 3, 5, 1, 7),
}


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
    if any(len(row) != k for row in rows):
        raise ContractViolation("matrix is not square")
    if g.order != p ** k:
        raise ContractViolation(f"group order {g.order} is not {p}^{k}")

    powers = [p ** (k - 1 - i) for i in range(k)]  # the place value of coordinate i

    def fn(x):
        vec = [x // w % p for w in powers]
        return sum(sum(map(int.__mul__, row, vec)) % p * w for row, w in zip(rows, powers))

    return _map_from_formula(g, fn)


def swap_map(g: FiniteGroup) -> GroupMap:
    """(x, y) -> (y, x) on a square direct product A x A."""
    factor, other = _binary_factors(g)
    if factor != other:
        raise ContractViolation("swap is defined on square products only")
    half = build(factor).order

    def fn(x):
        i, j = divmod(x, half)
        return j * half + i

    return _map_from_formula(g, fn)


def factor_lift(g: FiniteGroup, side: str, inner: GroupMap) -> GroupMap:
    """Lift an automorphism of one factor of a binary product, identity elsewhere."""
    second = build(_binary_factors(g)[1]).order
    if side not in ("left", "right"):
        raise NameLookupError(side)

    def fn(x):
        i, j = divmod(x, second)
        if side == "left":
            return inner.images[i] * second + j
        return i * second + inner.images[j]

    return _map_from_formula(g, fn)


def _binary_factors(g: FiniteGroup) -> tuple[GroupSpec, GroupSpec]:
    if g.spec is None or g.spec.kind != "product" or len(g.spec.params) != 2:
        raise ContractViolation(f"{g.name} is not a binary product group")
    return g.spec.params


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse 1-based disjoint cycles like "(1 2)(3 4)" into a 0-based image
    tuple; anything but a sequence of balanced, disjoint cycles is refused."""
    if re.fullmatch(r"\s*(\([^()]*\)\s*)*", text) is None:
        raise StructuralError(f"not a sequence of cycles: {text!r}")
    images, seen = list(range(degree)), set()
    for grp in re.findall(r"\(([^()]*)\)", text):
        try:
            entries = [_int_token(tok) - 1 for tok in re.split(r"[,\s]+", grp.strip()) if tok]
        except ValueError as exc:
            raise StructuralError(f"cycle entry is not an integer in {text!r}") from exc
        if any(not 0 <= v < degree for v in entries):
            raise StructuralError(f"cycle entry out of range in {text!r}")
        if len(set(entries)) != len(entries) or not seen.isdisjoint(entries):
            raise StructuralError(f"repeated entry in cycles {text!r}")
        seen.update(entries)
        for idx, v in enumerate(entries):
            images[v] = entries[(idx + 1) % len(entries)]
    return tuple(images)


def perm_conjugation(g: FiniteGroup, perm: tuple[int, ...]) -> GroupMap:
    """x -> p x p^-1 on a symmetric/alternating catalog group, p any permutation.

    For A_n this also covers the outer automorphisms induced by odd
    permutations of S_n.
    """
    if len(perm) != _perm_degree(g):
        raise ContractViolation("permutation degree mismatch")
    pos = _perm_positions(g.spec)
    pinv = _perm_inverse(perm)
    return GroupMap(g, g, tuple(pos[tuple(perm[q[v]] for v in pinv)] for q in pos), check=False)


def _perm_degree(g: FiniteGroup) -> int:
    """The n of an S_n or A_n catalog group."""
    if g.spec is None or g.spec.kind not in ("symmetric", "alternating"):
        raise ContractViolation("permutation conjugation needs an S_n or A_n group")
    return g.spec.params[0]


_ATOM_RE = re.compile(r"^(?P<head>[A-Za-z_0-9]+)(?::(?P<arg>.*))?$")


def named_automorphism(g: FiniteGroup, name: str) -> GroupMap:
    """Resolve a named automorphism on a catalog group.

    Composite names combine atoms with ``*`` (composition, leftmost applied
    last) and ``^k`` (iterated composition, before or after an atom's ``@``
    suffix), e.g. ``psi_tau*psi_sigma^2`` or ``phi:1,2@4^2*phi:3,0``.
    Atoms:

    * ``id``;
    * ``psi_sigma``/``psi_tau`` on C4xC2; ``alpha_sigma``/``alpha_tau`` on
      C6xC2; ``beta_sigma``/``beta_tau`` on Dic3; ``psi_1`` .. ``psi_5`` on Q8;
    * ``phi:a,b@n`` on D_n and ``mul:a@n`` on C_n, the ``@n`` optional;
    * ``mat:r11,r12;r21,r22@p`` on an elementary abelian (C_p)^k, p = 2 by default;
    * ``conj:i`` (conjugation by element index i) on any group;
    * ``conj_perm:(1 2)(3 4)`` on S_n/A_n: any permutation of S_n, in disjoint cycles;
    * ``swap`` on a square product A x A;
    * ``left:<atom>``/``right:<atom>`` lifting a factor automorphism of a
      binary product;
    * ``classrep:i`` for the i-th (0-based) canonical conjugacy class
      representative of Aut(G);
    * ``images:[...]`` with an explicit image array.
    """
    parts = [part.strip() for part in name.split("*")]
    if not all(parts):
        raise NameLookupError(f"malformed automorphism name {name!r}")
    return reduce(GroupMap.compose, (_named_atom(g, part) for part in parts))


def _named_atom(g: FiniteGroup, name: str) -> GroupMap:
    power = 1
    if "^" in name and not name.startswith("images"):
        head, _, exp = name.rpartition("^")
        exp, at, suffix = exp.partition("@")
        try:
            power = _int_token(exp)
        except ValueError as exc:
            raise NameLookupError(f"bad exponent in {name!r}") from exc
        name = head + at + suffix
    base = _named_base(g, name.strip())
    if power == 1:
        return base
    out = identity_map(g)
    for _ in range(power % base.map_order()):
        out = base.compose(out)
    return out


def _int_token(token: str) -> int:
    """int(token) for ASCII digits with an optional sign and surrounding
    whitespace; ValueError for anything else, including the digit
    separators and non-ASCII digits that int() accepts."""
    if re.fullmatch(r"\s*[+-]?[0-9]+\s*", token) is None:
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _atom_ints(atom: str, tokens, count: int | None = None) -> list[int]:
    """The integers of an atom's argument; NameLookupError names the atom
    when a token is not an integer or there are not ``count`` of them."""
    try:
        vals = [_int_token(t) for t in tokens]
    except ValueError:
        vals = None
    if vals is None or count not in (None, len(vals)):
        raise NameLookupError(f"malformed automorphism name {atom!r}")
    return vals


def _named_base(g: FiniteGroup, name: str) -> GroupMap:
    if name == "id":
        return identity_map(g)
    m = _ATOM_RE.match(name)
    head, arg = m.group("head", "arg") if m else (None, None)

    if name.startswith("images:"):
        payload = name[len("images:"):].strip()
        tokens = [t for t in re.split(r"[,\s]+", payload.strip("[]")) if t]
        gm = GroupMap(g, g, tuple(_atom_ints(name, tokens)), check=True)
        if not gm.is_bijective:
            raise ContractViolation("image array is not bijective")
        return gm
    if head == "conj" and arg is not None:
        return inner_automorphism(g, _atom_ints(name, [arg], 1)[0])
    if head == "conj_perm" and arg is not None:
        return perm_conjugation(g, parse_cycles(arg, _perm_degree(g)))
    if head == "classrep" and arg is not None:
        classes = automorphism_conjugacy_classes(g)
        idx = _atom_ints(name, [arg], 1)[0]
        if not 0 <= idx < len(classes):
            raise NameLookupError(f"classrep index {idx} out of range")
        return classes[idx][0]
    if head in ("phi", "mul") and arg is not None:
        arg, at, suffix = arg.partition("@")
        n = g.spec.params[0] if g.spec is not None and g.spec.kind == "dihedral" else g.order
        if at and (modulus := _atom_ints(name, [suffix], 1)[0]) != n:
            raise ContractViolation(f"modulus {modulus} does not match group {g.name}")
        if head == "phi":
            return dihedral_phi(g, *_atom_ints(name, arg.split(","), 2))
        return cyclic_mul(g, _atom_ints(name, [arg], 1)[0])
    if head == "mat" and arg is not None:
        body, at, ptxt = arg.partition("@")
        p = _atom_ints(name, [ptxt], 1)[0] if at else 2
        rows = [_atom_ints(name, row.split(",")) for row in body.split(";")]
        return matrix_map(g, rows, p)
    if name == "swap":
        return swap_map(g)
    if head in ("left", "right") and arg is not None:
        factor = build(_binary_factors(g)[0 if head == "left" else 1])
        return factor_lift(g, head, _named_atom(factor, arg))
    key = (g.spec.name() if g.spec is not None else None, name)
    if key in _NAMED_FORMULAS:
        k, fn = _NAMED_FORMULAS[key]
        return _map_from_formula(g, lambda x: fn(*divmod(x, k)))
    if key[0] == "Q8" and name in _Q8_NAMED:
        return GroupMap(g, g, _Q8_NAMED[name], check=True)
    raise NameLookupError(f"automorphism {name!r} is not defined on {g.name}")
