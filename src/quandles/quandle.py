"""Quandles as point-symmetry tables and the generalized Alexander construction.

A quandle is stored as the full table of its point symmetries:
``sym[x][y] = s_x(y)``.  The binary-operation view is ``x * y = s_y(x)``.
Generalized Alexander quandles Q(G, psi) carry their (group, automorphism)
provenance so the invariant machinery can reach the underlying group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import CapacityError, ContractViolation, StructuralError
from .groups import (FiniteGroup, GroupMap, _closure, _composer, _int_rows, _json_int,
                     _json_ints, _json_object, _json_rows, _perm_order)

# What is derived once per Q(G, psi) input: group table -> (psi images ->
# record, P members -> the P group that every input on the table shares).
# general_alexander makes the record, a dict, when the axioms first pass;
# invariants._p_record adds "P" and iso.cached_profile adds "profile".  A
# failed check stores nothing, so it fails again on every call.  Keying by
# table first lets twin groups share records and P groups.
_STORE: dict[tuple, tuple[dict, dict]] = {}
# The records of the most recently used inputs also hold their "rows", up to
# ROW_CELLS table cells in all (four S5 tables): _RECENT maps id(record) to
# the record, least recent first, and eviction drops only "rows".
ROW_CELLS = 1 << 16
_RECENT: dict[int, dict] = {}
_row_cells = 0


def _stored(g: FiniteGroup, psi: GroupMap) -> tuple[dict, dict]:
    """The store's (records, P groups) for G's table, once psi is known to be
    an automorphism of G, so a stored record never answers for another map.
    G keeps the entry with its store, so the table is hashed once per store."""
    psi.require_automorphism()
    if psi.source is not g and psi.source.table != g.table:
        raise ContractViolation("automorphism does not belong to this group")
    if g._store is None or g._store[0] is not _STORE:
        g._store = _STORE, _STORE.setdefault(g.table, ({}, {}))
    return g._store[1]


@dataclass(frozen=True)
class Quandle:
    size: int
    sym: tuple[tuple[int, ...], ...]
    provenance: tuple[FiniteGroup, GroupMap] | None = None

    def __post_init__(self):
        rows = _int_rows(self.sym, "sym table")
        object.__setattr__(self, "sym", rows)
        if len(rows) != self.size or any(len(r) != self.size for r in rows):
            raise StructuralError("sym table shape mismatch")

    @classmethod
    def _trusted(cls, sym, provenance) -> Quandle:
        """A Quandle on rows built as n tuples of n ints: no conversion or check."""
        q = object.__new__(cls)
        q.__dict__.update(size=len(sym), sym=sym, provenance=provenance)
        return q

    def is_general_alexander(self) -> bool:
        return self.provenance is not None

    def __repr__(self) -> str:
        tag = "" if self.provenance is None else f", Q({self.provenance[0].name},psi)"
        return f"Quandle(size={self.size}{tag})"


def check_axioms(q: Quandle) -> list[tuple]:
    """All violations of (Q1') idempotence, (Q2') row bijectivity and
    (Q3') s_x . s_y = s_{s_x(y)} . s_x; empty list iff q is a quandle.

    (Q3) is first checked only at the points S of ``_generating_points``,
    n^2 |S| work instead of n^3.  That proves it at every point.  With
    y |> z = s_y(z), (Q3) at x says s_x is an automorphism of |>, and
    s_{s_x(y)} = s_x s_y s_x^-1 for every y.  So the set of y with s_y in
    <s_S> contains S and is closed under <s_S> (s_x^-1 is a power of s_x):
    it is the orbit of S under <s_S>, which is all of Q.  Every s_y is then
    a product of automorphisms, an automorphism itself, and (Q3) holds at
    y.  If the check fails at some x in S, every point is checked, so the
    violations listed are the same as those of the full scan."""
    n, sym, full = q.size, q.sym, frozenset(range(q.size))
    bad: list[tuple] = [("Q1", x) for x in range(n) if sym[x][x] != x]
    bad += [("Q2", x) for x in range(n) if frozenset(sym[x]) != full]
    rows = list(map(_composer, sym))
    if bad or all(_q3_violation(sym, rows, x) is None for x in _generating_points(sym)):
        return bad
    return [("Q3", x, *v) for x in range(n)
            if (v := _q3_violation(sym, rows, x)) is not None]


def _q3_violation(sym, rows, x: int) -> tuple[int, int] | None:
    """The least (y, z) with s_x(s_y(z)) != s_{s_x(y)}(s_x(z)), least y
    first, or None when (Q3) holds at x.  ``rows[y]`` composes with s_y, so
    each y compares s_x s_y with s_{s_x(y)} s_x a whole row at a time."""
    sx, after_sx = sym[x], rows[x]
    for y, after_sy in enumerate(rows):
        if after_sy(sx) != after_sx(sym[sx[y]]):
            sy, sxy = sym[y], sym[sx[y]]
            return y, next(z for z in range(len(sx)) if sx[sy[z]] != sxy[sx[z]])
    return None


def _generating_points(sym) -> list[int]:
    """Points S whose orbits under the group <s_S> cover Q, chosen
    greedily: the least point not yet covered joins S, and the covered set
    is closed again under every s_x, x in S."""
    points, covered = [], set()
    for x in range(len(sym)):
        if x not in covered:
            points.append(x)
            covered = _closure([sym[p] for p in points], covered | {x})
    return points


def make_quandle(sym, provenance=None) -> Quandle:
    return _checked(Quandle(len(sym), sym, provenance))


def _checked(q: Quandle) -> Quandle:
    violations = check_axioms(q)
    if violations:
        raise StructuralError(f"not a quandle: {violations[:3]}")
    return q


def general_alexander(g: FiniteGroup, psi: GroupMap) -> Quandle:
    """Q(G, psi) with s_x(y) = x psi(x^-1 y); its axioms are checked once
    per (table, images), which then gets its record in the store.  A recent
    input's rows are reused, under the caller's own (g, psi)."""
    global _row_cells
    records = _stored(g, psi)[0]
    rec = records.get(psi.images)
    sym = rec.get("rows") if rec else None
    if sym is None:
        t, inv, im = g.table, g._inv, psi.images
        psi_of = _composer(im)  # row x psi(v) over v, read at v = x^-1 y
        sym = tuple(_composer(t[inv[x]])(psi_of(t[x])) for x in range(g.order))
        if rec is None:
            _checked(Quandle._trusted(sym, (g, psi)))
            rec = records[im] = {}
        rec["rows"] = sym
        _row_cells += g.order ** 2
    _RECENT[id(rec)] = _RECENT.pop(id(rec), rec)
    while _row_cells > ROW_CELLS:
        _row_cells -= len(_RECENT.pop(next(iter(_RECENT))).pop("rows")) ** 2
    return Quandle._trusted(sym, (g, psi))


def trivial_quandle(n: int) -> Quandle:
    return make_quandle(tuple(tuple(range(n)) for _ in range(n)))


def quandle_order(q: Quandle) -> int:
    """ord(s_x), constant over x for homogeneous quandles."""
    orders = set(map(_perm_order, q.sym))
    if len(orders) != 1:
        raise ContractViolation(
            f"point symmetries have non-constant orders {sorted(orders)}; "
            "the quandle is not homogeneous")
    return orders.pop()


def orbit_of(q: Quandle, start: int) -> frozenset[int]:
    return frozenset(_closure(q.sym, {start}))


def is_connected(q: Quandle) -> bool:
    """True iff the inner group acts transitively (orbits partition Q)."""
    return len(orbit_of(q, 0)) == q.size


def subquandle(q: Quandle, members) -> tuple[Quandle, tuple[int, ...]]:
    """Re-indexed quandle on a symmetry-closed subset; returns (quandle, embedding)."""
    mem = tuple(sorted(set(members)))
    pos = {m: i for i, m in enumerate(mem)}
    for x in mem:
        for y in mem:
            if q.sym[x][y] not in pos:
                raise ContractViolation(
                    f"subset not closed: s_{x}({y}) = {q.sym[x][y]} escapes")
    sym = tuple(tuple(pos[q.sym[x][y]] for y in mem) for x in mem)
    return make_quandle(sym), mem


def quandle_to_json(q: Quandle) -> str:
    prov = q.provenance and {"group": q.provenance[0].name,
                             "automorphism": list(q.provenance[1].images)}
    return json.dumps({"size": q.size, "sym": [list(r) for r in q.sym],
                       "provenance": prov}, sort_keys=True)


def quandle_from_json(text: str) -> Quandle:
    data = _json_object(text, ("size", "sym"))
    size = _json_int(data["size"], "size")
    sym = _json_rows(data["sym"], "sym")
    provenance = None
    prov = data.get("provenance")
    if prov is not None:
        if not isinstance(prov, dict):
            raise StructuralError("field 'provenance' is not an object")
        from .catalog import build_named
        try:
            g = build_named(str(prov["group"]))
            images = prov["automorphism"]
        except KeyError:
            pass  # a group outside the catalog, or no map: loaded without provenance
        except CapacityError as exc:  # such as C0, Dic1, or past the build cap
            raise StructuralError(f"provenance group cannot be built: {exc}") from exc
        else:
            psi = GroupMap(g, g, tuple(_json_ints(images, "automorphism")), check=True)
            if not psi.is_bijective:
                raise StructuralError("provenance map is not bijective")
            provenance = (g, psi)
    q = make_quandle(sym, provenance=provenance)
    if q.size != size:
        raise StructuralError("declared size does not match table")
    if provenance is not None:
        g, psi = provenance
        if general_alexander(g, psi).sym != q.sym:
            raise StructuralError("provenance does not reproduce the table")
    return q
