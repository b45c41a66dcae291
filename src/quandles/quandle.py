"""Quandles as point-symmetry tables and the generalized Alexander construction.

A quandle is stored as the full table of its point symmetries:
``sym[x][y] = s_x(y)``.  The binary-operation view is ``x * y = s_y(x)``.
Generalized Alexander quandles Q(G, psi) carry their (group, automorphism)
provenance so the invariant machinery can reach the underlying group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import getitem

from .errors import CapacityError, ContractViolation, StructuralError
from .groups import (FiniteGroup, GroupMap, _closure, _composer, _int_rows, _json_int,
                     _json_ints, _json_object, _json_rows, _perm_order, generating_set)

# What is derived once per Q(G, psi) input: group table -> (psi images ->
# record, P members -> the P group that every input on the table shares).
# _record is the one place a record is made, a dict that holds the input's
# "rows" and their row_index, "index", for the life of the store; _kept is the
# one way in for every other fact.  A failed check stores nothing, so it fails
# again on every call.  Keying by table first lets twin groups share records
# and P groups.
_STORE: dict[tuple, tuple[dict, dict]] = {}


def _stored(g: FiniteGroup, psi: GroupMap) -> tuple[dict, dict]:
    """The store's (records, P groups) for G's table, once psi is known to be
    an automorphism of G, so a stored record never answers for another map.
    G keeps the entry with its store, so the table is hashed once per store."""
    psi.require_automorphism(g)
    if g._store is None or g._store[0] is not _STORE:
        g._store = _STORE, _STORE.setdefault(g.table, ({}, {}))
    return g._store[1]


def _kept(g: FiniteGroup, psi: GroupMap, key: str, make):
    """Q(g, psi)'s fact ``key``, made by ``make()`` on first use and kept in the
    record that _record makes; a ``make`` that raises keeps nothing."""
    rec = _record(g, psi)
    if (value := rec.get(key)) is None:
        value = rec[key] = make()
    return value


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
        if self.provenance is not None and general_alexander(*self.provenance).sym != rows:
            raise StructuralError("provenance does not reproduce the table")

    @classmethod
    def _trusted(cls, sym, provenance, index=None) -> Quandle:
        """A Quandle on n tuples of n ints, with None or their row_index: no check."""
        q = object.__new__(cls)
        q.__dict__.update(size=len(sym), sym=sym, provenance=provenance, _index=index)
        return q

    def is_general_alexander(self) -> bool:
        return self.provenance is not None

    def __repr__(self) -> str:
        tag = "" if self.provenance is None else f", Q({self.provenance[0].name},psi)"
        return f"Quandle(size={self.size}{tag})"


def row_index(q: Quandle) -> tuple[tuple, list[int]]:
    """(q's distinct rows, first seen first; each point's position of its row
    among them), made once per object from its own rows, kept on it, not as a field."""
    if q.__dict__.get("_index") is None:
        ids: dict[tuple, int] = {}
        rid = [ids.setdefault(r, len(ids)) for r in q.sym]
        q.__dict__["_index"] = tuple(ids), rid
    return q.__dict__["_index"]


def check_axioms(q: Quandle) -> list[tuple]:
    """All violations of (Q1') idempotence, (Q2') row bijectivity and
    (Q3') s_x . s_y = s_{s_x(y)} . s_x; empty list iff q is a quandle.

    (Q2) and each composition with a row run once per distinct row.  (Q3)
    is first checked only at the points S of ``_generating_points``.  That
    proves it at every point: with y |> z = s_y(z), (Q3) at x says s_x is
    an automorphism of |>, and s_{s_x(y)} = s_x s_y s_x^-1 for every y.  So
    the y with s_y in <s_S> contain S, are closed under <s_S> (s_x^-1 is a
    power of s_x) and hold each point with the row of one of them: by the
    choice of S, all of Q.  Each s_y is then a product of automorphisms,
    and (Q3) holds at y.  If the check fails at some x in S, every point is
    checked, so the violations listed are those of the full scan."""
    n, sym, full = q.size, q.sym, frozenset(range(q.size))
    distinct, rid = row_index(q)
    broken = [frozenset(r) != full for r in distinct]
    bad: list[tuple] = [("Q1", x) for x in range(n) if sym[x][x] != x]
    bad += [("Q2", x) for x in range(n) if broken[rid[x]]]
    # (Q3) at x: s_x r and r s_x once per distinct row r (after[i] composes
    # with distinct[i]), and each y compares the pair of s_y and s_{s_x(y)}
    after = list(map(_composer, distinct))
    if bad or all(after[a](sym[x]) == after[rid[x]](distinct[b])
                  for x in _generating_points(sym, rid)
                  for a, b in set(zip(rid, after[rid[x]](rid)))):
        return bad
    rows = list(map(_composer, sym))
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


def _generating_points(sym, rid) -> list[int]:
    """Points S whose orbits under the group <s_S> cover Q up to equal
    rows (``rid[x]`` is the id of x's row), chosen greedily: the least point
    whose row is not the row of a point of the orbits so far joins S."""
    points, ids = [], set()
    for x, i in enumerate(rid):
        if i not in ids:
            points.append(x)
            ids.update(map(rid.__getitem__, _closure([sym[p] for p in points], points)))
    return points


def make_quandle(sym, provenance=None) -> Quandle:
    return _checked(Quandle(len(sym), sym, provenance))


def _checked(q: Quandle) -> Quandle:
    if violations := check_axioms(q):
        raise StructuralError(f"not a quandle: {violations[:3]}")
    return q


def _translations(g: FiniteGroup, psi: GroupMap):
    """t_x = x psi(x)^-1 = s_x(e) for x = 0, 1, ..., so that s_x = L_{t_x} . psi:
    row x of the table at psi(x)^-1, one C-level map."""
    return map(getitem, g.table, _composer(psi.images)(g._inv))


def _record(g: FiniteGroup, psi: GroupMap) -> dict:
    """Q(G, psi)'s record, made on the first call for its (table, images): a psi
    multiplicative at G's generators is a homomorphism, with one row L_t psi per
    distinct translation t (an unchecked map that is not is refused), and the
    rows are stored once their axioms pass."""
    records = _stored(g, psi)[0]
    if (rec := records.get(psi.images)) is None:
        t, im, ids = g.table, psi.images, {}
        psi_of = _composer(im)  # row . psi: (row[psi(v)] over v)
        # psi(s b) = psi(s) psi(b) for all b at each generator s, which generate G as a monoid
        if not all(_composer(t[s])(im) == psi_of(t[im[s]]) for s in generating_set(g)):
            raise ContractViolation("map is not a homomorphism")
        rid = [ids.setdefault(u, len(ids)) for u in _translations(g, psi)]
        index = tuple(psi_of(t[u]) for u in ids), rid
        sym = tuple(map(index[0].__getitem__, rid))
        _checked(Quandle._trusted(sym, (g, psi), index))
        rec = records[im] = {"rows": sym, "index": index}
    return rec


def general_alexander(g: FiniteGroup, psi: GroupMap) -> Quandle:
    """Q(G, psi) with s_x(y) = x psi(x^-1 y): its record's rows and row index,
    under the caller's own (g, psi)."""
    rec = _record(g, psi)
    return Quandle._trusted(rec["rows"], (g, psi), rec["index"])


def trivial_quandle(n: int) -> Quandle:
    return make_quandle(tuple(tuple(range(n)) for _ in range(n)))


def quandle_order(q: Quandle) -> int:
    """ord(s_x), constant over x for homogeneous quandles."""
    orders = set(map(_perm_order, row_index(q)[0]))
    if len(orders) != 1:
        raise ContractViolation(
            f"point symmetries have non-constant orders {sorted(orders)}; "
            "the quandle is not homogeneous")
    return orders.pop()


def orbit_of(q: Quandle, start: int) -> frozenset[int]:
    if not 0 <= (start := _int_rows([[start]], "orbit start")[0][0]) < q.size:
        raise StructuralError(f"orbit start {start} out of range")
    return frozenset(_closure(row_index(q)[0], {start}))


def is_connected(q: Quandle) -> bool:
    """True iff the inner group acts transitively (orbits partition Q)."""
    return len(_closure(row_index(q)[0], {0})) == q.size


def subquandle(q: Quandle, members) -> tuple[Quandle, tuple[int, ...]]:
    """Re-indexed quandle on a symmetry-closed subset; returns (quandle, embedding)."""
    mem = tuple(sorted(set(_int_rows([members], "subquandle members")[0])))
    if mem and not 0 <= mem[0] <= mem[-1] < q.size:
        raise StructuralError(f"member {mem[0] if mem[0] < 0 else mem[-1]} out of range")
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
    provenance, prov = None, data.get("provenance")
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
    # with provenance, Quandle rebuilds the table, whose axioms general_alexander checked
    q = make_quandle(sym) if provenance is None else Quandle(len(sym), sym, provenance)
    if q.size != size:
        raise StructuralError("declared size does not match table")
    return q
