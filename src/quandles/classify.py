"""Classification of all generalized Alexander quandles of a given order.

Pipeline: enumerate one automorphism per Aut-conjugacy class for every group
of the order (conjugate automorphisms give isomorphic quandles), bucket the
(group, class) pairs by their invariant profiles, and run the full decider
cascade of each pair against the class representatives already found in its
bucket; the pair joins the first one it is isomorphic to, or becomes a new
representative.  Bucketing is sound because every profile field is a quandle
isomorphism invariant.
"""

from __future__ import annotations

import json
import operator
import os
import tempfile
from dataclasses import dataclass, field

from .catalog import build, groups_of_order
from .errors import CapacityError, ContractViolation
from .groups import FiniteGroup, GroupMap, automorphism_conjugacy_classes
from .invariants import InvariantProfile, descriptor_display
from .iso import (ISOMORPHIC, UNDECIDED, IsoVerdict, cached_profile, decide,
                  isomorphic_method, verify_quandle_witness)
from .labels import labels_for_pair
from .quandle import general_alexander

ENGINE_VERSION = "1.1.0"
CACHE_ENV_VAR = "QF_CACHE_DIR"


@dataclass(frozen=True)
class PairEntry:
    """One (group, automorphism-class representative) construction."""

    group_index: int
    group_name: str
    class_index: int
    images: tuple[int, ...]
    ref_labels: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.group_name}#{self.class_index}"

    def to_json_dict(self) -> dict:
        return {"group_index": self.group_index, "group_name": self.group_name,
                "class_index": self.class_index, "images": list(self.images),
                "ref_labels": list(self.ref_labels)}


@dataclass
class ClassificationReport:
    order: int
    engine_version: str
    beyond_paper: bool
    group_names: list[str]
    pairs: list[PairEntry]
    profiles: list[InvariantProfile]
    classes: list[list[int]]
    verdict_log: list[dict]
    notes: list[str] = field(default_factory=list)
    complete: bool = True

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "engine_version": self.engine_version,
            "beyond_paper": self.beyond_paper,
            "group_names": list(self.group_names),
            "pairs": [p.to_json_dict() for p in self.pairs],
            "profiles": [p.to_json_dict() for p in self.profiles],
            "classes": [list(c) for c in self.classes],
            "verdict_log": self.verdict_log,
            "notes": list(self.notes),
            "class_count": self.class_count,
            "complete": self.complete,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _pair_objects(order: int):
    groups = [build(s) for s in groups_of_order(order)]
    return (groups, *_pair_list(groups))


def _pair_list(groups: list[FiniteGroup]):
    """One pair per (group, automorphism conjugacy class), with its maps."""
    pairs: list[PairEntry] = []
    maps: list[tuple[FiniteGroup, GroupMap]] = []
    for gi, g in enumerate(groups):
        for ci, (rep, _size) in enumerate(automorphism_conjugacy_classes(g)):
            refs = tuple(sorted(labels_for_pair(g.order, g.name, rep.images)))
            pairs.append(PairEntry(gi, g.name, ci, rep.images, refs))
            maps.append((g, rep))
    return pairs, maps


def _sort_key(profile: InvariantProfile, pair: PairEntry):
    return (profile.psi_order, profile.fix_size, profile.p_iso_type,
            pair.group_index, pair.images)


def classify_order(order: int, beyond_paper: bool = False,
                   cache_dir: str | None = None) -> ClassificationReport:
    """Classify every Q(G, psi) with |G| = order up to quandle isomorphism.
    The order is checked before the cache directory is read or made."""
    if order == 16 and not beyond_paper:
        raise CapacityError(
            "order 16 is outside the classified range; pass beyond_paper=True")
    if not 1 <= order <= 16:
        raise CapacityError(f"classification covers orders 1..16, got {order}")
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR) or None
    if cache_dir:
        _make_cache_dir(cache_dir)  # fail at once, not after classifying
    groups, pairs, maps = _pair_objects(order)
    names = [g.name for g in groups]
    log = _cached_log(order, beyond_paper, pairs, cache_dir) if cache_dir else None
    lent = _lent_witnesses(log)
    report = _classify_pairs(order, beyond_paper, names, pairs, maps, lent)
    if cache_dir and report.verdict_log != log:
        if lent:  # the file lends nothing, as its log is not the loop's
            report = _classify_pairs(order, beyond_paper, names, pairs, maps)
        _store_cache(report, cache_dir)
    return report


def classify_group(g: FiniteGroup) -> ClassificationReport:
    """Classification restricted to a single group's automorphism classes."""
    pairs, maps = _pair_list([g])
    return _classify_pairs(g.order, g.order > 15, [g.name], pairs, maps)


def _entry(maps: list[tuple[FiniteGroup, GroupMap]], left: int, right: int,
           lent: dict) -> dict:
    """The verdict-log entry of pairs ``left`` and ``right``: isomorphic by
    their witness in ``lent``, which _classify_pairs has verified, with the
    method ``decide`` would report and no note, else what ``decide`` gives."""
    if (witness := lent.get((left, right))) is not None:
        verdict = IsoVerdict(ISOMORPHIC, isomorphic_method(*maps[left], *maps[right]),
                             witness=witness)
    else:
        verdict = decide(*maps[left], *maps[right])
    return {"left": left, "right": right, "verdict": verdict.to_json_dict()}


def _classify_pairs(order: int, beyond_paper: bool, group_names: list[str],
                    pairs: list[PairEntry], maps: list[tuple[FiniteGroup, GroupMap]],
                    lent: dict | None = None) -> ClassificationReport:
    """Decide each pair against the representatives of its profile bucket,
    trying the witness ``lent`` maps (representative, pair) to first.  Each
    lent witness is verified once, here, and kept only if it does and its
    keys are ints with 0 <= left < right < len(maps); a pair that a kept
    witness maps onto takes its left pair's profile, made first as left is
    less, as every profile field is a quandle isomorphism invariant."""
    lent = {(a, b): w for (a, b), w in (lent or {}).items()
            if isinstance(a, int) and isinstance(b, int) and 0 <= a < b < len(maps)
            and verify_quandle_witness(general_alexander(*maps[a]),
                                       general_alexander(*maps[b]), w)}
    sources = {b: maps[a] for a, b in lent}
    profiles = [cached_profile(g, psi, sources.get(i)) for i, (g, psi) in enumerate(maps)]
    verdict_log: list[dict] = []
    # pairs are visited in index order, so each class is sorted and its
    # representative is its first member
    buckets: dict[InvariantProfile, list[list[int]]] = {}
    for i, prof in enumerate(profiles):
        bucket = buckets.setdefault(prof, [])
        for cls in bucket:
            entry = _entry(maps, cls[0], i, lent)
            verdict_log.append(entry)
            if entry["verdict"]["result"] == ISOMORPHIC:
                cls.append(i)
                break
        else:
            bucket.append([i])
    classes = sorted((cls for bucket in buckets.values() for cls in bucket),
                     key=lambda cls: _sort_key(profiles[cls[0]], pairs[cls[0]]))
    undecided = sum(e["verdict"]["result"] == UNDECIDED for e in verdict_log)
    notes = []
    if undecided:
        notes.append(f"incomplete: {undecided} pair(s) above capacity remain "
                     "undecided; the partition treats them as distinct")
    if order == 16 and beyond_paper:
        notes.append("order 16 output is beyond the classified range; see the "
                     "boundary report for the undecidable-by-invariants pair")
    return ClassificationReport(
        order=order, engine_version=ENGINE_VERSION, beyond_paper=beyond_paper,
        group_names=group_names, pairs=pairs, profiles=profiles,
        classes=classes, verdict_log=verdict_log, notes=notes,
        complete=undecided == 0)


def closed_form_counts(n: int) -> int | None:
    """|classes| by the closed forms: p - 1 for prime p, p for twice an odd
    prime, 2p^2 - 2p - 1 for p squared; None for other shapes."""
    def is_prime(k: int) -> bool:
        return k >= 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))

    if is_prime(n):
        return n - 1
    for p in range(2, n):
        if p * p == n and is_prime(p):
            return 2 * p * p - 2 * p - 1
    if n % 2 == 0 and is_prime(n // 2) and n // 2 > 2:
        return n // 2
    return None


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------

def _psi_p_display(profile: InvariantProfile) -> str:
    kind = profile.psi_restricted_class[0]
    if kind == "fallback":
        return f"ord{profile.psi_restricted_class[1]}"
    name, images = profile.psi_restricted_class[1], profile.psi_restricted_class[2]
    if images == tuple(range(len(images))):
        return "id"
    if name.startswith("C") and "x" not in name and name[1:].isdigit():
        return f"x{images[1]}"
    return "(" + " ".join(map(str, images)) + ")"


def emit_table(report: ClassificationReport, fmt: str = "markdown") -> str:
    """Rows, one per quandle class: ord(psi), |Fix|, the type of P, the class
    of psi restricted to P, the precondition flags, members and reference
    labels.  Deterministic ordering."""
    rows = []
    for idx, cls in enumerate(report.classes, start=1):
        prof = report.profiles[cls[0]]
        members = [report.pairs[i].label for i in cls]
        refs = sorted({lbl for i in cls for lbl in report.pairs[i].ref_labels})
        rows.append({
            "row": idx,
            "psi_order": prof.psi_order,
            "fix_size": prof.fix_size,
            "p_type": descriptor_display(prof.p_iso_type),
            "psi_on_p": _psi_p_display(prof),
            "p1": prof.p1,
            "p2": prof.p2,
            "members": members,
            "refs": refs,
        })
    banner = (None if report.complete else
              "INCOMPLETE CLASSIFICATION: some pairs exceeded capacity and "
              "remain undecided; class boundaries are not certified")
    if fmt == "json":
        payload = {"order": report.order, "classes": rows,
                   "complete": report.complete}
        if banner:
            payload["banner"] = banner
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt == "csv":
        lines = ["row,psi_order,fix_size,p_type,psi_on_p,p1,p2,members,refs"]
        if banner:
            lines.insert(0, f"# {banner}")
        lines += [",".join(_cells(r, ";")) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt in ("md", "markdown"):
        head = (f"| # | ord psi | Fix | P | psi|P | P1 | P2 | members | refs |\n"
                f"|---|---------|-----|---|-------|----|----|---------|------|")
        lines = [f"Classification of generalized Alexander quandles of order "
                 f"{report.order}: {report.class_count} classes", "", head]
        if banner:
            lines.insert(1, f"**{banner}**")
        lines += ["| " + " | ".join(_cells(r, ", ")) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _cells(row: dict, sep: str) -> list[str]:
    """A table row's cells as text, the flags as T/F, lists joined by ``sep``."""
    return [*(str(row[k]) for k in ("row", "psi_order", "fix_size", "p_type", "psi_on_p")),
            *("T" if row[k] else "F" for k in ("p1", "p2")),
            *(sep.join(row[k]) for k in ("members", "refs"))]


# ---------------------------------------------------------------------------
# the order-16 boundary pair
# ---------------------------------------------------------------------------

def boundary_pair():
    """The two order-16 constructions whose comparison needs the search:
    C2 x Q8 with the order-3 map lifted from the quaternion factor, and the
    twist group SD16 with an order-3 automorphism."""
    from .catalog import build_named, named_automorphism
    g1 = build_named("C2xQ8")
    psi1 = named_automorphism(g1, "right:psi_4")
    g2 = build_named("SD16")
    reps = [rep for rep, _ in automorphism_conjugacy_classes(g2)
            if rep.map_order() == 3]
    return g1, psi1, g2, reps


def boundary_report() -> dict:
    """Beyond-paper verdicts for the order-16 boundary pair, one per order-3
    class of the twist group, each with a verified witness when isomorphic."""
    g1, psi1, g2, reps = boundary_pair()
    out = {"left": {"group": g1.name, "automorphism": "right:psi_4"},
           "right_group": g2.name, "beyond_paper": True, "verdicts": []}
    for rep in reps:
        verdict = decide(g1, psi1, g2, rep)
        prof1 = cached_profile(g1, psi1)
        prof2 = cached_profile(g2, rep)
        out["verdicts"].append({
            "right_class_images": list(rep.images),
            "profiles_agree": prof1.separator_against(prof2) is None,
            "verdict": verdict.to_json_dict(),
        })
    return out


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def _cache_path(order: int, beyond_paper: bool, cache_dir: str) -> str:
    suffix = "-beyond" if beyond_paper else ""
    return os.path.join(cache_dir,
                        f"classification-order{order}{suffix}-v{ENGINE_VERSION}.json")


def _unusable_cache_dir(cache_dir: str, exc: OSError) -> ContractViolation:
    """A path that cannot be made a directory, such as a file, or one that
    cannot be written is the caller's error."""
    return ContractViolation(f"unusable cache directory {cache_dir!r}: {exc}")


def _make_cache_dir(cache_dir: str) -> None:
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        raise _unusable_cache_dir(cache_dir, exc) from exc


def _store_cache(report: ClassificationReport, cache_dir: str) -> None:
    """Write through a temp file in the same directory and rename it, so a
    reader never sees a partly written cache file."""
    try:
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    except OSError as exc:
        raise _unusable_cache_dir(cache_dir, exc) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        os.replace(tmp, _cache_path(report.order, report.beyond_paper, cache_dir))
    except BaseException:
        os.unlink(tmp)
        raise


def _cached_log(order: int, beyond_paper: bool, pairs: list[PairEntry],
                cache_dir: str):
    """The verdict log of the order's cache file, of any shape; None when
    there is no file, it is not UTF-8 JSON, or it is not an object naming
    this engine version, this order and exactly these pairs."""
    try:
        with open(_cache_path(order, beyond_paper, cache_dir), encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if (isinstance(data, dict) and data.get("engine_version") == ENGINE_VERSION
            and data.get("order") == order
            and data.get("pairs") == [p.to_json_dict() for p in pairs]):
        return data.get("verdict_log")
    return None


def _lent_witnesses(log) -> dict[tuple[int, int], tuple[int, ...]]:
    """The witnesses of ``log``'s isomorphic entries, keyed by (left, right);
    an entry that raises TypeError or KeyError while it is read is skipped."""
    lent = {}
    for entry in log if isinstance(log, list) else ():
        try:
            if entry["verdict"]["result"] == ISOMORPHIC:
                lent[entry["left"], entry["right"]] = tuple(
                    map(operator.index, entry["verdict"]["witness"]))
        except (TypeError, KeyError):
            pass
    return lent
