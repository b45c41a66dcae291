"""The end-to-end claim suite behind ``verify-paper``.

Each claim re-derives one published result (classification counts, closed
forms, merge lists, invariant tables, formula/enumeration equivalences,
decider cross-validation, realization witnesses, structural theorems, the
order-16 boundary) and reports pass/fail with a short detail string.  The
pytest acceptance module drives exactly these claims.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .catalog import (build, build_named, cyclic, dihedral, groups_of_order,
                      named_automorphism, sl23_element_index)
from .dihedral import (DihedralAut, are_conjugate_dn, conjugacy_reps_aut_dn,
                       cyclic_iso_decider, cyclic_to_dihedral,
                       dihedral_iso_decider, fix_size_dn, p_subgroups_dn)
from .classify import (ClassificationReport, _pair_objects, boundary_pair,
                       boundary_report, classify_order, closed_form_counts)
from .groups import (GroupMap, _perm_inverse, automorphism_classes,
                     automorphism_conjugacy_classes, automorphism_group, fixed_subgroup,
                     groups_isomorphic, inner_automorphism, is_normal)
from .invariants import (compute_P, compute_P2, inn_structure,
                         restrict_to_P, transported_class, twisted_normalizer)
from .iso import (ISOMORPHIC, NOT_ISOMORPHIC, UNDECIDED, abelian_decider,
                  brute_force_iso, cached_profile, check_theorem39_properties,
                  decide, normalize_witness, theorem13_iso,
                  verify_quandle_witness)
from .labels import (DISPLAYED_MERGES_ORDER8, DISPLAYED_MERGES_ORDER12,
                     EXPECTED_ORDER8_PARTITION, EXPECTED_ORDER12_PARTITION,
                     resolve_label)
from .quandle import general_alexander

TABLE1_COUNTS = (1, 1, 2, 3, 4, 3, 6, 9, 11, 5, 10, 11, 12, 7, 8)


@dataclass
class ClaimResult:
    name: str
    ok: bool
    detail: str = ""


_reports: dict[int, ClassificationReport] | None = None  # set while run_all_claims runs


def _classify(order: int) -> ClassificationReport:
    """classify_order(order), made once per order within a run_all_claims call."""
    if _reports is None:
        return classify_order(order)
    if order not in _reports:
        _reports[order] = classify_order(order)
    return _reports[order]


def _claim(name):
    def wrap(fn):
        fn.claim_name = name
        return fn
    return wrap


# --- 1: classification counts ------------------------------------------------

@_claim("table-1 counts for orders 1..15")
def claim_table1() -> ClaimResult:
    got = tuple(_classify(n).class_count for n in range(1, 16))
    ok = got == TABLE1_COUNTS
    return ClaimResult(claim_table1.claim_name, ok, f"counts {got}")


# --- 2: closed forms ----------------------------------------------------------

@_claim("closed-form counts at primes, twice-primes and prime squares")
def claim_closed_forms() -> ClaimResult:
    checks = {2: 1, 3: 2, 5: 4, 7: 6, 11: 10, 13: 12,
              6: 3, 10: 5, 14: 7, 4: 3, 9: 11}
    bad = []
    for n, want in sorted(checks.items()):
        cf = closed_form_counts(n)
        got = _classify(n).class_count
        if cf != want or got != want:
            bad.append((n, cf, got, want))
    return ClaimResult(claim_closed_forms.claim_name, not bad, f"mismatches {bad}")


# --- 3: merge lists -----------------------------------------------------------

def _label_partition(report: ClassificationReport) -> set[frozenset[str]]:
    out = set()
    for cls in report.classes:
        labs = frozenset(l for i in cls for l in report.pairs[i].ref_labels)
        if labs:
            out.add(labs)
    return out


@_claim("order-8 and order-12 merge lists (exact partitions, verified witnesses)")
def claim_merge_lists() -> ClaimResult:
    problems = []
    for order, expected, displayed in (
            (8, EXPECTED_ORDER8_PARTITION, DISPLAYED_MERGES_ORDER8),
            (12, EXPECTED_ORDER12_PARTITION, DISPLAYED_MERGES_ORDER12)):
        report = _classify(order)
        if _label_partition(report) != set(expected):
            problems.append(f"order {order} partition differs")
            continue
        label_to_class = {}
        for ci, cls in enumerate(report.classes):
            for i in cls:
                for lbl in report.pairs[i].ref_labels:
                    label_to_class[lbl] = ci
        for a, b in displayed:
            if label_to_class[a] != label_to_class[b]:
                problems.append(f"{a} ~ {b} not merged")
        if not _merge_edges_witnessed(report):
            problems.append(f"order {order}: some merge lacks a verified witness")
    return ClaimResult(claim_merge_lists.claim_name, not problems, "; ".join(problems))


def _merge_edges_witnessed(report: ClassificationReport) -> bool:
    _groups, _pairs, maps = _pair_objects(report.order)
    quandles = [general_alexander(g, psi) for g, psi in maps]
    adjacency = {i: set() for i in range(len(report.pairs))}
    for entry in report.verdict_log:
        v = entry["verdict"]
        if v["result"] != ISOMORPHIC:
            continue
        i, j = entry["left"], entry["right"]
        if not verify_quandle_witness(quandles[i], quandles[j], v["witness"]):
            return False
        adjacency[i].add(j)
        adjacency[j].add(i)
    for cls in report.classes:
        seen = [cls[0]]
        for x in seen:  # seen grows as it is walked
            seen += [y for y in adjacency[x] if y in cls and y not in seen]
        if set(seen) != set(cls):
            return False
    return True


# --- 4: invariant tables ------------------------------------------------------

# label -> (psi order, fix size, P catalog name, name of psi|_P on that
# catalog group or None, p1, p2)
INVARIANT_TABLE_ROWS: dict[str, tuple] = {
    "Q8_1": (1, 8, "C1", "id", None, None),
    "Q8_2": (4, 2, "C2xC2", "mat:0,1;1,0", None, None),
    "Q8_3": (2, 4, "C2", "id", None, None),
    "Q8_4": (2, 4, "C2", "id", None, None),
    "Q8_5": (2, 4, "C2", "id", None, None),
    "Q8_6": (1, 8, "C1", "id", None, None),
    "Q8_7": (2, 4, "C2", "id", None, None),
    "Q8_8": (3, 2, "C2xC2", "mat:0,1;1,1", None, None),
    "Q8_9": (4, 2, "C2xC2", "mat:0,1;1,0", None, None),
    "Q8_10": (7, 1, "C2xC2xC2", None, None, None),
    "Q8_11": (7, 1, "C2xC2xC2", None, None, None),
    "Q8_12": (1, 8, "C1", "id", None, None),
    "Q8_13": (2, 2, "C4", "mul:3", None, None),
    "Q8_14": (2, 4, "C2", "id", None, None),
    "Q8_14b": (2, 4, "C2", "id", None, None),
    "Q8_15": (4, 4, "C4", "id", None, None),
    "Q8_16": (1, 8, "C1", "id", True, True),
    "Q8_17": (2, 4, "C2", "id", True, True),
    "Q8_18": (2, 2, "C4", "mul:3", True, True),
    "Q8_19": (3, 2, "Q8", None, True, False),
    "Q8_20": (4, 4, "C4", "id", True, True),
    "Q12_1": (1, 12, "C1", "id", None, None),
    "Q12_2": (2, 2, "C6", "mul:5", None, None),
    "Q12_3": (2, 4, "C3", "mul:2", None, None),
    "Q12_4": (2, 6, "C2", "id", None, None),
    "Q12_5": (3, 3, "C2xC2", "mat:0,1;1,1", None, None),
    "Q12_6": (6, 1, "C6xC2", None, None, None),
    "Q12_7": (1, 12, "C1", "id", None, None),
    "Q12_8": (2, 2, "C6", "mul:5", None, None),
    "Q12_9": (2, 4, "C3", "mul:2", None, None),
    "Q12_10": (2, 6, "C2", "id", None, None),
    "Q12_11": (3, 6, "C3", "id", None, None),
    "Q12_12": (6, 6, "C6", "id", None, None),
    "Q12_13": (1, 12, "C1", "id", True, True),
    "Q12_14": (2, 2, "C6", "mul:5", True, True),
    "Q12_15": (2, 4, "C3", "mul:2", True, True),
    "Q12_16": (2, 6, "C2", "id", True, True),
    "Q12_17": (3, 6, "C3", "id", True, True),
    "Q12_18": (6, 6, "C6", "id", True, True),
    "Q12_19": (1, 12, "C1", "id", True, True),
    "Q12_20": (2, 2, "A4", None, True, False),
    "Q12_21": (2, 4, "C2xC2", "id", True, True),
    "Q12_22": (3, 3, "C2xC2", "mat:0,1;1,1", True, True),
    "Q12_23": (4, 2, "A4", None, True, False),
}


@_claim("per-group invariant tables (ord, fix, P type, restricted class, flags)")
def claim_invariant_tables() -> ClaimResult:
    bad = []
    for label, (ordpsi, fix, pname, psip, p1, p2) in sorted(INVARIANT_TABLE_ROWS.items()):
        g, psi = resolve_label(label)
        prof = cached_profile(g, psi)
        if prof.psi_order != ordpsi or prof.fix_size != fix:
            bad.append(f"{label}: ord/fix {prof.psi_order},{prof.fix_size}")
            continue
        if prof.p_iso_type[3] != pname:
            bad.append(f"{label}: P type {prof.p_iso_type[3]} != {pname}")
            continue
        p_grp = build_named(pname)
        if psip is not None and prof.psi_restricted_class != transported_class(
                p_grp, named_automorphism(p_grp, psip)):
            bad.append(f"{label}: restricted class differs")
            continue
        if p1 is not None and prof.p1 != p1:
            bad.append(f"{label}: precondition-1 flag {prof.p1}")
        if p2 is not None and prof.p2 != p2:
            bad.append(f"{label}: precondition-2 flag {prof.p2}")
    return ClaimResult(claim_invariant_tables.claim_name, not bad, "; ".join(bad))


# --- 5: dihedral formulas vs enumeration --------------------------------------

@_claim("dihedral formulas agree with Cayley-table enumeration (n <= 8)")
def claim_dihedral_formulas() -> ClaimResult:
    bad = []
    for n in range(1, 9):
        g = build(dihedral(n))
        units = [a for a in range(n) if gcd(a, n) == 1] if n > 1 else [0]
        auts = [DihedralAut(n, a, b) for a in units for b in range(n)]
        maps = {x: x.as_group_map(g) for x in auts}
        for x, psi in maps.items():
            if fix_size_dn(x) != fixed_subgroup(psi).order:
                bad.append(f"fix n={n},a={x.a},b={x.b}")
            d, g2 = p_subgroups_dn(x)
            P = compute_P(g, psi)
            want_p = sorted({(d * j) % n for j in range(n // d)}) if n > 1 else [0]
            if list(P.members) != want_p:
                bad.append(f"P n={n},a={x.a},b={x.b}")
            P2 = compute_P2(g, psi)
            step = d * g2
            want_p2 = (sorted({(step * j) % n for j in range(max(1, n // step))})
                       if n > 1 else [0])
            if list(P2.members) != want_p2:
                bad.append(f"P2 n={n},a={x.a},b={x.b}")
        if n >= 3:
            class_of = automorphism_classes(g)
            classes = set(class_of.values())
            for x, y in itertools.combinations(maps, 2):
                formula = are_conjugate_dn(x, y)
                brute = class_of[maps[x].images] == class_of[maps[y].images]
                if formula != brute:
                    bad.append(f"conj n={n} {x} {y}")
            reps = conjugacy_reps_aut_dn(n)
            rep_imgs = {maps[r].images for r in reps}
            if len(reps) != len(classes) or len(rep_imgs) != len(classes):
                bad.append(f"reps n={n}")
            hit = {class_of[im] for im in rep_imgs}
            if hit != classes:
                bad.append(f"rep coverage n={n}")
    return ClaimResult(claim_dihedral_formulas.claim_name, not bad,
                       "; ".join(bad[:5]))


# --- 6: decider cross-validation ----------------------------------------------

@_claim("structural criterion and formula deciders agree with brute force (<= 12)")
def claim_decider_cross_validation() -> ClaimResult:
    pairs = (pair for n in range(1, 13)
             for pair in itertools.combinations(_pair_objects(n)[2], 2))
    bad = []
    checked = t13_count = 0
    for (g1, p1), (g2, p2) in pairs:
        checked += 1
        bf = brute_force_iso(general_alexander(g1, p1), general_alexander(g2, p2))
        t13 = theorem13_iso(g1, p1, g2, p2)
        if t13.result != UNDECIDED:
            t13_count += 1
            if t13.result != bf.result:
                bad.append(f"thm13 vs brute: {g1.name}/{g2.name}")
        if g1.is_abelian and g2.is_abelian:
            ab = abelian_decider(g1, p1, g2, p2)
            if ab.result != bf.result:
                bad.append(f"abelian vs brute: {g1.name}/{g2.name}")
    # dihedral and cyclic formula deciders on their own domains
    for n in range(1, 7):
        g = build(dihedral(n))
        units = [a for a in range(n) if gcd(a, n) == 1] if n > 1 else [0]
        auts = [DihedralAut(n, a, b) for a in units for b in range(n if n > 1 else 1)]
        for x, y in itertools.combinations(auts, 2):
            bf = brute_force_iso(general_alexander(g, x.as_group_map(g)),
                                 general_alexander(g, y.as_group_map(g)))
            if dihedral_iso_decider(x, y) != (bf.result == ISOMORPHIC):
                bad.append(f"dihedral formula n={n} {x} {y}")
    for n in range(1, 13):
        g = build(cyclic(n))
        units = [a for a in range(n) if gcd(a, n) == 1] if n > 1 else [1]
        for a, b in itertools.combinations(units, 2):
            qa = general_alexander(g, named_automorphism(g, f"mul:{a}"))
            qb = general_alexander(g, named_automorphism(g, f"mul:{b}"))
            bf = brute_force_iso(qa, qb)
            if cyclic_iso_decider(n, a, b) != (bf.result == ISOMORPHIC):
                bad.append(f"cyclic formula n={n} {a} {b}")
    detail = f"{checked} same-order pairs, {t13_count} decided structurally"
    if bad:
        detail += "; " + "; ".join(bad[:5])
    return ClaimResult(claim_decider_cross_validation.claim_name, not bad, detail)


# --- 7: realization of cyclic quandles inside dihedral groups ------------------

@_claim("every linear cyclic quandle of order 2n realizes dihedrally (n <= 8)")
def claim_cyclic_realization() -> ClaimResult:
    bad = []
    witnesses = []
    for n in range(1, 9):
        c2n = build(cyclic(2 * n))
        dn = build(dihedral(n))
        for a in range(1, 2 * n, 2):
            if gcd(a, 2 * n) != 1:
                continue
            target = cyclic_to_dihedral(n, a)
            psi1 = named_automorphism(c2n, f"mul:{a}") if 2 * n > 1 else \
                named_automorphism(c2n, "id")
            psi2 = target.as_group_map(dn)
            verdict = decide(c2n, psi1, dn, psi2)
            if verdict.result != ISOMORPHIC or verdict.witness is None:
                bad.append(f"n={n}, a={a}")
            else:
                witnesses.append((c2n, psi1, dn, psi2, verdict.witness))
    return ClaimResult(claim_cyclic_realization.claim_name, not bad,
                       f"{len(witnesses)} witnesses verified" +
                       ("; " + "; ".join(bad[:5]) if bad else ""))


# --- 8: structural theorems ----------------------------------------------------

@_claim("normality, orbit/span equality, inner-group structure, dichotomy")
def claim_structure() -> ClaimResult:
    bad = []
    for n in range(1, 13):
        for spec in groups_of_order(n):
            g = build(spec)
            for psi in automorphism_group(g):
                P = compute_P(g, psi)  # orbit/span comparison runs inside
                if not is_normal(g, P):
                    bad.append(f"P not normal in {g.name}")
                grp, restricted, embed = restrict_to_P(g, psi)
                if {psi.images[m] for m in embed} != set(embed):
                    bad.append(f"P not invariant in {g.name}")
                p2_local = compute_P(grp, restricted)
                if not is_normal(grp, p2_local):
                    bad.append(f"P2 not normal in P for {g.name}")
                tn = twisted_normalizer(g, psi, compute_P2(g, psi))
                pf = {g.table[p][f] for p in P.members
                      for f in fixed_subgroup(psi).members}
                if not pf <= tn.member_set():
                    bad.append(f"PF not inside TN for {g.name}")
                pm = P.member_set()
                if any(g.conj(a, x) not in pm
                       for a in tn.members for x in P.members):
                    bad.append(f"P not normal in TN for {g.name}")
    # Inn = P x| C_m, reps of order <= 12: inn_structure raises unless its
    # embedding of P x| C_m is onto Inn, so |Inn| = |P| * m
    for n in range(1, 13):
        for spec in groups_of_order(n):
            g = build(spec)
            for rep, _ in automorphism_conjugacy_classes(g):
                r = inn_structure(g, rep)
                if r.centerless_p and r.psi_p_inner != (r.direct_witness is not None):
                    bad.append(f"dichotomy fails on {g.name} {rep.images}")
    # the inner branch with nontrivial centerless P: S4 conjugation by a 3-cycle
    s4 = build_named("S4")
    three_cycle = next(i for i in range(s4.order)
                       if s4.element_order(i) == 3)
    psi = inner_automorphism(s4, three_cycle)
    r = inn_structure(s4, psi)
    if not (r.centerless_p and r.psi_p_inner and r.direct_witness is not None):
        bad.append("inner-branch case on S4 fails")
    # the centerless hypothesis is needed: SL(2,3) with conjugation by the
    # order-4 rotation has P = Q8, restricted map inner, yet Inn stays twisted
    sl = build_named("SL23")
    A = sl23_element_index(((0, 2), (1, 0)))
    psiA = inner_automorphism(sl, A)
    r = inn_structure(sl, psiA)
    grp, _, _ = restrict_to_P(sl, psiA)
    q8 = build_named("Q8")
    if groups_isomorphic(grp, q8) is None:
        bad.append("counterexample: P is not the quaternion group")
    if not (r.psi_p_inner and not r.centerless_p):
        bad.append("counterexample preconditions fail")
    if groups_isomorphic(r.semidirect, build_named("Q8xC2")) is not None:
        bad.append("counterexample: Inn is a direct product after all")
    return ClaimResult(claim_structure.claim_name, not bad, "; ".join(bad[:5]))


# --- 9: order-16 boundary -------------------------------------------------------

@_claim("order-16 boundary: the dihedral pair separates; the open pair is decided")
def claim_boundary() -> ClaimResult:
    bad = []
    d8 = build(dihedral(8))
    v = decide(d8, named_automorphism(d8, "phi:1,2"),
               d8, named_automorphism(d8, "phi:5,2"))
    if v.result != NOT_ISOMORPHIC or v.separator != "fix_size":
        bad.append(f"dihedral boundary: {v.result} separator={v.separator}")
    p1 = cached_profile(d8, named_automorphism(d8, "phi:1,2"))
    p2 = cached_profile(d8, named_automorphism(d8, "phi:5,2"))
    if (p1.fix_size, p2.fix_size) != (8, 4):
        bad.append(f"fix sizes {(p1.fix_size, p2.fix_size)}")
    br = boundary_report()
    if not br["verdicts"]:
        bad.append("no order-3 class on the twist side")
    for entry in br["verdicts"]:
        if not entry["profiles_agree"]:
            bad.append("boundary profiles unexpectedly separate")
        res = entry["verdict"]["result"]
        if res == UNDECIDED:
            bad.append("boundary verdict undecided")
        if res == ISOMORPHIC and "witness" not in entry["verdict"]:
            bad.append("boundary verdict lacks witness")
    detail = "; ".join(f"open pair: {e['verdict']['result']}" for e in br["verdicts"])
    if bad:
        detail = "; ".join(bad)
    return ClaimResult(claim_boundary.claim_name, not bad, detail)


# --- 10: witness structure -------------------------------------------------------

def _in_class_witnesses(report: ClassificationReport):
    """(i, j, witness Q_i -> Q_j) for every in-class pair i < j.  The log
    holds one isomorphic entry (rep, m) per non-representative member m; the
    other pairs get the composition w_rj o w_ri^-1."""
    from_rep = {}
    for entry in report.verdict_log:
        v = entry["verdict"]
        if v["result"] == ISOMORPHIC:
            from_rep[entry["right"]] = v["witness"]
    for cls in report.classes:
        for i, j in itertools.combinations(cls, 2):
            w_rj = from_rep[j]
            if i == cls[0]:
                yield i, j, tuple(w_rj)
                continue
            yield i, j, tuple(w_rj[x] for x in _perm_inverse(from_rep[i]))


@_claim("witness structure checks (i)-(iv) on every produced witness")
def claim_witness_structure() -> ClaimResult:
    bad = []
    total = 0
    for order in range(1, 16):
        report = _classify(order)
        _groups, _pairs, maps = _pair_objects(order)
        for i, j, witness in _in_class_witnesses(report):
            g1, psi1 = maps[i]
            g2, psi2 = maps[j]
            q2 = general_alexander(g2, psi2)
            if not verify_quandle_witness(general_alexander(g1, psi1), q2, witness):
                bad.append(f"order {order} pair {i}/{j}: composed witness fails")
                continue
            w = normalize_witness(q2, witness)
            rep = check_theorem39_properties(w, g1, psi1, g2, psi2)
            total += 1
            if not rep.ok:
                bad.append(f"order {order} pair {i}/{j}: {rep.clauses}")
    g1, psi1, g2, _ = boundary_pair()
    for entry in boundary_report()["verdicts"]:
        if entry["verdict"]["result"] != ISOMORPHIC:
            continue
        psi2 = GroupMap(g2, g2, tuple(entry["right_class_images"]), check=False)
        q2 = general_alexander(g2, psi2)
        w = normalize_witness(q2, entry["verdict"]["witness"])
        rep = check_theorem39_properties(w, g1, psi1, g2, psi2)
        total += 1
        if not rep.ok:
            bad.append("boundary witness fails the structure checks")
    return ClaimResult(claim_witness_structure.claim_name, not bad,
                       f"{total} witnesses checked" +
                       ("; " + "; ".join(bad[:3]) if bad else ""))


ALL_CLAIMS = (
    claim_table1,
    claim_closed_forms,
    claim_merge_lists,
    claim_invariant_tables,
    claim_dihedral_formulas,
    claim_decider_cross_validation,
    claim_cyclic_realization,
    claim_structure,
    claim_boundary,
    claim_witness_structure,
)


def run_all_claims() -> list[ClaimResult]:
    global _reports
    _reports = {}
    try:
        return [fn() for fn in ALL_CLAIMS]
    finally:
        _reports = None
