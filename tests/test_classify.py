import itertools
import json
from pathlib import Path

import pytest

from quandles import iso
from quandles.catalog import build, build_named, groups_of_order, named_automorphism
from quandles import classify
from quandles.classify import (ENGINE_VERSION, _classify_pairs, _pair_objects, _replayer,
                               boundary_pair, boundary_report, classify_group,
                               classify_order, closed_form_counts, emit_table)
from quandles.errors import CapacityError
from quandles.groups import GroupMap
from quandles.invariants import profile
from quandles.iso import (ISOMORPHIC, METHOD_BRUTE, METHOD_THM13, NOT_ISOMORPHIC,
                          UNDECIDED, brute_force_iso, theorem13_iso,
                          verify_quandle_witness)
from quandles.labels import label_class_images
from quandles.quandle import general_alexander

GOLDEN_TABLES = Path(__file__).parent / "data" / "tables.md"
EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 4, 6: 3, 7: 6, 8: 9,
                   9: 11, 10: 5, 11: 10, 12: 11, 13: 12, 14: 7, 15: 8}


@pytest.mark.parametrize("order", sorted(EXPECTED_COUNTS))
def test_class_counts(order):
    assert classify_order(order).class_count == EXPECTED_COUNTS[order]


def test_closed_form_counts():
    assert closed_form_counts(13) == 12
    assert closed_form_counts(2) == 1
    assert closed_form_counts(9) == 11
    assert closed_form_counts(4) == 3
    assert closed_form_counts(14) == 7
    for n in (1, 8, 12, 15, 16):
        assert closed_form_counts(n) is None


def test_order16_requires_flag():
    with pytest.raises(CapacityError):
        classify_order(16)
    with pytest.raises(CapacityError):
        classify_order(17, beyond_paper=True)


@pytest.mark.parametrize("order,beyond_paper", [(16, False), (17, True), (0, False), (-1, True)])
def test_order_is_refused_before_the_cache_directory_is_made(order, beyond_paper, tmp_path):
    cache = tmp_path / "cache"
    with pytest.raises(CapacityError):
        classify_order(order, beyond_paper, cache_dir=str(cache))
    assert not cache.exists()


def test_report_is_deterministic():
    a = classify_order(8).to_json()
    b = classify_order(8).to_json()
    assert a == b


def test_report_is_deterministic_across_processes():
    import subprocess
    import sys
    code = ("from quandles.classify import classify_order;"
            "print(classify_order(8).to_json())")
    runs = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True).stdout for _ in range(2)}
    assert len(runs) == 1
    assert runs.pop().strip() == classify_order(8).to_json()


def _pair_maps(report):
    # rebuilt from the report's images, without enumerating Aut classes again
    groups = [build(spec) for spec in groups_of_order(report.order)]
    return [(groups[p.group_index],
             GroupMap(groups[p.group_index], groups[p.group_index], p.images))
            for p in report.pairs]


def _assert_log_covers_every_pair(report):
    """Every pair (i, j) is separated by its recomputed profiles, or joined
    inside one class by logged isomorphic entries whose witnesses verify, or
    lies in two classes whose representatives have a logged not-isomorphic
    decide.  Each non-representative member has exactly one isomorphic
    entry, and its left side is the member's class representative."""
    maps = _pair_maps(report)
    quandles = [general_alexander(g, psi) for g, psi in maps]
    profiles = [profile(g, psi) for g, psi in maps]
    n = len(report.pairs)
    cls_of = {i: ci for ci, cls in enumerate(report.classes) for i in cls}
    rep_of = {i: report.classes[cls_of[i]][0] for i in range(n)}
    joined = {i: i for i in range(n)}
    not_iso = set()
    members = []
    for entry in report.verdict_log:
        i, j, v = entry["left"], entry["right"], entry["verdict"]
        assert v["method"] != "invariant-separation"
        if v["result"] == ISOMORPHIC:
            assert verify_quandle_witness(quandles[i], quandles[j], v["witness"])
            assert i == rep_of[j] != j
            members.append(j)
            joined[j] = i
        elif v["result"] == NOT_ISOMORPHIC:
            not_iso.add(frozenset((i, j)))
    assert sorted(members) == [i for i in range(n) if rep_of[i] != i]
    for i, j in itertools.combinations(range(n), 2):
        if profiles[i].separator_against(profiles[j]) is not None:
            assert cls_of[i] != cls_of[j]
        elif cls_of[i] == cls_of[j]:
            assert joined[i] == joined[j]
        else:
            assert frozenset((rep_of[i], rep_of[j])) in not_iso


def test_report_structure():
    report = classify_order(12)
    indices = sorted(i for cls in report.classes for i in cls)
    assert indices == list(range(len(report.pairs)))
    # every class is profile-homogeneous
    for cls in report.classes:
        assert len({report.profiles[i] for i in cls}) == 1
    _assert_log_covers_every_pair(report)


@pytest.fixture(scope="module")
def order16_report():
    return classify_order(16, beyond_paper=True)


def test_order16_report_structure(order16_report):
    assert order16_report.class_count == 29
    assert len(order16_report.verdict_log) == 140
    _assert_log_covers_every_pair(order16_report)


def test_tables_match_golden_file(order16_report):
    reports = [classify_order(n) for n in range(1, 16)] + [order16_report]
    assert "".join(map(emit_table, reports)) == GOLDEN_TABLES.read_text()


def test_order16_representatives_cross_checked(order16_report):
    # the classification decides only within profile buckets; here the class
    # representatives that share ord(psi) and |Fix| are decided again by the
    # search, and the structural criterion must agree wherever it applies
    maps = _pair_maps(order16_report)
    reps = [cls[0] for cls in order16_report.classes]
    checked = structural = 0
    for a, b in itertools.combinations(reps, 2):
        pa, pb = order16_report.profiles[a], order16_report.profiles[b]
        if (pa.psi_order, pa.fix_size) != (pb.psi_order, pb.fix_size):
            continue
        checked += 1
        bf = brute_force_iso(general_alexander(*maps[a]),
                             general_alexander(*maps[b]))
        assert bf.result == NOT_ISOMORPHIC
        t13 = theorem13_iso(*maps[a], *maps[b])
        if t13.result != UNDECIDED:
            structural += 1
            assert t13.result == bf.result
    assert (checked, structural) == (18, 16)


def test_partition_needs_a_separating_decide(monkeypatch):
    # no classification up to order 16 logs a non-isomorphic decide (its
    # classes all differ in profile), so the rule is shown on the order-8
    # pairs made to share one profile: the log replays, and without any one
    # of its not-isomorphic entries it is rejected
    groups, pairs, maps = _pair_objects(8)
    names = [g.name for g in groups]
    shared = classify.cached_profile(*maps[0])
    monkeypatch.setattr(classify, "cached_profile", lambda g, psi: shared)
    report = _classify_pairs(8, False, names, pairs, maps)
    assert sorted(report.classes) == sorted(classify_order(8).classes)
    log = report.verdict_log
    replayed = _classify_pairs(8, False, names, pairs, maps, _replayer(log))
    assert replayed.to_json() == report.to_json()
    separating = [k for k, e in enumerate(log) if e["verdict"]["result"] == NOT_ISOMORPHIC]
    assert len(separating) == 63
    for k in separating:
        dropped = log[:k] + log[k + 1:]
        assert _classify_pairs(8, False, names, pairs, maps, _replayer(dropped)) is None


def test_merge_witnesses_verify():
    report = classify_order(8)
    _groups, _pairs, maps = _pair_objects(8)
    quandles = [general_alexander(g, psi) for g, psi in maps]
    merges = 0
    for entry in report.verdict_log:
        v = entry["verdict"]
        if v["result"] == ISOMORPHIC:
            assert verify_quandle_witness(quandles[entry["left"]],
                                          quandles[entry["right"]],
                                          v["witness"])
            merges += 1
    assert merges > 0


def _class_rep_images(g, psi):
    from quandles.groups import automorphism_conjugacy_classes, automorphism_group
    auts = automorphism_group(g)
    orbit = {t.compose(psi).compose(t.inverse()).images for t in auts}
    for rep, _ in automorphism_conjugacy_classes(g):
        if rep.images in orbit:
            return rep.images
    raise AssertionError("class not found")


def test_prime_square_cross_merges():
    # exactly two cross-group classes at p^2: the trivial quandles and the
    # multiplier p+1 matched with the companion-matrix class
    for p, cyc, mat in ((2, "C4", "mat:0,1;1,0"), (3, "C9", "mat:0,2;1,2@3")):
        order = p * p
        report = classify_order(order)
        cross = [cls for cls in report.classes
                 if len({report.pairs[i].group_index for i in cls}) > 1]
        assert len(cross) == 2
        g1 = build_named(cyc)
        elem = build_named(f"C{p}xC{p}")
        pair_index = {(pr.group_name, pr.images): i
                      for i, pr in enumerate(report.pairs)}
        cls_of = {i: ci for ci, cls in enumerate(report.classes) for i in cls}
        trivial_cyc = pair_index[(cyc, tuple(range(order)))]
        trivial_elem = pair_index[(f"C{p}xC{p}", tuple(range(order)))]
        assert cls_of[trivial_cyc] == cls_of[trivial_elem]
        mul_rep = _class_rep_images(g1, named_automorphism(g1, f"mul:{p + 1}"))
        companion_rep = _class_rep_images(elem, named_automorphism(elem, mat))
        assert cls_of[pair_index[(cyc, mul_rep)]] == \
            cls_of[pair_index[(f"C{p}xC{p}", companion_rep)]]


def test_ref_labels_attached():
    report = classify_order(8)
    labelled = {lbl for p in report.pairs for lbl in p.ref_labels}
    assert "Q8_13" in labelled and "Q8_19" in labelled
    gname, images = label_class_images("Q8_13")
    match = [p for p in report.pairs
             if p.group_name == gname and p.images == images]
    assert len(match) == 1 and "Q8_13" in match[0].ref_labels


def test_emit_table_formats():
    report = classify_order(8)
    md = emit_table(report, "markdown")
    assert md.count("\n") >= 11 and "ord psi" in md and "9 classes" in md
    csv = emit_table(report, "csv")
    assert len(csv.strip().splitlines()) == 10  # header + 9 classes
    data = json.loads(emit_table(report, "json"))
    assert data["order"] == 8 and len(data["classes"]) == 9
    with pytest.raises(ValueError):
        emit_table(report, "latex")


def test_emit_table_trivial_order():
    rows = json.loads(emit_table(classify_order(1), "json"))["classes"]
    assert len(rows) == 1
    assert rows[0]["psi_order"] == 1 and rows[0]["fix_size"] == 1


def test_order4_merge_includes_cyclic_and_elementary():
    # Q(C4, x3) and the swap-class quandle on C2xC2 share one class: both
    # orbits are C2 with identity restriction, and the witness search finds
    # an explicit point map
    from quandles.iso import decide
    c4 = build_named("C4")
    c22 = build_named("C2xC2")
    v = decide(c4, named_automorphism(c4, "mul:3"),
               c22, named_automorphism(c22, "mat:0,1;1,0"))
    assert v.result == ISOMORPHIC and v.witness is not None


def test_classify_group():
    d4 = build_named("D4")
    rep = classify_group(d4)
    assert rep.class_count == 4 and rep.complete
    c222 = build_named("C2xC2xC2")
    assert classify_group(c222).class_count == 6
    c1 = build_named("C1")
    assert classify_group(c1).class_count == 1


def test_incomplete_report_is_flagged_and_bannered(monkeypatch):
    # the boundary pair shares every invariant and has no formula route, so
    # starving the search of capacity must yield a flagged partial report
    from quandles.classify import PairEntry

    g1, psi1, g2, reps = boundary_pair()
    pairs = [PairEntry(0, g1.name, 0, psi1.images),
             PairEntry(1, g2.name, 0, reps[0].images)]
    maps = [(g1, psi1), (g2, reps[0])]
    monkeypatch.setattr(iso, "DEFAULT_BRUTE_BOUND", 4)
    report = _classify_pairs(16, True, [g1.name, g2.name], pairs, maps)
    assert not report.complete and report.class_count == 2
    assert _classify_pairs(16, True, [g1.name, g2.name], pairs, maps, _replayer([])) is None
    assert any("incomplete" in n for n in report.notes)
    assert "INCOMPLETE" in emit_table(report, "markdown")
    assert emit_table(report, "csv").startswith("# INCOMPLETE")
    assert json.loads(emit_table(report, "json"))["complete"] is False
    monkeypatch.undo()
    full = _classify_pairs(16, True, [g1.name, g2.name], pairs, maps)
    assert full.complete and full.class_count == 1


def test_cache_round_trip(tmp_path):
    cache = str(tmp_path)
    first = classify_order(6, cache_dir=cache)
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and f"v{ENGINE_VERSION}" in files[0].name
    assert not any(f.name.endswith(".tmp") for f in files)
    second = classify_order(6, cache_dir=cache)
    assert second.to_json() == first.to_json()


def test_cache_rejects_tampered_witness(tmp_path):
    cache = str(tmp_path)
    first = classify_order(4, cache_dir=cache)
    path = next(tmp_path.iterdir())
    data = json.loads(path.read_text())
    for entry in data["verdict_log"]:
        if entry["verdict"]["result"] == ISOMORPHIC:
            w = entry["verdict"]["witness"]
            w[0] = w[1]  # no longer a bijection, cannot verify
            break
    path.write_text(json.dumps(data))
    again = classify_order(4, cache_dir=cache)
    assert again.class_count == first.class_count
    # the rewritten cache is valid again
    third = classify_order(4, cache_dir=cache)
    assert third.to_json() == first.to_json()


@pytest.mark.parametrize("tamper", [
    "singletons", "one-class-empty-log", "isomorphic-entry-removed",
    "isomorphic-entry-made-not-isomorphic", "isomorphic-entry-made-undecided",
    "left-index-a-string", "verdict-removed", "group-name-removed",
    "top-level-list", "forged-notes", "method-forged", "method-swapped",
    "isomorphic-entry-given-a-note", "not-utf-8", "entries-reordered",
    "entry-appended"])
def test_cache_partition_is_proved_again(tmp_path, tamper):
    cache = str(tmp_path)
    first = classify_order(8, cache_dir=cache)
    path = next(tmp_path.iterdir())
    data = json.loads(path.read_text())
    n = len(data["pairs"])
    log = data["verdict_log"]
    first_iso = next(k for k, e in enumerate(log)
                     if e["verdict"]["result"] == ISOMORPHIC)
    if tamper == "singletons":
        data["classes"] = [[i] for i in range(n)]
    elif tamper == "one-class-empty-log":
        data["classes"] = [list(range(n))]
        data["verdict_log"] = []
    elif tamper == "isomorphic-entry-removed":
        del log[first_iso]
    elif tamper == "isomorphic-entry-made-not-isomorphic":
        log[first_iso]["verdict"] = {"result": NOT_ISOMORPHIC, "method": "brute-force"}
    elif tamper == "isomorphic-entry-made-undecided":
        log[first_iso]["verdict"] = {"result": UNDECIDED, "method": "brute-force"}
    elif tamper == "left-index-a-string":
        log[0]["left"] = str(log[0]["left"])
    elif tamper == "verdict-removed":
        del log[0]["verdict"]
    elif tamper == "group-name-removed":
        del data["pairs"][0]["group_name"]
    elif tamper == "top-level-list":
        data = [data]
    elif tamper == "method-forged":
        log[first_iso]["verdict"]["method"] = "forged"
    elif tamper == "method-swapped":
        # a route name decide uses, but not the one it reports for this pair
        swapped = next(m for m in (METHOD_BRUTE, METHOD_THM13)
                       if m != log[first_iso]["verdict"]["method"])
        log[first_iso]["verdict"]["method"] = swapped
    elif tamper == "isomorphic-entry-given-a-note":
        log[first_iso]["verdict"]["note"] = "forged"
    elif tamper == "forged-notes":
        data["notes"] = ["forged"]
    elif tamper == "entries-reordered":
        log[0], log[1] = log[1], log[0]
    elif tamper == "entry-appended":
        log.append(_not_isomorphic_entry(first))
    if tamper == "not-utf-8":
        path.write_bytes(b"\xff\xfe")
    else:
        path.write_text(json.dumps(data))
    again = classify_order(8, cache_dir=cache)
    assert again.class_count == 9 and again.complete
    assert again.to_json() == first.to_json()
    if tamper in ("entries-reordered", "entry-appended"):
        assert path.read_text() == first.to_json()


def _not_isomorphic_entry(report):
    """A correct not-isomorphic entry for the first two class
    representatives of ``report``, which the classification never logs."""
    from quandles.iso import decide
    a, b = report.classes[0][0], report.classes[1][0]
    maps = _pair_objects(report.order)[2]
    verdict = decide(*maps[a], *maps[b]).to_json_dict()
    assert verdict["result"] == NOT_ISOMORPHIC
    return {"left": a, "right": b, "verdict": verdict}


def test_cache_rejects_a_correct_verdict_the_loop_does_not_log(tmp_path):
    cache = str(tmp_path)
    first = classify_order(8, cache_dir=cache)
    path = next(tmp_path.iterdir())
    data = json.loads(path.read_text())
    data["verdict_log"].append(_not_isomorphic_entry(first))
    path.write_text(json.dumps(data))
    again = classify_order(8, cache_dir=cache)
    assert again.to_json() == first.to_json()
    assert json.loads(path.read_text())["verdict_log"] == first.verdict_log


def test_aut_enumerated_once_per_group(monkeypatch, empty_store):
    # classification, reference labels and profiles share one stabilizer
    # chain of Aut(G) per group object; the groups are built afresh, so
    # their chains are built here and not by an earlier test
    from functools import lru_cache

    from quandles import catalog, groups, labels
    monkeypatch.setattr(catalog, "_build_cache", {})
    monkeypatch.setattr(labels, "resolve_label",
                        lru_cache(maxsize=None)(labels.resolve_label.__wrapped__))
    built = []
    real = groups._stabilizer_chain

    def recording(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(groups, "_stabilizer_chain", recording)
    classify_order(8)
    for label in labels.ALL_LABELS:
        label_class_images(label)
    for g, psi in _pair_objects(8)[2]:
        profile(g, psi)
    assert len({id(g) for g in built}) == len(built)
    assert {id(build(spec)) for spec in groups_of_order(8)} <= {id(g) for g in built}


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("QF_CACHE_DIR", str(tmp_path))
    classify_order(5)
    assert any("order5" in f.name for f in tmp_path.iterdir())


def test_boundary_pair_construction():
    g1, psi1, g2, reps = boundary_pair()
    assert g1.name == "C2xQ8" and g2.name == "SD16"
    assert psi1.map_order() == 3
    assert reps and all(r.map_order() == 3 for r in reps)


def test_boundary_report_is_decided_with_witness():
    br = boundary_report()
    assert br["beyond_paper"] is True
    assert br["verdicts"]
    for entry in br["verdicts"]:
        assert entry["profiles_agree"] is True
        v = entry["verdict"]
        assert v["result"] in ("isomorphic", "not-isomorphic")
        if v["result"] == "isomorphic":
            assert "witness" in v


def test_boundary_verdict_stable_under_relabelling():
    # independent confirmation of the boundary verdict: strip the group
    # provenance (so the search cannot pin the identity) and shuffle one
    # side's point labels; the unpinned search must reach the same result
    import random

    from quandles.iso import brute_force_iso
    from quandles.quandle import Quandle

    g1, psi1, g2, reps = boundary_pair()
    q1 = general_alexander(g1, psi1)
    for rep in reps:
        q2 = general_alexander(g2, rep)
        expected = brute_force_iso(q1, q2).result
        rng = random.Random(20240816)
        perm = list(range(q2.size))
        rng.shuffle(perm)
        inv = [0] * q2.size
        for i, v in enumerate(perm):
            inv[v] = i
        sym = tuple(tuple(perm[q2.sym[inv[x]][inv[y]]] for y in range(q2.size))
                    for x in range(q2.size))
        bare1 = Quandle(q1.size, q1.sym)
        bare2 = Quandle(q2.size, sym)
        v = brute_force_iso(bare1, bare2)
        assert v.result == expected
