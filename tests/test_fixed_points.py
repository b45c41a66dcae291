"""SHA-256 digests of the engine's fixed points, recorded before the
point-map search's per-node work was cut: every classification report up
to order 16, the boundary report, and the search's and decide's verdicts
on the pruned-search inputs; the single-group classifications after them
were recorded before the search's pinned coloring became lazy.  A change
that keeps every verdict, note and first witness leaves each line as it
is.  Classifications of relabelled groups keep their classes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import quandles
from quandles.catalog import build, build_named, groups_of_order
from quandles.classify import boundary_report, classify_group, classify_order
from quandles.iso import brute_force_iso, decide
from test_iso import _pruned_search_inputs, _relabelled

DIGESTS = Path(__file__).parent / "data" / "classify_digests.txt"
# all but C2xQ8 above the cross-check size, where formula and structural
# routes decide without the search
SINGLE_GROUPS = ("C17", "C18", "C3xC6", "D9", "D10", "D11", "D12", "D13", "D14", "D15",
                 "D16", "Dic5", "Dic6", "Dic7", "Dic8", "C20", "C24", "C3xC3xC3", "S4",
                 "SL23", "S3xS3", "S4xC2", "A5", "S5", "C2xQ8", "C32")
# groups outside the catalog's orders 1..16, all but C2xQ8 above them
RELABELLED_OTHERS = ("C2xQ8", "C17", "C18", "C3xC6", "D9", "D12", "Dic5", "C20", "S4",
                     "SL23", "S3xS3", "A5")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest_lines() -> list[str]:
    """One line per order (digest of the report's JSON, verdict-log length,
    witness count), then one each for the boundary report, the search's
    verdicts and decide's verdicts on the inputs with provenance, then one
    line per single-group classification, as for an order."""
    lines = []
    for n in range(1, 17):
        lines.append(f"order {n} {_report_digest(classify_order(n, beyond_paper=n == 16))}")
    lines.append(f"boundary_report {_sha(json.dumps(boundary_report(), sort_keys=True))}")
    pairs = list(_pruned_search_inputs())
    searched = "\n".join(brute_force_iso(q1, q2).to_json() for q1, q2 in pairs)
    decided = "\n".join(decide(*q1.provenance, *q2.provenance).to_json()
                        for q1, q2 in pairs if q1.provenance and q2.provenance)
    lines += [f"brute_force_iso {_sha(searched)}", f"decide {_sha(decided)}"]
    lines += [f"classify_group {name} {_report_digest(classify_group(build_named(name)))}"
              for name in SINGLE_GROUPS]
    return lines


def _report_digest(report) -> str:
    witnesses = sum("witness" in e["verdict"] for e in report.verdict_log)
    return f"{_sha(report.to_json())} {len(report.verdict_log)} {witnesses}"


def test_fixed_points_match_their_recorded_digests():
    assert _digest_lines() == DIGESTS.read_text().splitlines()


def test_fixed_points_do_not_depend_on_the_hash_seed():
    # a fresh interpreter under another hash seed fills every cache anew
    paths = [str(Path(__file__).parent), str(Path(quandles.__file__).parents[1])]
    code = ("import sys; sys.path[:0] = " + repr(paths) + "\n"
            "from test_fixed_points import _digest_lines; print(*_digest_lines(), sep='\\n')")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONHASHSEED": "3"})
    assert run.stdout.splitlines() == DIGESTS.read_text().splitlines()


def _classes(report):
    """The complete flag, and each class's size with its representative's profile."""
    return report.complete, sorted(
        (len(cls), json.dumps(report.profiles[cls[0]].to_json_dict(), sort_keys=True))
        for cls in report.classes)


def test_relabelled_groups_classify_as_the_catalog_copy():
    # a relabelled copy has no spec, so the formula routes do not run on it
    # and its pairs reach the structural routes and the search instead
    groups = [build(spec) for n in range(1, 17) for spec in groups_of_order(n)]
    groups += [build_named(name) for name in RELABELLED_OTHERS]
    assert len(groups) == 54
    for g in groups:
        want = _classes(classify_group(g))
        for seed in (1, 2):
            h, _ = _relabelled(g, seed)
            assert h.spec is None and _classes(classify_group(h)) == want, (g.name, seed)
