"""SHA-256 digests of the engine's fixed points, recorded before the
point-map search's per-node work was cut: every classification report up
to order 16, the boundary report, and the search's and decide's verdicts
on the pruned-search inputs.  A change that keeps every verdict, note and
first witness leaves each line as it is."""

import hashlib
import json
from pathlib import Path

from quandles.classify import boundary_report, classify_order
from quandles.iso import brute_force_iso, decide
from test_iso import _pruned_search_inputs

DIGESTS = Path(__file__).parent / "data" / "classify_digests.txt"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest_lines() -> list[str]:
    """One line per order (digest of the report's JSON, verdict-log length,
    witness count), then one each for the boundary report, the search's
    verdicts and decide's verdicts on the inputs with provenance."""
    lines = []
    for n in range(1, 17):
        report = classify_order(n, beyond_paper=n == 16)
        witnesses = sum("witness" in e["verdict"] for e in report.verdict_log)
        lines.append(f"order {n} {_sha(report.to_json())} {len(report.verdict_log)} {witnesses}")
    lines.append(f"boundary_report {_sha(json.dumps(boundary_report(), sort_keys=True))}")
    pairs = list(_pruned_search_inputs())
    searched = "\n".join(brute_force_iso(q1, q2).to_json() for q1, q2 in pairs)
    decided = "\n".join(decide(*q1.provenance, *q2.provenance).to_json()
                        for q1, q2 in pairs if q1.provenance and q2.provenance)
    return lines + [f"brute_force_iso {_sha(searched)}", f"decide {_sha(decided)}"]


def test_fixed_points_match_their_recorded_digests():
    assert _digest_lines() == DIGESTS.read_text().splitlines()
