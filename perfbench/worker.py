"""One cold-process repetition of a benchmark workload.

    python3 perfbench/worker.py <mode> --seed N [--cache-dir DIR] [--spans FILE]

``perfbench/run.py`` starts one of these per repetition, so every repetition
pays for importing the package and filling its module-level caches, as a
command-line user does.  Modes are the four workloads plus ``cache-fill``
(the set-up step of ``cache-reload``) and ``selftest`` (the tracer coverage
check).  The timed section is the workload call alone; inputs are made
before it and every output is checked after it, from outside the package.
With ``--spans`` the timed section runs under the tracer, the per-layer
metrics are added to the result and the spans are written to FILE.

The last line of stdout is one JSON object with the wall time, the same
time at reference CPU speed (``speed.py``), peak resident memory and the
correctness tally of this repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import quandles as Q
from quandles import verification

from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent

# Class counts from the paper (Table 1, orders 1..15) and the order-16
# boundary result.
CLASS_COUNTS = {n: c for n, c in enumerate(
    (1, 1, 2, 3, 4, 3, 6, 9, 11, 5, 10, 11, 12, 7, 8, 29), start=1)}
CLAIM_COUNT = 10
LARGE_GROUPS = ("A5", "S5", "SL23", "S3xS3", "S4")
SEPARATION = "invariant-separation"

TIMED_LAYERS = (
    "catalog.build",
    "groups.automorphism_conjugacy_classes", "groups.automorphism_group",
    "groups.groups_isomorphic",
    "quandle.general_alexander", "quandle.check_axioms", "quandle.inner_group",
    "invariants.profile", "invariants.compute_P", "invariants.inn_structure",
    "invariants.transported_class", "invariants.group_descriptor",
    "iso.decide", "iso.brute_force_iso", "iso.theorem13_iso",
    "iso.abelian_decider", "iso.simple_group_decider",
    "iso.verify_quandle_witness", "iso.check_theorem39_properties",
    "labels.labels_for_pair",
    "classify.classify_order", "classify.boundary_report",
)
DECIDE_METHODS = ("brute-force", "theorem-1-3", SEPARATION,
                  "simple-group-conjugacy", "dihedral-formula",
                  "cyclic-formula", "abelian-nelson")


class Tally:
    """Operations attempted and failed, and decides that stayed undecided."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.decides = 0
        self.undecided = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def verdict(self, result: str) -> None:
        self.decides += 1
        self.undecided += result == "undecided"


def table_digest(report) -> str:
    return hashlib.sha256(Q.emit_table(report, "json").encode()).hexdigest()


def expected_digests() -> dict[str, str]:
    return json.loads((HERE / "expected.json").read_text())["table_digests"]


def fresh_quandle(g, images):
    return Q.general_alexander(g, Q.GroupMap(g, g, tuple(images)))


def witness_holds(q1, q2, verdict: dict) -> bool:
    witness = verdict.get("witness")
    return witness is not None and Q.verify_quandle_witness(q1, q2, witness)


def check_report(tally: Tally, report, digests: dict[str, str]) -> None:
    """Class count, table digest, every decide's witness, and that the
    classes are exactly the components of the isomorphic verdicts."""
    order = report.order
    tally.check(report.class_count == CLASS_COUNTS[order],
                f"order {order}: {report.class_count} classes, "
                f"expected {CLASS_COUNTS[order]}")
    tally.check(table_digest(report) == digests[str(order)],
                f"order {order}: classification table differs from the seed")
    groups = [Q.build(spec) for spec in Q.groups_of_order(order)]
    quandles = [fresh_quandle(groups[p.group_index], p.images) for p in report.pairs]
    parent = list(range(len(report.pairs)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for entry in report.verdict_log:
        verdict = entry["verdict"]
        if verdict["method"] == SEPARATION:
            continue
        left, right = entry["left"], entry["right"]
        tally.verdict(verdict["result"])
        if verdict["result"] == "isomorphic":
            if tally.check(witness_holds(quandles[left], quandles[right], verdict),
                           f"order {order}: witness {left}/{right} fails"):
                parent[find(right)] = find(left)
        else:
            tally.check(True, "decide")
    components: dict[int, list[int]] = {}
    for i in range(len(report.pairs)):
        components.setdefault(find(i), []).append(i)
    tally.check(sorted(components.values()) == sorted(map(sorted, report.classes)),
                f"order {order}: classes are not the isomorphism components")


# ---------------------------------------------------------------------------
# workloads: prepare (untimed) -> run (timed) -> check (untimed)
# ---------------------------------------------------------------------------

def run_order16(_inputs):
    return Q.classify_order(16, beyond_paper=True), Q.boundary_report()


def check_order16(_inputs, output, tally: Tally) -> None:
    report, boundary = output
    check_report(tally, report, expected_digests())
    g1 = Q.build_named("C2xQ8")
    q1 = Q.general_alexander(g1, Q.named_automorphism(g1, "right:psi_4"))
    g2 = Q.build_named("SD16")
    tally.check(bool(boundary["verdicts"]), "boundary report has no verdicts")
    for entry in boundary["verdicts"]:
        verdict = entry["verdict"]
        tally.verdict(verdict["result"])
        q2 = fresh_quandle(g2, entry["right_class_images"])
        tally.check(verdict["result"] == "isomorphic" and witness_holds(q1, q2, verdict),
                    f"boundary verdict {verdict['result']} without a valid witness")


def run_paper(_inputs):
    return verification.run_all_claims()


def check_paper(_inputs, results, tally: Tally) -> None:
    tally.check(len(results) == CLAIM_COUNT,
                f"{len(results)} claims, expected {CLAIM_COUNT}")
    for claim in results:
        tally.check(claim.ok, f"claim failed: {claim.name}")
    digests = expected_digests()
    for order in range(1, 16):
        check_report(tally, Q.classify_order(order), digests)


def prepare_large_groups(args):
    """For every non-identity Aut-class representative of each group: the
    representative against a conjugate by a seed-chosen automorphism
    (isomorphic, or undecided above capacity) and against the next class
    representative (not isomorphic)."""
    rng = random.Random(args.seed)
    pairs = []
    for name in LARGE_GROUPS:
        g = Q.build_named(name)
        auts = Q.automorphism_group(g, bound=128)
        reps = [rep for rep, _size in Q.automorphism_conjugacy_classes(g, bound=128)
                if rep.map_order() != 1]
        for i, rep in enumerate(reps):
            order = list(auts)
            rng.shuffle(order)
            conjugate = next(c for c in (rep.conjugate_by(tau) for tau in order)
                             if c.images != rep.images)
            pairs.append(("conjugate", g, rep, conjugate))
            pairs.append(("next-class", g, rep, reps[(i + 1) % len(reps)]))
    return pairs


def run_large_groups(pairs):
    out = []
    for _kind, g, psi1, psi2 in pairs:
        try:
            out.append(Q.decide(g, psi1, g, psi2))
        except Exception as exc:  # one failed decide must not hide the others
            out.append(exc)
    return out


def check_large_groups(pairs, verdicts, tally: Tally) -> None:
    for (kind, g, psi1, psi2), verdict in zip(pairs, verdicts):
        label = f"{g.name} {kind} {psi1.images[:6]}..."
        if isinstance(verdict, Exception):
            tally.check(False, f"{label}: {verdict!r}")
            continue
        tally.verdict(verdict.result)
        if kind == "next-class":
            tally.check(verdict.result == "not-isomorphic",
                        f"{label}: {verdict.result}, expected not-isomorphic")
        elif verdict.result == "isomorphic":
            q1, q2 = Q.general_alexander(g, psi1), Q.general_alexander(g, psi2)
            tally.check(witness_holds(q1, q2, verdict.to_json_dict()),
                        f"{label}: witness fails")
        else:
            tally.check(verdict.result == "undecided",
                        f"{label}: conjugate maps judged {verdict.result}")


def classify_cached(cache_dir: str):
    return [Q.classify_order(n, beyond_paper=n == 16, cache_dir=cache_dir)
            for n in CLASS_COUNTS]


def run_cache_fill(args):
    return classify_cached(args.cache_dir)


def check_cache_fill(args, reports, tally: Tally) -> None:
    """Counts and tables only: the reload re-verifies every witness stored
    in these files."""
    digests = expected_digests()
    for report in reports:
        tally.check(report.class_count == CLASS_COUNTS[report.order] and
                    table_digest(report) == digests[str(report.order)],
                    f"set-up: order {report.order} classification differs from the seed")
    partitions = {r.order: r.classes for r in reports}
    Path(args.cache_dir).with_suffix(".partitions.json").write_text(json.dumps(partitions))


def cache_state(cache_dir: str) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in sorted(Path(cache_dir).iterdir())}


def prepare_cache_reload(args):
    partitions = json.loads(Path(args.cache_dir).with_suffix(".partitions.json").read_text())
    return args.cache_dir, cache_state(args.cache_dir), partitions


def run_cache_reload(inputs):
    return classify_cached(inputs[0])


def check_cache_reload(inputs, reports, tally: Tally) -> None:
    cache_dir, before, partitions = inputs
    digests = expected_digests()
    for report in reports:
        check_report(tally, report, digests)
        tally.check(report.classes == partitions[str(report.order)],
                    f"order {report.order}: reloaded partition differs from set-up")
    tally.check(cache_state(cache_dir) == before,
                "cache files were rewritten, so the reload missed the cache")


def run_selftest(_inputs):
    plain = Q.classify_order(8)
    tracer = Tracer(Q)
    tracer.install()
    try:
        traced = Q.classify_order(8)
    finally:
        tracer.uninstall()
    return plain, traced, tracer.layer_times()["iso.decide"]["calls"]


def check_selftest(_inputs, output, tally: Tally) -> None:
    plain, traced, decide_calls = output
    logged = sum(1 for e in traced.verdict_log if e["verdict"]["method"] != SEPARATION)
    tally.check(decide_calls == logged,
                f"tracer saw {decide_calls} decides, the verdict log has {logged}")
    tally.check(traced.to_json() == plain.to_json(),
                "classify_order(8) differs with tracing on")


def no_inputs(_args):
    return None


WORKLOADS = {
    "order16": (no_inputs, run_order16, check_order16),
    "paper": (no_inputs, run_paper, check_paper),
    "large-groups": (prepare_large_groups, run_large_groups, check_large_groups),
    "cache-fill": (lambda args: args, run_cache_fill, check_cache_fill),
    "cache-reload": (prepare_cache_reload, run_cache_reload, check_cache_reload),
    "selftest": (no_inputs, run_selftest, check_selftest),
}


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    times = tracer.layer_times()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name in TIMED_LAYERS:
        row = times.get(name, zero)
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.s"] = row["s"]
        out[f"{name}.self_s"] = row["self_s"]
    for key in ("calls", "yielded"):
        out[f"groups.all_group_isomorphisms.{key}"] = \
            tracer.counts[f"groups.all_group_isomorphisms.{key}"]

    out["quandle.general_alexander.distinct_inputs"] = \
        len(tracer.inputs["quandle.general_alexander"])
    out["quandle.check_axioms.repeat_ratio"] = _ratio(
        out["quandle.check_axioms.calls"], len(tracer.inputs["quandle.check_axioms"]))

    cached = times.get("iso.cached_profile", zero)["calls"]
    misses = sum(1 for i, span in enumerate(tracer.spans)
                 if tracer.span_name(i) == "invariants.profile" and span[3] >= 0
                 and tracer.span_name(span[3]) == "iso.cached_profile")
    out["iso.cached_profile.calls"] = cached
    out["iso.cached_profile.hit_ratio"] = _ratio(cached - misses, cached)

    by_method = dict.fromkeys(DECIDE_METHODS, 0)
    undecided = in_classify = 0
    for index, (result, method) in tracer.verdicts.items():
        if result == "undecided":
            undecided += 1
        else:
            by_method[method] += 1
        in_classify += tracer.has_ancestor(index, "classify.classify_order")
    for method, count in by_method.items():
        out[f"iso.decide.by_method.{method}"] = count
    out["iso.decide.undecided"] = undecided
    out["iso.decide.in_classify"] = in_classify
    merged = sum(pairs - classes for pairs, classes, _entries in tracer.reports)
    out["iso.decide.merge_ratio"] = _ratio(merged, in_classify)

    for name in ("dihedral_iso_decider", "cyclic_iso_decider"):
        out[f"dihedral.{name}.calls"] = times.get(f"dihedral.{name}", zero)["calls"]
    out["classify.verdict_log.entries"] = sum(e for _p, _c, e in tracer.reports)
    for claim in verification.ALL_CLAIMS:
        out[f"verification.{claim.__name__}.s"] = \
            times.get(f"verification.{claim.__name__}", zero)["s"]
    out["trace.spans"] = len(tracer.spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir")
    parser.add_argument("--spans", help="trace the timed section; write spans here")
    args = parser.parse_args(argv)

    prepare, run, check = WORKLOADS[args.mode]
    tally = Tally()
    inputs = prepare(args)
    tracer = Tracer(Q) if args.spans else None
    if tracer is not None:
        tracer.install()
    probe = SpeedProbe()
    probe.start()
    start = perf_counter()
    try:
        output = run(inputs)
        error = None
    except Exception:  # reported as a failed operation, not a crash
        output, error = None, traceback.format_exc(limit=3)
    wall = perf_counter() - start
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        tally.check(False, f"{args.mode} raised: {error}")
    else:
        try:
            check(inputs, output, tally)
        except Exception:
            tally.check(False, f"checking {args.mode} raised: {traceback.format_exc(limit=3)}")

    result = {
        "wall_s": wall,
        "wall_norm_s": probe.normalise(wall),
        "speed_scale": probe.scale(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:5],
        "decides": tally.decides,
        "undecided": tally.undecided,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
