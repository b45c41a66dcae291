"""Raw times of the paper's kernels as markdown rows: ``PYTHONPATH=src python tools/kernels.py``
from the repository root. Each function of REPORTS is one report, whose docstring says what it
times and why. They are reports, not gates; an exception in any, here or in a child, exits 1."""
import functools
import gc
import inspect
import json
import os
import subprocess
import sys
import tempfile
import timeit
import tracemalloc
import types
from itertools import product
from pathlib import Path
from time import perf_counter

from quandles import (FiniteGroup, Quandle, Subgroup, automorphism_conjugacy_classes,
                      automorphism_group, build, build_named, check_axioms, classify_order,
                      compute_P, compute_P2, general_alexander, groups_of_order, iso, quandle,
                      theorem13_iso, twisted_normalizer, verification, verify_quandle_witness)
from quandles.groups import automorphism_classes
from quandles.invariants import restrict_to_P

def row(text: str) -> None:
    print(text, end="  \n", flush=True)  # two trailing spaces end a markdown line

def best_of_7(label: str, kernel, inputs) -> None:
    """Print the least of seven single runs of kernel(*args) for each args of inputs(). As in
    ``python -m timeit -n 1 -r 7``, inputs() runs untimed before each run; gc is off in runs."""
    timer = timeit.Timer("for args in made: kernel(*args)", "made = inputs()", globals=locals())
    row(f"{label}: best of 7, {min(timer.repeat(7, 1)) * 1e3:.2f} ms")

def three_fresh_interpreters(body):
    """The report that runs body in each of three fresh interpreters, one at a time, with this
    one's executable, so that each run fills the package's caches anew."""
    code = (f"import sys; sys.path[0] = {str(Path(__file__).resolve().parent)!r}; "
            f"import kernels; kernels.{body.__name__}.__wrapped__()")
    @functools.wraps(body)
    def report():
        for _ in range(3):
            subprocess.run([sys.executable, "-c", code], check=True)
    return report

def timed(fn, log: list):
    """fn, logging (fn, args, seconds) for each call."""
    def run(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        log.append((fn, args, perf_counter() - start))
        return result
    return run

def automorphism_split_times():
    """automorphism_classes on fresh copies of C2^4, whose Aut, GL(4, 2) with 20,160 members, is
    the largest the catalog splits; of all 42 groups of order <= 16; of C3^3, whose Aut is
    GL(3, 3) on 27 points; and of A5, S5, SL23, S3xS3 and S4, which no workload splits in its
    timed section. The copies are made before each run, so each run splits new groups."""
    for label, groups in (
            ("automorphism_classes(C2xC2xC2xC2), fresh copy", [build_named("C2xC2xC2xC2")]),
            ("automorphism_classes over the 42 groups of order <= 16, fresh copies",
             [build(s) for n in range(1, 17) for s in groups_of_order(n)]),
            ("automorphism_classes(C3xC3xC3), fresh copy", [build_named("C3xC3xC3")]),
            ("automorphism_classes over A5, S5, SL23, S3xS3 and S4, fresh copies",
             list(map(build_named, ("A5", "S5", "SL23", "S3xS3", "S4"))))):
        best_of_7(label, automorphism_classes,
                  lambda groups=groups: [(FiniteGroup(g.table, check=False),) for g in groups])

def automorphism_split_memory():
    """What the class map of a fresh copy of C2^4 and of C3^3 keeps after automorphism_classes
    returns, and the peak while it runs, both by tracemalloc, in MiB. A full collection first
    empties the interpreter's free lists, whose objects tracemalloc would not see allocated."""
    for name in ("C2xC2xC2xC2", "C3xC3xC3"):
        g = FiniteGroup(build_named(name).table, check=False)
        gc.collect()
        tracemalloc.start()
        automorphism_classes(g)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        row(f"automorphism_classes({name}), fresh copy: kept {kept / 2**20:.2f} MiB,"
            f" peak {peak / 2**20:.2f} MiB")

def s5_classes():
    g = build_named("S5")
    return [(g, r) for r, _ in automorphism_conjugacy_classes(g)]

def axiom_check_time():
    """check_axioms over Q(S5, psi) for the seven Aut-class representatives psi, each quandle made
    without provenance from rows built in setup, so that only the check is timed."""
    best_of_7("check_axioms over the seven Q(S5, psi) class representatives", check_axioms,
              lambda: [(Quandle._trusted(general_alexander(g, r).sym, None),)
                       for g, r in s5_classes()])

def normalizer_and_subgroup_times():
    """twisted_normalizer on P and on P^2, and Subgroup made from their members, over Q(S5, psi)
    for the seven Aut-class representatives psi, with P and P^2 made in setup, so that only the
    normalizers or the closure checks are timed."""
    def p_and_p2():
        return [(g, r, h) for g, r in s5_classes() for h in (compute_P(g, r), compute_P2(g, r))]
    best_of_7("twisted_normalizer on P and P^2 over the seven Q(S5, psi) class representatives",
              twisted_normalizer, p_and_p2)
    best_of_7("Subgroup from the members of P and P^2 over the seven Q(S5, psi) class"
              " representatives", Subgroup, lambda: [(g, h.members) for g, _, h in p_and_p2()])

def kept_span_time():
    """compute_P and compute_P2 over Q(S5, psi) for the seven Aut-class representatives psi, with
    the P records of psi and of psi|P made in setup, so that only the Subgroups made from the
    records' kept spans are timed: no span and no closure proof runs."""
    def with_records():
        reps = s5_classes()
        for g, r in reps:
            compute_P2(g, r)
        return reps
    for fn in (compute_P, compute_P2):
        best_of_7(f"{fn.__name__} over the seven Q(S5, psi) class representatives, records kept",
                  fn, with_records)

def construction_time():
    """general_alexander over the Aut-class representatives of A5, S5, SL23, S3xS3 and S4: each run
    on a fresh store made in setup, so that every input's table is built and its axioms checked;
    then each run on the store that a first run filled, whose records keep every input's rows; and
    what such a store's records hold, by tracemalloc as automorphism_split_memory reads it."""
    def on_a_fresh_store():
        quandle._STORE = {}
        return [(g, r) for g in map(build_named, ("A5", "S5", "SL23", "S3xS3", "S4"))
                for r, _ in automorphism_conjugacy_classes(g)]
    best_of_7("general_alexander over the class representatives of A5, S5, SL23, S3xS3 and S4,"
              " fresh store", general_alexander, on_a_fresh_store)
    reps = on_a_fresh_store()
    for args in reps:
        general_alexander(*args)
    best_of_7("general_alexander over the same class representatives, on the store a first run"
              " filled", general_alexander, lambda: reps)
    quandle._STORE = {}
    gc.collect()
    tracemalloc.start()
    for args in reps:
        general_alexander(*args)
    kept = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    row(f"the store's records after general_alexander over the same class representatives:"
        f" {kept / 2**20:.2f} MiB")

def p_record_time():
    """restrict_to_P over Q(S5, psi) for the seven Aut-class representatives psi, each run on a
    fresh store made in setup, so that every P record is built from scratch: the input's record and
    axiom check, the translations' span, the orbit/span check, the row proof and the P group."""
    def on_a_fresh_store():
        reps, quandle._STORE = s5_classes(), {}
        return reps
    best_of_7("restrict_to_P over the seven Q(S5, psi) class representatives, fresh store",
              restrict_to_P, on_a_fresh_store)

def conjugate_profile_time():
    """cached_profile over every automorphism of S4, SL23 and S3xS3, each run on a fresh store made
    in setup, with their class maps built untimed, as the large-groups workload builds them: one
    profile per Aut(G)-class is computed, for its least member, which comes first in the sorted
    list, and every other member reads its class's."""
    def on_a_fresh_store():
        ins = [(g, psi) for g in map(build_named, ("S4", "SL23", "S3xS3"))
               for psi in automorphism_group(g)]
        quandle._STORE = {}
        return ins
    best_of_7("cached_profile over every automorphism of S4, SL23 and S3xS3, fresh store",
              iso.cached_profile, on_a_fresh_store)

def witness_check_time():
    """verify_quandle_witness from Q(G, rep) to Q(G, tau rep tau^-1) with witness tau, for each
    non-identity Aut-class representative rep of A5, S5, SL23, S3xS3 and S4 and one tau that moves
    it, with the quandles built in setup, as decide's are, so that only the checks are timed."""
    def conjugate_pairs():
        ins = [(g, r, next(t for t in reversed(automorphism_group(g, bound=128))
                           if r.conjugate_by(t) != r))
               for g in map(build_named, ("A5", "S5", "SL23", "S3xS3", "S4"))
               for r, _ in automorphism_conjugacy_classes(g, bound=128)[1:]]
        return [(general_alexander(g, r), general_alexander(g, r.conjugate_by(t)), t.images)
                for g, r, t in ins]
    best_of_7("verify_quandle_witness over the conjugate pairs of A5, S5, SL23, S3xS3 and S4",
              verify_quandle_witness, conjugate_pairs)

@three_fresh_interpreters
def decider_cross_validation_time():
    """claim_decider_cross_validation, which runs the point-map search and the structural routes on
    every same-order pair up to order 12, in three fresh interpreters."""
    log = []
    timed(verification.claim_decider_cross_validation, log)()
    row(f"claim_decider_cross_validation, fresh interpreter: {log[0][2]:.3f} s")

@three_fresh_interpreters
def claim_times():
    """The time of each of the ten claims of verification.ALL_CLAIMS during one run_all_claims(),
    whose claims share each order's report and pair maps, in three fresh interpreters."""
    log = []
    verification.ALL_CLAIMS = tuple(timed(claim, log) for claim in verification.ALL_CLAIMS)
    verification.run_all_claims()
    row("run_all_claims, fresh interpreter: "
        + ", ".join(f"{claim.__name__} {seconds:.3f} s" for claim, _, seconds in log))

@three_fresh_interpreters
def order16_search_time():
    """brute_force_iso over the pairs that classify_order(16, beyond_paper=True) searches, timed
    inside the classification (the pinned colorings it makes included, and counted) and then once
    more on the same pairs with each input's coloring kept, in three fresh interpreters."""
    search, searches, refines = iso.brute_force_iso, [], []
    iso.brute_force_iso, iso._refine = timed(search, searches), timed(iso._refine, refines)
    classify_order(16, beyond_paper=True)
    colorings, start = len(refines), perf_counter()
    for _, args, _ in searches:
        search(*args[:2])
    row(f"brute_force_iso over the {len(searches)} pairs of classify 16, fresh interpreter: "
        f"{sum(seconds for *_, seconds in searches):.3f} s in the classification"
        f" ({colorings} pinned colorings made), {perf_counter() - start:.3f} s again")

def theorem13_time():
    """theorem13_iso over the 3,231 ordered pairs of order-16 Aut-class representatives that it
    calls isomorphic, listed in setup, so that the Iso(P, P') listing and the witness are timed."""
    def isomorphic_pairs():
        reps = [(g, r) for g in map(build, groups_of_order(16))
                for r, _ in automorphism_conjugacy_classes(g)]
        return [(*a, *b) for a, b in product(reps, repeat=2)
                if theorem13_iso(*a, *b).result == iso.ISOMORPHIC]
    best_of_7("theorem13_iso over the isomorphic pairs of order-16 class representatives",
              theorem13_iso, isomorphic_pairs)

@three_fresh_interpreters
def cache_reload_time():
    """classify_order over orders 1..16 from a temporary cache that the same interpreter filled,
    untimed, just before, with the reload on a fresh store, as a new process starts; then again
    after one isomorphic witness of the order-16 file is broken, so that the file is rejected and
    order 16 classified twice: the reject path, which no workload times. Each reload's
    invariants.profile calls are counted. In three fresh interpreters."""
    calls, profile = [], iso.profile
    iso.profile = lambda *args: calls.append(args) or profile(*args)
    def reload(cache: str) -> tuple[float, int]:
        calls.clear()
        quandle._STORE, start = {}, perf_counter()
        for n in range(1, 17):
            classify_order(n, beyond_paper=n == 16, cache_dir=cache)
        return perf_counter() - start, len(calls)
    with tempfile.TemporaryDirectory() as cache:
        reload(cache)
        kept = reload(cache)
        path = next(Path(cache).glob("*order16-*"))
        data = json.loads(path.read_text())
        witness = next(e["verdict"]["witness"] for e in data["verdict_log"]
                       if e["verdict"]["result"] == iso.ISOMORPHIC)
        witness[0] = witness[1]  # no longer a bijection
        path.write_text(json.dumps(data))
        rejected = reload(cache)
    row("classify_order over orders 1..16 from a filled cache, fresh interpreter and store:"
        " {:.3f} s, {} profile calls; {:.3f} s, {} profile calls with one order-16 witness"
        " broken".format(*kept, *rejected))

def line_tracer(root: str, hits: set):
    """A sys.settrace function that adds (file, line) to hits for each line run in a file whose
    path starts with root, and for each call its first line; it leaves other frames untraced."""
    def local(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(root) else None
    return enter

def executable_lines(path: Path) -> set[int]:
    """The lines of the source file at path that hold bytecode, in any function, class or
    comprehension of it."""
    codes, lines = [compile(path.read_text(), str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines

SITECUSTOMIZE = """import atexit, json, sys, tempfile
{tracer}
hits = set()
sys.settrace(line_tracer({root!r}, hits))

@atexit.register
def write_hits():
    sys.settrace(None)
    with tempfile.NamedTemporaryFile("w", dir={out!r}, suffix=".hits", delete=False) as f:
        json.dump(sorted(hits), f)
"""

def never_run_lines():
    """The lines of src/quandles that one tier-1 run, at hypothesis seed 0, never executes: each
    module's never-run and executable counts, the total, then each line. A sitecustomize.py on a
    temporary PYTHONPATH installs line_tracer in pytest's interpreter and in every Python child a
    test starts, and each writes its hits at exit. Tracing makes tier-1 about 5x slower, so a test
    with a time bound may fail: pytest's summary line is printed, and failed tests do not fail
    the report. It takes minutes."""
    repo = Path(__file__).resolve().parents[1]
    package = repo / "src" / "quandles"
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            tracer=inspect.getsource(line_tracer), root=str(package), out=tmp))
        path = [tmp, str(repo / "src"), os.environ.get("PYTHONPATH")]
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0"], cwd=repo, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
        if run.returncode not in (0, 1):  # 1: some tests failed; any other code: none ran
            raise RuntimeError(f"traced tier-1 exited {run.returncode}:\n{run.stdout}{run.stderr}")
        hits = {tuple(hit) for f in Path(tmp).glob("*.hits") for hit in json.loads(f.read_text())}
    row(f"traced tier-1: {run.stdout.strip().splitlines()[-1]}")
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED", "ERROR")):
            row(f"traced tier-1: {line}")
    modules = [(path, executable_lines(path)) for path in sorted(package.glob("*.py"))]
    missed = [(path, len(lines), sorted(lines - {n for f, n in hits if f == str(path)}))
              for path, lines in modules]
    for path, count, lines in missed:
        row(f"{path.name}: {len(lines)} of {count} lines never run")
    row(f"src/quandles: {sum(len(lines) for *_, lines in missed)} of"
        f" {sum(count for _, count, _ in missed)} lines never run")
    for path, _, lines in missed:
        text = path.read_text().splitlines()
        for n in lines:
            row(f"`{path.name}:{n}`: `{text[n - 1].strip()}`")

REPORTS = (automorphism_split_times, automorphism_split_memory, axiom_check_time,
           construction_time, normalizer_and_subgroup_times, p_record_time, kept_span_time,
           conjugate_profile_time, witness_check_time, decider_cross_validation_time,
           claim_times, order16_search_time, theorem13_time, cache_reload_time,
           never_run_lines)

if __name__ == "__main__":
    for report in REPORTS:
        report()
