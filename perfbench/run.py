"""Benchmark of the quandles package: cold-process workloads with checked
outputs, end-to-end metrics, and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload order16 --seed 1 --seconds 8 --trace 0

Every repetition is a fresh single-threaded interpreter started by this
script (``worker.py``), one process at a time, so every repetition pays for
filling the package's module-level caches as a command-line user does.
The script and its children are pinned to one CPU, and every time is
reported at reference CPU speed (``speed.py``), which takes out most of the
shared host's speed drift.
``--trace 0`` measures untraced repetitions until ``--seconds`` have passed
(at least one) and reports the end-to-end metrics; ``--trace 1`` runs one
untraced repetition, the tracer self-test and two traced repetitions and
reports the per-layer metrics.  The metric names and units are those of ``BENCHMARK.json``.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See ``perfbench/README.md`` for the workloads and what each metric should
move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("order16", "paper", "large-groups", "cache-reload")
IMPORT_PROBES = 9
SPEED_SAMPLES = 5
RUN_LIMIT_S = 170.0
EXACT_UNITS = ("count", "bytes")


class Runner:
    """Starts the child processes of one benchmark run and sums their tallies."""

    def __init__(self, seed: int, deadline: float):
        self.seed = seed
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "QF_CACHE_DIR"}
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.attempted = self.failed = self.decides = self.undecided = 0

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAIL {what}")

    def spawn(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        remaining = self.deadline - monotonic()
        if remaining < 1.0:
            raise RuntimeError(f"no time left to start {argv[1:3]}")
        start = perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError(f"{argv[1:3]} passed the run deadline") from exc
        return proc, perf_counter() - start

    def import_seconds(self) -> float:
        """Median time at reference speed of a fresh interpreter that imports
        the package, after one discarded start that writes the bytecode
        cache.  The speed is sampled right before and right after each start,
        on the CPU the child shares with this process."""
        times = []
        for _ in range(IMPORT_PROBES + 1):
            before = [speed.sample() for _ in range(SPEED_SAMPLES)]
            proc, elapsed = self.spawn([sys.executable, "-c", "import quandles"])
            after = [speed.sample() for _ in range(SPEED_SAMPLES)]
            if proc.returncode != 0:
                raise RuntimeError(f"importing quandles failed:\n{proc.stderr}")
            times.append(elapsed * speed.reference_scale(before + after))
        return statistics.median(times[1:])

    def worker(self, mode: str, *extra: str) -> dict | None:
        argv = [sys.executable, str(WORKER), mode, "--seed", str(self.seed), *extra]
        proc, _elapsed = self.spawn(argv)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            self.fail(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.decides += result["decides"]
        self.undecided += result["undecided"]
        for what in result["failures"]:
            print(f"FAIL {mode}: {what}")
        print(f"rep {mode}: wall_s={result['wall_s']:.4f} "
              f"wall_norm_s={result['wall_norm_s']:.4f} "
              f"speed_scale={result['speed_scale']:.3f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f} "
              f"ops={result['attempted']} failed={result['failed']}")
        return result


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "pinned_cpu": sorted(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit, "PYTHONHASHSEED": "0"}


def measure(args, runner: Runner, scratch: Path) -> tuple[dict, dict, list[dict]]:
    """Return the end-to-end values, the per-layer values and the traced
    repetitions of one run."""
    setup_s = runner.import_seconds()
    extra: list[str] = []
    cache_bytes = 0
    if args.workload == "cache-reload":
        cache_dir = scratch / "cache"
        fill = runner.worker("cache-fill", "--cache-dir", str(cache_dir))
        if fill is None:
            raise RuntimeError("the cache set-up step failed")
        setup_s += fill["wall_norm_s"]
        cache_bytes = sum(p.stat().st_size for p in cache_dir.iterdir())
        extra = ["--cache-dir", str(cache_dir)]

    # A traced run needs one untraced repetition, as the overhead baseline.
    untraced: list[dict] = []
    start = monotonic()
    while not untraced or (not args.trace and monotonic() - start < args.seconds):
        result = runner.worker(args.workload, *extra)
        if result is None:
            break
        untraced.append(result)
    if not untraced:
        raise RuntimeError(f"no {args.workload} repetition completed")

    traced: list[dict] = []
    if args.trace:
        runner.worker("selftest")
        spans_dir = ROOT / ".bench_build" / "perfbench" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        for rep in (1, 2):
            spans = spans_dir / f"{args.workload}-rep{rep}.jsonl.gz"
            result = runner.worker(args.workload, *extra, "--spans", str(spans))
            if result is not None:
                traced.append(result)
        if not traced:
            raise RuntimeError(f"no traced {args.workload} repetition completed")

    def median_of(key: str, results: list[dict]) -> float:
        return statistics.median(r[key] for r in results)

    wall_norm_s = median_of("wall_norm_s", untraced)
    end_to_end = {
        "wall_norm_s": wall_norm_s,
        "setup_s": setup_s,
        "peak_rss_mb": median_of("peak_rss_mb", untraced),
        "success_ratio": 1.0 - runner.failed / max(runner.attempted, 1),
        "decided_ratio": 1.0 - runner.undecided / runner.decides if runner.decides else 1.0,
    }
    per_layer = {}
    if traced:
        per_layer = dict(traced[0]["layers"])
        for name in per_layer:
            values = [r["layers"][name] for r in traced]
            per_layer[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        per_layer["trace.overhead_s"] = median_of("wall_norm_s", traced) - wall_norm_s
        per_layer["classify.cache_bytes"] = cache_bytes
    return end_to_end, per_layer, traced


def check_repeats(runner: Runner, traced: list[dict], units: dict[str, str]) -> None:
    """Counts must repeat exactly between the two traced repetitions."""
    if len(traced) != 2:
        runner.fail("fewer than two traced repetitions completed")
        return
    first, second = (r["layers"] for r in traced)
    for name, value in first.items():
        if units.get(name) not in EXACT_UNITS:
            continue
        if value == second[name]:
            runner.attempted += 1
        else:
            runner.fail(f"{name} differs between traced runs: {value} vs {second[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quandles" / "__init__.py").is_file():
        print(f"no quandles package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("environment " + json.dumps(environment(), sort_keys=True))
    runner = Runner(args.seed, monotonic() + RUN_LIMIT_S)
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        end_to_end, per_layer, traced = measure(args, runner, scratch)
        if args.trace:
            check_repeats(runner, traced, units)
            per_layer["failed_ratio"] = runner.failed / max(runner.attempted, 1)
            per_layer["undecided_ratio"] = runner.undecided / max(runner.decides, 1)
    except RuntimeError as exc:
        print(f"run did not complete: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values = per_layer if args.trace else end_to_end
    if set(values) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(f"failed_ratio = {runner.failed}/{runner.attempted}; "
          f"undecided_ratio = {runner.undecided}/{runner.decides}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
