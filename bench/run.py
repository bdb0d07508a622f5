"""Benchmark entry point: one workload per process.

    python3 bench/run.py --workload desk --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced set-up and repeat, and the spans go to
.bench_runs/traces/.  Exit status 0 means every output check passed; 2
means the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# OpenBLAS would start a thread per core for every matmul; on a 2-core box
# those threads contend with each other and with neighbours.  The limit
# must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk", "wide", "screen")
SETUP_REPEATS = 3
MIN_REPEATS = 2  # byte-identity needs two repeats to compare


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 31:
        parser.error("--seed must lie in [0, 2**31)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Runner:
    """Runs one workload's set-ups and repeats and collects the checks."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.jobs = workload.jobs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self) -> float:
        start = time.perf_counter()
        self.workload.setup()
        return time.perf_counter() - start

    def repeat(self, label: str):
        """One timed phase plus its checks; None when the phase raised."""
        self.workload.clear()
        gc.collect()
        self.attempted += self.jobs
        start = time.perf_counter()
        try:
            self.workload.run()
        except Exception:  # noqa: BLE001 - counted and reported, not fatal
            self.failed += self.jobs
            traceback.print_exc()
            return None
        seconds = time.perf_counter() - start
        result = self.workload.inspect(seconds)
        self.problems += [f"{label}: {p}" for p in result.problems]
        print(f"{label}: {seconds:.3f} s", file=sys.stderr)
        return result


def _fresh_import_seconds() -> float:
    """Time to import the workloads (numpy, selfaug) in a new interpreter."""
    code = ("import sys, time\n"
            "started = time.perf_counter()\n"
            f"sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]\n"
            "import workloads\n"
            "print(time.perf_counter() - started)\n")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout)


def _measure(runner: Runner, seconds: float, imports_s: float) -> dict:
    from checks import check_identical

    # imports happen once per process, so the other import samples come
    # from fresh interpreters
    imports = [imports_s] + [_fresh_import_seconds()
                             for _ in range(SETUP_REPEATS - 1)]
    setups, setup_digests = [], []
    for _ in range(SETUP_REPEATS):
        setups.append(runner.setup())
        setup_digests.append(runner.workload.setup_digests())
    runner.problems += check_identical(setup_digests, "set-up")
    print(f"imports {[round(s, 3) for s in imports]} s, set-ups "
          f"{[round(s, 3) for s in setups]} s", file=sys.stderr)

    repeats, tries = [], 0
    started = time.perf_counter()
    while (len(repeats) < MIN_REPEATS and tries < 2 * MIN_REPEATS) \
            or time.perf_counter() - started < seconds:
        tries += 1
        result = runner.repeat(f"repeat {tries}")
        if result is not None:
            repeats.append(result)
    if not repeats:
        return {}
    runner.problems += check_identical([r.digests for r in repeats],
                                        "repeats")
    # repeats are byte-identical, so only their times differ
    first = repeats[0]
    phase_s = statistics.median(r.seconds for r in repeats)
    return {
        "setup_s": _metric(statistics.median(imports)
                           + statistics.median(setups), "s"),
        "examples_per_s": _metric(first.examples / phase_s, "1/s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "artifact_mb": _metric(first.artifact_bytes / 1e6, "MB"),
        "test_macro_f1": _metric(first.test_macro_f1, "ratio"),
    }


def _trace(runner: Runner, trace_path: Path) -> dict:
    from checks import check_identical
    from tracing import PER_LAYER, Tracer

    plain_setup = runner.setup()
    plain = runner.repeat("untraced repeat")
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            traced_setup = runner.setup()
        with tracer.span("bench.phase"):
            traced = runner.repeat("traced repeat")
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    if plain is None or traced is None:
        return {}
    # tracing must not change a single byte of the artifacts
    runner.problems += check_identical([plain.digests, traced.digests],
                                        "untraced vs traced")
    values = tracer.metrics()
    values["training.epochs_past_best"] = traced.epochs_past_best
    values["trace.setup_overhead"] = traced_setup / plain_setup
    values["trace.phase_overhead"] = traced.seconds / plain.seconds
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "selfaug" / "__init__.py").is_file():
        print(f"error: {SRC / 'selfaug'} not found; run from a selfaug "
              f"source checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    from workloads import WORKLOADS

    imports_s = time.perf_counter() - started
    runs = ROOT / ".bench_runs"
    work = runs / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work)
    runner = Runner(workload)
    try:
        if args.trace:
            metrics = _trace(runner, runs / "traces" /
                             f"{args.workload}-seed{args.seed}.json")
        else:
            metrics = _measure(runner, args.seconds, imports_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print("error: no repeat of the timed phase completed",
              file=sys.stderr)
        return 1
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
