"""End-to-end and per-layer benchmark of the textchar CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its
``src`` directory. Each workload's inputs are generated from ``--seed``
into ``.perfbench/`` at the checkout root and removed afterwards.

The load is a closed loop: one client, one CLI process at a time, the next
operation starting when the previous one has ended. An operation is the
workload's CLI invocation(s). The first operation warms the caches and is
not timed; operations then repeat until ``--seconds`` have passed.

Every output is checked: the first against the oracle (``oracle.py``),
every later one for byte identity with the first. A nonzero exit, a
mismatch or a timeout fails the operation.

``--trace 0`` prints the end-to-end metrics (untraced). ``--trace 1``
alternates untraced operations with operations run under ``traced.py`` and
prints the per-layer metrics, the tracing overhead and the time no span
covers. Details (tail percentiles, sample counts, machine facts) are
printed above the last line, which is one JSON result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "TEXTCHAR_THREADS")

# The children get the caller's environment minus thread settings.
CHILD_ENV = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}

SETUP_REPEATS = 9
STEP_TIMEOUT_S = 150
TAIL_SAMPLES = 10  # samples a reported tail percentile must leave above it

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "pairs_per_s": "1/s",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.self_s": "s",
    "io.read_s": "s", "io.read_tokens_s": "s", "io.write_s": "s",
    "io.group_s": "s", "io.pool_self_s": "s", "io.read_mb_per_s": "MB/s",
    "io.write_mb_per_s": "MB/s", "io.records": "count",
    "analysis.sweep_self_s": "s", "analysis.profile_self_s": "s",
    "analysis.correlate_s": "s", "analysis.groups": "count",
    "metrics.report_s": "s", "metrics.homogeneity_s": "s",
    "metrics.axis_stats_s": "s", "metrics.calls": "count",
    "metrics.pairs": "count", "metrics.dup_pairs": "count",
    "metrics.gemm_floor_s": "s", "metrics.kernel_over_gemm": "ratio",
    "metrics.flops_computed": "flop", "metrics.bytes_computed": "B",
    "simulation.self_s": "s", "svg.write_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s", "trace.uncovered_s": "s",
}


@dataclass
class Operation:
    """One run of a workload's CLI steps, with its measurements."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    ok: bool = True
    digest: str = ""
    traces: list[dict] = field(default_factory=list)


def invoke(argv: list[str], env: dict, log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, user+sys s, peak RSS MiB)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, STEP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_operation(prepared, env: dict, work: Path, traced: bool) -> Operation:
    op = Operation()
    for path in prepared.outputs:
        path.unlink(missing_ok=True)
    for index, step in enumerate(prepared.steps):
        trace_file = work / f"trace-{index}.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(trace_file), *step]
        else:
            argv = [sys.executable, "-m", "textchar.cli", *step]
        code, wall, cpu, rss = invoke(argv, env, work / "stderr.log")
        op.wall_s += wall
        op.cpu_s += cpu
        op.peak_rss_mb = max(op.peak_rss_mb, rss)
        if code != 0:
            op.ok = False
            break
        if traced:
            trace = json.loads(trace_file.read_text(encoding="utf-8"))
            trace["wall_s"] = wall - trace["bookkeeping_s"]
            op.traces.append(trace)
    digest = hashlib.sha256()
    for path in prepared.outputs:
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
        digest.update(b"\0")
    op.digest = digest.hexdigest()
    return op


class Checker:
    """Oracle verdict per distinct output; byte identity across reruns."""

    def __init__(self, prepared):
        self.prepared = prepared
        self.reference: str | None = None
        self.verdicts: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, op: Operation) -> None:
        self.attempted += 1
        problems = [] if op.ok else ["a CLI step exited nonzero"]
        if op.ok:
            if op.digest not in self.verdicts:
                try:
                    self.verdicts[op.digest] = self.prepared.check()
                except Exception as exc:  # noqa: BLE001 - malformed output fails the op
                    self.verdicts[op.digest] = [f"output check raised {exc!r}"]
            problems += self.verdicts[op.digest]
            if self.reference is None:
                self.reference = op.digest
            elif op.digest != self.reference:
                problems.append("outputs differ from the first operation's bytes")
        if problems:
            self.failed += 1
            for line in problems[:5]:
                print(f"check failed: {line}", file=sys.stderr)


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile (nearest rank) leaving >= TAIL_SAMPLES samples above."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = -(-pct * n // 100)
        if rank >= 1 and n - rank >= TAIL_SAMPLES:
            return f"p{pct:g}", ordered[int(rank) - 1]
    return None


def describe(name: str, values: list[float], unit: str) -> dict:
    summary = {"median": statistics.median(values), "n": len(values), "unit": unit}
    found = tail(values)
    if found:
        summary[found[0]] = found[1]
    print(f"{name}: " + ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                                  for k, v in summary.items()))
    return summary


def measure_setup(env: dict, work: Path) -> list[float]:
    """Cold interpreter start plus ``import textchar.cli``, repeated."""
    argv = [sys.executable, "-c", "import textchar.cli"]
    times = []
    for attempt in range(SETUP_REPEATS + 1):  # the first fills the bytecode cache
        code, wall, _, _ = invoke(argv, env, work / "stderr.log")
        if code != 0:
            log = (work / "stderr.log").read_text(errors="replace").strip()
            raise RuntimeError(f"`import textchar.cli` failed: {log[-2000:]}")
        if attempt:
            times.append(wall)
    return times


def machine_facts(prepared, env: dict) -> dict:
    import numpy as np
    import scipy

    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
             "numpy": np.__version__, "scipy": scipy.__version__,
             "machine": platform.machine()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        facts["blas"] = None
    facts["blas_threads"] = env.get("OPENBLAS_NUM_THREADS")
    facts["textchar_threads"] = env.get("TEXTCHAR_THREADS")
    facts["llc_mb"] = None
    for level in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            size = subprocess.run(["getconf", level], capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            break
        if size.isdigit() and int(size) > 0:
            facts["llc_mb"] = int(size) / 1e6
            break
    facts["working_set_mb"] = prepared.working_set_bytes / 1e6
    # A fixed single-threaded GEMM timed here, so times can be read as
    # multiples of this box's speed at the moment of the run.
    a = np.random.default_rng(0).normal(size=(1000, 768))
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        a @ a.T
        runs.append(time.perf_counter() - start)
    facts["calib_gemm_s"] = statistics.median(runs)
    return facts


def end_to_end(prepared, env, work, seconds, checker) -> dict:
    setup = measure_setup(env, work)
    checker.record(run_operation(prepared, env, work, traced=False))  # warm-up
    ops = []
    deadline = time.perf_counter() + seconds
    while True:  # at least one operation, however short --seconds is
        op = run_operation(prepared, env, work, traced=False)
        checker.record(op)
        ops.append(op)
        if time.perf_counter() >= deadline:
            break
    wall = describe("wall_s", [op.wall_s for op in ops], "s")
    describe("cpu_s", [op.cpu_s for op in ops], "s")
    rss = [op.peak_rss_mb for op in ops]
    describe("peak_rss_mb", rss, "MiB")
    describe("setup_s", setup, "s")
    return {
        "wall_s": wall["median"],
        "cpu_s": statistics.median(op.cpu_s for op in ops),
        "peak_rss_mb": statistics.median(rss),
        "pairs_per_s": prepared.pairs / wall["median"],
        "setup_s": statistics.median(setup),
    }


def layer_values(traces: list[dict]) -> dict:
    """Per-layer metrics of one traced operation (summed over its steps)."""
    total = defaultdict(float)   # outermost spans of each name
    own = defaultdict(float)     # self time: duration minus child spans
    calls = defaultdict(int)
    counters = defaultdict(float)
    wall = 0.0
    for trace in traces:
        spans = trace["spans"]
        children = [0.0] * len(spans)
        for _, parent, dur in spans:
            if parent >= 0:
                children[parent] += dur
        for i, (name, parent, dur) in enumerate(spans):
            own[name] += dur - children[i]
            calls[name] += 1
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][1]
            if parent < 0:
                total[name] += dur
        for key, value in trace["counters"].items():
            counters[key] += value
        wall += trace["wall_s"]
    main = total["cli.main"]

    def rate(nbytes, secs):
        return nbytes / 1e6 / secs if secs > 0 else 0.0

    hom, floor = total["metrics.homogeneity"], counters["gemm_floor_s"]
    return {
        "cli.self_s": own["cli.main"],
        "io.read_s": total["io.read_vectors"],
        "io.read_tokens_s": total["io.read_token_sequences"],
        "io.write_s": total["io.write_vectors"],
        "io.group_s": total["io.group_by_label"],
        "io.pool_self_s": own["io.pool_token_file"],
        "io.read_mb_per_s": rate(counters["read_bytes"], total["io.read_vectors"]
                                 + total["io.read_token_sequences"]),
        "io.write_mb_per_s": rate(counters["write_bytes"], total["io.write_vectors"]),
        "io.records": counters["records"],
        "analysis.sweep_self_s": own["analysis.downsample_sweep"],
        "analysis.profile_self_s": own["analysis.profile_dataset"],
        "analysis.correlate_s": total["analysis.correlation_report"],
        "analysis.groups": counters["groups"],
        "metrics.report_s": total["metrics.metric_report"],
        "metrics.homogeneity_s": hom,
        "metrics.axis_stats_s": total["metrics.axis_stats"],
        "metrics.calls": calls["metrics.metric_report"],
        "metrics.pairs": counters["pairs"],
        "metrics.dup_pairs": counters["dup_pairs"],
        "metrics.gemm_floor_s": floor,
        "metrics.kernel_over_gemm": hom / floor if floor > 0 else 0.0,
        "metrics.flops_computed": counters["flops_computed"],
        "metrics.bytes_computed": counters["bytes_computed"],
        "simulation.self_s": own["simulation.run_scenario"],
        "svg.write_s": total["svg.write_line_chart"],
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - main,
    }


def per_layer(prepared, env, work, seconds, checker) -> dict:
    checker.record(run_operation(prepared, env, work, traced=False))  # warm-up
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:  # at least one pair, however short --seconds is
        for runs, is_traced in ((plain, False), (traced, True)):
            op = run_operation(prepared, env, work, traced=is_traced)
            checker.record(op)
            if op.ok:
                runs.append(op)
        if time.perf_counter() >= deadline:
            break
    if not plain or not traced:
        return {name: 0.0 for name in PER_LAYER}
    rows = [layer_values(op.traces) for op in traced]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values["trace.untraced_wall_s"] = describe(
        "untraced wall_s", [op.wall_s for op in plain], "s")["median"]
    describe("traced wall_s", [row["trace.wall_s"] for row in rows], "s")
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


def main(argv=None) -> int:
    # BLAS in this process stays on one thread, so the oracle and the
    # calibration never compete with the children; set before numpy loads.
    for var in THREAD_VARS[:3]:
        os.environ[var] = "1"
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "textchar" / "cli.py").is_file():
        print(f"perfbench: no textchar sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        prepared = workloads.WORKLOADS[args.workload](work, args.seed, nproc)
        env = {**CHILD_ENV, "PYTHONPATH": str(SRC), **prepared.env}
        env.setdefault("OMP_NUM_THREADS", env.get("OPENBLAS_NUM_THREADS", "1"))
        checker = Checker(prepared)
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}, closed loop with 1 client")
        facts = machine_facts(prepared, env)
        print("machine " + json.dumps(facts))
        if args.trace:
            values = per_layer(prepared, env, work, args.seconds, checker)
            units = PER_LAYER
        else:
            values = end_to_end(prepared, env, work, args.seconds, checker)
            print(f"ratios: wall_s / calib_gemm_s {values['wall_s'] / facts['calib_gemm_s']:.6g}, "
                  f"cpu_s / wall_s {values['cpu_s'] / values['wall_s']:.6g}")
            units = END_TO_END
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    fail_ratio = checker.failed / checker.attempted
    print(f"fail_ratio: {fail_ratio:.6g} ({checker.failed} of {checker.attempted} "
          f"operations failed)")
    for name, unit in units.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
