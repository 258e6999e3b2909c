"""Run one textchar CLI invocation with per-layer spans and counters.

    python3 perfbench/traced.py TRACE_JSON <textchar cli arguments...>

The public functions of each layer are wrapped from outside the program:
every module attribute bound to the original function is replaced, so a
call is traced wherever the caller looks the name up (``analysis`` and
``simulation`` import ``metric_report`` by name, for instance). A function
the program no longer has is skipped and its metrics read 0.

Spans record a name, their parent and a duration. After each homogeneity
call the wrapper also times one pass of ``block @ arr.T`` over the same
256-row grid on the same array (the pure-GEMM floor) and counts bitwise
duplicate rows. That bookkeeping runs outside every span's duration and
its total is written out, so the caller can subtract it from the wall time.
The CLI's exit code is this process's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

import textchar.cli as cli
from textchar import analysis, io, metrics, simulation, svg

MODULES = (cli, io, analysis, metrics, simulation, svg)
GEMM_BLOCK_ROWS = 256

# (span name, module, function name)
TARGETS = (
    ("cli.main", cli, "main"),
    ("io.read_vectors", io, "read_vectors"),
    ("io.read_token_sequences", io, "read_token_sequences"),
    ("io.write_vectors", io, "write_vectors"),
    ("io.group_by_label", io, "group_by_label"),
    ("io.pool_token_file", io, "pool_token_file"),
    ("analysis.downsample_sweep", analysis, "downsample_sweep"),
    ("analysis.profile_dataset", analysis, "profile_dataset"),
    ("analysis.correlation_report", analysis, "correlation_report"),
    ("metrics.metric_report", metrics, "metric_report"),
    ("metrics.axis_stats", metrics, "axis_stats"),
    ("metrics.homogeneity", metrics, "homogeneity"),
    ("simulation.run_scenario", simulation, "run_scenario"),
    ("svg.write_line_chart", svg, "write_line_chart"),
)


class Tracer:
    """Spans (name, parent index, duration) and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.bookkeeping_s = 0.0
        self._local = threading.local()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            index = len(self.spans)
            self.spans.append([name, stack[-1] if stack else -1, 0.0])
            stack.append(index)
            book = self.bookkeeping_s
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = (time.perf_counter() - start
                                        - (self.bookkeeping_s - book))
                stack.pop()
            if after is not None:
                start = time.perf_counter()
                after(args, kwargs, result)
                self.bookkeeping_s += time.perf_counter() - start
            return result
        return traced


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).exists())


def _sidecar(path) -> str:
    return str(path) + ".meta.jsonl"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def install(tracer: Tracer) -> None:
    def after_homogeneity(args, kwargs, result):
        arr = np.asarray(_arg(args, kwargs, 0, "cluster"), dtype=np.float64)
        m, dim = arr.shape
        start = time.perf_counter()
        for s in range(0, m, GEMM_BLOCK_ROWS):
            arr[s:s + GEMM_BLOCK_ROWS] @ arr.T
        tracer.count("gemm_floor_s", time.perf_counter() - start)
        blocks = -(-m // GEMM_BLOCK_ROWS)
        tracer.count("pairs", m * (m - 1))
        tracer.count("flops_computed", 2 * m * m * dim)
        tracer.count("bytes_computed", 8 * (m * dim * (blocks + 1) + m * m))
        rows = np.ascontiguousarray(arr).view(np.dtype((np.void, 8 * dim))).ravel()
        _, counts = np.unique(rows, return_counts=True)
        tracer.count("dup_pairs", int((counts * (counts - 1)).sum()))

    def after_read(args, kwargs, result):
        path = _arg(args, kwargs, 0, "path")
        binary = _arg(args, kwargs, 1, "format") == "binary"
        tracer.count("read_bytes", _file_bytes(path, *([_sidecar(path)] if binary else [])))
        tracer.count("records", len(result))

    def after_read_tokens(args, kwargs, result):
        tracer.count("read_bytes", _file_bytes(_arg(args, kwargs, 0, "path")))
        tracer.count("records", len(result))

    def after_write(args, kwargs, result):
        path = _arg(args, kwargs, 1, "path")
        binary = _arg(args, kwargs, 2, "format") == "binary"
        tracer.count("write_bytes", _file_bytes(path, *([_sidecar(path)] if binary else [])))

    def after_profile(args, kwargs, result):
        tracer.count("groups", len(_arg(args, kwargs, 0, "groups")))

    after = {
        "metrics.homogeneity": after_homogeneity,
        "io.read_vectors": after_read,
        "io.read_token_sequences": after_read_tokens,
        "io.write_vectors": after_write,
        "analysis.profile_dataset": after_profile,
    }
    for name, module, attr in TARGETS:
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original, after.get(name))
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    Path(out_path).write_text(json.dumps({
        "spans": tracer.spans, "counters": tracer.counters,
        "bookkeeping_s": tracer.bookkeeping_s, "exit": code,
    }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
