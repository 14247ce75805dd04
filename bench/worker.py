"""Runs the timed passes of one workload in a process of its own.

Usage: python worker.py RUN_DIR WORKLOAD SECONDS TRACE

Reads RUN_DIR/config.json (written by run.py) and runs passes through
``nmqwalk.cli.main``: one untimed warm-up pass, which fills the allocator
and finishes lazy imports and writes to RUN_DIR/first, then timed passes
until SECONDS have been measured (at least two), each writing to
RUN_DIR/last, so first and last can be compared byte for byte. With TRACE=1
the timed passes alternate untraced and traced. Writes RUN_DIR/worker.json
(and RUN_DIR/spans.csv when tracing). Output checks are not made here: the
oracle's cost and memory stay out of this process.
"""

from __future__ import annotations

import csv
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

#: each run includes at least this many timed passes
MIN_PASSES = 2


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library mapped into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = int(fn())
                break
    return out


def _cpu() -> dict:
    model = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append(
                "L{} {} {}".format(
                    *((index / f).read_text().strip() for f in ("level", "type", "size"))
                )
            )
        except OSError:
            continue
    return {"cpu_model": model, "caches": caches}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        **_cpu(),
        "bytes_note": (
            "byte figures (walk.state_bytes, qops.partial_trace_bytes) are computed "
            "from array sizes, not measured bandwidth; the last-level cache is larger "
            "than every working set of these workloads"
        ),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _run_pass(cli, workload: str, config: Path, out: Path, tracer=None) -> tuple[float, dict]:
    """One pass through the workload's CLI steps; (wall seconds, exit code per step)."""
    codes = {}
    start = time.perf_counter()
    for name, argv in workloads.cli_steps(workload, config, out):
        idx = tracer.begin("cli.main") if tracer else None
        try:
            codes[name] = cli.main(argv)
        except Exception:  # a crash of one step is a failed operation, not a dead benchmark
            traceback.print_exc()
            codes[name] = -1
        finally:
            if tracer:
                tracer.end(idx)
    return time.perf_counter() - start, codes


def main(run_dir: Path, workload: str, seconds: float, trace: bool) -> None:
    import nmqwalk.cli as cli

    config = run_dir / "config.json"
    seconds_taken, codes = _run_pass(cli, workload, config, run_dir / "first")
    warmup = {"traced": False, "seconds": seconds_taken, "exit_codes": codes}
    passes, layers, tracers = [], [], []
    out = run_dir / "last"
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        if traced:
            tracer = tracing.Tracer()
            with tracing.Instrumentation(tracer):
                seconds_taken, codes = _run_pass(cli, workload, config, out, tracer)
            layers.append(tracing.layer_metrics(tracer, _dir_bytes(out)))
            tracers.append(tracer)
        else:
            seconds_taken, codes = _run_pass(cli, workload, config, out)
        passes.append({"traced": traced, "seconds": seconds_taken, "exit_codes": codes})
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["seconds"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break

    report = {
        "warmup": warmup,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "environment": environment(),
    }
    (run_dir / "worker.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if tracers:
        with open(run_dir / "spans.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pass", "span", "name", "start", "end", "parent"])
            for n, tracer in enumerate(tracers):
                for i, (name, start, end, parent) in enumerate(tracer.spans):
                    writer.writerow([n, i, name, f"{start:.9f}", f"{end:.9f}", parent])


if __name__ == "__main__":
    main(Path(sys.argv[1]), sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1")
