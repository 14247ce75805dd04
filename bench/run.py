"""nmqwalk benchmark: one workload at one seed, every metric by name and unit.

Usage (from the root of a checkout):

    python3 bench/run.py --workload correlations --seed 1 --seconds 36 --trace 0

The run generates the workload's config from the seed, times set-up in fresh
interpreters, runs the timed passes through ``nmqwalk.cli.main`` in a worker
process (bench/worker.py), checks the outputs with bench/checks.py and prints
one JSON line: end-to-end metrics with ``--trace 0``, per-layer metrics of
the traced passes with ``--trace 1``. Everything a run writes, including
config.json and result.json with the environment record, goes to
.bench_out/<workload>/seed-<seed>-trace-<trace>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: fresh interpreters timed per run for setup_s, after one untimed one that
#: compiles bytecode and warms the file cache
SETUP_PROBES = 3
#: a run must end within this many seconds
RUN_LIMIT_S = 170

_PROBE = """
import sys, time
t0 = time.perf_counter()
import nmqwalk.cli
text = open(sys.argv[1], encoding="utf-8").read()
nmqwalk.cli.parse_config(text)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "values_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_seconds(config: Path, deadline: float) -> list[float]:
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(config)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
        if i:
            times.append(float(proc.stdout.strip()))
    return times


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name == "cli.bytes_written":
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "linalg.eig_dim_max":
        return "dim"
    if name == "linalg.eig_ops":
        return "ops"
    return "count"


def evaluate(workload: str, cfg: dict, run_dir: Path, seed: int, report: dict) -> tuple[int, list]:
    """Operations attempted, and the failed ones as (pass, step, message).

    One operation is one CLI step of one pass; pass 0 is the warm-up. It
    fails on a non-zero exit code; the warm-up also fails on an output
    check, and the last timed pass when its data files differ from the
    warm-up's.
    """
    passes = [report["warmup"], *report["passes"]]
    failures = [
        (i, step, f"exit code {code}")
        for i, p in enumerate(passes)
        for step, code in p["exit_codes"].items()
        if code != 0
    ]
    failures += [
        (0, step, msg) for step, msg in checks.check_outputs(workload, cfg, run_dir / "first", seed)
    ]
    failures += [
        (len(passes) - 1, step, msg)
        for step, msg in checks.compare_passes(workload, run_dir / "first", run_dir / "last")
    ]
    attempted = sum(len(p["exit_codes"]) for p in passes)
    return attempted, failures


def run(workload: str, seed: int, seconds: float, trace: bool, out_root: Path,
        steps: int | None = None) -> dict:
    """One benchmark run; returns the result line's object (see module docstring)."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    run_dir = out_root / workload / f"seed-{seed}-trace-{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = workloads.make_config(workload, seed, steps)
    (run_dir / "config.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")

    setup = [] if trace else _setup_seconds(run_dir / "config.json", deadline)
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(run_dir), workload,
         str(seconds), "1" if trace else "0"],
        cwd=ROOT, env=_env(), timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    report = json.loads((run_dir / "worker.json").read_text(encoding="utf-8"))
    attempted, failures = evaluate(workload, cfg, run_dir, seed, report)

    plain = [p["seconds"] for p in report["passes"] if not p["traced"]]
    pipeline_s = statistics.median(plain)
    if trace:
        traced = [p["seconds"] for p in report["passes"] if p["traced"]]
        layers = {
            name: statistics.median_low(layer[name] for layer in report["layers"])
            for name in report["layers"][0]
        }
        layers["trace.overhead_s"] = statistics.median(traced) - pipeline_s
        metrics = {k: {"value": v, "unit": layer_units(k)} for k, v in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pipeline_s": pipeline_s,
            "values_per_s": workloads.series_values(cfg, workload) / pipeline_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len({(i, step) for i, step, _ in failures}),
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "config": cfg,
        "environment": report["environment"],
        "warmup_seconds": report["warmup"]["seconds"],
        "pass_seconds": [p["seconds"] for p in report["passes"]],
        "setup_seconds": setup,
        "failures": [{"pass": i, "step": s, "message": m} for i, s, m in failures],
        "run_seconds": time.monotonic() - started,
        "result": result,
    }
    (run_dir / "result.json").write_text(json.dumps(details, indent=2), encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_STEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nmqwalk" / "cli.py").is_file():
        print(f"error: no nmqwalk sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
