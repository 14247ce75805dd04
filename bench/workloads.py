"""Seeded workload definitions: the config each run feeds the CLI and the steps it runs.

Every workload is a short sequence of ``nmqwalk`` subcommands driven by one
generated JSON config. The seed only moves the noise parameters and the
initial coin angles inside a fixed per-workload regime; the walk length and
the sequence of subcommands are fixed, so the work per pass barely depends on
the seed. Angles are in degrees, as the CLI expects.
"""

from __future__ import annotations

import random
from pathlib import Path

#: walk length T of each workload
WORKLOAD_STEPS = {"correlations": 40, "backflow": 160, "stepwise": 60}


def _jitter(rng: random.Random, base: float, lo: float = 0.8, hi: float = 1.25) -> float:
    return round(base * rng.uniform(lo, hi), 6)


def _coin_angles(rng: random.Random) -> dict:
    return {"delta": round(rng.uniform(30.0, 60.0), 4), "eta": round(rng.uniform(0.0, 90.0), 4)}


def make_config(workload: str, seed: int, steps: int | None = None) -> dict:
    """The JSON config for one run; the same (workload, seed) gives the same config."""
    rng = random.Random(f"{workload}:{seed}")
    walk = {"steps": WORKLOAD_STEPS[workload] if steps is None else steps, "coin_angle": 45.0}
    walk.update(_coin_angles(rng))
    if workload == "correlations":
        # around the settings of acceptance criterion 7
        model = rng.choice(["rtn", "oun", "pln"])
        if model == "rtn":
            noise = {"model": "rtn", "a": _jitter(rng, 0.05), "gamma": _jitter(rng, 0.008)}
        else:
            noise = {"model": model, "Gamma": _jitter(rng, 0.1), "gamma": _jitter(rng, 0.01)}
        return {
            "walk": walk,
            "noise": noise,
            "mode": "one_shot",
            "witnesses": ["MI", "MID", "QD", "Entropy"],
        }
    if workload == "backflow":
        # underdamped RTN (2a/gamma >= 4), so the kernel oscillates and TD revives
        gamma = round(rng.uniform(0.005, 0.02), 6)
        a = round(gamma * rng.uniform(2.0, 6.0), 6)
        d1 = rng.uniform(30.0, 60.0)
        return {
            "walk": walk,
            "noise": {"model": "rtn", "a": a, "gamma": gamma},
            "mode": "one_shot",
            "witnesses": ["TD", "Variance"],
            "td_pair": [
                round(d1, 4),
                round(rng.uniform(0.0, 90.0), 4),
                round(d1 - 90.0 + rng.uniform(-10.0, 10.0), 4),
                round(rng.uniform(0.0, 90.0), 4),
            ],
            "spectral": {"family": "exponential", "min_prominence": 0.05},
            "choi": {"t1": 1.0, "t2_max": 20.0, "dt": 0.01},
        }
    if workload == "stepwise":
        # monotone (CP-divisible) kernels only, so every stepwise state is physical
        model = rng.choice(["oun", "pln"])
        return {
            "walk": walk,
            "noise": {
                "model": model,
                "Gamma": round(rng.uniform(0.05, 0.2), 6),
                "gamma": round(rng.uniform(0.005, 0.02), 6),
            },
            "mode": "stepwise",
            "witnesses": ["Entropy", "MI"],
        }
    raise KeyError(workload)


def cli_steps(workload: str, config: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(step name, CLI argv) for one pass; outputs go under ``out``."""
    common = ["--config", str(config), "--out", str(out)]
    if workload == "correlations":
        return [("witness", ["witness", *common])]
    if workload == "backflow":
        return [
            ("choi", ["choi", *common]),
            ("witness", ["witness", *common]),
            (
                "spectrum",
                ["spectrum", "--config", str(config), "--input", str(out / "td.csv"),
                 "--out", str(out / "spectrum")],
            ),
        ]
    if workload == "stepwise":
        return [("walk", ["walk", *common]), ("witness", ["witness", *common])]
    raise KeyError(workload)


def series_values(config: dict, workload: str) -> int:
    """Series values one pass emits: (T+1) per witness tag plus walk's variance rows."""
    per_series = config["walk"]["steps"] + 1
    n_series = len(config["witnesses"]) + (1 if workload == "stepwise" else 0)
    return per_series * n_series
