"""Command-line experiment runner with deterministic CSV/JSON output.

Subcommands:

* ``walk`` -- position distribution and variance of a (possibly noisy) walk;
* ``witness`` -- one CSV per requested witness series plus a metadata echo;
* ``choi`` -- eigenvalues of the intermediate-map Choi matrix over a grid;
* ``spectrum`` -- detrend-and-transform pipeline on a (step, value) CSV.

All experiments are configured by a single JSON document (angles in
degrees; unknown keys rejected). Data files contain no timestamps, so
identical configs produce byte-identical output; the only timestamp lives
in the metadata sidecar. Exit codes: 0 success, 2 config/schema error,
3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from .divisibility import cp_divisibility_scan
from .exceptions import ConfigError, NmqwalkError
from .noise import NoiseModel, OunParams, PlnParams, RtnParams
from .spectral import TimeSeries, disambiguate
from .walk import (
    WalkConfig,
    distribution_variance,
    evolve_one_shot,
    evolve_stepwise,
    lattice_positions,
    position_distribution,
)
from .witness import WITNESS_TAGS, witness_series

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_PROB_EMIT_TOL = 1e-15

_WALK_DEFAULTS = {
    "steps": 100,
    "coin_angle": 45.0,
    "delta": 45.0,
    "eta": 0.0,
    "initial_position": 0,
}
_TD_PAIR_DEFAULT = [45.0, 0.0, -45.0, 0.0]
_SPECTRAL_DEFAULTS = {"family": "exponential", "min_prominence": 0.05}
_CHOI_DEFAULTS = {"t1": 1.0, "t2_max": 20.0, "dt": 0.1}

_NOISE_FIELDS = {
    "rtn": ("a", "gamma"),
    "oun": ("Gamma", "gamma"),
    "pln": ("Gamma", "gamma", "alpha"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description (angles already in radians).

    ``echo`` is the normalized JSON-ready form (defaults applied, angles
    still in degrees) written to the metadata sidecar; re-parsing it gives
    an equivalent config.
    """

    walk: WalkConfig
    noise: NoiseModel
    mode: str
    witnesses: tuple[str, ...]
    td_pair: tuple[float, float, float, float]
    spectral: dict
    choi: dict
    output_dir: str
    echo: dict = field(repr=False)


def _require_keys(section: dict, allowed, path: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in '{path}'; allowed: {sorted(allowed)}"
        )


def _get_number(section: dict, key: str, default, path: str) -> float:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}.{key}' must be a number, got {value!r}")
    return float(value)


def _get_int(section: dict, key: str, default, path: str) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}.{key}' must be an integer, got {value!r}")
    return value


def _parse_noise(section) -> NoiseModel:
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError(f"'noise' must be an object, got {type(section).__name__}")
    model = section.get("model", "none")
    if model == "none":
        _require_keys(section, {"model"}, "noise")
        return None
    if model not in _NOISE_FIELDS:
        raise ConfigError(
            f"'noise.model' must be one of ['none', 'rtn', 'oun', 'pln'], got {model!r}"
        )
    fields = _NOISE_FIELDS[model]
    _require_keys(section, {"model", *fields}, "noise")
    kwargs = {}
    for name in fields:
        if name == "alpha" and name not in section:
            continue
        if name not in section:
            raise ConfigError(f"'noise.{name}' is required for model {model!r}")
        kwargs[name] = _get_number(section, name, None, "noise")
    cls = {"rtn": RtnParams, "oun": OunParams, "pln": PlnParams}[model]
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"'noise' parameter out of range: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON config document and apply defaults.

    Angles (coin_angle, delta, eta, td_pair entries) are given in degrees
    and converted to radians exactly once, here.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    _require_keys(
        doc,
        {"walk", "noise", "mode", "witnesses", "td_pair", "spectral", "choi",
         "output_dir"},
        "config",
    )

    walk_sec = doc.get("walk", {})
    if not isinstance(walk_sec, dict):
        raise ConfigError("'walk' must be an object")
    _require_keys(walk_sec, _WALK_DEFAULTS, "walk")
    steps = _get_int(walk_sec, "steps", _WALK_DEFAULTS["steps"], "walk")
    coin_angle = _get_number(walk_sec, "coin_angle", _WALK_DEFAULTS["coin_angle"], "walk")
    delta = _get_number(walk_sec, "delta", _WALK_DEFAULTS["delta"], "walk")
    eta = _get_number(walk_sec, "eta", _WALK_DEFAULTS["eta"], "walk")
    x0 = _get_int(walk_sec, "initial_position", 0, "walk")
    try:
        walk = WalkConfig(
            steps=steps,
            coin_angle=math.radians(coin_angle),
            delta=math.radians(delta),
            eta=math.radians(eta),
            initial_position=x0,
        )
    except ValueError as exc:
        raise ConfigError(f"'walk' parameter out of range: {exc}") from exc

    noise = _parse_noise(doc.get("noise"))

    mode = doc.get("mode", "one_shot")
    if mode not in ("one_shot", "stepwise"):
        raise ConfigError(
            f"'mode' must be 'one_shot' or 'stepwise', got {mode!r}"
        )

    witnesses = doc.get("witnesses", ["TD"])
    if not isinstance(witnesses, list) or not all(
        isinstance(w, str) for w in witnesses
    ):
        raise ConfigError("'witnesses' must be a list of witness tags")
    for w in witnesses:
        if w not in WITNESS_TAGS:
            raise ConfigError(f"unknown witness tag {w!r}; allowed: {list(WITNESS_TAGS)}")

    td_pair = doc.get("td_pair", _TD_PAIR_DEFAULT)
    if (
        not isinstance(td_pair, list)
        or len(td_pair) != 4
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in td_pair)
    ):
        raise ConfigError("'td_pair' must be a list of 4 angles in degrees")

    spectral_sec = doc.get("spectral", {})
    if not isinstance(spectral_sec, dict):
        raise ConfigError("'spectral' must be an object")
    _require_keys(spectral_sec, _SPECTRAL_DEFAULTS, "spectral")
    family = spectral_sec.get("family", _SPECTRAL_DEFAULTS["family"])
    if family not in ("isotonic", "exponential"):
        raise ConfigError(
            f"'spectral.family' must be 'isotonic' or 'exponential', got {family!r}"
        )
    min_prom = _get_number(
        spectral_sec, "min_prominence", _SPECTRAL_DEFAULTS["min_prominence"], "spectral"
    )
    if not 0 <= min_prom <= 1:
        raise ConfigError(f"'spectral.min_prominence' must be in [0, 1], got {min_prom}")

    choi_sec = doc.get("choi", {})
    if not isinstance(choi_sec, dict):
        raise ConfigError("'choi' must be an object")
    _require_keys(choi_sec, _CHOI_DEFAULTS, "choi")
    t1 = _get_number(choi_sec, "t1", _CHOI_DEFAULTS["t1"], "choi")
    t2_max = _get_number(choi_sec, "t2_max", _CHOI_DEFAULTS["t2_max"], "choi")
    dt = _get_number(choi_sec, "dt", _CHOI_DEFAULTS["dt"], "choi")
    if t1 < 0 or dt <= 0 or t2_max <= t1:
        raise ConfigError(
            f"'choi' requires t1 >= 0, dt > 0, t2_max > t1; got t1={t1}, "
            f"t2_max={t2_max}, dt={dt}"
        )

    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"'output_dir' must be a string, got {output_dir!r}")

    echo = {
        "walk": {
            "steps": steps,
            "coin_angle": coin_angle,
            "delta": delta,
            "eta": eta,
            "initial_position": x0,
        },
        "noise": _noise_echo(noise),
        "mode": mode,
        "witnesses": list(witnesses),
        "td_pair": [float(v) for v in td_pair],
        "spectral": {"family": family, "min_prominence": min_prom},
        "choi": {"t1": t1, "t2_max": t2_max, "dt": dt},
        "output_dir": output_dir,
    }
    return ExperimentConfig(
        walk=walk,
        noise=noise,
        mode=mode,
        witnesses=tuple(witnesses),
        td_pair=tuple(math.radians(v) for v in td_pair),
        spectral={"family": family, "min_prominence": min_prom},
        choi={"t1": t1, "t2_max": t2_max, "dt": dt},
        output_dir=output_dir,
        echo=echo,
    )


def _noise_echo(noise: NoiseModel):
    if noise is None:
        return {"model": "none"}
    if isinstance(noise, RtnParams):
        return {"model": "rtn", "a": noise.a, "gamma": noise.gamma}
    if isinstance(noise, OunParams):
        return {"model": "oun", "Gamma": noise.Gamma, "gamma": noise.gamma}
    return {
        "model": "pln",
        "Gamma": noise.Gamma,
        "gamma": noise.gamma,
        "alpha": noise.alpha,
    }


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _package_version() -> str:
    try:
        return version("nmqwalk")
    except PackageNotFoundError:  # pragma: no cover - not installed
        return "unknown"


def run_walk(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Emit distribution.csv (nonzero rows) and variance.csv.

    The evolution mode matters here: one-shot dephasing acts on the coin
    after the unitary walk and leaves position probabilities untouched,
    while stepwise noise decoheres the walk itself and slows the spread.
    """
    evolve = evolve_stepwise if cfg.mode == "stepwise" else evolve_one_shot
    positions = lattice_positions(cfg.walk.steps)
    dist_rows = []
    var_rows = []
    for t, state in evolve(cfg.walk, cfg.noise):  # Kraus factor or density matrix
        probs = position_distribution(state, cfg.walk.n_positions)
        for x, p in zip(positions, probs):
            if p > _PROB_EMIT_TOL:
                dist_rows.append((t, int(x), p))
        var_rows.append((t, distribution_variance(probs, positions.astype(float))))
    _write_csv(out_dir / "distribution.csv", ["step", "x", "probability"], dist_rows)
    _write_csv(out_dir / "variance.csv", ["step", "variance"], var_rows)


def run_witness(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Emit <tag>.csv per requested witness plus a metadata sidecar."""
    found = witness_series(
        cfg.walk, cfg.noise, mode=cfg.mode, witnesses=cfg.witnesses, td_pair=cfg.td_pair
    )
    for tag, series in found.items():
        rows = list(zip(series.steps.tolist(), series.values.tolist()))
        _write_csv(out_dir / f"{tag.lower()}.csv", ["step", "value"], rows)
    _write_json(
        out_dir / "metadata.json",
        {
            "config": cfg.echo,
            "artifact_version": _package_version(),
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    )


def run_choi_scan(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Emit choi.csv with the intermediate-map Choi spectrum over the grid."""
    if cfg.noise is None:
        raise ConfigError("the choi subcommand requires a concrete noise model")
    t1 = cfg.choi["t1"]
    n = int(round((cfg.choi["t2_max"] - t1) / cfg.choi["dt"]))
    grid = t1 + cfg.choi["dt"] * np.arange(1, n + 1)
    result = cp_divisibility_scan(cfg.noise, t1, grid)
    rows = [
        (pt.t2, pt.lambda3, pt.lambda4, pt.is_cp, pt.invertible)
        for pt in result.points
    ]
    _write_csv(
        out_dir / "choi.csv", ["t2", "lambda3", "lambda4", "is_cp", "invertible"], rows
    )


def _read_series_csv(path: Path) -> TimeSeries:
    times = []
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["step", "value"]:
            raise ConfigError(
                f"{path}: line 1: expected header 'step,value', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}: line {lineno}: malformed row {row!r}") from exc
    try:
        return TimeSeries(times=np.asarray(times), values=np.asarray(values))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def run_spectrum(cfg: ExperimentConfig, input_path: Path, out_dir: Path) -> None:
    """Emit fit.csv, residual.csv, spectrum.csv, and peaks.json."""
    series = _read_series_csv(input_path)
    report = disambiguate(
        series,
        family=cfg.spectral["family"],
        min_prominence=cfg.spectral["min_prominence"],
    )
    _write_csv(
        out_dir / "fit.csv",
        ["step", "value"],
        zip(series.times.tolist(), report.fit.fitted.tolist()),
    )
    _write_csv(
        out_dir / "residual.csv",
        ["step", "value"],
        zip(report.residual.times.tolist(), report.residual.values.tolist()),
    )
    _write_csv(
        out_dir / "spectrum.csv",
        ["frequency", "power"],
        zip(report.spectrum.frequencies.tolist(), report.spectrum.power.tolist()),
    )
    top = report.peaks[0].power if report.peaks else 1.0
    _write_json(
        out_dir / "peaks.json",
        [
            {
                "frequency": pk.frequency,
                "power": pk.power,
                "relative_power": pk.power / top,
            }
            for pk in report.peaks
        ],
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmqwalk",
        description="Noisy quantum walk experiments with deterministic CSV output",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("walk", "position distribution and variance of the configured walk"),
        ("witness", "witness series (TD/MI/MID/QD/Entropy/Variance) CSVs"),
        ("choi", "intermediate-map Choi eigenvalue scan"),
        ("spectrum", "MFBF detrend + power spectrum of a (step,value) CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config file (default: {})")
        p.add_argument("--out", type=Path, help="output directory (overrides config)")
        if name == "spectrum":
            p.add_argument(
                "--input", type=Path, required=True,
                help="input CSV with (step,value) columns",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else "{}"
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out if args.out is not None else Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "walk":
            run_walk(cfg, out_dir)
        elif args.command == "witness":
            run_witness(cfg, out_dir)
        elif args.command == "choi":
            run_choi_scan(cfg, out_dir)
        else:
            run_spectrum(cfg, args.input, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NmqwalkError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
