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
from dataclasses import MISSING, dataclass, field, fields
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import get_args

import numpy as np

from .divisibility import cp_divisibility_scan
from .exceptions import ConfigError, NmqwalkError
from .noise import NoiseModel, OunParams, PlnParams, RtnParams
from .spectral import (
    DEFAULT_FIT_FAMILY,
    DEFAULT_MIN_PROMINENCE,
    FIT_FAMILIES,
    TimeSeries,
    disambiguate,
)
from .walk import (
    WalkConfig,
    distribution_variance,
    evolve_one_shot,
    evolve_stepwise,
    lattice_positions,
    position_distribution,
)
from .witness import DEFAULT_TD_PAIR, WITNESS_TAGS, EvolutionMode, witness_series

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_PROB_EMIT_TOL = 1e-15

#: noise.model value -> parameter record (None: no noise)
_NOISE_MODELS = {"none": None, "rtn": RtnParams, "oun": OunParams, "pln": PlnParams}

_ANGLE = "angle"  # a number in degrees; its value is converted to radians
_REQUIRED = object()  # default of a key the document must give


@dataclass(frozen=True)
class _ListOf:
    """A list kind: items of one kind, exactly ``length`` of them if given."""

    item: object
    length: int | None = None


#: section -> key -> (kind, default), defaults as they would appear in the
#: JSON. A kind is int, float (any number), str, _ANGLE, a tuple of allowed
#: values or a _ListOf; a nested dict is a section. The noise section's keys
#: depend on its model (_noise_schema).
_SCHEMA = {
    "walk": {
        "steps": (int, 100),
        "coin_angle": (_ANGLE, math.degrees(WalkConfig.coin_angle)),
        "delta": (_ANGLE, math.degrees(WalkConfig.delta)),
        "eta": (_ANGLE, math.degrees(WalkConfig.eta)),
        "initial_position": (int, WalkConfig.initial_position),
    },
    "noise": {},
    "mode": (get_args(EvolutionMode), "one_shot"),
    "witnesses": (_ListOf(WITNESS_TAGS), ["TD"]),
    "td_pair": (_ListOf(_ANGLE, 4), [math.degrees(a) for a in DEFAULT_TD_PAIR]),
    "spectral": {
        "family": (FIT_FAMILIES, DEFAULT_FIT_FAMILY),
        "min_prominence": (float, DEFAULT_MIN_PROMINENCE),
    },
    "choi": {"t1": (float, 1.0), "t2_max": (float, 20.0), "dt": (float, 0.1)},
    "output_dir": (str, "out"),
}

#: scalar kind -> (accepted JSON types, name in messages); bools never pass
_SCALARS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    _ANGLE: ((int, float), "a number"),
    str: (str, "a string"),
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


def _noise_schema(section) -> dict:
    """The noise section's keys: the model plus that model's parameters."""
    model = section.get("model") if isinstance(section, dict) else None
    record = _NOISE_MODELS.get(model) if isinstance(model, str) else None
    params = fields(record) if record else ()
    return {
        "model": (tuple(_NOISE_MODELS), "none"),
        **{p.name: (float, _REQUIRED if p.default is MISSING else p.default) for p in params},
    }


def _check(schema: dict, section, path: str = "") -> tuple[dict, dict]:
    """Check one section against its schema and fill in the defaults.

    Returns the echo (JSON values, angles in degrees) and the values
    (angles in radians, lists as tuples) of the section.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"'{path}' must be an object, got {type(section).__name__}")
    unknown = set(section) - set(schema)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in '{path or 'config'}'; "
            f"allowed: {sorted(schema)}"
        )
    echo, values = {}, {}
    for key, spec in schema.items():
        name = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            echo[key], values[key] = _check(spec, section.get(key, {}), name)
        elif key in section or spec[1] is not _REQUIRED:
            echo[key], values[key] = _check_value(spec[0], section.get(key, spec[1]), name)
        else:
            raise ConfigError(f"'{name}' is required")
    return echo, values


def _check_value(kind, raw, name: str):
    """(echo, value) of one config value of the given kind."""
    if isinstance(kind, _ListOf):
        if not isinstance(raw, list) or kind.length not in (None, len(raw)):
            count = f" of {kind.length}" if kind.length else ""
            raise ConfigError(f"'{name}' must be a list{count}, got {raw!r}")
        items = [_check_value(kind.item, v, f"{name}[{i}]") for i, v in enumerate(raw)]
        return [e for e, _ in items], tuple(v for _, v in items)
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ConfigError(f"'{name}' must be one of {list(kind)}, got {raw!r}")
        return raw, raw
    types, noun = _SCALARS[kind]
    if isinstance(raw, bool) or not isinstance(raw, types):
        raise ConfigError(f"'{name}' must be {noun}, got {raw!r}")
    if kind in (int, str):
        return raw, raw
    # JSON parsing lets NaN, Infinity and integers too large for a float in
    if not abs(raw) <= sys.float_info.max:
        raise ConfigError(f"'{name}' must be a finite number, got {raw!r}")
    x = float(raw)
    return x, math.radians(x) if kind is _ANGLE else x


def _build(cls, kwargs: dict, path: str):
    """cls(**kwargs), with the range checks of cls reported as ConfigError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"'{path}' parameter out of range: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON config document against the schema and apply defaults.

    Angles (coin_angle, delta, eta, td_pair entries) are given in degrees
    and converted to radians exactly once, here.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    if doc.get("noise") is None:  # "noise": null means no noise, like a missing section
        doc["noise"] = {}
    echo, values = _check({**_SCHEMA, "noise": _noise_schema(doc["noise"])}, doc)

    walk = _build(WalkConfig, values["walk"], "walk")
    params = values["noise"]
    model = _NOISE_MODELS[params.pop("model")]
    noise = _build(model, params, "noise") if model else None
    spectral, choi = values["spectral"], values["choi"]
    if not 0 <= spectral["min_prominence"] <= 1:
        raise ConfigError(
            f"'spectral.min_prominence' must be in [0, 1], got {spectral['min_prominence']}"
        )
    if choi["t1"] < 0 or choi["dt"] <= 0 or choi["t2_max"] <= choi["t1"]:
        raise ConfigError(
            "'choi' requires t1 >= 0, dt > 0, t2_max > t1; got "
            "t1={t1}, t2_max={t2_max}, dt={dt}".format(**choi)
        )
    return ExperimentConfig(
        walk=walk,
        noise=noise,
        mode=values["mode"],
        witnesses=values["witnesses"],
        td_pair=values["td_pair"],
        spectral=spectral,
        choi=choi,
        output_dir=values["output_dir"],
        echo=echo,
    )


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
        probs = position_distribution(state)
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
