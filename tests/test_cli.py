import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    SIDED_NOISES,
    dense_one_shot,
    dense_populations,
    full_lattice_stepwise,
    lattice_half_width,
    lattice_size,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nmqwalk
import nmqwalk.cli as cli_mod
import nmqwalk.noise as noise_mod
from nmqwalk.cli import _NOISE_MODELS, _PROB_EMIT_TOL, choi_grid, main, parse_config
from nmqwalk.divisibility import cp_divisibility_scan
from nmqwalk.exceptions import ConfigError
from nmqwalk.noise import OunParams, RtnParams
from nmqwalk.walk import distribution_variance, populations
from nmqwalk.witness import WITNESS_TAGS


ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# one bad document per way parse_config can refuse a config, with the key
# its message must name
CONFIG_FAULTS = {
    "root-not-object": ("[]", "config"),
    "unknown-top-level-key": ('{"walks": {}}', "unknown key(s) ['walks']"),
    "section-not-object": ('{"walk": []}', "walk"),
    "unknown-walk-key": ('{"walk": {"step": 10}}', "unknown key(s) ['step']"),
    "steps-bool": ('{"walk": {"steps": true}}', "walk.steps"),
    "steps-float": ('{"walk": {"steps": 5.0}}', "walk.steps"),
    "steps-string": ('{"walk": {"steps": "many"}}', "walk.steps"),
    "position-float": ('{"walk": {"initial_position": 1.5}}', "walk.initial_position"),
    "position-whole-float": ('{"walk": {"initial_position": 1.0}}', "walk.initial_position"),
    "position-bool": ('{"walk": {"initial_position": true}}', "walk.initial_position"),
    "position-string": ('{"walk": {"initial_position": "0"}}', "walk.initial_position"),
    "angle-bool": ('{"walk": {"coin_angle": true}}', "walk.coin_angle"),
    "angle-string": ('{"walk": {"eta": "0"}}', "walk.eta"),
    "steps-negative": ('{"walk": {"steps": -1}}', "steps"),
    "noise-not-object": ('{"noise": "rtn"}', "noise"),
    "unknown-noise-key": (
        '{"noise": {"model": "rtn", "a": 0.1, "gamma": 0.01, "colour": "pink"}}',
        "unknown key(s) ['colour']",
    ),
    "noise-none-with-parameter": (
        '{"noise": {"model": "none", "a": 0.1}}', "unknown key(s) ['a']"
    ),
    "unknown-noise-model": ('{"noise": {"model": "brownian"}}', "noise.model"),
    "missing-noise-parameter": ('{"noise": {"model": "oun", "Gamma": 1.0}}', "noise.gamma"),
    "noise-parameter-string": (
        '{"noise": {"model": "rtn", "a": "big", "gamma": 0.01}}', "noise.a"
    ),
    "noise-parameter-bool": ('{"noise": {"model": "rtn", "a": true, "gamma": 0.01}}', "noise.a"),
    "rtn-gamma-out-of-range": ('{"noise": {"model": "rtn", "a": 0.1, "gamma": -1}}', "gamma"),
    "oun-Gamma-out-of-range": ('{"noise": {"model": "oun", "Gamma": -1, "gamma": 1}}', "Gamma"),
    "pln-alpha-unknown": (
        '{"noise": {"model": "pln", "Gamma": 1, "gamma": 1, "alpha": 2.0}}',
        "unknown key(s) ['alpha']",
    ),
    "bad-mode": ('{"mode": "retrocausal"}', "mode"),
    "witnesses-not-list": ('{"witnesses": "TD"}', "witnesses"),
    "witness-not-string": ('{"witnesses": [1]}', "witnesses"),
    "unknown-witness": ('{"witnesses": ["TD", "Concurrence"]}', "witness"),
    "unknown-witness-alone": ('{"witnesses": ["Concurrence"]}', "witness"),
    "td-pair-not-list": ('{"td_pair": 45}', "td_pair"),
    "td-pair-short": ('{"td_pair": [1, 2, 3]}', "td_pair"),
    "td-pair-entry-string": ('{"td_pair": [45, 0, "-45", 0]}', "td_pair"),
    "td-pair-entry-bool": ('{"td_pair": [45, 0, -45, false]}', "td_pair"),
    "spectral-not-object": ('{"spectral": 0.05}', "spectral"),
    "unknown-spectral-key": ('{"spectral": {"window": "hann"}}', "unknown key(s) ['window']"),
    "bad-family": ('{"spectral": {"family": "linear"}}', "spectral.family"),
    "prominence-string": ('{"spectral": {"min_prominence": "low"}}', "spectral.min_prominence"),
    "prominence-below-0": ('{"spectral": {"min_prominence": -0.1}}', "spectral.min_prominence"),
    "prominence-above-1": ('{"spectral": {"min_prominence": 1.5}}', "spectral.min_prominence"),
    "choi-not-object": ('{"choi": [1, 20, 0.1]}', "choi"),
    "unknown-choi-key": ('{"choi": {"t0": 0}}', "unknown key(s) ['t0']"),
    "choi-t1-string": ('{"choi": {"t1": "1"}}', "choi.t1"),
    "choi-t1-negative": ('{"choi": {"t1": -1}}', "t1"),
    "choi-dt-zero": ('{"choi": {"dt": 0}}', "dt"),
    "choi-t2max-not-after-t1": ('{"choi": {"t1": 5, "t2_max": 5}}', "t2_max"),
    "output-dir-not-string": ('{"output_dir": 7}', "output_dir"),
}


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def csv_writer_oracle(path, header, rows):
    """The data-file writer the format strings replaced: ``csv.writer``, one call per value.

    A bool is written as true/false, an integer as itself and any other
    number to 12 significant digits.
    """

    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return f"{float(value):.12g}"

    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


class TestCsvFormat:
    # signed zero, subnormal-range, large and inexact floats, an integer
    # past 2^53, numpy scalars, and the non-finite values a witness can reach
    ROWS = [
        (0, -0.0, 1e-300),
        (np.int64(7), 1e16, 0.1),
        (2**53 + 1, np.float64(-2.5e-17), math.nan),
        (np.int64(-3), math.inf, np.float64(1 / 3)),
        (12, 123456789012.5, -math.inf),
    ]

    def test_format_string_matches_csv_writer(self, tmp_path):
        header = ["step", "a", "b"]
        cli_mod._write_csv(tmp_path / "new.csv", header, "%d,%.12g,%.12g", self.ROWS)
        csv_writer_oracle(tmp_path / "old.csv", header, self.ROWS)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize(
        "noise, choi",
        [
            ({"model": "rtn", "a": 0.9, "gamma": 0.05}, {"t1": 1.0, "t2_max": 20.0, "dt": 0.1}),
            # k(300) = e^-749.5 underflows to 0, a kernel zero: NaN rows, all flags false
            ({"model": "oun", "Gamma": 5.0, "gamma": 5.0}, {"t1": 300.0, "t2_max": 301.0, "dt": 0.1}),
        ],
        ids=["cp-and-not-cp", "non-invertible"],
    )
    def test_choi_flags_match_csv_writer(self, tmp_path, noise, choi):
        doc = {"noise": noise, "choi": choi}
        out = tmp_path / "out"
        assert main(["choi", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        parsed = parse_config(json.dumps(doc))
        result = cp_divisibility_scan(parsed.noise, choi["t1"], choi_grid(choi))
        rows = [(*point, result.invertible) for point in result.points.tolist()]
        header = ["t2", "lambda3", "lambda4", "is_cp", "invertible"]
        csv_writer_oracle(tmp_path / "old.csv", header, rows)
        assert (out / "choi.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert {r[3] for r in rows} == ({True, False} if result.invertible else {False})


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("{}")
        assert cfg.walk.steps == 100
        assert cfg.walk.coin_angle == pytest.approx(math.pi / 4)
        assert cfg.walk.delta == pytest.approx(math.pi / 4)
        assert cfg.walk.eta == 0.0
        assert cfg.mode == "one_shot"
        assert cfg.noise is None
        assert cfg.spectral == {"family": "exponential", "min_prominence": 0.05}

    def test_angles_converted_from_degrees(self):
        cfg = parse_config('{"walk": {"coin_angle": 90.0}, "td_pair": [30, 0, -30, 0]}')
        assert cfg.walk.coin_angle == pytest.approx(math.pi / 2)
        assert cfg.td_pair[0] == pytest.approx(math.pi / 6)

    def test_noise_models_parsed(self):
        cfg = parse_config('{"noise": {"model": "rtn", "a": 0.08, "gamma": 0.001}}')
        assert cfg.noise == RtnParams(a=0.08, gamma=0.001)
        cfg = parse_config('{"noise": {"model": "oun", "Gamma": 1.0, "gamma": 5.0}}')
        assert cfg.noise == OunParams(Gamma=1.0, gamma=5.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config('{"walks": {}}')
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config('{"walk": {"step": 10}}')

    def test_range_error_on_negative_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config('{"noise": {"model": "rtn", "a": 0.1, "gamma": -1}}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json}")

    @pytest.mark.parametrize("text, key", CONFIG_FAULTS.values(), ids=CONFIG_FAULTS.keys())
    def test_each_fault_names_its_key(self, text, key, tmp_path, capsys):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert key in str(excinfo.value)
        if key == "walk.steps":  # and through main: exit code 2, key on stderr
            path = tmp_path / "config.json"
            path.write_text(text)
            assert main(["walk", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"walk": {"coin_angle": Infinity}}', "walk.coin_angle"),
            ('{"noise": {"model": "rtn", "a": NaN, "gamma": 1}}', "noise.a"),
            ('{"td_pair": [45, 0, -Infinity, 0]}', "td_pair"),
            ('{"choi": {"dt": NaN}}', "choi.dt"),
            ('{"choi": {"t2_max": 1%s}}' % ("0" * 400), "choi.t2_max"),  # no float holds it
        ],
        ids=["angle-infinity", "noise-nan", "td-pair-infinity", "choi-nan", "choi-huge-int"],
    )
    def test_non_finite_number_rejected(self, text, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(text)

    def test_default_echo(self):
        defaults = {
            "walk": {
                "steps": 100,
                "coin_angle": 45.0,
                "delta": 45.0,
                "eta": 0.0,
                "initial_position": 0,
            },
            "noise": {"model": "none"},
            "mode": "one_shot",
            "witnesses": ["TD"],
            "td_pair": [45.0, 0.0, -45.0, 0.0],
            "spectral": {"family": "exponential", "min_prominence": 0.05},
            "choi": {"t1": 1.0, "t2_max": 20.0, "dt": 0.1},
            "output_dir": "out",
        }
        pln = {"model": "pln", "Gamma": 5.0, "gamma": 0.05}
        echo = parse_config("{}").echo
        pln_echo = parse_config('{"noise": {"model": "pln", "Gamma": 5, "gamma": 0.05}}').echo
        # compared as JSON text too, so 45 and 45.0 differ as in metadata.json
        assert echo == defaults
        assert parse_config('{"noise": null}').echo == defaults
        assert json.dumps(echo, sort_keys=True) == json.dumps(defaults, sort_keys=True)
        assert pln_echo == {**defaults, "noise": pln}
        assert json.dumps(pln_echo["noise"], sort_keys=True) == json.dumps(pln, sort_keys=True)

    def test_readme_example_parses(self):
        readme = README.read_text(encoding="utf-8")
        (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        echo = parse_config(example).echo
        for key, value in json.loads(example).items():
            if isinstance(value, dict):
                assert echo[key] == {**echo[key], **value}
            else:
                assert echo[key] == value

    def test_readme_library_tour_runs(self, capsys):
        readme = README.read_text(encoding="utf-8")
        (tour,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        exec(compile(tour, "<README library tour>", "exec"), {})
        # the tour's first print is the count of non-CP maps its comment gives
        assert capsys.readouterr().out.splitlines()[0] == "150"

    def test_echo_round_trips(self):
        text = (
            '{"walk": {"steps": 7, "eta": 15.0},'
            ' "noise": {"model": "pln", "Gamma": 5.0, "gamma": 0.05},'
            ' "witnesses": ["MI", "Entropy"]}'
        )
        cfg = parse_config(text)
        again = parse_config(json.dumps(cfg.echo))
        assert again.walk == cfg.walk
        assert again.noise == cfg.noise
        assert again.witnesses == cfg.witnesses
        assert again.echo == cfg.echo


@st.composite
def one_shot_walk_docs(draw):
    """The ``walk`` section of a walk of T <= 40 steps with any coin and start."""
    angles = st.floats(min_value=-180.0, max_value=180.0)
    return {
        "steps": draw(st.integers(min_value=0, max_value=40)),
        "coin_angle": draw(angles),
        "delta": draw(angles),
        "eta": draw(angles),
    }


class TestWalkCommand:
    def test_outputs_and_known_values(self, tmp_path):
        cfg = write_config(tmp_path, {"walk": {"steps": 6}})
        out = tmp_path / "out"
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "variance.csv")
        assert header == ["step", "variance"]
        by_step = {int(r[0]): float(r[1]) for r in rows}
        assert by_step[2] == pytest.approx(1.0, abs=1e-12)

        header, rows = read_csv(out / "distribution.csv")
        assert header == ["step", "x", "probability"]
        step0 = [r for r in rows if r[0] == "0"]
        assert step0 == [["0", "0", "1"]]

    def test_markovian_noise_slows_spread(self, tmp_path):
        out_free = tmp_path / "free"
        out_noisy = tmp_path / "noisy"
        cfg_free = write_config(tmp_path, {"walk": {"steps": 40}}, "free.json")
        # stepwise mode: noise interleaved with the walk decoheres the
        # spread (one-shot coin dephasing cannot change position marginals)
        cfg_noisy = write_config(
            tmp_path,
            {
                "walk": {"steps": 40},
                "noise": {"model": "rtn", "a": 1.0, "gamma": 7.0},
                "mode": "stepwise",
            },
            "noisy.json",
        )
        assert main(["walk", "--config", str(cfg_free), "--out", str(out_free)]) == 0
        assert main(["walk", "--config", str(cfg_noisy), "--out", str(out_noisy)]) == 0

        def loglog_slope(path):
            _, rows = read_csv(path / "variance.csv")
            t = np.array([float(r[0]) for r in rows])
            v = np.array([float(r[1]) for r in rows])
            mask = t >= 10
            return np.polyfit(np.log(t[mask]), np.log(v[mask]), 1)[0]

        assert loglog_slope(out_noisy) < loglog_slope(out_free) < 2.1

    @pytest.mark.parametrize("x0", [0, -2])
    def test_stepwise_outputs_match_the_full_lattice_loop(self, tmp_path, monkeypatch, x0):
        # the rows the full (2n)^2 evolution gives under the same emit rule,
        # their x shifted by the start; the variances are compared as
        # computed, before the CSV rounds them to 12 digits
        written = {}

        def keep_rows(path, header, fmt, rows):
            written[path.name] = rows = list(rows)
            write_csv(path, header, fmt, rows)

        write_csv = cli_mod._write_csv
        monkeypatch.setattr(cli_mod, "_write_csv", keep_rows)
        doc = {
            "walk": {"steps": 30, "delta": 40.0, "eta": 30.0, "initial_position": x0},
            "noise": {"model": "oun", "Gamma": 0.1, "gamma": 0.01},
            "mode": "stepwise",
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
        parsed = parse_config(json.dumps(doc))
        dist = ["step,x,probability\n"]
        variance = []
        for t, rho, positions in full_lattice_stepwise(parsed.walk, parsed.noise):
            probs = dense_populations(rho)
            dist += [
                f"{t},{x + x0},{p:.12g}\n" for x, p in zip(positions, probs) if p > _PROB_EMIT_TOL
            ]
            variance.append(distribution_variance(probs, positions.astype(float)))
        assert (out / "distribution.csv").read_text(encoding="utf-8") == "".join(dist)
        steps, found = zip(*written["variance.csv"])
        assert steps == tuple(range(31))
        np.testing.assert_allclose(found, variance, rtol=1e-12, atol=0.0)

    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(walk=one_shot_walk_docs(), noise=SIDED_NOISES)
    def test_one_shot_noise_moves_no_population(self, tmp_path, walk, noise):
        # one-shot dephasing acts on the coin at readout: the files are those
        # of the noiseless walk, and the populations the diagonal of each
        # dephased state
        models = {record: name for name, record in _NOISE_MODELS.items()}
        section = {"model": models[type(noise)], **asdict(noise)} if noise else None
        written = {}
        for label, doc in [("noisy", {"walk": walk, "noise": section}), ("free", {"walk": walk})]:
            cfg, out = write_config(tmp_path, doc), tmp_path / label
            assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
            written[label] = [(out / f).read_bytes() for f in ("distribution.csv", "variance.csv")]
        assert written["noisy"] == written["free"]
        cfg = parse_config(json.dumps({"walk": walk})).walk
        pairs = zip(populations(cfg, noise, "one_shot"), dense_one_shot(cfg, noise), strict=True)
        for (t, x, probs), (_, rho) in pairs:
            found = np.zeros(lattice_size(cfg))
            found[x + lattice_half_width(cfg)] = probs
            np.testing.assert_allclose(
                found, dense_populations(rho), rtol=0.0, atol=1e-13, err_msg=f"t={t}"
            )

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, {"walk": {"steps": 10}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["walk", "--config", str(cfg), "--out", str(out1)])
        main(["walk", "--config", str(cfg), "--out", str(out2)])
        for name in ("distribution.csv", "variance.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_lf_line_endings_and_float_format(self, tmp_path):
        cfg = write_config(tmp_path, {"walk": {"steps": 4}})
        out = tmp_path / "out"
        main(["walk", "--config", str(cfg), "--out", str(out)])
        raw = (out / "distribution.csv").read_bytes()
        assert b"\r" not in raw
        _, rows = read_csv(out / "distribution.csv")
        for row in rows:
            assert float(row[2]) <= 1.0  # parses back at full precision


#: the noise sections under which a start off the origin is checked
START_NOISES = {
    "none": None,
    "oun": {"model": "oun", "Gamma": 0.1, "gamma": 0.01},
    "pln": {"model": "pln", "Gamma": 0.1, "gamma": 0.01},
    "rtn": {"model": "rtn", "a": 0.05, "gamma": 0.008},
}


class TestStartPosition:
    """The walk is translation-invariant: ``walk.initial_position`` moves the
    ``x`` column of distribution.csv and no other byte of any data file."""

    @pytest.mark.parametrize("noise", START_NOISES.values(), ids=START_NOISES.keys())
    @pytest.mark.parametrize("mode", ["one_shot", "stepwise"])
    def test_start_shifts_the_x_column_alone(self, tmp_path, mode, noise):
        def run(x0):
            doc = {
                "walk": {"steps": 8, "initial_position": x0},
                "noise": noise,
                "mode": mode,
                "witnesses": list(WITNESS_TAGS),
            }
            cfg = write_config(tmp_path, doc, f"x{x0}.json")
            files = {}
            # walk and witness each write a variance.csv, so each has its own directory
            for command in ("walk", "witness"):
                out = tmp_path / f"x{x0}" / command
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
                for path in out.iterdir():
                    if path.name != "metadata.json":
                        files[f"{command}/{path.name}"] = path.read_text(encoding="utf-8")
            return files

        origin = run(0)
        header, *rows = origin.pop("walk/distribution.csv").splitlines(keepends=True)
        for x0 in (-9, 12, 10**6, -(2**70)):
            found = run(x0)
            shifted = [f"{t},{int(x) + x0},{p}" for t, x, p in (row.split(",") for row in rows)]
            assert found.pop("walk/distribution.csv") == header + "".join(shifted), x0
            assert found == origin, x0


    @pytest.mark.parametrize("x0", [-7, 7], ids=["left", "right"])
    @pytest.mark.parametrize("mode", ["one_shot", "stepwise"])
    def test_x_column_is_the_light_cone_about_the_start(self, tmp_path, mode, x0):
        # distribution.csv holds x0 - t, x0 - t + 2, ..., x0 + t at step t;
        # the config's angles are in degrees; this walker fills its whole cone
        doc = {
            "walk": {"steps": 6, "delta": 40.0, "eta": 30.0, "initial_position": x0},
            "noise": {"model": "oun", "Gamma": 0.1, "gamma": 0.01},
            "mode": mode,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_csv(tmp_path / "out" / "distribution.csv")
        written = {t: [] for t in range(7)}
        for t, x, _ in rows:
            written[int(t)].append(int(x))
        assert written == {t: list(range(x0 - t, x0 + t + 1, 2)) for t in written}


class TestWitnessCommand:
    def test_per_tag_files_and_metadata(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "walk": {"steps": 8},
                "noise": {"model": "rtn", "a": 0.08, "gamma": 0.01},
                "witnesses": ["MID", "QD", "MI"],
            },
        )
        out = tmp_path / "out"
        assert main(["witness", "--config", str(cfg), "--out", str(out)]) == 0
        _, mid_rows = read_csv(out / "mid.csv")
        _, qd_rows = read_csv(out / "qd.csv")
        _, mi_rows = read_csv(out / "mi.csv")
        assert float(mi_rows[0][1]) == pytest.approx(0.0, abs=1e-9)
        for (_, qd), (_, mid) in zip(qd_rows, mid_rows):
            assert float(qd) <= float(mid) + 1e-6
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["walk"]["steps"] == 8
        assert "generated_at" in meta

    def test_metadata_records_the_package_version(self, tmp_path):
        cfg = write_config(tmp_path, {"walk": {"steps": 2}, "witnesses": ["Entropy"]})
        out = tmp_path / "out"
        assert main(["witness", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["artifact_version"] == nmqwalk.__version__
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            version = re.search(r'^version = "([^"]+)"', text, re.MULTILINE).group(1)
        else:
            version = tomllib.loads(text)["project"]["version"]
        assert nmqwalk.__version__ == version

    def test_td_series_has_a_rise(self, tmp_path):
        cfg = write_config(tmp_path, {"walk": {"steps": 20}, "witnesses": ["TD"]})
        out = tmp_path / "out"
        assert main(["witness", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "td.csv")
        values = np.array([float(r[1]) for r in rows])
        assert np.any(np.diff(values) > 1e-9)


class TestChoiCommand:
    def test_rtn_non_markovian_has_negative_lambda3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "noise": {"model": "rtn", "a": 0.9, "gamma": 0.05},
                "choi": {"t1": 1.0, "t2_max": 20.0, "dt": 0.1},
            },
        )
        out = tmp_path / "out"
        assert main(["choi", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "choi.csv")
        assert header == ["t2", "lambda3", "lambda4", "is_cp", "invertible"]
        l3 = np.array([float(r[1]) for r in rows])
        assert np.any(l3 < 0)
        assert any(r[3] == "false" for r in rows)

    def test_oun_fully_cp(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "noise": {"model": "oun", "Gamma": 1.0, "gamma": 5.0},
                "choi": {"t1": 1.0, "t2_max": 20.0, "dt": 0.1},
            },
        )
        out = tmp_path / "out"
        assert main(["choi", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "choi.csv")
        assert all(r[3] == "true" and r[4] == "true" for r in rows)

    def test_noiseless_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert main(["choi", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "t2_max, dt, rows",
        [(1.1, 0.1, 1), (1.26, 0.1, 2), (1.3, 0.1, 3), (20.0, 0.1, 190), (20.0, 0.01, 1900)],
        ids=["one-point", "between-points", "on-a-point", "default", "fine"],
    )
    def test_grid_ends_at_t2_max(self, tmp_path, t2_max, dt, rows):
        # the last point is the last t1 + n dt <= t2_max, up to rounding
        cfg = write_config(
            tmp_path,
            {
                "noise": {"model": "oun", "Gamma": 1.0, "gamma": 5.0},
                "choi": {"t1": 1.0, "t2_max": t2_max, "dt": dt},
            },
        )
        out = tmp_path / "out"
        assert main(["choi", "--config", str(cfg), "--out", str(out)]) == 0
        t2 = [float(r[0]) for r in read_csv(out / "choi.csv")[1]]
        assert len(t2) == rows
        assert max(t2) <= t2_max + 1e-12

    @pytest.mark.parametrize(
        "choi",
        [{"t1": 1.0, "t2_max": 1.05, "dt": 0.1}, {"t1": 1, "t2_max": 2, "dt": 100}],
        ids=["short", "wide-step"],
    )
    def test_empty_grid_refused(self, tmp_path, capsys, choi):
        # t2_max > t1 passes parse_config, but no t1 + n dt reaches t2_max:
        # the scan used to write a choi.csv of its header alone. walk and
        # witness do not read the grid, so they still accept the config
        doc = {"noise": {"model": "oun", "Gamma": 1.0, "gamma": 5.0}, "choi": choi}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["choi", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "choi.csv").exists()
        message = capsys.readouterr().err
        assert "'choi' grid is empty" in message
        assert "t1={}, t2_max={}, dt={}".format(*map(float, choi.values())) in message
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0


class TestSpectrumCommand:
    def write_series(self, tmp_path, values, times=None):
        path = tmp_path / "series.csv"
        times = range(len(values)) if times is None else times
        lines = ["step,value"] + [f"{t},{float(v)!r}" for t, v in zip(times, values)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_two_tone_input(self, tmp_path):
        t = np.arange(64)
        y = (
            np.exp(-0.05 * t)
            + 0.1 * np.cos(2 * np.pi * 0.25 * t)
            + 0.05 * np.cos(2 * np.pi * 0.03125 * t)
        )
        src = self.write_series(tmp_path, y)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {})
        code = main(
            ["spectrum", "--config", str(cfg), "--input", str(src), "--out", str(out)]
        )
        assert code == 0
        peaks = json.loads((out / "peaks.json").read_text())
        assert len(peaks) == 2
        assert peaks[0]["relative_power"] == 1.0
        assert peaks[0]["power"] >= peaks[1]["power"]
        for name in ("fit.csv", "residual.csv", "spectrum.csv"):
            header, rows = read_csv(out / name)
            assert len(rows) > 0

    @pytest.mark.parametrize("step", [1, 2], ids=["unit-steps", "steps-of-2"])
    def test_outputs_follow_the_input_and_its_step(self, tmp_path, step):
        # a tone of 0.1 cycles per step on a decay; at steps of 2 the input
        # holds every second row of the unit-step one
        t = step * np.arange(80)
        src = self.write_series(tmp_path, np.exp(-0.05 * t) + 0.1 * np.cos(0.2 * np.pi * t), t)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {})
        assert main(["spectrum", "--config", str(cfg), "--input", str(src), "--out", str(out)]) == 0
        inputs, fit, residual = (
            np.array(read_csv(path)[1], dtype=float)
            for path in (src, out / "fit.csv", out / "residual.csv")
        )
        n = len(inputs)
        assert fit.shape == residual.shape == (n, 2)
        assert np.array_equal(fit[:, 0], t) and np.array_equal(residual[:, 0], t)
        # to 12 significant digits of the input, as the CSVs write them
        np.testing.assert_allclose(
            residual[:, 1], inputs[:, 1] - fit[:, 1], rtol=0, atol=1e-11 * np.max(np.abs(inputs))
        )
        header, rows = read_csv(out / "spectrum.csv")
        frequencies, power = np.array(rows, dtype=float).T
        assert header == ["frequency", "power"]
        np.testing.assert_allclose(frequencies, np.arange(n // 2 + 1) / (n * step), rtol=1e-11)
        assert np.sum(power) == pytest.approx(n * np.var(residual[:, 1]), rel=1e-9)
        peaks = json.loads((out / "peaks.json").read_text())
        assert peaks[0]["frequency"] == pytest.approx(0.1, rel=1e-12)

    def test_constant_input_empty_peaks(self, tmp_path):
        src = self.write_series(tmp_path, [0.5] * 16)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {})
        code = main(
            ["spectrum", "--config", str(cfg), "--input", str(src), "--out", str(out)]
        )
        assert code == 0
        assert json.loads((out / "peaks.json").read_text()) == []

    @pytest.mark.parametrize(
        "times, reason",
        [
            (range(3), "at least 4 samples"),
            # a witness series of steps: 6 has 7 rows
            (range(7), "at least 8 samples"),
            ([0, 1, 2, 3, 5, 6, 7, 8, 9, 10], "uniformly spaced"),
        ],
        ids=["3-rows", "7-rows", "uneven-steps"],
    )
    def test_short_or_uneven_input_is_2(self, tmp_path, capsys, times, reason):
        path = tmp_path / "td.csv"
        rows = [f"{t},{math.exp(-0.1 * t)!r}" for t in times]
        path.write_text("\n".join(["step,value", *rows]) + "\n")
        cfg = write_config(tmp_path, {})
        out = str(tmp_path / "o")
        code = main(["spectrum", "--config", str(cfg), "--input", str(path), "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and reason in err

    @pytest.mark.parametrize("family", ["isotonic", "exponential"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_step_is_2(self, tmp_path, capsys, family, bad):
        # a NaN step once passed every check: the isotonic fit wrote it into
        # fit.csv and exited 0, the exponential one exited 3 on an overflow
        path = tmp_path / "td.csv"
        rows = [f"{t},{math.exp(-0.1 * t)!r}" for t in range(16)]
        rows[5] = f"{bad},{math.exp(-0.5)!r}"
        path.write_text("\n".join(["step,value", *rows]) + "\n")
        cfg = write_config(tmp_path, {"spectral": {"family": family}})
        out = tmp_path / "o"
        code = main(["spectrum", "--config", str(cfg), "--input", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and "times must be finite" in err
        assert not (out / "fit.csv").exists()

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("step,value\n0,1.0\n1,oops\n")
        cfg = write_config(tmp_path, {})
        code = main(
            [
                "spectrum",
                "--config",
                str(cfg),
                "--input",
                str(path),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "line 3" in capsys.readouterr().err


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch, capsys):
        # main builds its parser once per process; a second run of each
        # command writes the same bytes, and each failure keeps its exit code
        assert cli_mod._build_parser() is cli_mod._build_parser()
        doc = {
            "walk": {"steps": 12, "delta": 40.0, "eta": 30.0},
            "noise": {"model": "rtn", "a": 0.05, "gamma": 0.008},
            "witnesses": ["TD", "MI", "MID", "QD", "Entropy", "Variance"],
            "choi": {"t1": 1.0, "t2_max": 3.0, "dt": 0.5},
        }
        cfg = write_config(tmp_path, doc)
        bad = write_config(tmp_path, {"mode": "retrocausal"}, name="bad.json")
        missing = tmp_path / "nope.json"
        runs = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            for command in ("walk", "witness", "choi"):
                assert main([command, "--config", str(cfg), "--out", str(out / command)]) == 0
            assert main(["walk", "--config", str(bad), "--out", str(out / "bad")]) == 2
            assert main(["walk", "--config", str(missing), "--out", str(out / "bad")]) == 4
            with pytest.raises(SystemExit) as exc:
                main(["walk", "--no-such-option"])
            assert exc.value.code == 2
            runs.append({f"{f.parent.name}/{f.name}": f.read_bytes() for f in out.glob("*/*.csv")})
        assert sorted(runs[0]) == sorted(
            ["walk/distribution.csv", "walk/variance.csv", "choi/choi.csv"]
            + [f"witness/{tag.lower()}.csv" for tag in doc["witnesses"]]
        )
        assert runs[0] == runs[1]
        monkeypatch.setitem(noise_mod._KERNELS, RtnParams, lambda p, t: np.full(np.shape(t), 2.0))
        for _ in range(2):
            assert main(["witness", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


class TestExitCodes:
    def test_schema_error_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "retrocausal"})
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_is_4(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["walk", "--config", str(missing), "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("command", ["walk", "witness", "choi"])
    def test_kernel_out_of_range_is_3(self, tmp_path, monkeypatch, command):
        # a kernel past 1 has no Kraus pair and no CP intermediate map
        monkeypatch.setitem(noise_mod._KERNELS, RtnParams, lambda p, t: np.full(np.shape(t), 1.0 + 1e-9))
        doc = {"walk": {"steps": 4}, "noise": {"model": "rtn", "a": 0.9, "gamma": 0.05}}
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["walk", "witness", "choi"])
    @pytest.mark.parametrize(
        "noise, mode",
        [
            # (2a/gamma)^2 overflows: every kernel value is NaN
            ({"model": "rtn", "a": 1e300, "gamma": 1.0}, "one_shot"),
            ({"model": "rtn", "a": 1e300, "gamma": 1.0}, "stepwise"),
            # 2a/gamma is inf: every kernel value is NaN
            ({"model": "rtn", "a": 0.05, "gamma": 1e-320}, "stepwise"),
        ],
        ids=["rtn-overflow-one_shot", "rtn-overflow-stepwise", "rtn-nan-stepwise"],
    )
    def test_non_finite_kernel_is_3(self, tmp_path, capsys, command, noise, mode):
        doc = {"walk": {"steps": 5}, "noise": noise, "mode": mode, "witnesses": ["MI"]}
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "kernel value nan" in err

    @pytest.mark.parametrize("tag", ["MI", "Entropy", "TD"])
    def test_non_physical_stepwise_state_is_3(self, tmp_path, capsys, tag):
        # near a kernel zero the step ratio k(t)/k(t-1) grows without bound
        # and the state leaves the state space: its minimum eigenvalue is
        # -0.273 at t = 18, where MI would read more than the 2 bits a qubit
        # coin allows (22.4 bits at t = 60). Entropy and TD, which read no
        # spectrum, wrote 0.583 and 0.721 at t = 60 before they checked
        doc = {
            "walk": {"steps": 60},
            "noise": {"model": "rtn", "a": 0.05, "gamma": 0.008},
            "mode": "stepwise",
            "witnesses": [tag],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["witness", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.search(r"state at t=18 has eigenvalue -0\.273\d* below -1e-10", err), err
        assert not (out / f"{tag.lower()}.csv").exists()

    @pytest.mark.parametrize("mode", ["one_shot", "stepwise"])
    @pytest.mark.parametrize("command", ["walk", "witness"])
    @pytest.mark.parametrize(
        "steps, code, message",
        [
            # the first time grid would take 728 TiB, past any address space,
            # so its allocation fails at once
            (10**14, 3, "out of memory: Unable to allocate 728. TiB"),
            # past 2**53 a float time grid is no longer exact
            (10**19, 2, "steps must be at most 2**53 - 1"),
        ],
        ids=["too-large-to-allocate", "past-exact-float-times"],
    )
    def test_impossible_walk_length(self, tmp_path, capsys, mode, command, steps, code, message):
        # both exited 1 with a traceback: numpy's MemoryError, or its
        # "Maximum allowed size exceeded" ValueError
        cfg = write_config(tmp_path, {"walk": {"steps": steps}, "mode": mode})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err

    @pytest.mark.parametrize("command", ["walk", "witness"])
    def test_negative_population_is_3(self, tmp_path, capsys, command):
        # the same walk's first population below -1e-10 is -0.0606 at t = 19;
        # unchecked, the populations of t = 60 summed to 4.77 and its
        # variance read -469.2
        doc = {
            "walk": {"steps": 60},
            "noise": {"model": "rtn", "a": 0.05, "gamma": 0.008},
            "mode": "stepwise",
            "witnesses": ["Variance"],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.search(r"state at t=19 has population -0\.0606\d* below -1e-10", err), err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["walk", "witness"])
    def test_monotone_kernel_far_below_1e_14_is_walked(self, tmp_path, command):
        # OUN(1, 5) falls to 2e-22 at t = 100, yet it has no zero: every step
        # ratio is about e^(-1/2). A kernel of 1e-14 or less used to count as
        # a zero and stop the walk at t1 = 65
        doc = {
            "walk": {"steps": 100},
            "noise": {"model": "oun", "Gamma": 1.0, "gamma": 5.0},
            "mode": "stepwise",
            "witnesses": ["TD", "Entropy", "Variance"],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "variance.csv")
        assert [int(row[0]) for row in rows] == list(range(101))


#: (config, CLI steps, exit code of the last step) per start-up case; a
#: step's "{out}" and series paths ("{series}", "{short}" of 7 rows,
#: "{uneven}" with a missing step) are filled in with paths under tmp_path
STARTUP_CASES = {
    "import-and-parse": ({"walk": {"steps": 4}}, [], 0),
    "one-shot-witness": (
        {
            "walk": {"steps": 6},
            "noise": {"model": "rtn", "a": 0.05, "gamma": 0.008},
            "witnesses": ["MI", "MID", "QD", "Entropy", "TD"],
        },
        [["witness", "--out", "{out}"]],
        0,
    ),
    "stepwise-walk-and-witness": (
        {
            "walk": {"steps": 6},
            "noise": {"model": "oun", "Gamma": 0.1, "gamma": 0.01},
            "mode": "stepwise",
            "witnesses": ["Entropy", "MI"],
        },
        [["walk", "--out", "{out}"], ["witness", "--out", "{out}"]],
        0,
    ),
    "choi": (
        {"noise": {"model": "rtn", "a": 0.9, "gamma": 0.05}, "choi": {"t2_max": 3.0}},
        [["choi", "--out", "{out}"]],
        0,
    ),
    "stepwise-discord": (
        {
            "walk": {"steps": 4},
            "noise": {"model": "oun", "Gamma": 0.1, "gamma": 0.01},
            "mode": "stepwise",
            "witnesses": ["QD"],
        },
        [["witness", "--out", "{out}"]],
        0,
    ),
    "spectrum": ({}, [["spectrum", "--input", "{series}", "--out", "{out}"]], 0),
    "spectrum-isotonic": (
        {"spectral": {"family": "isotonic"}},
        [["spectrum", "--input", "{series}", "--out", "{out}"]],
        0,
    ),
    # refused before the fit
    "spectrum-7-rows": ({}, [["spectrum", "--input", "{short}", "--out", "{out}"]], 2),
    "spectrum-uneven-steps": ({}, [["spectrum", "--input", "{uneven}", "--out", "{out}"]], 2),
}

#: runs in a fresh interpreter: parse the config, run each CLI step until
#: one fails, and print its exit code and whether scipy was imported
STARTUP_PROBE = """
import json, sys
from nmqwalk.cli import main, parse_config
parse_config(open(sys.argv[1], encoding="utf-8").read())
code = 0
for argv in json.loads(sys.argv[2]):
    code = main([*argv, "--config", sys.argv[1]])
    if code:
        break
print(json.dumps([code, "scipy" in sys.modules]))
"""


@pytest.mark.parametrize("doc, steps, exit_code", STARTUP_CASES.values(), ids=STARTUP_CASES.keys())
def test_no_subcommand_loads_scipy(tmp_path, doc, steps, exit_code):
    paths = {"out": str(tmp_path / "out")}
    for name, times in [
        ("series", range(16)),
        ("short", range(7)),
        ("uneven", [0, 1, 2, 3, 5, 6, 7, 8, 9, 10]),
    ]:
        path = tmp_path / f"{name}.csv"
        path.write_text("step,value\n" + "".join(f"{t},{math.exp(-0.1 * t)!r}\n" for t in times))
        paths[name] = str(path)
    argvs = [[arg.format(**paths) for arg in argv] for argv in steps]
    cfg = write_config(tmp_path, doc)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(nmqwalk.__file__).resolve().parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(cfg), json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [exit_code, False], proc.stderr
