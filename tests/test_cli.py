import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import nmqwalk.noise as noise_mod
from nmqwalk.cli import main, parse_config
from nmqwalk.exceptions import ConfigError
from nmqwalk.noise import OunParams, RtnParams


README = Path(__file__).resolve().parents[1] / "README.md"

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

    def test_readme_reference_lists_every_key(self):
        readme = README.read_text(encoding="utf-8")
        noise = [
            '{"model": "rtn", "a": 1, "gamma": 1}',
            '{"model": "oun", "Gamma": 1, "gamma": 1}',
            '{"model": "pln", "Gamma": 1, "gamma": 1}',
        ]
        schema_keys = set()
        for doc in ["{}", *(f'{{"noise": {n}}}' for n in noise)]:
            for key, value in parse_config(doc).echo.items():
                paths = [f"{key}.{sub}" for sub in value] if isinstance(value, dict) else [key]
                schema_keys.update(paths)
        table_keys = re.findall(r"^\| `([^`]+)` \|", readme, re.M)
        assert set(table_keys) == schema_keys

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

    def test_empty_grid_writes_header_only(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "noise": {"model": "oun", "Gamma": 1.0, "gamma": 5.0},
                "choi": {"t1": 1, "t2_max": 2, "dt": 100},
            },
        )
        out = tmp_path / "out"
        assert main(["choi", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_csv(out / "choi.csv") == (
            ["t2", "lambda3", "lambda4", "is_cp", "invertible"], []
        )


class TestSpectrumCommand:
    def write_series(self, tmp_path, values):
        path = tmp_path / "series.csv"
        lines = ["step,value"] + [f"{t},{float(v)!r}" for t, v in enumerate(values)]
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

    def test_constant_input_empty_peaks(self, tmp_path):
        src = self.write_series(tmp_path, [0.5] * 16)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {})
        code = main(
            ["spectrum", "--config", str(cfg), "--input", str(src), "--out", str(out)]
        )
        assert code == 0
        assert json.loads((out / "peaks.json").read_text()) == []

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


class TestExitCodes:
    def test_schema_error_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "retrocausal"})
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_is_4(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["walk", "--config", str(missing), "--out", str(tmp_path / "o")]) == 4

    def test_numerical_failure_is_3(self, tmp_path):
        # starting on the lattice boundary trips the edge guard
        cfg = write_config(tmp_path, {"walk": {"steps": 4, "initial_position": 5}})
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["walk", "witness"])
    def test_kernel_out_of_range_is_3(self, tmp_path, monkeypatch, command):
        # a one-shot kernel past 1 has no Kraus pair
        monkeypatch.setattr(noise_mod, "kernel_value", lambda noise, t: 1.0 + 1e-9)
        doc = {"walk": {"steps": 4}, "noise": {"model": "rtn", "a": 0.9, "gamma": 0.05}}
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
