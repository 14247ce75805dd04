"""Each script in ``demos/`` runs as ``__main__`` and prints its headline results.

The demos are the only clients of part of ``nmqwalk.__all__`` (see
``test_hygiene.py``), so a change to that API or to the physics behind a
headline fails here. The numbers are the demos' printed values; the walks
are deterministic, so each line is checked as printed.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

#: demo -> lines its output must hold, each as printed, surrounding spaces stripped
HEADLINES = {
    "backflow_spectrum": [
        # the noise memory line of underdamped RTN, and the lattice line of both
        "peak at f = 0.0198 cycles/step, power 0.0871  <- noise memory",
        "peak at f = 0.2475 cycles/step, power 0.0693  <- position lattice",
        "peak at f = 0.2475 cycles/step, power 0.0937  <- position lattice",
    ],
    "ballistic_spread": [
        "log-log slope over t >= 20 = 2.021  (ballistic: 2)",
        "log-log slope over t >= 20 = 1.186  (classical diffusion: 1)",
    ],
    "correlation_revivals": [
        "final MI / MID / QD : 1.025 / 0.585 / 0.204",
        "final MI / MID / QD : 0.957 / 0.560 / 0.135",
        "final MI / MID / QD : 1.547 / 0.783 / 0.725",
    ],
    "cp_divisibility_scan": [
        "RTN  underdamped        -3.8134        150 / 190",
        "RTN  overdamped          0.0330          0 / 190",
        "OUN  slow bath           0.0026          0 / 190",
        "OUN  fast bath           0.0485          0 / 190",
        "PLN  slow bath           0.0212          0 / 190",
        "PLN  fast bath           0.0331          0 / 190",
    ],
}


def test_every_demo_is_checked():
    assert sorted(path.stem for path in DEMOS.glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("demo", HEADLINES)
def test_demo_prints_its_headlines(demo, capsys):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    missing = [line for line in HEADLINES[demo] if line not in lines]
    assert not missing, f"{demo} did not print {missing}"
    if demo == "backflow_spectrum":
        # Ornstein-Uhlenbeck noise has no memory line, so its section names none
        ou = lines[lines.index("Ornstein-Uhlenbeck noise (Gamma=1.0, gamma=0.01):") :]
        assert not any("noise memory" in line for line in ou)
    if demo == "correlation_revivals":
        assert lines.count("discord <= MID everywhere: True") == 3
