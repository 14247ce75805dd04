"""Noisy discrete-time quantum walks and their non-Markovianity signatures.

The package simulates a coin-position quantum walk whose coin dephases
under one of three classical noise models (random telegraph, modified
Ornstein-Uhlenbeck, power-law), and provides the analysis toolchain for
detecting memory effects: CP-divisibility of the intermediate dynamical
maps, information-backflow witnesses (trace distance, mutual information,
MID, discord, coin entropy), and spectral disambiguation of the backflow
sources.

``__all__`` holds what the command line and the demos call; the building
blocks behind it are importable from their modules.
"""

from .divisibility import ChoiScanResult, cp_divisibility_scan
from .exceptions import (
    ConfigError,
    DimensionMismatchError,
    EdgeAmplitudeError,
    FitError,
    KernelRangeError,
    NmqwalkError,
    NonInvertibleMapError,
)
from .noise import NoiseModel, OunParams, PlnParams, RtnParams
from .spectral import (
    DisambiguationReport,
    MonotoneFit,
    Peak,
    Spectrum,
    TimeSeries,
    disambiguate,
)
from .walk import (
    WalkConfig,
    evolve_one_shot,
    evolve_stepwise,
    lattice_positions,
    position_distribution,
)
from .witness import witness_series

__version__ = "0.1.0"

__all__ = [
    "ChoiScanResult",
    "ConfigError",
    "DimensionMismatchError",
    "DisambiguationReport",
    "EdgeAmplitudeError",
    "FitError",
    "KernelRangeError",
    "MonotoneFit",
    "NmqwalkError",
    "NoiseModel",
    "NonInvertibleMapError",
    "OunParams",
    "Peak",
    "PlnParams",
    "RtnParams",
    "Spectrum",
    "TimeSeries",
    "WalkConfig",
    "cp_divisibility_scan",
    "disambiguate",
    "evolve_one_shot",
    "evolve_stepwise",
    "lattice_positions",
    "position_distribution",
    "witness_series",
]
