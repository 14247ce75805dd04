"""Noisy discrete-time quantum walks and their non-Markovianity signatures.

The package simulates a coin-position quantum walk whose coin dephases
under one of three classical noise models (random telegraph, modified
Ornstein-Uhlenbeck, power-law), and provides the analysis toolchain for
detecting memory effects: CP-divisibility of the intermediate dynamical
maps, information-backflow witnesses (trace distance, mutual information,
MID, discord, coin entropy), and spectral disambiguation of the backflow
sources.
"""

from .divisibility import (
    ChoiScanResult,
    choi_eigenvalues,
    cp_divisibility_scan,
    is_cp,
    kernel_ratio,
)
from .exceptions import (
    ConfigError,
    DimensionMismatchError,
    EdgeAmplitudeError,
    FitError,
    KernelRangeError,
    NmqwalkError,
    NonInvertibleMapError,
)
from .noise import (
    NoiseModel,
    OunParams,
    PlnParams,
    RtnParams,
    kernel_value,
    kraus_at,
    oun_p,
    pln_p,
    rtn_lambda,
)
from .qops import (
    entropy_of_spectrum,
    partial_trace,
)
from .spectral import (
    DisambiguationReport,
    MonotoneFit,
    Peak,
    Spectrum,
    TimeSeries,
    detrend,
    disambiguate,
    find_peaks,
    fit_mfbf,
    power_spectrum,
)
from .walk import (
    WalkConfig,
    evolve_one_shot,
    evolve_stepwise,
    lattice_positions,
    position_distribution,
)
from .witness import (
    coin_entropy,
    discord,
    mid,
    mutual_information,
    witness_series,
)

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
    "choi_eigenvalues",
    "coin_entropy",
    "cp_divisibility_scan",
    "detrend",
    "disambiguate",
    "discord",
    "entropy_of_spectrum",
    "evolve_one_shot",
    "evolve_stepwise",
    "find_peaks",
    "fit_mfbf",
    "is_cp",
    "kernel_ratio",
    "kernel_value",
    "kraus_at",
    "lattice_positions",
    "mid",
    "mutual_information",
    "oun_p",
    "partial_trace",
    "pln_p",
    "position_distribution",
    "power_spectrum",
    "rtn_lambda",
    "witness_series",
]
