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
    ChoiScanPoint,
    ChoiScanResult,
    SignedKrausSet,
    apply_signed,
    choi_eigenvalues,
    cp_divisibility_scan,
    intermediate_kraus,
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
    check_density_matrix,
    entropy_of_spectrum,
    partial_trace,
    purity,
    trace_norm,
    von_neumann_entropy,
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
    coin_operator,
    evolve_noiseless,
    evolve_one_shot,
    evolve_stepwise,
    initial_state,
    lattice_positions,
    position_distribution,
    step_amplitudes,
)
from .witness import (
    DiscordResult,
    MidResult,
    WitnessSeries,
    coin_entropy,
    discord,
    mid,
    mutual_information,
    trace_distance,
    witness_series,
)

__version__ = "0.1.0"

__all__ = [
    "ChoiScanPoint",
    "ChoiScanResult",
    "ConfigError",
    "DimensionMismatchError",
    "DisambiguationReport",
    "DiscordResult",
    "EdgeAmplitudeError",
    "FitError",
    "KernelRangeError",
    "MidResult",
    "MonotoneFit",
    "NmqwalkError",
    "NoiseModel",
    "NonInvertibleMapError",
    "OunParams",
    "Peak",
    "PlnParams",
    "RtnParams",
    "SignedKrausSet",
    "Spectrum",
    "TimeSeries",
    "WalkConfig",
    "WitnessSeries",
    "apply_signed",
    "check_density_matrix",
    "choi_eigenvalues",
    "coin_entropy",
    "coin_operator",
    "cp_divisibility_scan",
    "detrend",
    "disambiguate",
    "discord",
    "entropy_of_spectrum",
    "evolve_noiseless",
    "evolve_one_shot",
    "evolve_stepwise",
    "find_peaks",
    "fit_mfbf",
    "initial_state",
    "intermediate_kraus",
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
    "purity",
    "rtn_lambda",
    "step_amplitudes",
    "trace_distance",
    "trace_norm",
    "von_neumann_entropy",
    "witness_series",
]
