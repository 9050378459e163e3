"""Exact dephasing dynamics and quantum discord for two non-interacting
qubits coupled to independent Ohmic reservoirs at finite temperature.

Units: hbar = k_B = 1 throughout; beta = math.inf encodes zero temperature.
"""

from .bath import (
    DecoherenceEval,
    GammaMethod,
    gamma_closed,
    gamma_quadrature,
)
from .core import (
    ConsistencyError,
    DiscordPoint,
    DomainError,
    NonPhysicalState,
    NoRootInRange,
    QuadratureFailure,
    Regime,
    Reservoir,
    SystemConfig,
    XDensityMatrix,
    XStateParams,
)
from .correlations import (
    ClassicalMethod,
    CorrelationBreakdown,
    MeasurementAngles,
    binary_entropy_like,
    classical_bruteforce,
    classical_closed,
    discord,
    discord_plateau,
    mutual_information,
)
from .dfe import (
    CriticalTime,
    critical_time_closed,
    critical_time_solve,
    scan_trajectory,
)
from .evolution import evolve

__all__ = [
    "ClassicalMethod",
    "ConsistencyError",
    "CorrelationBreakdown",
    "CriticalTime",
    "DecoherenceEval",
    "DiscordPoint",
    "DomainError",
    "GammaMethod",
    "MeasurementAngles",
    "NonPhysicalState",
    "NoRootInRange",
    "QuadratureFailure",
    "Regime",
    "Reservoir",
    "SystemConfig",
    "XDensityMatrix",
    "XStateParams",
    "binary_entropy_like",
    "classical_bruteforce",
    "classical_closed",
    "critical_time_closed",
    "critical_time_solve",
    "discord",
    "discord_plateau",
    "evolve",
    "gamma_closed",
    "gamma_quadrature",
    "mutual_information",
    "scan_trajectory",
]

__version__ = "0.1.0"
