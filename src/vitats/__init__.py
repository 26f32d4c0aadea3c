"""Weak-probe absorption spectra of a three-level emitter in a lossy cavity.

A lambda-type emitter (|g>, |f>, |e>) couples to one quantized cavity mode
on f<->e and to a weak classical probe on g<->e. The package provides:

- the closed-form vacuum susceptibility, its resonance-pole decomposition,
  and the transparency-regime classifier (no dip / interference dip /
  resolved doublet);
- sparse Lindblad steady states and exact linear-response spectra for
  thermally or coherently pumped cavities (photon-number-resolved doublets);
- a CLI (``vitats``) emitting CSV/JSON data bundles.

All rates and detunings are dimensionless multiples of one reference rate;
spectra are reported as chi/beta.
"""

__version__ = "0.1.0"

from .errors import (
    AnalyticInvalidHere,
    DegenerateDamping,
    DegeneratePoles,
    DimensionMismatch,
    DivisionDegenerate,
    FullyDegenerate,
    IntegrationFailure,
    LinearityWarning,
    MissingCavityFrequency,
    NegativeRate,
    NonpositiveBeta,
    NonpositiveTemperature,
    NonUniqueSteadyState,
    NonzeroDetuning,
    ParameterError,
    PreconditionError,
    ResolutionWarning,
    SolverError,
    SolverFailure,
    TruncationNotConverged,
    UnknownFigure,
    VitatsError,
)
from .model import (
    CoherentPump,
    EffectiveRates,
    SystemParams,
    TemperaturePump,
    ThermalPump,
    effective_rates,
    params_from_config,
    params_to_config,
    thermal_occupation,
    validate_params,
)
from .dressed import (
    DressedManifold,
    SubspaceRates,
    manifold,
    mixing_angle,
    subspace_rates,
    vacuum_subspace_rates,
)
from .analytic import (
    PolePair,
    Regime,
    RegimeReport,
    ResonanceComponent,
    chi_vacuum,
    classify_regime,
    decompose_resonances,
    dip_threshold,
    first_order_coherences,
    poles,
)
from .liouvillian import (
    HilbertSpec,
    Operators,
    SuperOperator,
    assemble_liouvillian,
    build_operators,
    liouvillian_at,
    unvec,
    vec,
)
from .solver import (
    PeakSet,
    PopulationTable,
    SpectrumSeries,
    SteadyState,
    TruncationReport,
    check_truncation_convergence,
    find_peaks,
    populations,
    probe_spectrum,
    steady_state,
    time_domain_crosscheck,
    truncation_report,
)

__all__ = [
    "__version__",
    # errors & warnings
    "VitatsError", "ParameterError", "PreconditionError", "SolverError",
    "NegativeRate", "MissingCavityFrequency", "NonpositiveBeta",
    "NonpositiveTemperature", "UnknownFigure", "DivisionDegenerate",
    "FullyDegenerate", "NonzeroDetuning", "DegenerateDamping",
    "DegeneratePoles", "AnalyticInvalidHere", "DimensionMismatch",
    "SolverFailure", "NonUniqueSteadyState", "IntegrationFailure",
    "TruncationNotConverged", "LinearityWarning", "ResolutionWarning",
    # model
    "SystemParams", "ThermalPump", "TemperaturePump", "CoherentPump",
    "EffectiveRates", "validate_params", "effective_rates",
    "thermal_occupation", "params_from_config", "params_to_config",
    # dressed
    "DressedManifold", "SubspaceRates", "mixing_angle", "manifold",
    "subspace_rates", "vacuum_subspace_rates",
    # analytic
    "Regime", "RegimeReport", "PolePair", "ResonanceComponent", "chi_vacuum",
    "first_order_coherences", "poles", "decompose_resonances",
    "dip_threshold", "classify_regime",
    # liouvillian
    "HilbertSpec", "Operators", "SuperOperator", "build_operators",
    "assemble_liouvillian", "liouvillian_at", "vec", "unvec",
    # solver
    "SteadyState", "PopulationTable", "TruncationReport", "SpectrumSeries",
    "PeakSet", "steady_state", "populations", "probe_spectrum",
    "check_truncation_convergence", "truncation_report", "find_peaks",
    "time_domain_crosscheck",
]
