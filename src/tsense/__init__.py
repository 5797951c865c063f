"""Fisher-information analysis of trilinear bosonic coupling sensing."""

from .dynamics import Spectrum, Weights, diagonalize, evolve_vector, spectral_weights
from .errors import (
    ConfigurationError,
    NumericError,
    ResourceError,
    TsenseError,
    UndefinedBoundError,
)
from .ladder import InteractionKind
from .metrology import (
    BinaryFock,
    FullPNR,
    MeasurementScheme,
    PreparedProbe,
    SensitivityProfile,
    SequentialS0,
    cramer_rao,
    dynamic_range,
    dynamic_range_formula,
    fisher_limit_closed_form,
    qfi_coherent,
    scan,
)
from .optimize import (
    OptimalResult,
    asymptotic_prediction,
    lagrange_relaxation,
    optimize_config,
    optimize_config_weighted,
    scaling_table,
)
from .probes import (
    CoherentProduct,
    LadderStack,
    NoisyFock,
    Probe,
    PureFock,
    WeightedComponents,
    decompose,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryFock",
    "CoherentProduct",
    "ConfigurationError",
    "FullPNR",
    "InteractionKind",
    "LadderStack",
    "MeasurementScheme",
    "NoisyFock",
    "NumericError",
    "OptimalResult",
    "PreparedProbe",
    "Probe",
    "PureFock",
    "ResourceError",
    "SensitivityProfile",
    "SequentialS0",
    "Spectrum",
    "TsenseError",
    "UndefinedBoundError",
    "WeightedComponents",
    "Weights",
    "asymptotic_prediction",
    "cramer_rao",
    "decompose",
    "diagonalize",
    "dynamic_range",
    "dynamic_range_formula",
    "evolve_vector",
    "fisher_limit_closed_form",
    "lagrange_relaxation",
    "optimize_config",
    "optimize_config_weighted",
    "qfi_coherent",
    "scaling_table",
    "scan",
    "spectral_weights",
]
