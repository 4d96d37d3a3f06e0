"""Continuous-to-discrete transformation toolkit for resonant controllers.

The package centers on a two-parameter bilinear substitution whose shape
factor alpha moves the stability image between the Euler and Tustin
extremes while the time factor beta rescales frequency, letting one
closed-form coefficient set cover the classic rules and tuned variants
alike.
"""

from .errors import (
    CrossCheckError,
    DegreeError,
    DomainError,
    DomainMismatch,
    EmptyInput,
    MapSingularity,
    NormalizationError,
    NotSettled,
    NumericOverflow,
    OriginError,
    ParamError,
    PoleHit,
    SbtkitError,
    StabilityRangeWarning,
    UnstableWarning,
    WindowError,
)
from .lti import Polynomial, TransferFunction, parallel, quadratic_roots
from .transforms import (
    METHODS,
    STABLE_ALPHA_MIN,
    Euler,
    Method,
    Sbt,
    SbtParams,
    StabilityCircle,
    Tustin,
    TustinPrewarp,
    equivalent_s_from_z,
    exact_z_from_s,
    is_stable_image,
    method_label,
    method_params,
    prewarp_factor,
    s_from_z,
    stability_circle,
    substitute,
    time_factors,
    z_from_s,
)
from .controllers import (
    BiquadCoeffs,
    DiffEqCoeffs,
    PiParams,
    QrParams,
    diff_eq_coeffs,
    pi_continuous,
    pi_discretize,
    pir_continuous,
    pir_discretize,
    qr_continuous,
    qr_discretize,
    sbt_params_straightforward,
)
from .analysis import (
    FrequencyGrid,
    PoleMapRecord,
    ResponsePoint,
    SourcePoles,
    alternative_rmse_grids,
    complex_response,
    default_bode_grid,
    default_rmse_grid,
    freq_response,
    load_grid_file,
    magnitude_error_curve,
    pole_map_table,
    rmse,
    source_poles,
)
from .tuning import (
    LossConfig,
    OptimizeResult,
    SearchConfig,
    TraceEntry,
    optimize_alpha_beta,
    q_loss,
)
from .sim import (
    DiffEqRunner,
    InverterConfig,
    SimTrace,
    SineTestResult,
    inverter_closed_loop,
    run_difference_equation,
    sine_steady_state,
    thd,
    trace_thd,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "SbtkitError", "ParamError", "DomainError", "DomainMismatch", "DegreeError",
    "PoleHit", "MapSingularity", "OriginError", "NormalizationError", "EmptyInput",
    "NumericOverflow", "NotSettled", "WindowError", "CrossCheckError",
    "StabilityRangeWarning", "UnstableWarning",
    "Polynomial", "TransferFunction", "parallel", "quadratic_roots",
    "STABLE_ALPHA_MIN", "SbtParams", "Euler", "Tustin", "TustinPrewarp", "Sbt",
    "Method", "StabilityCircle", "z_from_s", "s_from_z", "exact_z_from_s",
    "equivalent_s_from_z", "prewarp_factor", "stability_circle", "is_stable_image",
    "substitute", "METHODS", "time_factors", "method_params", "method_label",
    "QrParams", "PiParams", "BiquadCoeffs", "DiffEqCoeffs",
    "qr_continuous", "pi_continuous", "pir_continuous", "qr_discretize",
    "pi_discretize", "pir_discretize", "diff_eq_coeffs", "sbt_params_straightforward",
    "FrequencyGrid", "ResponsePoint", "SourcePoles", "PoleMapRecord",
    "default_bode_grid", "default_rmse_grid", "alternative_rmse_grids",
    "load_grid_file", "complex_response", "freq_response", "magnitude_error_curve", "rmse",
    "source_poles", "pole_map_table",
    "LossConfig", "SearchConfig", "TraceEntry", "OptimizeResult",
    "q_loss", "optimize_alpha_beta",
    "DiffEqRunner", "run_difference_equation", "SineTestResult",
    "sine_steady_state", "thd", "InverterConfig", "SimTrace",
    "inverter_closed_loop", "trace_thd", "write_trace_csv",
    "__version__",
]
