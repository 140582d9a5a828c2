"""Bell-inequality correlations for spin pairs on curved-spacetime geodesics.

The pipeline: integrate two geodesics from a shared emission event, carry
the right-hand measurement directions to the left detector by parallel
transport, project them in a local tetrad to get a weight w and arrival
direction, then evaluate the weighted singlet correlation -(a.b) w^2, the
three-setting inequality it can violate, and Monte Carlo hidden-variable
models that cannot.
"""

from .correlations import InequalityReport, SettingsTriple, find_max_violation
from .errors import (
    BadNormalization,
    CommonOriginMismatch,
    ConfigError,
    DegenerateBasis,
    DegenerateD,
    HorizonApproach,
    HorizonDomain,
    InsufficientSamples,
    InvalidChart,
    MetricUnderflow,
    NonFiniteVector,
    ParseError,
    PipelineError,
    SimulatorError,
    StepFailure,
    ValidationError,
    ZeroVector,
)
from .frames import (
    Direction3,
    ProjectionResult,
    build_comoving_frame,
    build_static_frame,
    make_projection,
)
from .geodesics import GeodesicPath, StopCondition, integrate_geodesic
from .geometry import MetricSpec
from .lhv import (
    LHVAuditReport,
    LHVModel,
    MCEstimate,
    correlation_mc,
    lhv_inequality_audit,
    make_sign_model,
    verify_anticorrelation,
)
from .scenario import (
    RunReport,
    ScenarioConfig,
    config_from_dict,
    csv_row,
    flat_baseline_config,
    load_config,
    report_to_dict,
    report_to_json,
    report_to_text,
    rows_to_csv,
    run_horizon_sweep,
    run_scenario,
    run_sweep,
    schwarzschild_demo_config,
)

__version__ = "0.1.0"
