"""Exception types raised across the simulator."""


class SimulatorError(Exception):
    """Base class for all errors raised by this package."""


# -- geometry ---------------------------------------------------------------

class InvalidChart(SimulatorError):
    """Unknown metric kind, or an event outside its chart (theta not in (0, pi))."""


class HorizonDomain(SimulatorError):
    """Schwarzschild point at or inside the guarded radius 2M(1+eps)."""


class MetricUnderflow(SimulatorError):
    """A metric component underflows to zero or overflows to inf, so the chart
    cannot resolve the event."""


# -- geodesics and transport ------------------------------------------------

class BadNormalization(SimulatorError):
    """Initial tangent not normalized to -1 (timelike) or 0 (null)."""


class HorizonApproach(SimulatorError):
    """Integration would cross the horizon guard radius."""


class StepFailure(SimulatorError):
    """Integrator could not meet the requested tolerance or stop condition."""


class CommonOriginMismatch(SimulatorError):
    """Two geodesics expected to share an emission event do not."""


# -- local frames -----------------------------------------------------------

class DegenerateBasis(SimulatorError):
    """Gram-Schmidt pivot collapsed; candidate vectors not independent."""


class ZeroVector(SimulatorError):
    """A direction or projection was requested for a zero vector."""


class NonFiniteVector(SimulatorError):
    """A transported or projected vector has a non-finite component."""


# -- correlations -----------------------------------------------------------

class DegenerateD(SimulatorError):
    """Weighted direction difference vanishes; no violating setting exists."""


# -- hidden-variable Monte Carlo ---------------------------------------------

class InsufficientSamples(SimulatorError):
    """Monte Carlo sample count below the supported minimum."""


# -- scenario configuration and pipeline -------------------------------------

class ConfigError(SimulatorError):
    """Base class for configuration problems (exit code 2)."""


class ParseError(ConfigError):
    """Config file could not be parsed."""


class ValidationError(ConfigError):
    """Config parsed but a field is missing, unknown, or out of domain."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class PipelineError(SimulatorError):
    """A scenario stage failed; wraps the original error with its stage tag."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}': {cause}")
