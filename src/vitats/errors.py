"""Exception and warning types shared across the package.

Every error raised by the library derives from VitatsError so callers can
catch broadly; the CLI maps subfamilies onto exit codes (config errors,
precondition violations, solver failures).
"""


class VitatsError(Exception):
    """Base class for all library errors."""


class ParameterError(VitatsError, ValueError):
    """Invalid or inconsistent physical parameters / configuration."""


class NegativeRate(ParameterError):
    """A decay rate, coupling, or drive amplitude is negative."""


class MissingCavityFrequency(ParameterError):
    """A temperature was given without a usable cavity frequency."""


class NonpositiveBeta(ParameterError):
    """The susceptibility prefactor must be > 0."""


class NonpositiveTemperature(ParameterError):
    """Thermal occupation needs T > 0."""


class PreconditionError(VitatsError, ValueError):
    """A quantity is outside the domain where the requested formula holds."""


class DivisionDegenerate(PreconditionError):
    """gamma_f + kappa = 0: the normalized ratios are undefined.

    Carries gamma_e / gamma_f attributes so the well-defined part of the
    result is still available to the caller.
    """

    def __init__(self, message: str, gamma_e: float | None = None,
                 gamma_f: float | None = None):
        super().__init__(message)
        self.gamma_e = gamma_e
        self.gamma_f = gamma_f


class FullyDegenerate(PreconditionError):
    """eta = 0 and delta = 0: the mixing angle is undefined."""


class NonzeroDetuning(PreconditionError):
    """Operation defined only at delta = 0."""


class DegenerateDamping(PreconditionError):
    """Total damping gamma_e + gamma_f + kappa = 0."""


class DegeneratePoles(PreconditionError):
    """eta = eta_T/2 exactly: the two resonance poles coincide."""


class DimensionMismatch(VitatsError, ValueError):
    """Operator or superoperator dimensions are inconsistent."""


class SolverError(VitatsError, RuntimeError):
    """Numerical solution failed or is untrustworthy."""


class SolverFailure(SolverError):
    """Sparse factorization/solve failed or produced non-finite output."""


class NonUniqueSteadyState(SolverError):
    """The generator's kernel is degenerate: the trace-completed matrix has
    a singular value within the residual tolerance."""


class IntegrationFailure(SolverError):
    """Time-domain integration did not reach a periodic steady state."""


class AnalyticInvalidHere(PreconditionError):
    """Closed-form susceptibility requested outside the vacuum case."""


class UnknownFigure(ParameterError):
    """Requested reproduction preset does not exist."""


class TruncationNotConverged(UserWarning):
    """Steady-state population tail near the Fock cutoff exceeds tolerance.

    Issued as a warning by spectrum/steady-state drivers; raisable where a
    hard failure is wanted (UserWarning is an Exception subclass).
    """


class LinearityWarning(UserWarning):
    """finite-epsilon susceptibility changed by >0.1% when epsilon was halved."""


class ResolutionWarning(UserWarning):
    """Spectrum grid is coarser than gamma_e/4; peak detection may be unreliable."""
