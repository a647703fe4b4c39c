"""Exception types shared across the package."""


class CkdvLabError(Exception):
    """Base class for all package errors."""


class MeanValueError(CkdvLabError):
    """A zero-mean constraint is violated where an antiderivative is needed."""


class SingularDispersion(CkdvLabError):
    """The dispersion relation denominator 1 - sigma*k^2 vanishes."""


class OverflowGuard(CkdvLabError):
    """Airy evaluation requested outside the guarded overflow range."""


class DenominatorSignError(CkdvLabError):
    """The logarithm argument of a solitary-wave profile is not positive."""


class BranchError(CkdvLabError):
    """The v -> u change of variables was evaluated below its branch point."""


class StepUnstable(CkdvLabError):
    """An integrator step grew the sup norm by more than the allowed factor."""


class NoConvergence(CkdvLabError):
    """A fixed-point iteration failed to reach tolerance (amplitude too large)."""


class ConfigError(CkdvLabError):
    """An experiment configuration is inconsistent or incomplete."""


class ChildDied(CkdvLabError):
    """A forked child process ended without sending back its result."""


class ChildTraceback(CkdvLabError):
    """The cause of an exception raised again from a forked child: its label and traceback."""
