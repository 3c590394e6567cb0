"""Exception types shared across the package.

All domain errors derive from :class:`CsmarkError` so callers can catch the
package's failures with a single except clause.  Errors that signal misuse of
an interface (bad bandwidths, malformed samples, kernels that violate the
standing assumptions) also derive from :class:`ValueError`; errors that arise
at run time from the data itself (vanishing denominators, degenerate pilot
fits, failed replications) derive from :class:`RuntimeError`.
"""

from __future__ import annotations

__all__ = [
    "CsmarkError",
    "InvalidBandwidthError",
    "DerivativeUnavailableError",
    "KernelAssumptionError",
    "SupportError",
    "EmptySampleError",
    "BandwidthRegimeError",
    "UnstableDenominatorError",
    "DegeneratePilotError",
    "ReplicationFailureError",
    "SelectionError",
    "QuadratureError",
]


class CsmarkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidBandwidthError(CsmarkError, ValueError):
    """A bandwidth was zero, negative, or missing where required."""


class DerivativeUnavailableError(CsmarkError, ValueError):
    """A kernel derivative was requested but the kernel does not have one.

    The Uniform kernel, for example, is not differentiable at the edges of
    its support and carries no derivative callable; density estimation needs
    one.
    """


class KernelAssumptionError(CsmarkError, ValueError):
    """A kernel (or kernel pair) violates the standing kernel assumptions."""


class SupportError(CsmarkError, ValueError):
    """A point lies outside the support of the relevant distribution."""


class EmptySampleError(CsmarkError, ValueError):
    """An operation received an empty sample."""


class BandwidthRegimeError(CsmarkError, ValueError):
    """The bandwidth decay regime makes the requested limit diverge."""


class UnstableDenominatorError(CsmarkError, RuntimeError):
    """The estimated censoring density fell below the stability floor.

    Attributes
    ----------
    g_value : float
        The offending density estimate.
    """

    def __init__(self, message: str, g_value: float = 0.0) -> None:
        super().__init__(message)
        self.g_value = float(g_value)


class DegeneratePilotError(CsmarkError, RuntimeError):
    """The pilot density estimate is nonpositive everywhere on its grid."""


class ReplicationFailureError(CsmarkError, RuntimeError):
    """Too many Monte Carlo replications failed to produce an estimate."""


class SelectionError(CsmarkError, RuntimeError):
    """Bandwidth selection had no valid candidate to choose from."""


class QuadratureError(CsmarkError, RuntimeError):
    """Numerical integration did not converge to the requested accuracy."""
