"""Exception types shared across the package."""

from __future__ import annotations


class CavmagError(Exception):
    """Base class for domain errors raised by this package."""


class UnphysicalStateError(CavmagError, ValueError):
    """Covariance matrix violates the Heisenberg uncertainty bound."""


class NumericalFailureError(CavmagError, RuntimeError):
    """A numerical routine cannot deliver a result it can vouch for.

    Raised when the model's drift or diffusion matrix overflows, when a
    Lyapunov residual exceeds its bound, when an eigen-solve returns
    values that should be real but are not, or when a negativity lies
    below the precision the matrix scale allows (e.g. squeezing r > 4.4
    at zero coupling).
    """


class PairStructureError(NumericalFailureError):
    """A pair block of a state leaves the form [[a I, C], [C^T, b I]], C anomalous or
    normal, that the closed-form pair negativity needs."""


class UnstableSystemError(CavmagError, RuntimeError):
    """Drift matrix admits no steady state (an eigenvalue real part >= 0).

    Carries the offending stability report in ``report``.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(
            "drift matrix is not strictly stable "
            f"(max eigenvalue real part {report.max_real_part:.6g})"
        )


class NearSingularError(CavmagError, RuntimeError):
    """Steady-state linear system is too ill-conditioned to trust."""


class NoEntanglementError(CavmagError, RuntimeError):
    """A threshold search was started from a point with no entanglement."""
