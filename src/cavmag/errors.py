"""Exception types, and the checks that raise them, shared across the package."""

from __future__ import annotations

import numpy as np


class CavmagError(Exception):
    """Base class for domain errors raised by this package."""


class UnphysicalStateError(CavmagError, ValueError):
    """Covariance matrix violates the Heisenberg uncertainty bound."""


class NumericalFailureError(CavmagError, RuntimeError):
    """A numerical routine cannot deliver a result it can vouch for.

    Raised when the model's drift or diffusion matrix overflows, when a
    Lyapunov residual exceeds its bound, or when a negativity or symplectic
    spectrum lies below the precision the matrix scale allows (e.g.
    squeezing r > 4.4 at zero coupling).
    """


class PairStructureError(NumericalFailureError):
    """A pair block of a state leaves the form [[a I, C], [C^T, b I]], C anomalous or
    normal, that the closed-form pair negativity needs."""


class UnstableSystemError(CavmagError, RuntimeError):
    """Drift matrix admits no steady state (an eigenvalue real part >= 0)."""


class NearSingularError(CavmagError, RuntimeError):
    """Steady-state linear system is too ill-conditioned to trust."""


class NoEntanglementError(CavmagError, RuntimeError):
    """A threshold search was started from a point with no entanglement."""


def _instance(role: str, value, kind: type):
    """``value``; ValueError unless it is a ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{role} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _sequence(role: str, items, what: str) -> tuple:
    """``items`` as a tuple; ValueError for a string or a non-iterable, where a sequence belongs."""
    kind = "a string" if isinstance(items, (str, bytes)) else type(items).__name__
    if kind == "a string" or not hasattr(items, "__iter__"):
        raise ValueError(f"{role} must be a sequence of {what}, not {kind}")
    return tuple(items)


def raise_first(failed, error, message: str, *values) -> None:
    """Raise ``error(message)``, formatted with ``values`` at the first entry of ``failed``."""
    if np.count_nonzero(failed):  # a quarter of failed.any()'s cost on the small masks of one point
        raise error(message.format(*(x[failed][0] for x in values)))
