"""Steady-state solver for linear stochastic (Langevin) systems.

The stationary covariance V of dx = A x dt + n(t), with white noise of
diffusion matrix D, solves the continuous-time Lyapunov equation

    A V + V A^T + D = 0.

The solver uses the Schur-based Bartels-Stewart method (Bartels & Stewart,
CACM 1972) of ``scipy.linalg.solve_continuous_lyapunov``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_continuous_lyapunov

from .errors import NearSingularError, NumericalFailureError, UnstableSystemError

RESIDUAL_RTOL = 1e-9
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class StabilityReport:
    """Spectral stability summary of a drift matrix."""

    stable: bool
    max_real_part: float
    eigenvalues: tuple[complex, ...]

    @property
    def spectral_radius(self) -> float:
        return max(abs(ev) for ev in self.eigenvalues)


def _square_matrix(m, name: str) -> NDArray[np.float64]:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must have finite entries")
    return a


def _check_diffusion(d: NDArray[np.float64]) -> float:
    """Reject an asymmetric or indefinite D; return its largest |entry|."""
    peak = float(np.max(np.abs(d)))
    scale = max(peak, 1.0)
    if np.max(np.abs(d - d.T)) > 1e-12 * scale:
        raise ValueError("diffusion matrix must be symmetric")
    min_eig = float(np.linalg.eigvalsh(0.5 * (d + d.T)).min())
    if min_eig < -1e-10 * scale:
        raise ValueError(
            f"diffusion matrix must be positive semidefinite (min eigenvalue {min_eig:.3e})"
        )
    return peak


def stability(a) -> StabilityReport:
    """Eigenvalue stability report for a drift matrix.

    ``stable`` is True iff every eigenvalue has a strictly negative real
    part. Eigenvalues are sorted by (real, imag) for reproducibility.
    """
    a = _square_matrix(a, "drift matrix")
    evals = np.linalg.eigvals(a)
    evals = evals[np.lexsort((evals.imag, evals.real))]
    max_real = float(np.max(evals.real))
    return StabilityReport(
        stable=max_real < 0.0,
        max_real_part=max_real,
        eigenvalues=tuple(complex(ev) for ev in evals),
    )


def solve_lyapunov(a, d, gate: bool = True) -> NDArray[np.float64]:
    """Solve A V + V A^T + D = 0 for the steady-state covariance V.

    Parameters
    ----------
    a:
        Square real drift matrix, strictly stable (every eigenvalue real
        part below zero).
    d:
        Symmetric positive semidefinite diffusion matrix of equal shape.
    gate:
        False leaves the residual check to the caller (:func:`check_residual`).

    Returns
    -------
    V, symmetrized as (V + V^T)/2, with residual Frobenius norm
    ``|| A V + V A^T + D ||_F <= 1e-9 * ||D||_F`` guaranteed, checked on D
    scaled by a power of two to unit largest entry, where it cannot overflow.

    Raises
    ------
    UnstableSystemError
        If ``a`` has an eigenvalue with real part >= 0.
    NearSingularError
        If the condition estimate ``||A||_1 / (2 |max Re lambda|)`` of
        the Lyapunov operator exceeds 1e12.
    NumericalFailureError
        If the residual is above that bound or not finite.
    """
    a = _square_matrix(a, "drift matrix")
    d = _square_matrix(d, "diffusion matrix")
    if a.shape != d.shape:
        raise ValueError("drift and diffusion matrices must have the same shape")
    exponent = math.frexp(_check_diffusion(d))[1]
    report = stability(a)
    if report.max_real_part >= 0.0:
        raise UnstableSystemError(report)
    # The operator V -> A V + V A^T has the eigenvalue 2 max Re lambda
    # (an eigenvalue plus its conjugate) and a norm of order ||A||.
    cond = float(np.linalg.norm(a, 1)) / (2.0 * abs(report.max_real_part))
    if cond > CONDITION_LIMIT:
        raise NearSingularError(
            f"Lyapunov operator is near singular (condition estimate {cond:.3e})"
        )
    d = np.ldexp(d, -exponent)
    v = solve_continuous_lyapunov(a, -d)
    v = 0.5 * (v + v.T)
    if gate:
        _check_scaled_residual(a, v, d)
    return np.ldexp(v, exponent)


def check_residual(a, v, d) -> None:
    """Raise NumericalFailureError unless ||A V + V A^T + D||_F <= 1e-9 ||D||_F.

    Checked on V and D scaled by a power of two to unit largest |D| entry,
    where it cannot overflow; a residual that is not finite fails it.
    """
    exponent = math.frexp(float(np.max(np.abs(d))))[1]
    _check_scaled_residual(a, np.ldexp(v, -exponent), np.ldexp(d, -exponent))


def _check_scaled_residual(a, v, d) -> None:
    d_norm = float(np.linalg.norm(d, "fro"))
    residual = float(np.linalg.norm(a @ v + v @ a.T + d, "fro"))
    if not residual <= RESIDUAL_RTOL * max(d_norm, np.finfo(float).tiny):
        raise NumericalFailureError(
            f"Lyapunov residual {residual:.3e} exceeds {RESIDUAL_RTOL:.1e} * ||D||"
        )

