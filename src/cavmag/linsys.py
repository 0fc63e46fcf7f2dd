"""Steady-state solver for linear stochastic (Langevin) systems.

The stationary covariance V of dx = A x dt + n(t), with white noise of
diffusion matrix D, solves the continuous-time Lyapunov equation

    A V + V A^T + D = 0.

The solver is the Bartels-Stewart method (Bartels & Stewart, CACM 1972): one real Schur
form A = U R U^T serves the stability test, the condition estimate and every D on A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import schur
from scipy.linalg.lapack import dtrsyl

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


def _square_matrix(m, name: str, ndim: int = 2) -> NDArray[np.float64]:
    a = np.asarray(m, dtype=float)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise ValueError(f"{name} must be a nonempty square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must have finite entries")
    return a


def _scale_diffusions(d: NDArray[np.float64]):
    """The stack ``d`` with each D scaled by a power of two to unit largest |entry|, and
    the exponents. Rejects an asymmetric or indefinite D, relative to that entry."""
    peak = np.max(np.abs(d), axis=(1, 2))
    exponent = np.frexp(peak)[1]
    d, unit = np.ldexp(d, -exponent[:, None, None]), np.ldexp(peak, -exponent)
    if np.any(np.max(np.abs(d - d.swapaxes(1, 2)), axis=(1, 2)) > 1e-12 * unit):
        raise ValueError("diffusion matrix must be symmetric")
    min_eig = np.linalg.eigvalsh(0.5 * (d + d.swapaxes(1, 2)))[:, 0]
    indefinite = min_eig < -1e-10 * unit
    if np.any(indefinite):
        x = np.ldexp(min_eig, exponent)[indefinite][0]
        raise ValueError(f"diffusion matrix must be positive semidefinite (min eigenvalue {x:.3e})")
    return d, exponent


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
        Symmetric positive semidefinite diffusion matrix of equal shape, or
        a (k, n, n) stack of them, solved on the one Schur factorisation of A.
    gate:
        False leaves the residual check to the caller (:func:`check_residual`).

    Returns
    -------
    V (or the stack of V), symmetrized as (V + V^T)/2, with residual norm
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
        If the back-substitution fails or a residual is above that bound or not finite.
    """
    a = _square_matrix(a, "drift matrix")
    single = np.ndim(d) == 2
    d = _square_matrix(d, "diffusion matrix", 2 if single else 3)
    if d.shape[-2:] != a.shape:
        raise ValueError("drift and diffusion matrices must have the same shape")
    d, exponents = _scale_diffusions(d.reshape(-1, *a.shape))
    r, u = schur(a, output="real")
    # LAPACK gives each 2x2 block of R equal diagonal entries, the real part
    # of its eigenvalue pair, so diag(R) holds every Re lambda.
    max_real = float(np.max(np.diag(r)))
    if max_real >= 0.0:
        raise UnstableSystemError(stability(a))
    # The operator V -> A V + V A^T has the eigenvalue 2 max Re lambda
    # (an eigenvalue plus its conjugate) and a norm of order ||A||.
    cond = float(np.linalg.norm(a, 1)) / (2.0 * abs(max_real))
    if cond > CONDITION_LIMIT:
        raise NearSingularError(
            f"Lyapunov operator is near singular (condition estimate {cond:.3e})"
        )
    v = np.stack([_back_substitute(r, u, -dk) for dk in d])
    v = 0.5 * (v + v.swapaxes(1, 2))
    if gate:
        for vk, dk in zip(v, d):
            _check_scaled_residual(a, vk, dk)
    v = np.ldexp(v, exponents[:, None, None])
    return v[0] if single else v


def _back_substitute(r, u, q) -> NDArray[np.float64]:
    """X with A X + X A^T = Q for A = U R U^T, by the operations of scipy's
    ``solve_continuous_lyapunov`` in its order, so X equals its result bitwise."""
    y, scale, info = dtrsyl(r, r, u.T.dot(q.dot(u)), tranb="T")
    if info != 0:
        raise NumericalFailureError(f"Lyapunov back-substitution failed (trsyl info {info})")
    y *= scale
    return u.dot(y).dot(u.T)


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

