"""Steady-state solver for linear stochastic (Langevin) systems.

The stationary covariance V of dx = A x dt + n(t), with white noise of
diffusion matrix D, solves the continuous-time Lyapunov equation

    A V + V A^T + D = 0.

The solver is the Bartels-Stewart method (Bartels & Stewart, CACM 1972) on a whole batch: one real
Schur form A = U R U^T per drift serves its stability and condition checks and the Ds it broadcasts to.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dgees, dtrsyl

from .errors import NearSingularError, NumericalFailureError, UnstableSystemError, raise_first

RESIDUAL_RTOL = 1e-9
CONDITION_LIMIT = 1e12
_RESIDUAL = f"Lyapunov residual {{:.3e}} exceeds {RESIDUAL_RTOL:.1e} * ||D||"
_UNSTABLE = "drift matrix is not strictly stable (max eigenvalue real part {:.6g})"
_SINGULAR = "Lyapunov operator is near singular (condition estimate {:.3e})"
_TINY = np.finfo(float).tiny


def _square_matrix(m, name: str, stack: bool = True) -> NDArray[np.float64]:
    try:
        a = np.asarray(m, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} must have finite entries") from None
    if a.ndim < 2 or a.ndim > 2 and not stack or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise ValueError(f"{name} must be a nonempty square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must have finite entries")
    return a


def _scale_diffusions(d: NDArray[np.float64]):
    """The batch ``d`` with each D scaled by a power of two to unit largest |entry|, and
    the exponents. Rejects an asymmetric or indefinite D, relative to that entry."""
    peak = np.max(np.abs(d), axis=(-2, -1))
    exponent = np.frexp(peak)[1]
    d, unit = np.ldexp(d, -exponent[..., None, None]), np.ldexp(peak, -exponent)
    if np.any(np.max(np.abs(d - d.swapaxes(-1, -2)), axis=(-2, -1)) > 1e-12 * unit):
        raise ValueError("diffusion matrix must be symmetric")
    min_eig = np.linalg.eigvalsh(0.5 * (d + d.swapaxes(-1, -2)))[..., 0]
    indefinite = min_eig < -1e-10 * unit
    if np.any(indefinite):
        x = np.ldexp(min_eig, exponent)[indefinite][0]
        raise ValueError(f"diffusion matrix must be positive semidefinite (min eigenvalue {x:.3e})")
    return d, exponent


def stability(a) -> float:
    """Largest eigenvalue real part of a drift matrix, read off the diagonal of its real
    Schur form; the drift is strictly stable iff it is negative."""
    return float(_real_schur(_square_matrix(a, "drift matrix", stack=False))[0].diagonal().max())


def solve_lyapunov(a, d, gate: bool = True) -> NDArray[np.float64]:
    """Solve A V + V A^T + D = 0 for the steady-state covariance V.

    Parameters
    ----------
    a:
        Square real drift matrix, strictly stable (every eigenvalue real part below zero), or
        a (..., n, n) batch of them whose batch shape broadcasts to ``d``'s, a drift per D.
    d:
        Symmetric positive semidefinite diffusion matrix of the same size, or a (..., n, n)
        batch of them.
    gate:
        False leaves the residual check to the caller, e.g. to :func:`superposition_gate`
        where the solves are members of a superposition that alone may miss it.

    Returns
    -------
    V, of ``d``'s shape, each symmetrized as (V + V^T)/2, with ``|| A V + V A^T + D ||_F <= 1e-9 * ||D||_F`` (where
    ``gate``): solved and gated with D scaled to unit largest |entry| (:func:`_scale_diffusions`), then scaled back.

    Raises
    ------
    UnstableSystemError
        If a drift has an eigenvalue with real part >= 0.
    NearSingularError
        If the condition estimate ``||A||_1 / (2 |max Re lambda|)`` of
        the Lyapunov operator exceeds 1e12.
    NumericalFailureError
        If a factorisation or a triangular solve fails, or a residual is above that bound or not finite.
        Each matrix of ``a`` is factorised once, in row-major order, the order of its first D; the Ds go to
        and from its Schur basis in one broadcast product each, Q = U^T (-D) U and V = U Y U^T, around one
        LAPACK trsyl per D: scipy's ``solve_continuous_lyapunov``, bitwise. A failing batch raises stage by
        stage, each at its first failure in batch order: the D checks, then every factorisation, stability
        and condition estimate before any triangular solve, then the triangular solves, then the residuals.
    """
    a, d = _square_matrix(a, "drift matrix"), _square_matrix(d, "diffusion matrix")
    if (n := d.shape[-1]) != a.shape[-1] or a.ndim > d.ndim:
        raise ValueError("drift matrices must broadcast to the diffusion matrices' shape")
    norms = np.abs(a).sum(-2).max(-1).ravel().tolist()  # each ||A||_1, as np.linalg.norm sums it
    owner = np.empty(d.shape[:-2], int)  # each D's drift: its index in a, broadcast to d, or ValueError
    owner[...] = np.arange(len(norms)).reshape(a.shape[:-2])
    d, exponents = _scale_diffusions(d)
    triangular, u = zip(*map(_real_schur, a.reshape(-1, n, n)))
    # LAPACK gives each 2x2 block of R equal diagonal entries, the real part
    # of its eigenvalue pair, so diag(R) holds every Re lambda.
    tops = [float(r.diagonal().max()) for r in triangular]
    # The operator V -> A V + V A^T has the eigenvalue 2 max Re lambda
    # (an eigenvalue plus its conjugate) and a norm of order ||A||.
    conds = [norm / (2.0 * abs(top)) if top < 0.0 else math.inf for norm, top in zip(norms, tops)]
    if max(conds) > CONDITION_LIMIT:  # an unstable drift's estimate is infinite
        tops, conds = np.array(tops), np.array(conds)
        raise_first(tops >= 0.0, UnstableSystemError, _UNSTABLE, tops)
        raise_first(conds > CONDITION_LIMIT, NearSingularError, _SINGULAR, conds)
    u = np.array(u).reshape(a.shape)
    q = u.swapaxes(-1, -2) @ (-d @ u)
    y = [_triangular_solve(triangular[i], q_k) for i, q_k in zip(owner.ravel().tolist(), q.reshape(-1, n, n))]
    v = u @ np.array(y).reshape(q.shape) @ u.swapaxes(-1, -2)
    v = 0.5 * (v + v.swapaxes(-1, -2))
    if gate:
        r = a @ v + v @ a.swapaxes(-1, -2) + d
        _gate((r * r).sum(axis=(-2, -1)), (d * d).sum(axis=(-2, -1)))
    return np.ldexp(v, exponents[..., None, None])


@functools.cache
def _gees_lwork(n: int) -> int:
    """dgees's optimal workspace for an n x n matrix: its query depends on n alone."""
    return int(dgees(lambda *_: None, np.zeros((n, n)), lwork=-1)[-2][0])


def _real_schur(a):
    """(R, U) with A = U R U^T: scipy.linalg.schur(a, output="real"), bitwise, in one LAPACK call."""
    r, _, _, _, u, _, info = dgees(lambda *_: None, a, lwork=_gees_lwork(len(a)))
    if info != 0:
        raise NumericalFailureError(f"real Schur factorisation failed (gees info {info})")
    return r, u


def _triangular_solve(r, q) -> NDArray[np.float64]:
    """Y with R Y + Y R^T = Q for the quasi-triangular R of a real Schur form, scaled as scipy scales it."""
    y, scale, info = dtrsyl(r, r, q, tranb="T")
    if info != 0:
        raise NumericalFailureError(f"Lyapunov back-substitution failed (trsyl info {info})")
    return y if scale == 1.0 else y * scale  # 1.0 unless Y would overflow; skips a no-op product


def superposition_gate(a, v, d):
    """``gate(c, peak)``: residuals of V(c) = sum_b c_b V_b for rows c (..., b) and each D(c)'s largest |entry| (...),
    raising as :func:`solve_lyapunov`'s gate does, where ``v`` is ``solve_lyapunov(a, d, gate=False)`` of members D_b
    (..., b, n, n) on drifts ``a`` that broadcast to them: a drift serves each cell whose batch shape its own broadcasts
    to. Both squared norms are quadratic forms in c, on members and rows scaled by powers of two to unit largest |D|."""
    exponent = np.frexp(np.abs(d).max(axis=(-2, -1)))[1]
    v, d = np.ldexp(v, -exponent[..., None, None]), np.ldexp(d, -exponent[..., None, None])
    x = np.stack((a @ v + v @ a.swapaxes(-1, -2) + d, d), -4)
    forms = np.einsum("...bij,...cij->...bc", x, x)  # (..., 2, b, b)

    def gate(c, peak) -> NDArray[np.float64]:
        c = np.ldexp(c, exponent - np.frexp(peak)[1][..., None])
        return _gate(*np.einsum("...b,...fbc,...c->f...", c, forms, c))

    return gate


def _gate(squared_residual, squared_diffusion):
    """The residual norms; NumericalFailureError at the first above 1e-9 times its diffusion's norm."""
    residual = np.sqrt(squared_residual)
    passed = residual <= RESIDUAL_RTOL * np.maximum(np.sqrt(squared_diffusion), _TINY)  # False for NaN
    raise_first(~passed, NumericalFailureError, _RESIDUAL, residual)
    return residual
