from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cavmag import cvgaussian, linsys, model, sweep
from cavmag.cvgaussian import CovarianceMatrix
from cavmag.errors import CavmagError
from oracles import fields_of

settings.register_profile(
    "cavmag",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("cavmag")

# Pipeline stages the ``calls`` fixture counts, each at zero calls.
STAGES_UNCALLED = dict.fromkeys(
    (
        "solve_lyapunov",
        "steady_state_cm",
        "build_drift",
        "_stacks",
        "_real_schur",
        "_triangular_solve",
        "_closed_form",
        "negativity_indicators",
        "symplectic_spectra",
    ),
    0,
)


@pytest.fixture
def calls(monkeypatch):
    """Calls of each stage in ``STAGES_UNCALLED``, through every binding in the package's modules."""
    counts = dict(STAGES_UNCALLED)
    for module in (cvgaussian, linsys, model, sweep):
        for name in counts:
            if hasattr(module, name):

                def wrapper(*args, _original=getattr(module, name), _name=name, **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, wrapper)
    return counts


def outcome(compute):
    """What ``compute()`` returns, or the CavmagError it raises."""
    try:
        return compute()
    except CavmagError as exc:
        return exc


def pair_indicators(v, pairs) -> np.ndarray:
    """Unclamped -ln(2 nu_min) of mode ``pairs`` of a stack of states, (k, pairs): the closed form of their moments."""
    return cvgaussian._closed_form(cvgaussian.pair_moments(v, pairs))


def state_nu_min(points) -> np.ndarray:
    """Smallest symplectic eigenvalue of each point's solved steady state, from its full spectrum."""
    return cvgaussian.symplectic_spectra(model._steady_states(fields_of(points)))[:, 0]


def local_rotation(phi1: float, phi2: float) -> np.ndarray:
    """Symplectic and orthogonal: independent phase-space rotations."""
    out = np.zeros((4, 4))
    for k, phi in enumerate((phi1, phi2)):
        c, s = np.cos(phi), np.sin(phi)
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, s], [-s, c]]
    return out


def two_mode_squeezer(r: float) -> np.ndarray:
    """Symplectic two-mode squeezing matrix in (X1,Y1,X2,Y2) ordering."""
    c, s = np.cosh(r), np.sinh(r)
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    return np.block([[c * eye, s * z], [s * z, c * eye]])


def random_physical_cm(rng: np.random.Generator, max_squeeze: float = 1.5) -> CovarianceMatrix:
    """Random physical two-mode covariance matrix.

    Built as S D S^T with D a diagonal of symplectic eigenvalues >= 1/2
    and S a random symplectic (local rotations around a two-mode
    squeezer), so the symplectic spectrum is known by construction.
    """
    nus = rng.uniform(0.5, 3.0, size=2)
    d = np.diag(np.repeat(nus, 2))
    s = (
        local_rotation(*rng.uniform(0.0, 2.0 * np.pi, size=2))
        @ two_mode_squeezer(rng.uniform(0.0, max_squeeze))
        @ local_rotation(*rng.uniform(0.0, 2.0 * np.pi, size=2))
    )
    v = s @ d @ s.T
    return CovarianceMatrix(0.5 * (v + v.T))


def random_separable_cm(rng: np.random.Generator) -> CovarianceMatrix:
    """Random separable two-mode covariance matrix.

    A product of single-mode thermal states plus a random classical
    (positive-semidefinite) correlation term; such states remain
    positive under partial transposition.
    """
    occ = rng.uniform(0.0, 1.0, size=2)
    v = np.diag(np.repeat(occ + 0.5, 2))
    g = rng.normal(size=(4, 2)) * rng.uniform(0.0, 0.7)
    v = v + g @ g.T
    return CovarianceMatrix(0.5 * (v + v.T))


def random_stable_system(
    rng: np.random.Generator, dim: int = 8, margin: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Random (A, D) pair with A strictly stable and D symmetric PSD."""
    g = rng.normal(size=(dim, dim))
    shift = float(np.max(np.linalg.eigvals(g).real)) + margin
    a = g - shift * np.eye(dim)
    b = rng.normal(size=(dim, dim))
    d = b @ b.T
    return a, d
