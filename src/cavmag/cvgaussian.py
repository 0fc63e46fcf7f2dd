"""Covariance-matrix algebra for Gaussian continuous-variable states.

Quadratures are ordered (X_1, Y_1, ..., X_n, Y_n) and covariance matrices
use the convention with vacuum variance 1/2, i.e. the vacuum state of n
modes has V = I/2. Entanglement of two-mode states is quantified by the
logarithmic negativity computed from the partially transposed covariance
matrix, with natural logarithms throughout.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NumericalFailureError, PairStructureError, UnphysicalStateError, _instance, _sequence, raise_first

# Tolerances used by this module. V is taken as known to SYMMETRY_RTOL of
# its scale: it must be symmetric to that, and no eigenvalue may lie
# further below zero than that fraction of the largest. The physicality
# slack is absolute in quadrature units. V's eigen-solve errs by eps * ||V||_2,
# within delta = eps * ||V||_2 / lambda_min of V in the Loewner order, where
# symplectic eigenvalues are monotone and homogeneous (Bhatia & Jain, J. Math.
# Phys. 56, 112201 (2015)): each is known to a relative delta, eps times V's
# condition number (e^(4r) for a pure state squeezed by r). A closed form has
# no such solve: eps * ||V||_2 / nu_min bounds the error of its -ln(2 nu_min).
SYMMETRY_RTOL = 1e-12
NEGATIVITY_PRECISION_LIMIT = 1e-8
STATE_CHECK_SLACK = 1e-6
# Largest departure of a pair block from the form _closed_form needs,
# relative to the block's scale. Round-off in a solved V leaves about
# cond * eps: 5e-15 on the presets, 1.2e-6 at kappa_m = 3e-9, near 1e-4 at
# the Lyapunov solve's condition limit of 1e12.
PAIR_STRUCTURE_RTOL = 1e-4
# Messages of the checks, formatted with the values at the first failing matrix or pair.
_INDEFINITE = "covariance matrix is not positive semidefinite (eigenvalue {:.9g} at largest {:.9g})"
_BENT = "pair block leaves the form [[a I, C], [C^T, b I]] by {:.3e} of its scale"
_UNRESOLVED = ("smallest partially transposed symplectic eigenvalue {:.3e} "
               "is below the resolution at matrix scale {:.3e}")
_ILL_CONDITIONED = "symplectic spectrum is below the resolution of eigenvalues from {:.3e} to {:.3e}"
_UNPHYSICAL = "covariance matrix is unphysical (min symplectic eigenvalue {:.9g})"
# Round-off guard at the separability boundary: negativity is clamped to
# exactly 0.0 already when -ln(2*nu_min) <= SEPARABLE_SLACK, so product
# states solved numerically cannot leak spurious 1e-16 entanglement.
SEPARABLE_SLACK = 1e-12


@functools.cache
def _omega(n_modes: int) -> NDArray[np.float64]:
    omega = np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])
    omega.flags.writeable = False
    return omega


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric covariance matrix of an n-mode Gaussian state.

    Parameters
    ----------
    entries:
        Real 2n x 2n array, symmetric to a relative tolerance of 1e-12.
        A read-only copy is stored.
    mode_labels:
        Optional names for the n modes, e.g. ("cavity1", "magnon1").
        Defaults to ("mode0", "mode1", ...).
    """

    entries: NDArray[np.float64]
    mode_labels: tuple[str, ...] = ()

    def __post_init__(self):
        try:
            m = np.array(self.entries, dtype=float)
        except OverflowError:  # an integer beyond the float range
            raise ValueError("covariance matrix entries must be finite") from None
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance matrix must be square")
        dim = m.shape[0]
        if dim == 0 or dim % 2 != 0:
            raise ValueError("covariance matrix dimension must be 2n with n >= 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > SYMMETRY_RTOL * scale:
            raise ValueError("covariance matrix must be symmetric")
        n = dim // 2
        labels = tuple(self.mode_labels) or tuple(f"mode{i}" for i in range(n))
        if len(labels) != n:
            raise ValueError(f"expected {n} mode labels, got {len(labels)}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "mode_labels", labels)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


def _mode_index(k, n_modes: int) -> int:
    """``k`` as an int; ValueError unless it is an integer other than a bool in [0, n_modes)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"mode index must be an integer, not {type(k).__name__}")
    if not 0 <= k < n_modes:
        raise ValueError(f"mode index {k} out of range for {n_modes} modes")
    return int(k)


def reduce(cm: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Covariance matrix of a subset of modes (Gaussian partial trace).

    Keeps the rows and columns of the requested modes, in the order given,
    preserving the (X, Y) quadrature pair of each kept mode.
    """
    _instance("cm", cm, CovarianceMatrix)
    kept = [_mode_index(k, cm.n_modes) for k in _sequence("modes", modes, "mode indices")]
    if len(kept) == 0:
        raise ValueError("at least one mode must be kept")
    if len(set(kept)) != len(kept):
        raise ValueError("duplicate mode indices")
    idx = np.array([q for k in kept for q in (2 * k, 2 * k + 1)])
    sub = cm.entries[np.ix_(idx, idx)]
    labels = tuple(cm.mode_labels[k] for k in kept)
    return CovarianceMatrix(sub, labels)


def partial_transpose(cm: CovarianceMatrix, transposed_mode: int) -> CovarianceMatrix:
    """Partial transposition of a two-mode state at the covariance level.

    Implemented as the momentum-quadrature sign flip of the transposed
    mode: V -> P V P with P = diag(1, -1, 1, 1) or diag(1, 1, 1, -1).
    The operation is involutive.
    """
    if _instance("cm", cm, CovarianceMatrix).n_modes != 2:
        raise ValueError("partial transposition is defined here for two-mode states")
    p = np.ones(4)
    p[2 * _mode_index(transposed_mode, 2) + 1] = -1.0
    flipped = cm.entries * np.outer(p, p)
    return CovarianceMatrix(flipped, cm.mode_labels)


def two_mode_symplectic_eigenvalues(cm: CovarianceMatrix) -> NDArray[np.float64]:
    """Symplectic eigenvalues of a two-mode covariance matrix, ascending:
    :func:`symplectic_eigenvalues` for two modes only."""
    if _instance("cm", cm, CovarianceMatrix).n_modes != 2:
        raise ValueError("two_mode_symplectic_eigenvalues requires a two-mode covariance matrix")
    return symplectic_eigenvalues(cm)


def _williamson_factor(v) -> NDArray[np.float64]:
    """S of a stack of covariance matrices V = S S^T: S = Q sqrt(Lambda) from V = Q Lambda Q^T.
    The first V with an eigenvalue below -SYMMETRY_RTOL of its largest raises
    UnphysicalStateError (a negative eigenvalue above that counts as zero), then the first
    whose condition number exceeds 1e-8 / eps NumericalFailureError: its spectrum is unresolved."""
    lam, q = np.linalg.eigh(np.asarray(v, dtype=float))
    low, top = lam[..., 0], lam[..., -1]
    raise_first(low < -SYMMETRY_RTOL * top, UnphysicalStateError, _INDEFINITE, low, top)
    unresolved = np.finfo(float).eps * top > NEGATIVITY_PRECISION_LIMIT * low
    raise_first(unresolved, NumericalFailureError, _ILL_CONDITIONED, low, top)
    return q * np.sqrt(np.maximum(lam, 0.0))[..., None, :]


def _spectra_of_factor(s) -> NDArray[np.float64]:
    """Symplectic spectra, ascending, of the V = S S^T of a stack of factors S.

    i*Omega*V and the Hermitian i*S^T*Omega*S share their spectrum, +-nu per mode."""
    n = s.shape[-1] // 2
    return np.linalg.eigvalsh(1j * (s.swapaxes(-1, -2) @ _omega(n) @ s))[..., n:]


def symplectic_spectra(v) -> NDArray[np.float64]:
    """Symplectic eigenvalues, ascending, of a stack (..., 2n, 2n) of
    covariance matrices, as an array (..., n).

    From the Williamson normal form (Serafini, Quantum Continuous
    Variables, CRC 2017): one symmetric eigen-solve V = Q Lambda Q^T gives
    V = S S^T with S = Q sqrt(Lambda), and the spectrum is the positive
    half of the Hermitian i*S^T*Omega*S's. The first matrix with an
    eigenvalue below -1e-12 of its largest raises UnphysicalStateError,
    then the first with a condition number above 1e-8 / eps (singular, or
    pure and squeezed beyond r = 4.4) NumericalFailureError.
    """
    return _spectra_of_factor(_williamson_factor(v))


def symplectic_eigenvalues(cm: CovarianceMatrix) -> NDArray[np.float64]:
    """Symplectic eigenvalues of ``cm``, ascending; see :func:`symplectic_spectra`."""
    return symplectic_spectra(_instance("cm", cm, CovarianceMatrix).entries)


# partial_transpose(cm, 0) as a row sign pattern: V_pt = P V P, so S_pt = P S.
_PT_SIGNS = np.array([1.0, -1.0, 1.0, 1.0])[:, None]


def negativity_indicators(v) -> NDArray[np.float64]:
    """Unclamped -ln(2 nu_min) of a stack (..., 4, 4) of two-mode states.

    nu_min is the smallest symplectic eigenvalue of the partially
    transposed matrix and ln the natural logarithm; the value is
    positive exactly for entangled states. Both spectra come from one
    factor of V (see :func:`symplectic_spectra`), whose checks resolve both:
    V and its partial transpose share eigenvalues, and nu_min >= lambda_min.
    Each check runs over the whole stack before the next, and the first
    matrix that fails raises; last, UnphysicalStateError if a state has a
    symplectic eigenvalue below 1/2 - 1e-6.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-2:] != (4, 4):
        raise ValueError("logarithmic negativity is defined here for two-mode states")
    s = _williamson_factor(v)
    nu_min, nu_state = _spectra_of_factor(np.stack((_PT_SIGNS * s, s)))[..., 0]
    raise_first(nu_state < 0.5 - STATE_CHECK_SLACK, UnphysicalStateError, _UNPHYSICAL, nu_state)
    return -np.log(2.0 * nu_min)


@functools.cache
def _pair_readout(pairs: tuple, dim: int) -> NDArray[np.float64]:
    """(dim * dim, 10 * len(pairs)) map from a flattened state to, per pair (i, j) and with
    a_k = X_k + i Y_k, the symmetrized moments <a_i^+ a_i> / 2 = a and <a_j^+ a_j> / 2 = b,
    then the real parts and after them the imaginary parts of <a_i a_j> / 2 = mu,
    <a_i^+ a_j> / 2 = beta and the single-mode squeezing moments <a_i a_i> / 2, <a_j a_j> / 2."""
    ti, tj = (np.kron(np.eye(dim // 2), (1.0, 1.0j))[list(k)] for k in tuple(zip(*pairs)) or ([], []))
    forms = ((ti.conj(), ti), (tj.conj(), tj), (ti, tj), (ti.conj(), tj), (ti, ti), (tj, tj))
    z = np.stack([0.5 * x[:, :, None] * y[:, None, :] for x, y in forms])  # (6, pairs, dim, dim)
    out = np.concatenate((z.real, z[2:].imag)).transpose(2, 3, 0, 1).reshape(dim * dim, 10 * len(pairs))
    out.flags.writeable = False
    return out


def pair_moments(v, pairs) -> NDArray[np.float64]:
    """Moments of mode pairs (i, j) of a stack (..., 2n, 2n) of states, (..., 10, pairs) in the order of
    :func:`_pair_readout`: each half a sum of two entries of V, so linear in V and in any summation order."""
    v, pairs, dim = np.asarray(v, dtype=float), tuple(map(tuple, pairs)), np.shape(v)[-1]
    return (v.reshape(*v.shape[:-2], dim * dim) @ _pair_readout(pairs, dim)).reshape(*v.shape[:-2], 10, len(pairs))


def _closed_form(q) -> NDArray[np.float64]:
    """Unclamped -ln(2 nu_min) of mode pairs from their moments q (k, 10, pairs), as (k, pairs).

    Closed form for pair blocks [[a I, C], [C^T, b I]] with C purely anomalous (mu) or purely
    normal (beta) (Simon, PRL 84, 2726 (2000); Adesso, Serafini & Illuminati, PRA 70, 022318
    (2004)): with p = ab - |mu|^2 - |beta|^2 and d = (a - b)^2, the partial transpose has
    nu_min = 2p / (sqrt(d + 4p + 4|mu|^2) + sqrt(d + 4|mu|^2)), the pair state the same with
    beta for mu, and 2 ||V||_2 is the larger denominator. Where the pair state's nu_min is below
    1/2, the partial transpose's is measured against it instead. The first failing pair raises:
    PairStructureError where a block leaves the form by more than PAIR_STRUCTURE_RTOL of its
    scale, then NumericalFailureError where it is entangled and eps * ||V||_2 / nu_min > 1e-8,
    then UnphysicalStateError where its state has a symplectic eigenvalue below 1/2 - 1e-6.
    """
    # Scaled by a power of two to a larger diagonal in [1/2, 1): exact, and no product overflows.
    e = np.frexp(np.maximum(q[:, 0], q[:, 1]))[1]
    q = np.ldexp(q, -e[:, None])
    sq = q[:, 2:] ** 2
    c2 = sq[:, :4] + sq[:, 4:]  # |mu|^2, |beta|^2, then |<a a>|^2 of each mode
    residue = np.sqrt(np.maximum(np.minimum(c2[:, 0], c2[:, 1]), np.maximum(c2[:, 2], c2[:, 3])))
    raise_first(residue > PAIR_STRUCTURE_RTOL, PairStructureError, _BENT, residue)
    a, b, c2 = q[:, 0], q[:, 1], c2[:, :2]
    p, inner = a * b - c2[:, 0] - c2[:, 1], (a - b)[:, None] ** 2 + 4.0 * c2
    with np.errstate(divide="ignore", invalid="ignore"):  # p <= 0 only in unphysical blocks
        den = np.sqrt(inner + 4.0 * p[:, None]) + np.sqrt(inner)
        scaled = 2.0 * p[:, None] / den
    nu_pt, nu_state = np.ldexp(scaled, e[:, None]).transpose(1, 0, 2)
    norm = 0.5 * np.fmax(den[:, 0], den[:, 1])  # ||V||_2 at the scale of ``scaled``; NaN where both are
    coarse = (2.0 * nu_pt < 1.0) & (np.finfo(float).eps * norm > NEGATIVITY_PRECISION_LIMIT * scaled[:, 0])
    raise_first(coarse, NumericalFailureError, _UNRESOLVED, nu_pt, np.ldexp(norm, e))
    raise_first(~(nu_state >= 0.5 - STATE_CHECK_SLACK), UnphysicalStateError, _UNPHYSICAL, nu_state)
    # Measured from the pair state's own floor: where round-off leaves its nu_min below 1/2,
    # a partial transpose no further below is no entanglement.
    return np.log(np.minimum(1.0, 2.0 * nu_state)) - np.log(2.0 * nu_pt)


def log_negativity(cm: CovarianceMatrix) -> float:
    """Logarithmic negativity E = max(0, -ln(2 nu_min)) of a two-mode
    Gaussian state: :func:`negativity_indicators` of ``cm``, clamped.
    Separable states return exactly 0.0."""
    return float(clamp_negativity(negativity_indicators(_instance("cm", cm, CovarianceMatrix).entries)))


def clamp_negativity(indicators):
    """Log-negativity from values of :func:`negativity_indicators` or :func:`_closed_form`,
    elementwise: exactly 0.0 where a value is NaN or at most SEPARABLE_SLACK. A 0-d input gives a float."""
    return np.where(np.greater(indicators, SEPARABLE_SLACK), indicators, 0.0)[()]
