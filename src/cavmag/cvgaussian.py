"""Covariance-matrix algebra for Gaussian continuous-variable states.

Quadratures are ordered (X_1, Y_1, ..., X_n, Y_n) and covariance matrices
use the convention with vacuum variance 1/2, i.e. the vacuum state of n
modes has V = I/2. Entanglement of two-mode states is quantified by the
logarithmic negativity computed from the partially transposed covariance
matrix, with natural logarithms throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .errors import NumericalFailureError, PairStructureError, UnphysicalStateError, raise_first

# Tolerances used by this module. Symmetry and eigen-solve checks are
# relative to the matrix scale, the physicality slack absolute in
# quadrature units. The eigen-solve's error on nu_min is of order
# eps * ||V||, so eps * ||V|| / nu_min bounds the error of -ln(2 nu_min).
SYMMETRY_RTOL = 1e-12
COMPLEX_RESIDUE_RTOL = 1e-8
NEGATIVITY_PRECISION_LIMIT = 1e-8
STATE_CHECK_SLACK = 1e-6
# Largest departure of a pair block from the form pair_indicators needs,
# relative to the block's scale. Round-off in a solved V leaves about
# cond * eps: 5e-15 on the presets, 1.2e-6 at kappa_m = 3e-9, near 1e-4 at
# the Lyapunov solve's condition limit of 1e12.
PAIR_STRUCTURE_RTOL = 1e-4
# Messages of the checks, formatted with the values at the first failing matrix or pair.
_COMPLEX = ("eigen-solve of i*Omega*V left a complex residue of {:.3e}; "
            "input is not a valid covariance matrix or numerics failed")
_BENT = "pair block leaves the form [[a I, C], [C^T, b I]] by {:.3e} of its scale"
_UNRESOLVED = ("smallest partially transposed symplectic eigenvalue {:.3e} "
               "is below the resolution at matrix scale {:.3e}")
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
        m = np.array(self.entries, dtype=float)
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


def reduce(cm: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Covariance matrix of a subset of modes (Gaussian partial trace).

    Keeps the rows and columns of the requested modes, in the order given,
    preserving the (X, Y) quadrature pair of each kept mode.
    """
    kept = [int(k) for k in modes]
    if len(kept) == 0:
        raise ValueError("at least one mode must be kept")
    if len(set(kept)) != len(kept):
        raise ValueError("duplicate mode indices")
    for k in kept:
        if not 0 <= k < cm.n_modes:
            raise ValueError(f"mode index {k} out of range for {cm.n_modes} modes")
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
    if cm.n_modes != 2:
        raise ValueError("partial transposition is defined here for two-mode states")
    if transposed_mode not in (0, 1):
        raise ValueError("transposed_mode must be 0 or 1")
    p = np.ones(4)
    p[2 * transposed_mode + 1] = -1.0
    flipped = cm.entries * np.outer(p, p)
    return CovarianceMatrix(flipped, cm.mode_labels)


def _exact_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _exact_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _scaled_integer_entries(v: NDArray[np.float64]) -> tuple[list[list[int]], int]:
    # Doubles are binary rationals n / 2^k; putting all entries over the
    # largest power-of-two denominator turns determinants into exact
    # integer arithmetic without per-operation gcd cost.
    ratios = [[float(x).as_integer_ratio() for x in row] for row in v]
    denom = 1
    for row in ratios:
        for _, d in row:
            if d > denom:
                denom = d
    ints = [[n * (denom // d) for n, d in row] for row in ratios]
    return ints, denom


def two_mode_symplectic_eigenvalues(cm: CovarianceMatrix) -> NDArray[np.float64]:
    """Closed-form symplectic spectrum of a two-mode covariance matrix.

    For V = [[A, C], [C^T, B]] in 2x2 blocks the two symplectic
    eigenvalues satisfy

        nu_{+-}^2 = (delta +- sqrt(delta^2 - 4 det V)) / 2,
        delta = det A + det B + 2 det C,

    where the invariants are those of the input matrix itself. The small
    root is evaluated subtraction-free as 2 det V / (delta + sqrt(...)) so
    it stays accurate when det V is many orders below delta^2. Near a
    degenerate spectrum the discriminant cancels catastrophically in
    floating point (absolute round-off of order eps*delta^2 turns into a
    ~1e-8 eigenvalue split after the square root); since the stored
    entries are exact binary rationals, the invariants are then recomputed
    in exact rational arithmetic, which keeps this route accurate to
    machine precision even at exact degeneracy.
    """
    if cm.n_modes != 2:
        raise ValueError("closed form requires a two-mode covariance matrix")
    v = cm.entries
    m = v.tolist()
    s0 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    s1 = m[0][0] * m[1][2] - m[0][2] * m[1][0]
    s2 = m[0][0] * m[1][3] - m[0][3] * m[1][0]
    s3 = m[0][1] * m[1][2] - m[0][2] * m[1][1]
    s4 = m[0][1] * m[1][3] - m[0][3] * m[1][1]
    s5 = m[0][2] * m[1][3] - m[0][3] * m[1][2]
    c5 = m[2][2] * m[3][3] - m[2][3] * m[3][2]
    c4 = m[2][1] * m[3][3] - m[2][3] * m[3][1]
    c3 = m[2][1] * m[3][2] - m[2][2] * m[3][1]
    c2 = m[2][0] * m[3][3] - m[2][3] * m[3][0]
    c1 = m[2][0] * m[3][2] - m[2][2] * m[3][0]
    c0 = m[2][0] * m[3][1] - m[2][1] * m[3][0]
    det_a = s0
    det_b = c5
    det_c = s5
    delta = det_a + det_b + 2.0 * det_c
    det_v = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    disc = delta * delta - 4.0 * det_v
    scale = max(delta * delta, abs(4.0 * det_v), 1e-300)
    if disc < 1e-6 * scale:
        ints, denom = _scaled_integer_entries(v)
        det_a_i = _exact_det([r[:2] for r in ints[:2]])
        det_b_i = _exact_det([r[2:] for r in ints[2:]])
        det_c_i = _exact_det([r[2:] for r in ints[:2]])
        det_v_i = _exact_det(ints)
        delta_i = det_a_i + det_b_i + 2 * det_c_i
        sq = denom * denom
        delta = float(Fraction(delta_i, sq))
        det_v = float(Fraction(det_v_i, sq * sq))
        disc = float(Fraction(delta_i * delta_i - 4 * det_v_i, sq * sq))
    root = float(np.sqrt(max(disc, 0.0)))
    hi_sq = 0.5 * (delta + root)
    if hi_sq <= 0.0:
        return np.array([0.0, 0.0])
    return np.sqrt([max(2.0 * det_v / (delta + root), 0.0), hi_sq])


def symplectic_spectra(v) -> NDArray[np.float64]:
    """Symplectic eigenvalues, ascending, of a stack (..., 2n, 2n) of
    covariance matrices, as an array (..., n).

    The n moduli of the eigenvalues of i*Omega*V per matrix. Those come
    in +-nu pairs; each pair is reported once (partners are averaged to
    damp round-off). :func:`two_mode_symplectic_eigenvalues` is an
    independent closed-form route, kept as an oracle for tests. The
    first matrix whose complex residue exceeds 1e-8 of its largest
    modulus raises NumericalFailureError.
    """
    v = np.asarray(v, dtype=float)
    # Eigenvalues of i*Omega*V are i times those of the real matrix
    # Omega @ V, so the real solve carries the same information at lower
    # cost; the residue measured here equals the imaginary residue of the
    # i*Omega*V spectrum.
    evals = np.linalg.eigvals(_omega(v.shape[-1] // 2) @ v)
    mods = np.sort(np.abs(evals), axis=-1)
    residue = np.max(np.abs(evals.real), axis=-1)
    raise_first(residue > COMPLEX_RESIDUE_RTOL * mods[..., -1], NumericalFailureError, _COMPLEX, residue)
    return 0.5 * (mods[..., 0::2] + mods[..., 1::2])


def symplectic_eigenvalues(cm: CovarianceMatrix) -> NDArray[np.float64]:
    """Symplectic eigenvalues of ``cm``, ascending; see :func:`symplectic_spectra`."""
    return symplectic_spectra(cm.entries)


# partial_transpose(cm, 0) as an entrywise sign pattern.
_PT_SIGNS = np.outer([1.0, -1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0])


def negativity_indicators(v) -> NDArray[np.float64]:
    """Unclamped -ln(2 nu_min) of a stack (..., 4, 4) of two-mode states.

    nu_min is the smallest symplectic eigenvalue of the partially
    transposed matrix and ln the natural logarithm; the value is
    positive exactly for entangled states. Each check runs over the
    whole stack before the next, and the first matrix that fails raises:
    NumericalFailureError if a state is entangled and
    eps * ||V||_2 / nu_min > 1e-8, then UnphysicalStateError if a state
    itself has a symplectic eigenvalue below 1/2 - 1e-6.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-2:] != (4, 4):
        raise ValueError("logarithmic negativity is defined here for two-mode states")
    nu_min = symplectic_spectra(v * _PT_SIGNS)[..., 0]
    # Checked before physicality: where nu_min cannot be resolved, the
    # state's own spectrum (error of order eps * ||V||^2) cannot either.
    entangled = 2.0 * nu_min < 1.0
    if np.any(entangled):
        # V_pt = P V P with P orthogonal, so ||V_pt||_2 = ||V||_2.
        nu, scale = nu_min[entangled], np.linalg.eigvalsh(v[entangled])[:, -1]
        coarse = np.finfo(float).eps * scale > NEGATIVITY_PRECISION_LIMIT * nu
        raise_first(coarse, NumericalFailureError, _UNRESOLVED, nu, scale)
    nu_state = symplectic_spectra(v)[..., 0]
    raise_first(nu_state < 0.5 - STATE_CHECK_SLACK, UnphysicalStateError, _UNPHYSICAL, nu_state)
    return -np.log(2.0 * nu_min)


@functools.cache
def _pair_readout(pairs: tuple, dim: int) -> NDArray[np.float64]:
    """(dim * dim, 10 * len(pairs)) map from a flattened state to, per pair (i, j) and with
    a_k = X_k + i Y_k, the symmetrized moments <a_i^+ a_i> / 2 = a and <a_j^+ a_j> / 2 = b,
    then the real parts and after them the imaginary parts of <a_i a_j> / 2 = mu,
    <a_i^+ a_j> / 2 = beta and the single-mode squeezing moments <a_i a_i> / 2, <a_j a_j> / 2."""
    ti, tj = (np.kron(np.eye(dim // 2), (1.0, 1.0j))[list(k)] for k in zip(*pairs))
    forms = ((ti.conj(), ti), (tj.conj(), tj), (ti, tj), (ti.conj(), tj), (ti, ti), (tj, tj))
    z = np.stack([0.5 * x[:, :, None] * y[:, None, :] for x, y in forms])  # (6, pairs, dim, dim)
    out = np.concatenate((z.real, z[2:].imag)).transpose(2, 3, 0, 1).reshape(dim * dim, -1)
    out.flags.writeable = False
    return out


def pair_indicators(v, pairs) -> NDArray[np.float64]:
    """Unclamped -ln(2 nu_min) of mode pairs (i, j) of a stack (k, 2n, 2n) of states, as (k, pairs).

    Closed form for pair blocks [[a I, C], [C^T, b I]] with C purely anomalous (mu) or purely
    normal (beta) (Simon, PRL 84, 2726 (2000); Adesso, Serafini & Illuminati, PRA 70, 022318
    (2004)): with p = ab - |mu|^2 - |beta|^2 and d = (a - b)^2, the partial transpose has
    nu_min = 2p / (sqrt(d + 4p + 4|mu|^2) + sqrt(d + 4|mu|^2)), the pair state the same with
    beta for mu, and 2 ||V||_2 is the larger denominator. Where the pair state's nu_min is below
    1/2, the partial transpose's is measured against it instead. Checked as
    :func:`negativity_indicators` is, after a PairStructureError where a block leaves the form
    by more than PAIR_STRUCTURE_RTOL of its scale.
    """
    v = np.asarray(v, dtype=float)
    readout = _pair_readout(tuple(map(tuple, pairs)), v.shape[-1])
    q = (v.reshape(len(v), -1) @ readout).reshape(len(v), 10, -1)
    # Scaled by a power of two to a larger diagonal in [1/2, 1): exact, and no product overflows.
    e = np.frexp(np.maximum(q[:, 0], q[:, 1]))[1]
    q = np.ldexp(q, -e[:, None])
    sq = q[:, 2:] ** 2
    c2, squeezing = sq[:, 0:2] + sq[:, 4:6], sq[:, 2:4] + sq[:, 6:8]  # |mu|^2, |beta|^2 and |<a a>|^2
    residue = np.sqrt(np.maximum(np.minimum(c2[:, 0], c2[:, 1]), squeezing.max(axis=1)))
    raise_first(residue > PAIR_STRUCTURE_RTOL, PairStructureError, _BENT, residue)
    a, b = q[:, 0], q[:, 1]
    p, inner = a * b - c2[:, 0] - c2[:, 1], (a - b)[:, None] ** 2 + 4.0 * c2
    with np.errstate(divide="ignore", invalid="ignore"):  # p <= 0 only in unphysical blocks
        den = np.sqrt(inner + 4.0 * p[:, None]) + np.sqrt(inner)
        scaled = 2.0 * p[:, None] / den
    nu_pt, nu_state = np.ldexp(scaled, e[:, None]).transpose(1, 0, 2)
    norm = 0.5 * np.maximum(den[:, 0], den[:, 1])  # ||V||_2 at the scale of ``scaled``
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
    return clamp_negativity(float(negativity_indicators(cm.entries)))


def clamp_negativity(indicator: float) -> float:
    """Log-negativity from one value of :func:`negativity_indicators` or :func:`pair_indicators`."""
    return indicator if indicator > SEPARABLE_SLACK else 0.0
