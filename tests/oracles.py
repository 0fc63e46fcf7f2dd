"""Independent routes that the tests compare the library against.

The per-point drift and diffusion builds that the stacked builder
replaced, the Lyapunov solve one D at a time (each similarity transform
of the Bartels-Stewart method as its own pair of products, in scipy's
order: the bitwise oracle of the library's stacked transforms),
closed-form steady-state covariance blocks in the resonant matched
regime, a direct quadrature of the Lyapunov integral, and the
threshold bisection one step at a time: with the full Lyapunov equation
solved at every step, or with one call of the library's closed form per
step (the reference for its search by tree rounds), and two routes to the
symplectic spectrum besides the library's symmetric eigen-solve: the
non-symmetric eigen-solve of Omega V, and the two-mode closed form in
exact rational arithmetic. The library does not use them; each is a
second way to the numbers it computes.
The CSV and heatmap emitters as they were written cell by cell, each
value formatted and each colour interpolated in scalar Python, are the
byte oracle of the library's array-at-a-time emitters.
The input checks of ``SystemParams`` as three staged loops (the pairs'
types, lengths and finiteness, then their signs, then the scalars), as
they were written before the one table of field rules, are the oracle of
its input contract.
``tmsv_cm`` is an exact known state (the two-mode squeezed vacuum) for
the covariance-matrix algebra.

The closed forms are valid when both subsystems are driven on resonance
(all detunings zero), the two cavities share a linewidth, the two magnon
modes share a linewidth, the couplings match, and the magnon baths are
cold enough that their thermal occupation is negligible. Everything then
depends only on the two rate ratios and the squeezing strength,
collected in :class:`ReducedParams`.
"""

from __future__ import annotations

import io
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm, schur
from scipy.linalg.lapack import dtrsyl

from cavmag.cvgaussian import (
    CovarianceMatrix,
    _closed_form,
    _omega,
    clamp_negativity,
    negativity_indicators,
    partial_transpose,
    reduce,
)
from cavmag.errors import NoEntanglementError, NumericalFailureError, UnstableSystemError
from cavmag.linsys import _UNSTABLE, _scale_diffusions, _square_matrix, solve_lyapunov
from cavmag.model import _FIELD_RULES, R_MAX, SystemParams, _columns, _Fields, _floats, steady_state_cm
from cavmag.model import thermal_occupation, thermal_pair_moments
from cavmag.sweep import COLOR_ANCHORS, NAN_FILL, PARAMETER_PATHS, SweepGrid, SweepSpec, _fmt, _rect, _text
from cavmag.sweep import _write_svg, _write_text


def drift_by_point(params: SystemParams) -> np.ndarray:
    """Drift matrix of one point, entry by entry, normalized by kappa_a1."""
    unit = params.kappa_a[0]
    ka = [k / unit for k in params.kappa_a]
    km = [k / unit for k in params.kappa_m]
    da = [d / unit for d in params.delta_a]
    dm = [d / unit for d in params.delta_m]
    g = [x / unit for x in params.g]
    a = np.zeros((8, 8))
    for j in range(2):
        ca = 2 * j  # cavity block offset
        mg = 4 + 2 * j  # magnon block offset
        a[ca, ca] = a[ca + 1, ca + 1] = -ka[j]
        a[ca, ca + 1], a[ca + 1, ca] = da[j], -da[j]
        a[mg, mg] = a[mg + 1, mg + 1] = -km[j]
        a[mg, mg + 1], a[mg + 1, mg] = dm[j], -dm[j]
        a[ca, mg + 1] = a[mg, ca + 1] = g[j]
        a[ca + 1, mg] = a[mg + 1, ca] = -g[j]
    return a


def diffusion_by_point(params: SystemParams) -> np.ndarray:
    """Diffusion matrix of one point, entry by entry, normalized by kappa_a1."""
    if params.r > R_MAX:
        raise NumericalFailureError(f"drive moments overflow at squeezing r = {params.r:.6g}")
    sh = math.sinh(params.r)
    ch = math.cosh(params.r)
    n = sh * sh
    m = complex(math.cos(params.theta), math.sin(params.theta)) * sh * ch
    unit = params.kappa_a[0]
    ka = [k / unit for k in params.kappa_a]
    cross = math.sqrt(ka[0] * ka[1])
    # 2 Re M = M + M*, 2 Im M = i (M* - M) as real numbers
    c_xx = cross * 2.0 * m.real
    c_xy = cross * 2.0 * m.imag
    d = np.zeros((8, 8))
    for j in range(2):
        ca = 2 * j
        d[ca, ca] = d[ca + 1, ca + 1] = ka[j] * (2.0 * n + 1.0)
        mg = 4 + 2 * j
        w = 2.0 * thermal_occupation(params.omega_m[j], params.temperature) + 1.0
        d[mg, mg] = d[mg + 1, mg + 1] = params.kappa_m[j] / params.kappa_a[0] * w
    d[0, 2] = d[2, 0] = c_xx
    d[1, 3] = d[3, 1] = -c_xx
    d[0, 3] = d[3, 0] = c_xy
    d[1, 2] = d[2, 1] = c_xy
    return d


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless parameters of the resonant matched regime.

    kappa_ratio:
        Magnon over cavity linewidth, strictly positive.
    coupling_ratio:
        Coupling over cavity linewidth, nonnegative.
    r:
        Squeezing strength of the drive, nonnegative.
    """

    kappa_ratio: float
    coupling_ratio: float
    r: float

    def __post_init__(self):
        for name in ("kappa_ratio", "coupling_ratio", "r"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.kappa_ratio <= 0:
            raise ValueError("kappa_ratio must be strictly positive")
        if self.coupling_ratio < 0:
            raise ValueError("coupling_ratio must be nonnegative")
        if self.r < 0:
            raise ValueError("r must be nonnegative")


def tmsv_cm(r: float, theta: float = 0.0) -> CovarianceMatrix:
    """Covariance matrix of a two-mode squeezed vacuum state.

    Diagonal blocks cosh(2r)/2 * I and correlation block

        sinh(2r)/2 * [[cos(theta), sin(theta)], [sin(theta), -cos(theta)]]

    where theta is the squeezing phase. The state is pure: both
    symplectic eigenvalues equal 1/2 and det V = 1/16 for any (r, theta).
    """
    if not np.isfinite(r) or not np.isfinite(theta):
        raise ValueError("r and theta must be finite")
    if r < 0:
        raise ValueError("squeezing parameter r must be nonnegative")
    ch = 0.5 * np.cosh(2.0 * r)
    sh = 0.5 * np.sinh(2.0 * r)
    ct, st = np.cos(theta), np.sin(theta)
    corr = sh * np.array([[ct, st], [st, -ct]])
    v = np.block([[ch * np.eye(2), corr], [corr.T, ch * np.eye(2)]])
    return CovarianceMatrix(v)


def vaa_analytic(r: float) -> CovarianceMatrix:
    """Cavity-pair covariance at zero coupling: the drive's own state.

    Diagonal cosh(2r)/2, correlations +-sinh(2r)/2 with positive X-X and
    negative Y-Y entries.
    """
    if not math.isfinite(r) or r < 0:
        raise ValueError("r must be nonnegative and finite")
    ch = 0.5 * math.cosh(2.0 * r)
    sh = 0.5 * math.sinh(2.0 * r)
    v = np.diag([ch, ch, ch, ch])
    v[0, 2] = v[2, 0] = sh
    v[1, 3] = v[3, 1] = -sh
    return CovarianceMatrix(v, ("cavity1", "cavity2"))


def eaa_analytic(r: float) -> float:
    """Cavity-pair logarithmic negativity at zero coupling.

    max(0, -ln(min(|cosh r - sinh r|^2, |cosh r + sinh r|^2))), which
    evaluates to 2r.
    """
    if not math.isfinite(r) or r < 0:
        raise ValueError("r must be nonnegative and finite")
    ch = math.cosh(r)
    sh = math.sinh(r)
    smallest = min(abs(ch - sh) ** 2, abs(ch + sh) ** 2)
    return max(0.0, -math.log(smallest))


def _prefactor(p: ReducedParams) -> float:
    a = p.kappa_ratio
    b = p.coupling_ratio
    return 1.0 / (2.0 * (1.0 + a) * (a + b * b))


def vmm_analytic(p: ReducedParams) -> CovarianceMatrix:
    """Magnon-pair covariance in the resonant matched regime (cold baths).

    Diagonal [a (1 + a + b^2) + b^2 cosh(2r)] / (2 (1 + a) (a + b^2)),
    X-X correlation -b^2 sinh(2r) and Y-Y correlation +b^2 sinh(2r) times
    the same prefactor; a and b are the linewidth and coupling ratios.
    The correlation signs are inverted relative to the driving field
    because each magnon mode locks to its cavity a quarter cycle out of
    phase.
    """
    a = p.kappa_ratio
    b = p.coupling_ratio
    pref = _prefactor(p)
    diag = (a * (1.0 + a + b * b) + b * b * math.cosh(2.0 * p.r)) * pref
    corr = b * b * math.sinh(2.0 * p.r) * pref
    v = np.diag([diag, diag, diag, diag])
    v[0, 2] = v[2, 0] = -corr
    v[1, 3] = v[3, 1] = corr
    return CovarianceMatrix(v, ("magnon1", "magnon2"))


def vam_analytic(p: ReducedParams) -> CovarianceMatrix:
    """Covariance of one cavity with its own magnon mode, same regime.

    Mode order (cavity, magnon). The cavity-magnon correlations occupy
    the anti-diagonal of the off-diagonal block with entries
    -+ 2 a b sinh(r)^2 times the common prefactor: X-y negative, Y-x
    positive.
    """
    a = p.kappa_ratio
    b = p.coupling_ratio
    pref = _prefactor(p)
    cav = (a * b * b + (a + a * a + b * b) * math.cosh(2.0 * p.r)) * pref
    mag = (a * (1.0 + a + b * b) + b * b * math.cosh(2.0 * p.r)) * pref
    corr = 2.0 * a * b * math.sinh(p.r) ** 2 * pref
    v = np.diag([cav, cav, mag, mag])
    v[0, 3] = v[3, 0] = -corr
    v[1, 2] = v[2, 1] = corr
    return CovarianceMatrix(v, ("cavity1", "magnon1"))


def cavity_magnon_N(p: ReducedParams) -> float:
    """Unclamped negativity indicator -ln(2 nu_min) for the cavity-magnon
    pair within one subsystem.

    Computed from :func:`vam_analytic` via partial transposition and the
    two-mode closed-form symplectic spectrum. Nonpositive throughout the
    physical parameter range: a cavity never entangles with its own
    magnon mode under this beamsplitter coupling, it only swaps states
    with it.
    """
    flipped = partial_transpose(vam_analytic(p), 0)
    nu_min = float(symplectic_eigenvalues_by_invariants(flipped)[0])
    return -math.log(2.0 * nu_min)


def symplectic_spectra_by_eigvals(v) -> np.ndarray:
    """Symplectic eigenvalues, ascending, of a stack (..., 2n, 2n) of covariance matrices.

    The moduli of the eigenvalues of the non-symmetric i*Omega*V, which come
    in +-nu pairs; each pair is reported once, its partners averaged. The
    eigenvalues of i*Omega*V are i times those of the real Omega @ V.
    """
    v = np.asarray(v, dtype=float)
    mods = np.sort(np.abs(np.linalg.eigvals(_omega(v.shape[-1] // 2) @ v)), axis=-1)
    return 0.5 * (mods[..., 0::2] + mods[..., 1::2])


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


def _scaled_integer_entries(v: np.ndarray) -> tuple[list[list[int]], int]:
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


def symplectic_eigenvalues_by_invariants(cm: CovarianceMatrix) -> np.ndarray:
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
    in exact rational arithmetic.
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


def back_substitute(r, u, q) -> np.ndarray:
    """X with A X + X A^T = Q for A = U R U^T, by the operations of scipy's
    ``solve_continuous_lyapunov`` in its order, so X equals its result bitwise."""
    y, scale, info = dtrsyl(r, r, u.T.dot(q.dot(u)), tranb="T")
    if info != 0:
        raise NumericalFailureError(f"Lyapunov back-substitution failed (trsyl info {info})")
    y *= scale
    return u.dot(y).dot(u.T)


def lyapunov_by_cell(a, d) -> np.ndarray:
    """``solve_lyapunov(a, d)`` for (k, n, n) stacks of drifts and Ds, one D at a time and ungated:
    each D scaled by a power of two to unit largest |entry|, solved in its drift's real Schur basis
    (scipy's, factorised per D) by :func:`back_substitute`, symmetrized and scaled back."""
    v = np.empty_like(d, dtype=float)
    for k, (drift, diffusion) in enumerate(zip(a, d)):
        exponent = math.frexp(float(np.max(np.abs(diffusion))))[1]
        x = back_substitute(*schur(drift, output="real"), -np.ldexp(diffusion, -exponent))
        v[k] = np.ldexp(0.5 * (x + x.T), exponent)
    return v


def integrate_lyapunov_oracle(a, d, horizon: float, step: float) -> np.ndarray:
    """Steady-state covariance by direct quadrature, as an independent check.

    Approximates V = integral of e^{At} D e^{A^T t} over [0, horizon] with
    composite Simpson quadrature on n = 2m steps of length h, from one matrix
    exponential P = e^{Ah}: with f_k = P^k D P^kT, the rule is
    h/3 (f_0 + 4 f_1 + 2 f_2 + ... + 4 f_{n-1} + f_n). The even terms f_{2j},
    j < m, sum to G = sum_j Q^j D Q^jT with Q = P^2, and the odd ones to
    P G P^T, so the sum is 4 P G P^T + 2 G - D + f_n, with G and Q^m by
    binary doubling (:func:`_geometric_sum`): O(log n) products, not one per
    step. Truncation error decays like exp(max_real_part * horizon).

    Preconditions: ``horizon >= 10 / |max_real_part|`` and
    ``step <= 0.01 / spectral_radius(a)``. Deliberately slow and simple;
    use :func:`cavmag.linsys.solve_lyapunov` for production work.
    """
    a = _square_matrix(a, "drift matrix", stack=False)
    d = _square_matrix(d, "diffusion matrix", stack=False)
    if a.shape != d.shape:
        raise ValueError("drift and diffusion matrices must have the same shape")
    _scale_diffusions(d[None])
    # Its own eigen-solve, independent of the solver's Schur form.
    evals = np.linalg.eigvals(a)
    max_real = float(evals.real.max())
    if max_real >= 0.0:
        raise UnstableSystemError(_UNSTABLE.format(max_real))
    if not (horizon > 0 and np.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")
    if not (step > 0 and np.isfinite(step)):
        raise ValueError("step must be positive and finite")
    decay = abs(max_real)
    if horizon < 10.0 / decay:
        raise ValueError(
            f"horizon {horizon:.6g} too short for decay rate {decay:.6g}; "
            f"need at least {10.0 / decay:.6g}"
        )
    radius = float(np.abs(evals).max())
    if radius > 0 and step > 0.01 / radius:
        raise ValueError(
            f"step {step:.6g} too coarse for spectral radius {radius:.6g}; "
            f"need at most {0.01 / radius:.6g}"
        )
    n_steps = int(math.ceil(horizon / step))
    if n_steps % 2 == 1:
        n_steps += 1
    h = horizon / n_steps
    propagator = expm(a * h)
    g, last = _geometric_sum(propagator @ propagator, d, n_steps // 2)
    v = (4.0 * propagator @ g @ propagator.T + 2.0 * g - d + last @ d @ last.T) * (h / 3.0)
    return 0.5 * (v + v.T)


def _geometric_sum(q, d, m: int) -> tuple[np.ndarray, np.ndarray]:
    """G(m) = sum_{j<m} Q^j D Q^jT and Q^m, by binary doubling over the bits of m, most significant first:
    G(2k) = G(k) + Q^k G(k) Q^kT, then for a set bit G(2k + 1) = D + Q G(2k) Q^T."""
    g, power = np.zeros_like(d), np.eye(len(d))  # G(0) and Q^0
    for bit in bin(m)[2:]:
        g, power = g + power @ g @ power.T, power @ power
        if bit == "1":
            g, power = d + q @ g @ q.T, q @ power
    return g, power


def _bisect(entangled, t_max: float, tol: float) -> float | None:
    """The threshold bisection of :func:`cavmag.sweep.find_temperature_threshold`, one
    ``entangled(T)`` call per step: probes at 0 and ``t_max``, then
    ceil(log2(t_max) - log2(tol)) halvings, ending early once lo and hi are adjacent floats."""
    if not entangled(0.0):
        raise NoEntanglementError("magnon pair is not entangled at zero temperature; nothing to bisect")
    if entangled(t_max):
        return None
    lo, hi = 0.0, t_max
    for _ in range(math.ceil(math.log2(t_max) - math.log2(tol))):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if entangled(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_by_full_solves(params: SystemParams, t_max: float, tol: float) -> float | None:
    """Magnon-pair survival temperature, one steady_state_cm solve per bisection step.

    The same bisection (:func:`_bisect`), but each step builds D(T) and solves
    A V + V A^T + D(T) = 0 afresh instead of superposing the magnon bath noise on
    one drift, and takes the magnon pair's negativity from the generic
    ``negativity_indicators`` route.
    """

    def entangled(temperature: float) -> bool:
        magnons = reduce(steady_state_cm(params.replace(temperature=temperature)), (2, 3))
        return clamp_negativity(negativity_indicators(magnons.entries)) > 0.0

    return _bisect(entangled, t_max, tol)


def threshold_by_steps(params: SystemParams, t_max: float, tol: float) -> float | None:
    """Magnon-pair survival temperature, one temperature per closed-form call.

    The library's own route (the magnon pair's moments from ``thermal_pair_moments`` and
    their closed form) walked one step at a time, with no tree rounds: what the
    library's search returns or raises, bit for bit and message for message.
    """
    moments = thermal_pair_moments(params, ((2, 3),))

    def entangled(temperature: float) -> bool:
        return clamp_negativity(_closed_form(moments([temperature]))[0, 0]) > 0.0

    return _bisect(entangled, t_max, tol)


def thermal_members(params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The drift A, the diffusions (D0, D1, D2) and their ungated solutions (V0, W1, W2) that
    the library's thermal route superposes: D0 at T = 0 and Dj = 2 kappa_mj / kappa_a1 on magnon
    j's block, built entry by entry."""
    d = np.zeros((3, 8, 8))
    d[0] = diffusion_by_point(params.replace(temperature=0.0))
    for j in range(2):
        d[1 + j, 4 + 2 * j, 4 + 2 * j] = d[1 + j, 5 + 2 * j, 5 + 2 * j] = params.kappa_m[j] / params.kappa_a[0] * 2.0
    a = drift_by_point(params)
    return a, d, solve_lyapunov(a, d, gate=False)


def assembled_state(params: SystemParams, members: np.ndarray, temperature: float) -> np.ndarray:
    """V(T) = V0 + n1(T) W1 + n2(T) W2 as one 8x8 matrix, from :func:`thermal_members`'s
    solutions: the superposition that the library evaluates without assembling it."""
    n1, n2 = (thermal_occupation(omega, temperature) for omega in params.omega_m)
    return members[0] + n1 * members[1] + n2 * members[2]


# ---------------------------------------------------------------------------
# the grid build, one SystemParams per cell


def fields_of(points) -> _Fields:
    """The record of the SystemParams ``points`` (read once): each field an array of shape (k,), a pair two of them,
    so each point has its own drift."""
    rows = np.array([_floats(p) for p in points]).reshape(-1, 15)
    x = iter(rows.T)  # a pair takes two columns
    fields = {name: (next(x), next(x)) if pair else next(x) for name, (pair, _, _) in _FIELD_RULES.items()}
    return _Fields(shape=rows.shape[:1], **fields)


def columns_of(points) -> dict[str, np.ndarray]:
    """The output columns of a list of points, one value per point: the library's array route on their record."""
    return _columns(fields_of(points))


def grid_points(spec: SweepSpec) -> list[SystemParams]:
    """Parameters of every cell of the lattice, in row-major order: axis 1's row of ``PARAMETER_PATHS``
    on the base, one SystemParams per value, then axis 2's row on each of those. The first cell whose
    constructor refuses it raises."""
    set1 = PARAMETER_PATHS[spec.axis1.path]
    points = [set1(spec.base, v) for v in spec.axis1.values]
    if spec.axis2 is not None:
        set2, values2 = PARAMETER_PATHS[spec.axis2.path], spec.axis2.values
        points = [set2(p, v) for p in points for v in values2]
    return points


# ---------------------------------------------------------------------------
# SystemParams' input checks, stage by stage


def _real_number(name: str, value) -> float:
    """``value`` as a float, +-inf beyond its range; ValueError unless a real number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def staged_field_checks(values: dict) -> dict:
    """The fields ``SystemParams(**values)`` stores, or the error it raises, by the staged checks:
    every pair's type, length and finiteness, then the pairs' signs, then every scalar's type and
    finiteness, then the signs of r and temperature."""
    values = dict(values)
    for name in ("omega_a", "omega_m", "omega_drive", "kappa_a", "kappa_m", "g"):
        pair = values[name]
        if not (type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is float):
            if isinstance(pair, (str, bytes)) or not hasattr(pair, "__iter__"):
                raise ValueError(f"{name} must hold two numbers, not {type(pair).__name__}")
            pair = tuple(_real_number(name, x) for x in pair)
        if len(pair) != 2:
            raise ValueError(f"{name} must hold exactly two values")
        if not all(math.isfinite(x) for x in pair):
            raise ValueError(f"{name} must be finite")
        values[name] = pair
    for name in ("omega_a", "omega_m", "kappa_a", "kappa_m"):
        if any(x <= 0 for x in values[name]):
            raise ValueError(f"{name} must be strictly positive")
    if any(x < 0 for x in values["g"]):
        raise ValueError("coupling rates must be nonnegative")
    for name in ("r", "theta", "temperature"):
        value = values[name]
        value = value if type(value) is float else _real_number(name, value)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        values[name] = value
    if values["r"] < 0:
        raise ValueError("squeezing parameter r must be nonnegative")
    if values["temperature"] < 0:
        raise ValueError("temperature must be nonnegative")
    return values


# ---------------------------------------------------------------------------
# emitters, one cell at a time


def color_by_cell(fraction: float) -> str:
    """Hex color of the fixed colormap at ``fraction``, in scalar Python arithmetic."""
    if math.isnan(fraction):
        return NAN_FILL
    f = min(max(float(fraction), 0.0), 1.0)
    scaled = f * (len(COLOR_ANCHORS) - 1)
    low = int(math.floor(scaled))
    high = min(low + 1, len(COLOR_ANCHORS) - 1)
    t = scaled - low
    rgb = [int(round((1.0 - t) * COLOR_ANCHORS[low][k] + t * COLOR_ANCHORS[high][k])) for k in range(3)]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def csv_by_cell(grid: SweepGrid) -> str:
    """What :func:`cavmag.sweep.emit_csv` writes, each row's values formatted one by one."""
    buf = io.StringIO()
    for line in grid.provenance:
        buf.write(f"# {line}\n")
    spec = grid.spec
    columns = ["axis1"] + (["axis2"] if spec.axis2 else []) + list(spec.outputs) + ["stable"]
    buf.write(",".join(columns) + "\n")
    keys = itertools.product(*(axis.values for axis in (spec.axis1, spec.axis2) if axis))
    values = zip(*(grid.value_array(column).ravel().tolist() for column in spec.outputs))
    for key, value in zip(keys, values):
        buf.write(",".join(map(_fmt, key + value)) + ",true\n")
    return buf.getvalue()


def heatmap_by_cell(grid: SweepGrid, column: str | None) -> str:
    """What :func:`cavmag.sweep.emit_heatmap` writes, each cell placed and colored on its own."""
    spec = grid.spec
    column = spec.outputs[0] if column is None else column
    values = grid.value_array(column)
    n1, n2 = values.shape
    finite = values[np.isfinite(values)]
    vmin, vmax = (float(np.min(finite)), float(np.max(finite))) if finite.size else (0.0, 0.0)
    span = vmax - vmin

    left, top = 70, 40
    plot_w, plot_h = 480, 480
    right_pad, bottom_pad = 110, 60
    width, height = left + plot_w + right_pad, top + plot_h + bottom_pad
    cw, ch = plot_w / n1, plot_h / n2
    cell_w, cell_h = f"{cw + 0.05:.2f}", f"{ch + 0.05:.2f}"

    parts = []
    for i in range(n1):
        for j in range(n2):
            v = float(values[i, j])  # Python floats: inf - inf is NaN without a warning
            if math.isnan(v):
                fill = NAN_FILL
            elif span == 0.0:
                fill = color_by_cell(0.5)
            else:
                fill = color_by_cell((v - vmin) / span)
            x = left + i * cw
            y = top + (n2 - 1 - j) * ch
            parts.append(_rect(f"{x:.2f}", f"{y:.2f}", cell_w, cell_h, fill))
    parts.append(_rect(left, top, plot_w, plot_h))

    for i in sorted({0, n1 // 2, n1 - 1}):
        x = left + i * cw + cw / 2
        parts.append(_text(f"{x:.1f}", top + plot_h + 18, f"{spec.axis1.values[i]:.6g}", anchor="middle"))
    for j in sorted({0, n2 // 2, n2 - 1}):
        y = top + (n2 - 1 - j) * ch + ch / 2
        parts.append(_text(left - 6, f"{y + 4:.1f}", f"{spec.axis2.values[j]:.6g}", anchor="end"))
    parts.append(_text(f"{left + plot_w / 2:.1f}", height - 14, spec.axis1.path, 13, "middle"))
    mid = f"{top + plot_h / 2:.1f}"
    rotate = f' transform="rotate(-90 16 {mid})"'
    parts.append(_text(16, mid, spec.axis2.path, 13, "middle", rotate))

    bar_x = left + plot_w + 24
    bar_w, bar_h = 18, plot_h
    steps = 32
    for s in range(steps):
        y = top + bar_h - (s + 1) * (bar_h / steps)
        fill = color_by_cell((s + 0.5) / steps)
        parts.append(_rect(bar_x, f"{y:.2f}", bar_w, f"{bar_h / steps + 0.05:.2f}", fill))
    parts.append(_rect(bar_x, top, bar_w, bar_h))
    parts.append(_text(bar_x + bar_w + 6, top + 10, f"{vmax:.6g}"))
    parts.append(_text(bar_x + bar_w + 6, top + bar_h, f"{vmin:.6g}"))
    buf = io.StringIO()
    _write_svg(buf, width, height, f"{spec.name or 'sweep'}: {column}", parts)
    return buf.getvalue()
