"""Steady-state entanglement of two cavity-magnon pairs driven by two-mode
squeezed microwave light.

The package builds the drift and diffusion matrices of the linearized
eight-quadrature model, solves the steady-state Lyapunov equation for the
covariance matrix, and quantifies bipartite entanglement between mode pairs
via logarithmic negativity.  Parameter sweeps and figure presets live in
:mod:`cavmag.sweep`, the ``cavmag`` command in :mod:`cavmag.cli`.
"""

from __future__ import annotations

from ._version import __version__
from .cvgaussian import (
    CovarianceMatrix,
    log_negativity,
    partial_transpose,
    reduce,
    symplectic_eigenvalues,
)
from .errors import (
    CavmagError,
    NearSingularError,
    NoEntanglementError,
    NumericalFailureError,
    UnphysicalStateError,
    UnstableSystemError,
)
from .linsys import solve_lyapunov
from .model import (
    BASELINE,
    EntanglementReport,
    SystemParams,
    entanglement_report,
    steady_state_cm,
)
from .sweep import (
    PRESET_NAMES,
    SweepAxis,
    SweepGrid,
    SweepSpec,
    emit_csv,
    emit_heatmap,
    emit_lineplot,
    figure_preset,
    find_temperature_threshold,
    run_sweep,
)

__all__ = [
    "__version__",
    "BASELINE",
    "CavmagError",
    "CovarianceMatrix",
    "EntanglementReport",
    "NearSingularError",
    "NoEntanglementError",
    "NumericalFailureError",
    "PRESET_NAMES",
    "SweepAxis",
    "SweepGrid",
    "SweepSpec",
    "SystemParams",
    "UnphysicalStateError",
    "UnstableSystemError",
    "emit_csv",
    "emit_heatmap",
    "emit_lineplot",
    "entanglement_report",
    "figure_preset",
    "find_temperature_threshold",
    "log_negativity",
    "partial_transpose",
    "reduce",
    "run_sweep",
    "solve_lyapunov",
    "steady_state_cm",
    "symplectic_eigenvalues",
]
