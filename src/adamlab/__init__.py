"""adamlab: a laboratory for adaptive sign-based optimizers.

Core pieces: normalized moving averages and schedules (:mod:`adamlab.core`),
the optimizer direction maps (:mod:`adamlab.optim`), numeric checkers for
their closed-form identities (:mod:`adamlab.identities`), the online Gaussian
mean/variance estimator with an independent oracle (:mod:`adamlab.vi`), a
block-rotated quadratic benchmark (:mod:`adamlab.quadbench`), a signal-filter
view of the direction maps (:mod:`adamlab.filters`), and a CLI harness
(:mod:`adamlab.cli`).
"""

from .core import EmaBuffer, InitMode, Schedule, beta_grid, bias_correct, lr_at
from .optim import (
    EpsilonPlacement,
    OptimizerConfig,
    OptimizerKind,
    OptimizerState,
    apply_step,
    delta_estimate,
    direction,
    init_state,
)

__version__ = "0.1.0"

__all__ = [
    "EmaBuffer",
    "EpsilonPlacement",
    "InitMode",
    "OptimizerConfig",
    "OptimizerKind",
    "OptimizerState",
    "Schedule",
    "apply_step",
    "beta_grid",
    "bias_correct",
    "delta_estimate",
    "direction",
    "init_state",
    "lr_at",
    "__version__",
]
