"""Optimizer family as pure step functions over explicit state.

Each method reduces to picking a direction ``d`` from the gradient stream;
the parameter update is always

    w' = w - lr * d

Supported directions:

* ``SGD``           d = ema(g)                      (dampened momentum)
* ``SIGN_SGD``      d = sign(g)
* ``SIGNUM``        d = m / (sqrt(m^2) + eps)       (exact sign at eps=0)
* ``EMA_SIGN``      d = ema(sign(g))
* ``RMSPROP``       d = g / (sqrt(v) + eps)         (first moment disabled)
* ``ADAM``          d = m / (sqrt(v) + eps)
* ``ADAM_EQUAL_BETA``  d = m / sqrt(m^2 + delta)    with the online variance
  recursion ``delta' = b*delta + b*(1-b)*(m_prev - g)^2``, which reproduces
  ADAM exactly when both moments share one momentum parameter.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import EmaBuffer, InitMode


class OptimizerKind(enum.Enum):
    SGD = "sgd"
    SIGN_SGD = "signsgd"
    SIGNUM = "signum"
    EMA_SIGN = "emasign"
    RMSPROP = "rmsprop"
    ADAM = "adam"
    ADAM_EQUAL_BETA = "adameq"


class EpsilonPlacement(enum.Enum):
    OUTSIDE_SQRT = "outside"
    INSIDE_SQRT = "inside"


#: the methods that carry a gradient-variance term
_SECOND_MOMENT_KINDS = frozenset(
    {OptimizerKind.RMSPROP, OptimizerKind.ADAM, OptimizerKind.ADAM_EQUAL_BETA}
)


@dataclass
class OptimizerConfig:
    """Hyperparameters for one optimizer instance.

    ``beta2=None`` means "equal to beta1". RMSPROP always runs with
    ``beta1 = 0`` (momentum disabled on the first moment); ADAM_EQUAL_BETA
    rejects distinct momentum parameters.
    """

    kind: OptimizerKind
    beta1: float = 0.9
    beta2: float | None = None
    epsilon: float = 1e-8
    epsilon_placement: EpsilonPlacement = EpsilonPlacement.OUTSIDE_SQRT
    bias_correction: bool = True
    init_mode: InitMode = InitMode.ZERO

    def __post_init__(self) -> None:
        if self.beta2 is None:
            self.beta2 = self.beta1
        if self.kind is OptimizerKind.RMSPROP:
            self.beta1 = 0.0
        if self.kind is OptimizerKind.ADAM_EQUAL_BETA and self.beta1 != self.beta2:
            raise ValueError(
                f"equal-beta optimizer requires beta1 == beta2, got {self.beta1} and {self.beta2}"
            )
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {beta}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass
class OptimizerState:
    """Mutable buffers for one run: first/second moments and the variance term.

    ``delta`` is advanced by its own nonnegative recursion rather than being
    recovered as ``v - m**2``, so it stays sign-safe in floating point. The
    momentum parameters are the buffers' ``beta``: the config's floats, or
    ``(R, 1)`` columns when the rows of an ``(R, dim)`` state are runs with
    their own momentum.
    """

    m: EmaBuffer
    v: EmaBuffer
    delta: np.ndarray
    step: int = 0


def init_state(config: OptimizerConfig, shape, beta1=None, beta2=None) -> OptimizerState:
    """Zeroed buffers of ``shape``, with the config's betas unless ``(R, 1)`` columns are given."""
    return OptimizerState(
        m=EmaBuffer.zeros(shape, config.beta1 if beta1 is None else beta1, config.init_mode),
        v=EmaBuffer.zeros(shape, config.beta2 if beta2 is None else beta2, config.init_mode),
        delta=np.zeros(shape),
    )


def _safe_div(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Elementwise num/denom with the 0/0 -> 0 convention."""
    out = np.zeros_like(num)
    np.divide(num, denom, out=out, where=denom > 0)
    return out


def _denominator(second: np.ndarray, config: OptimizerConfig) -> np.ndarray:
    """``sqrt(second)`` floored by epsilon at the configured placement."""
    if config.epsilon_placement is EpsilonPlacement.INSIDE_SQRT:
        return np.sqrt(second + config.epsilon)
    return np.sqrt(second) + config.epsilon


def _adam_view(config: OptimizerConfig, state: OptimizerState, powers) -> tuple[np.ndarray, np.ndarray]:
    """Adam/RMSprop's ``(m, v)``, bias-corrected when configured; needs ``m.step >= 1``."""
    m, v = state.m.value, state.v.value
    if config.bias_correction:
        p1, p2 = (state.m.beta**state.m.step, state.v.beta**state.v.step) if powers is None else powers
        m = m / (1.0 - p1)
        v = v / (1.0 - p2)
    return m, v


def _equal_beta_view(
    config: OptimizerConfig, state: OptimizerState, powers
) -> tuple[np.ndarray, np.ndarray]:
    """Equal-beta Adam's ``(m, delta)``, bias-corrected when configured; needs ``m.step >= 1``.

    The corrected variance term is ``v_hat - m_hat**2``, which the recursion
    gives as ``delta / (1 - beta**k) - beta**k * m_hat**2``. It can dip below
    zero in floating point; callers clamp.
    """
    m, delta = state.m.value, state.delta
    if config.bias_correction:
        p = state.m.beta**state.m.step if powers is None else powers[0]
        m = m / (1.0 - p)
        delta = delta / (1.0 - p) - p * m * m
    return m, delta


def direction(
    config: OptimizerConfig, state: OptimizerState, g, powers=None
) -> tuple[np.ndarray, OptimizerState]:
    """One step of the direction map; advances ``state`` exactly once.

    Bias correction divides by ``1 - beta**k`` after ``k`` steps. Float betas
    take ``beta**k`` from Python's ``**``; a state with ``(R, 1)`` beta
    columns needs ``powers = (beta1**k, beta2**k)`` as columns built the same
    way (numpy's power does not always round like Python's).
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")

    kind = config.kind
    if kind is OptimizerKind.SGD:
        d = state.m.update(g).copy()
    elif kind is OptimizerKind.SIGN_SGD:
        d = np.sign(g)
    elif kind is OptimizerKind.SIGNUM:
        m = state.m.update(g)
        d = np.sign(m) if config.epsilon == 0.0 else m / _denominator(m * m, config)
    elif kind is OptimizerKind.EMA_SIGN:
        d = state.m.update(np.sign(g)).copy()
    elif kind in (OptimizerKind.RMSPROP, OptimizerKind.ADAM):
        state.m.update(g)
        state.v.update(g * g)
        m, v = _adam_view(config, state, powers)
        d = _safe_div(m, _denominator(v, config))
    elif kind is OptimizerKind.ADAM_EQUAL_BETA:
        beta = state.m.beta
        if not (state.m.step == 0 and config.init_mode is InitMode.FIRST_SAMPLE):
            diff = state.m.value - g
            state.delta = beta * state.delta + beta * (1.0 - beta) * diff * diff
        state.m.update(g)
        m, delta = _equal_beta_view(config, state, powers)
        d = _safe_div(m, _denominator(np.maximum(m * m + delta, 0.0), config))
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown optimizer kind {kind}")

    state.step += 1
    return d, state


def apply_step(w, d, lr: float) -> np.ndarray:
    """The update ``w - lr*d``."""
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    if w.shape != d.shape:
        raise ValueError(f"shape mismatch: w {w.shape} vs d {d.shape}")
    return w - lr * d


def delta_estimate(config: OptimizerConfig, state: OptimizerState, powers=None) -> np.ndarray | None:
    """Current per-coordinate gradient-variance estimate, if the method has one.

    Equal-beta Adam exposes its recursion directly; plain Adam/RMSprop report
    ``max(v_hat - m_hat**2, 0)``. Sign and momentum methods return ``None``.
    ``powers`` is as in :func:`direction`.
    """
    if config.kind not in _SECOND_MOMENT_KINDS:
        return None
    if state.m.step == 0:
        return state.delta.copy()
    if config.kind is OptimizerKind.ADAM_EQUAL_BETA:
        _, delta = _equal_beta_view(config, state, powers)
        return np.maximum(delta, 0.0)
    m, v = _adam_view(config, state, powers)
    return np.maximum(v - m * m, 0.0)
