"""Optimizer family as pure step functions over explicit state.

Each method reduces to picking a direction ``d`` from the gradient stream;
the parameter update is always the decoupled form

    w' = w - lr * weight_decay * w - lr * d

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

Global norm clipping, when enabled, hits the raw gradient before any
averaging; the coordinate clamp applies to the SGD momentum only.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import ClipConfig, EmaBuffer, InitMode, bias_correct, cclip, gclip


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
    weight_decay: float = 0.0
    bias_correction: bool = True
    init_mode: InitMode = InitMode.ZERO
    clip: ClipConfig = field(default_factory=ClipConfig)

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
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")


@dataclass
class OptimizerState:
    """Mutable buffers for one run: first/second moments and the variance term.

    ``delta`` is advanced by its own nonnegative recursion rather than being
    recovered as ``v - m**2``, so it stays sign-safe in floating point.
    """

    m: EmaBuffer
    v: EmaBuffer
    delta: np.ndarray
    step: int = 0


def init_state(config: OptimizerConfig, shape) -> OptimizerState:
    return OptimizerState(
        m=EmaBuffer.zeros(shape, config.beta1, config.init_mode),
        v=EmaBuffer.zeros(shape, config.beta2, config.init_mode),
        delta=np.zeros(shape),
    )


def _safe_div(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Elementwise num/denom with the 0/0 -> 0 convention."""
    out = np.zeros_like(num)
    np.divide(num, denom, out=out, where=denom > 0)
    return out


def direction(
    config: OptimizerConfig, state: OptimizerState, g
) -> tuple[np.ndarray, OptimizerState]:
    """One step of the direction map; advances ``state`` exactly once."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")

    kind = config.kind
    if config.clip.gclip_threshold is not None and kind is not OptimizerKind.EMA_SIGN:
        gc = gclip(g, config.clip.gclip_threshold)
    else:
        # norm clipping rescales g by a positive factor, so sign(g) is unchanged
        # and ema(sign(g)) cannot see it
        gc = g

    if kind is OptimizerKind.SGD:
        d = state.m.update(gc).copy()
        if config.clip.cclip_bound is not None:
            d = cclip(d, config.clip.cclip_bound)
    elif kind is OptimizerKind.SIGN_SGD:
        d = np.sign(gc)
    elif kind is OptimizerKind.SIGNUM:
        m = state.m.update(gc)
        d = _mollified(m, config)
    elif kind is OptimizerKind.EMA_SIGN:
        d = state.m.update(np.sign(g)).copy()
    elif kind in (OptimizerKind.RMSPROP, OptimizerKind.ADAM):
        m = state.m.update(gc)
        v = state.v.update(gc * gc)
        if config.bias_correction:
            m = bias_correct(m, config.beta1, state.m.step)
            v = bias_correct(v, config.beta2, state.v.step)
        if config.epsilon_placement is EpsilonPlacement.INSIDE_SQRT:
            denom = np.sqrt(v + config.epsilon)
        else:
            denom = np.sqrt(v) + config.epsilon
        d = _safe_div(m, denom)
    elif kind is OptimizerKind.ADAM_EQUAL_BETA:
        beta = config.beta1
        first = state.m.step == 0
        if not (first and config.init_mode is InitMode.FIRST_SAMPLE):
            diff = state.m.value - gc
            state.delta = beta * state.delta + beta * (1.0 - beta) * diff * diff
        m = state.m.update(gc)
        delta = state.delta
        if config.bias_correction:
            correction = 1.0 - beta**state.m.step
            m = m / correction
            # bias-corrected variance view: v_hat - m_hat**2
            delta = delta / correction - beta**state.m.step * m * m
        inner = np.maximum(m * m + delta, 0.0)
        if config.epsilon_placement is EpsilonPlacement.INSIDE_SQRT:
            denom = np.sqrt(inner + config.epsilon)
        else:
            denom = np.sqrt(inner) + config.epsilon
        d = _safe_div(m, denom)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown optimizer kind {kind}")

    state.step += 1
    return d, state


def _mollified(m: np.ndarray, config: OptimizerConfig) -> np.ndarray:
    """sign(m) softened by a fixed epsilon floor; exact sign when eps == 0."""
    eps = config.epsilon
    if eps == 0.0:
        return np.sign(m)
    if config.epsilon_placement is EpsilonPlacement.INSIDE_SQRT:
        return m / np.sqrt(m * m + eps)
    return m / (np.sqrt(m * m) + eps)


def apply_step(w, d, lr: float, weight_decay: float = 0.0) -> np.ndarray:
    """Decoupled update ``w - lr*weight_decay*w - lr*d``."""
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    if w.shape != d.shape:
        raise ValueError(f"shape mismatch: w {w.shape} vs d {d.shape}")
    return w - lr * weight_decay * w - lr * d


def delta_estimate(config: OptimizerConfig, state: OptimizerState) -> np.ndarray | None:
    """Current per-coordinate gradient-variance estimate, if the method has one.

    Equal-beta Adam exposes its recursion directly; plain Adam/RMSprop report
    ``max(v_hat - m_hat**2, 0)``. Sign and momentum methods return ``None``.
    """
    if config.kind is OptimizerKind.ADAM_EQUAL_BETA:
        if not config.bias_correction or state.m.step == 0:
            return state.delta.copy()
        beta = config.beta1
        correction = 1.0 - beta**state.m.step
        m_hat = state.m.value / correction
        return np.maximum(state.delta / correction - beta**state.m.step * m_hat * m_hat, 0.0)
    if config.kind in (OptimizerKind.ADAM, OptimizerKind.RMSPROP):
        if state.m.step == 0:
            return state.delta.copy()
        m, v = state.m.value, state.v.value
        if config.bias_correction:
            m = bias_correct(m, config.beta1, state.m.step)
            v = bias_correct(v, config.beta2, state.v.step)
        return np.maximum(v - m * m, 0.0)
    return None

