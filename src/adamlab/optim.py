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

A step has three parts. :func:`scan` runs the moment recursions (an online
estimate of the gradient's mean and variance) along a whole gradient
sequence, and is the one place they are written; :func:`advance` is its
one-step call. :func:`corrected_moments` applies bias correction, and
:func:`direction_map` turns the corrected moments into ``d`` elementwise.
:func:`direction` checks the gradient and does all three. ``filters`` scans a
whole signal and maps its moment history in one call; the ``quadbench``
engine advances a batch of runs a step at a time and shares one corrected
view between the map and :func:`delta_estimate`.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import InitMode


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
    """One run's moments, variance term, momentum and step count: Python floats for a scalar state, else arrays.

    ``delta`` is advanced by its own nonnegative recursion rather than being
    recovered as ``v - m**2``, so it stays sign-safe in floating point. The
    betas are the config's floats, or ``(R, 1)`` columns when the rows of an
    ``(R, dim)`` state are runs with their own momentum.
    """

    m: float | np.ndarray
    v: float | np.ndarray
    delta: float | np.ndarray
    beta1: float | np.ndarray
    beta2: float | np.ndarray
    step: int = 0


def init_state(config: OptimizerConfig, shape, beta1=None, beta2=None) -> OptimizerState:
    """Zero moments of ``shape`` (``0.0`` for ``()``); the config's betas unless ``(R, 1)`` columns are given."""
    m, v, delta = (0.0, 0.0, 0.0) if shape == () else (np.zeros(shape) for _ in range(3))
    beta1 = config.beta1 if beta1 is None else beta1
    return OptimizerState(m, v, delta, beta1, config.beta2 if beta2 is None else beta2)


def _safe_div(num: np.ndarray, denom: np.ndarray, out=None) -> np.ndarray:
    """Elementwise num/denom with the 0/0 -> 0 convention (a NaN ``denom`` also gives 0); ``out`` may be ``denom``."""
    positive = denom > 0
    if out is None:
        out = np.zeros_like(num)
    else:
        np.copyto(out, 0.0, where=~positive)
    return np.divide(num, denom, out=out, where=positive)


def _denominator(second: np.ndarray, config: OptimizerConfig, out=None) -> np.ndarray:
    """``sqrt(second)`` floored by epsilon at the configured placement; ``out`` may be ``second``."""
    if config.epsilon_placement is EpsilonPlacement.INSIDE_SQRT:
        return np.sqrt(np.add(second, config.epsilon, out=out), out=out)
    return np.add(np.sqrt(second, out=out), config.epsilon, out=out)


def corrected_moments(config: OptimizerConfig, state: OptimizerState, powers=None) -> dict:
    """The moments that :func:`direction_map` reads from ``state``, bias-corrected when configured.

    ``m`` for every kind but SIGN_SGD, with ``v`` (Adam/RMSprop) or ``delta``
    (equal-beta Adam), as :func:`direction_map`'s keyword arguments. Bias
    correction divides by ``1 - beta**k`` after ``k`` steps. Float betas take
    ``beta**k`` from Python's ``**``; a state with ``(R, 1)`` beta columns
    needs ``powers = (beta1**k, beta2**k)`` as columns built the same way
    (numpy's power does not always round like Python's). The corrected
    equal-beta variance term is ``v_hat - m_hat**2``, which the recursion
    gives as ``delta / (1 - beta**k) - beta**k * m_hat**2``. It can dip below
    zero in floating point; callers clamp.
    """
    kind = config.kind
    if kind is OptimizerKind.SIGN_SGD:
        return {}
    if kind not in _SECOND_MOMENT_KINDS:
        return {"m": state.m}
    equal_beta = kind is OptimizerKind.ADAM_EQUAL_BETA
    m, second = state.m, state.delta if equal_beta else state.v
    if config.bias_correction:
        p1, p2 = (state.beta1**state.step, state.beta2**state.step) if powers is None else powers
        c1 = 1.0 - p1
        m = m / c1
        second = second / c1 - p1 * m * m if equal_beta else second / (1.0 - p2)
    return {"m": m, "delta" if equal_beta else "v": second}


def scan(config: OptimizerConfig, state: OptimizerState, signal) -> tuple[list, list | None]:
    """Advance ``state`` by each (checked, finite) gradient of ``signal`` in turn, along axis 0.

    ``signal`` is a sequence of gradients of the state's shape: a list of
    Python floats for a scalar state, the rows of an array, or the one-gradient
    tuple of :func:`advance`. The recursions are the EMA of ``m`` (of
    ``sign(g)`` for EMA_SIGN, a signed zero keeping its sign), the EMA of ``v``
    for Adam/RMSprop and, for equal-beta Adam, the variance recursion
    ``delta' = b*delta + b*(1-b)*(m_prev - g)^2``, skipped on the step that
    seeds ``m`` from the first sample. SIGN_SGD keeps no moments. The
    coefficients ``1 - b`` and ``b*(1-b)``, the kind and the seeding are
    settled once per call; every step rounds as it would alone, since
    ``b*(1-b)*diff*diff`` is ``((b*(1-b))*diff)*diff`` either way. Python
    floats step as Python floats, arrays as arrays; nothing is written in
    place, since a seeded ``m`` is the caller's first gradient itself.

    Returns the ``m`` after each step, and for equal-beta Adam the ``delta``
    after each step (else ``None``), as lists.
    """
    kind = config.kind
    ms: list = []
    deltas = [] if kind is OptimizerKind.ADAM_EQUAL_BETA else None
    steps = len(signal)
    if kind is OptimizerKind.SIGN_SGD or not steps:
        state.step += steps
        return ms, deltas
    xs = signal
    if kind is OptimizerKind.EMA_SIGN:
        xs = np.sign(signal)
        xs = xs.tolist() if xs.ndim == 1 else xs  # a scalar state's signs step as Python floats
    b, m, v, delta = state.beta1, state.m, state.v, state.delta
    c = 1.0 - b
    first = 0
    if state.step == 0 and config.init_mode is InitMode.FIRST_SAMPLE:
        first = 1
        m = xs[0]
        if kind in (OptimizerKind.RMSPROP, OptimizerKind.ADAM):
            v = signal[0] * signal[0]
        ms.append(m)
        if deltas is not None:
            deltas.append(delta)
    if deltas is not None:
        bc = b * c
        for g in signal[first:]:
            diff = m - g
            delta = b * delta + bc * diff * diff
            m = b * m + c * g
            ms.append(m)
            deltas.append(delta)
    elif kind in (OptimizerKind.RMSPROP, OptimizerKind.ADAM):
        b2 = state.beta2
        c2 = 1.0 - b2
        for g in signal[first:]:
            m = b * m + c * g
            v = b2 * v + c2 * (g * g)
            ms.append(m)
    else:
        for x in xs[first:]:
            m = b * m + c * x
            ms.append(m)
    state.m, state.v, state.delta = m, v, delta
    state.step += steps
    return ms, deltas


def advance(config: OptimizerConfig, state: OptimizerState, g) -> OptimizerState:
    """Advance ``state`` by the one (checked, finite) gradient ``g``: the one-step :func:`scan`."""
    scan(config, state, (g,))
    return state


def direction_map(config: OptimizerConfig, *, g=None, m=None, v=None, delta=None) -> np.ndarray:
    """The direction ``d`` that the moments give, elementwise.

    Reads ``g`` (SIGN_SGD), ``m`` (every other kind), ``v`` (Adam/RMSprop)
    or ``delta`` (equal-beta Adam), as :func:`corrected_moments` gives them:
    already bias-corrected where that is configured. Any shape works, so a
    leading time axis maps a whole history at once.
    """
    kind = config.kind
    if kind in (OptimizerKind.SGD, OptimizerKind.EMA_SIGN):
        return np.copy(m)
    if kind is OptimizerKind.SIGN_SGD:
        return np.sign(g)
    if kind is OptimizerKind.SIGNUM:
        return np.sign(m) if config.epsilon == 0.0 else m / _denominator(m * m, config)
    if kind in (OptimizerKind.RMSPROP, OptimizerKind.ADAM):
        return _safe_div(m, _denominator(v, config))
    # one fresh buffer holds the clamped root and then the direction: a (T, C) history needs no other
    root = np.multiply(m, m, out=np.empty(np.shape(m)))
    root += delta
    np.maximum(root, 0.0, out=root)
    return _safe_div(m, _denominator(root, config, out=root), out=root)


def direction(config: OptimizerConfig, state: OptimizerState, g) -> tuple[np.ndarray, OptimizerState]:
    """One optimizer step with float betas: :func:`advance` ``state`` once, then :func:`direction_map` it."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")
    advance(config, state, g)
    return direction_map(config, g=g, **corrected_moments(config, state)), state


def apply_step(w: np.ndarray, d: np.ndarray, lr) -> np.ndarray:
    """The update ``w - lr*d`` of float arrays (``lr`` a float or a column that broadcasts)."""
    return w - lr * d


def delta_estimate(config: OptimizerConfig, moments: dict) -> np.ndarray | None:
    """Per-coordinate gradient-variance estimate from :func:`corrected_moments`, if the method has one.

    Equal-beta Adam exposes its recursion directly; plain Adam/RMSprop report
    ``max(v_hat - m_hat**2, 0)``. Sign and momentum methods return ``None``.
    ``moments`` must come from a state that has taken at least one step.
    """
    if config.kind not in _SECOND_MOMENT_KINDS:
        return None
    if config.kind is OptimizerKind.ADAM_EQUAL_BETA:
        return np.maximum(moments["delta"], 0.0)
    m = moments["m"]
    return np.maximum(moments["v"] - m * m, 0.0)
