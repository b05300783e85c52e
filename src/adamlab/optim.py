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
sequence; :func:`advance` is its one-step call. The recursions have one
implementation per number type: Python floats step in :func:`scan`'s own
loop, and arrays through :func:`step_moments`, which writes in place.
:func:`corrected_moments` applies bias correction, always, to the kinds with a
second moment (RMSprop, Adam and equal-beta Adam), and :func:`direction_map`
turns the corrected moments into ``d`` elementwise. :func:`direction` checks
the gradient and does all three. ``filters`` scans a whole signal and maps its
raw moment history in one call. The ``quadbench`` engine steps a batch of runs
with :func:`step_moments` and shares one corrected view between the map and
:func:`delta_estimate`; it makes every array a step writes once per batch and
hands it to each step function as ``out``, while callers that map whole
histories leave ``out`` unset and get fresh arrays.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


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


# the members as module globals: the step functions test the kind on every engine step, and a global
# is read several times faster than an enum attribute
_SGD, _SIGN_SGD, _SIGNUM, _EMA_SIGN, _RMSPROP, _ADAM, _ADAM_EQUAL_BETA = OptimizerKind
_INSIDE_SQRT = EpsilonPlacement.INSIDE_SQRT

#: the methods that carry a gradient-variance term
_SECOND_MOMENT_KINDS = (_RMSPROP, _ADAM, _ADAM_EQUAL_BETA)


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


def _safe_div(num: np.ndarray, denom: np.ndarray, out: np.ndarray, positive=None) -> np.ndarray:
    """Elementwise num/denom into ``out`` with the 0/0 -> 0 convention (a NaN ``denom`` also gives 0).

    ``out`` may be ``denom``; ``positive`` is a bool scratch array of its shape (``None`` allocates one).
    """
    positive = np.greater(denom, 0.0, out=positive)
    np.divide(num, denom, out=out, where=positive)
    np.copyto(out, 0.0, where=np.logical_not(positive, out=positive))
    return out


def _denominator(second: np.ndarray, config: OptimizerConfig, out=None) -> np.ndarray:
    """``sqrt(second)`` floored by epsilon at the configured placement; ``out`` may be ``second``."""
    if config.epsilon_placement is _INSIDE_SQRT:
        return np.sqrt(np.add(second, config.epsilon, out=out), out=out)
    return np.add(np.sqrt(second, out=out), config.epsilon, out=out)


def corrected_moments(config: OptimizerConfig, state: OptimizerState, corrections=None, out=None) -> dict:
    """The moments that :func:`direction_map` reads from ``state``, bias-corrected for the kinds with a second moment.

    ``m`` for every kind but SIGN_SGD, with ``v`` (Adam/RMSprop) or ``delta``
    (equal-beta Adam), as :func:`direction_map`'s keyword arguments; SGD,
    SIGNUM and EMA_SIGN read the state's own ``m``. Bias correction divides by
    ``1 - beta**k`` after ``k`` steps. ``corrections`` are the two factors
    the kind reads: ``(1 - beta1**k, beta1**k)`` for equal-beta Adam and
    ``(1 - beta1**k, 1 - beta2**k)`` otherwise. Float betas may leave them
    ``None``, to be computed with Python's ``**``; a state with ``(R, 1)``
    beta columns needs them as columns built the same way (numpy's power does
    not always round like Python's). The corrected equal-beta variance term is
    ``v_hat - m_hat**2``, which the recursion gives as
    ``delta / (1 - beta**k) - beta**k * m_hat**2``. It can dip below zero in
    floating point; callers clamp. ``out = (m_hat, second, scratch)``
    receives the corrected moments, in arrays of the state's shape that are
    none of its own.
    """
    kind = config.kind
    if kind is _SIGN_SGD:
        return {}
    if kind not in _SECOND_MOMENT_KINDS:
        return {"m": state.m}
    equal_beta = kind is _ADAM_EQUAL_BETA
    if corrections is None:
        p1 = state.beta1**state.step
        corrections = (1.0 - p1, p1 if equal_beta else 1.0 - state.beta2**state.step)
    c1, c2 = corrections
    m_out, second_out, scratch = (None, None, None) if out is None else out
    m = np.divide(state.m, c1, out=m_out)
    if equal_beta:
        second = np.divide(state.delta, c1, out=second_out)
        shrink = np.multiply(c2, m, out=scratch)
        shrink *= m
        second -= shrink
    else:
        second = np.divide(state.v, c2, out=second_out)
    return {"m": m, "delta" if equal_beta else "v": second}


def recursion_coefficients(state: OptimizerState) -> tuple:
    """``(b1, 1 - b1, b1*(1 - b1), b2, 1 - b2)`` of the state's betas.

    Python floats for a scalar state; for an array state, each is computed
    from the betas as they are (floats or ``(R, 1)`` columns) and then spread
    over an array of the state's shape, since a product of two whole arrays
    is several times faster than one that broadcasts a column or a scalar.
    """
    b, b2 = state.beta1, state.beta2
    c = 1.0 - b
    coefficients = (b, c, b * c, b2, 1.0 - b2)
    shape = np.shape(state.m)
    return tuple(np.broadcast_to(x, shape).copy() for x in coefficients) if shape else coefficients


def step_moments(kind: OptimizerKind, coefficients, g, m, v, delta, *, out, scratch) -> None:
    """One step of the moment recursions on arrays, written in place: the array form of :func:`scan`'s step.

    Reads the moments ``m``, ``v`` and ``delta`` before the (checked, finite)
    gradient ``g`` and writes ``m`` and ``delta`` after it into
    ``out = (m_out, delta_out)``, which may be ``m`` and ``delta``
    themselves; ``v`` is advanced in place. ``coefficients`` come from
    :func:`recursion_coefficients` and ``scratch`` is two arrays of the
    moments' shape. SIGN_SGD keeps no moments. Each element takes the float
    step's operations on the same operands, so it rounds as it would there.
    """
    if kind is _SIGN_SGD:
        return
    m_out, delta_out = out
    diff, term = scratch
    x = np.sign(g, out=term) if kind is _EMA_SIGN else g
    b, c, bc, b2, c2 = coefficients
    if kind is _ADAM_EQUAL_BETA:
        np.subtract(m, g, out=diff)
        np.multiply(bc, diff, out=term)
        term *= diff
        np.multiply(b, delta, out=delta_out)
        delta_out += term
    elif kind in (_RMSPROP, _ADAM):
        np.multiply(g, g, out=diff)
        np.multiply(c2, diff, out=diff)
        v *= b2
        v += diff
    np.multiply(c, x, out=term)
    np.multiply(b, m, out=m_out)
    m_out += term


def scan(config: OptimizerConfig, state: OptimizerState, signal) -> tuple[np.ndarray, np.ndarray | None]:
    """Advance ``state`` by each (checked, finite) gradient of ``signal`` in turn, along axis 0.

    ``signal`` is a sequence of gradients of the state's shape: a list of
    Python floats for a scalar state, the rows of an array, or the one-gradient
    tuple of :func:`advance`. The recursions are the EMA of ``m`` (of
    ``sign(g)`` for EMA_SIGN, a signed zero keeping its sign), the EMA of ``v``
    for Adam/RMSprop and, for equal-beta Adam, the variance recursion
    ``delta' = b*delta + b*(1-b)*(m_prev - g)^2``. SIGN_SGD keeps no moments.
    The coefficients ``1 - b`` and ``b*(1-b)`` and the kind are settled once
    per call; every step rounds as it would alone, since
    ``b*(1-b)*diff*diff`` is ``((b*(1-b))*diff)*diff`` either way. A scalar
    state steps as Python floats, several times faster than 0-d arrays; an
    array state takes one :func:`step_moments` per gradient, which writes
    each step's moments straight into the history rows. The state's arrays
    are then updated in place, and the caller's gradients never are.

    Returns the ``m`` after each step, and for equal-beta Adam the ``delta``
    after each step (else ``None``), as ``(steps, *shape)`` arrays.
    """
    kind = config.kind
    steps = len(signal)
    shape = np.shape(state.m)
    if kind is _SIGN_SGD:
        state.step += steps
        return np.empty((0, *shape)), None
    equal_beta = kind is _ADAM_EQUAL_BETA
    if shape:
        ms = np.empty((steps, *shape))
        deltas = np.empty_like(ms) if equal_beta else None
        coefficients = recursion_coefficients(state)
        scratch = (np.empty(shape), np.empty(shape))
        m, delta = state.m, state.delta
        for k, g in enumerate(signal):
            out = (ms[k], deltas[k] if equal_beta else delta)
            step_moments(kind, coefficients, g, m, state.v, delta, out=out, scratch=scratch)
            m, delta = out
        np.copyto(state.m, m)
        np.copyto(state.delta, delta)
        state.step += steps
        return ms, deltas
    ms: list = []
    deltas = [] if equal_beta else None
    xs = signal
    if kind is _EMA_SIGN:
        xs = np.sign(signal).tolist()  # the signs step as Python floats
    b, c, bc, b2, c2 = recursion_coefficients(state)
    m, v, delta = state.m, state.v, state.delta
    if equal_beta:
        for g in signal:
            diff = m - g
            delta = b * delta + bc * diff * diff
            m = b * m + c * g
            ms.append(m)
            deltas.append(delta)
    elif kind in (_RMSPROP, _ADAM):
        for g in signal:
            m = b * m + c * g
            v = b2 * v + c2 * (g * g)
            ms.append(m)
    else:
        for x in xs:
            m = b * m + c * x
            ms.append(m)
    state.m, state.v, state.delta = m, v, delta
    state.step += steps
    return np.array(ms, dtype=float), None if deltas is None else np.array(deltas, dtype=float)


def advance(config: OptimizerConfig, state: OptimizerState, g) -> OptimizerState:
    """Advance ``state`` by the one (checked, finite) gradient ``g``: the one-step :func:`scan`."""
    scan(config, state, (g,))
    return state


def direction_map(config: OptimizerConfig, *, g=None, m=None, v=None, delta=None, out=None) -> np.ndarray:
    """The direction ``d`` that the moments give, elementwise.

    Reads ``g`` (SIGN_SGD), ``m`` (every other kind), ``v`` (Adam/RMSprop)
    or ``delta`` (equal-beta Adam): bias-corrected as :func:`corrected_moments`
    gives them, or raw, as the filters map them. Any shape works, so a
    leading time axis maps a whole history at once. ``out = (d, positive)``
    receives the direction in ``d``, a float array that is none of the
    inputs, using ``positive``, a bool array of its shape, as scratch.
    """
    kind = config.kind
    d, positive = (np.empty(np.shape(g if kind is _SIGN_SGD else m)), None) if out is None else out
    if kind in (_SGD, _EMA_SIGN):
        np.copyto(d, m)
        return d
    if kind is _SIGN_SGD:
        return np.sign(g, out=d)
    if kind is _SIGNUM:
        if config.epsilon == 0.0:
            return np.sign(m, out=d)
        return np.divide(m, _denominator(np.multiply(m, m, out=d), config, out=d), out=d)
    if kind in (_RMSPROP, _ADAM):
        return _safe_div(m, _denominator(v, config, out=d), d, positive)
    # d holds the clamped root and then the direction: a (T, C) history needs no other float array
    root = np.multiply(m, m, out=d)
    root += delta
    np.maximum(root, 0.0, out=root)
    return _safe_div(m, _denominator(root, config, out=root), root, positive)


def direction(config: OptimizerConfig, state: OptimizerState, g) -> tuple[np.ndarray, OptimizerState]:
    """One optimizer step with float betas: :func:`advance` ``state`` once, then :func:`direction_map` it."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")
    advance(config, state, g)
    return direction_map(config, g=g, **corrected_moments(config, state)), state


def apply_step(w: np.ndarray, d: np.ndarray, lr, out=None) -> np.ndarray:
    """The update ``w - lr*d`` of float arrays (``lr`` a float or a column that broadcasts).

    ``out`` receives it; it may be ``d``, but not ``w``.
    """
    step = np.multiply(lr, d, out=out)
    return np.subtract(w, step, out=step)


def delta_estimate(config: OptimizerConfig, moments: dict, out=None) -> np.ndarray:
    """Per-coordinate gradient-variance estimate of a kind with a second moment, from :func:`corrected_moments`.

    Equal-beta Adam exposes its recursion directly; plain Adam/RMSprop report
    ``max(v_hat - m_hat**2, 0)``. ``moments`` must come from a state that has
    taken at least one step. ``out`` receives the estimate; it is none of the
    moments.
    """
    if config.kind is _ADAM_EQUAL_BETA:
        return np.maximum(moments["delta"], 0.0, out=out)
    m = moments["m"]
    out = np.multiply(m, m, out=out)
    np.subtract(moments["v"], out, out=out)
    return np.maximum(out, 0.0, out=out)
