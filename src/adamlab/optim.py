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

A step has three parts: the moment recursions (an online estimate of the
gradient's mean and variance), bias correction, which the kinds with a
second moment (RMSprop, Adam and equal-beta Adam) always apply, and the
direction map. The recursions have one implementation per number type:
Python floats step in :func:`scan`'s own loop, and arrays in the in-place
step that :func:`_recursion` settles once for a kind and its betas. An array
state's moments are the rows of one stacked array (``m``, then ``v`` or
``delta``), so one decay multiply, one add and one bias-correction divide
cover both. :func:`array_step` settles a batch's whole step, and every array
it writes, from these pieces for the ``quadbench`` engine, so a step makes
only its ufunc calls; :func:`scan` runs the same recursion along a signal,
and :func:`direction_map` the same map over a whole moment history, as the
filters do.
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


_SGD, _SIGN_SGD, _SIGNUM, _EMA_SIGN, _RMSPROP, _ADAM, _ADAM_EQUAL_BETA = OptimizerKind

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


def stacked_moments(kind: OptimizerKind, state: OptimizerState) -> np.ndarray:
    """A copy of an array state's moments as the rows of one array: ``m``, then ``v`` or ``delta``, if kept."""
    n = 2 if kind in _SECOND_MOMENT_KINDS else int(kind is not _SIGN_SGD)
    return np.stack([state.m, state.delta if kind is _ADAM_EQUAL_BETA else state.v])[:n]


def _safe_div(num: np.ndarray, denom: np.ndarray, out: np.ndarray, positive=None) -> np.ndarray:
    """num/denom into ``out`` (which may be ``denom``), 0/0 and a NaN ``denom`` giving 0; ``positive`` is scratch."""
    positive = np.greater(denom, 0.0, out=positive)
    np.divide(num, denom, out=out, where=positive)
    np.copyto(out, 0.0, where=np.logical_not(positive, out=positive))
    return out


def recursion_coefficients(state: OptimizerState) -> tuple:
    """``(b1, 1 - b1, b1*(1 - b1), b2, 1 - b2)`` of the state's betas (floats or ``(R, 1)`` columns).

    For an array state each is spread over the state's shape: a product of two
    whole arrays is several times faster than one that broadcasts a column.
    """
    b, b2 = state.beta1, state.beta2
    c = 1.0 - b
    coefficients = (b, c, b * c, b2, 1.0 - b2)
    shape = np.shape(state.m)
    return tuple(np.broadcast_to(x, shape).copy() for x in coefficients) if shape else coefficients


def _recursion(kind: OptimizerKind, state: OptimizerState):
    """One in-place array step of ``kind``'s moment recursions, for ``state``'s betas: ``recur(g, moments, out)``.

    Reads the :func:`stacked_moments` ``moments`` before the (checked,
    finite) gradient ``g`` and writes them after it into ``out`` (which may be
    ``moments``), each element by :func:`scan`'s float operations. The new
    terms are stacked like the moments, so one multiply and one add decay them.
    """
    if kind is _SIGN_SGD:
        return lambda g, moments, out: None
    b, c, bc, b2, c2 = recursion_coefficients(state)
    decay = np.stack([b, b2])[: 2 if kind in _SECOND_MOMENT_KINDS else 1]
    term = np.empty_like(decay)
    first, second = term[0], term[-1]
    if kind is _ADAM_EQUAL_BETA:
        diff = np.empty_like(first)
        def terms(g, moments):
            np.multiply(bc, np.subtract(moments[0], g, out=diff), out=second)
            np.multiply(second, diff, out=second)
            np.multiply(c, g, out=first)
    elif kind in _SECOND_MOMENT_KINDS:
        def terms(g, moments):
            np.multiply(c2, np.multiply(g, g, out=second), out=second)
            np.multiply(c, g, out=first)
    elif kind is _EMA_SIGN:
        def terms(g, moments):
            np.multiply(c, np.sign(g, out=first), out=first)
    else:
        def terms(g, moments):
            np.multiply(c, g, out=first)

    def recur(g, moments, out):
        terms(g, moments)
        np.multiply(decay, moments, out=out)
        out += term

    return recur


def scan(config: OptimizerConfig, state: OptimizerState, signal) -> tuple[np.ndarray, np.ndarray | None]:
    """Advance ``state`` by each (checked, finite) gradient of ``signal`` in turn, along axis 0.

    ``signal`` is a sequence of gradients of the state's shape: a list of
    Python floats for a scalar state, the rows of an array, or the one-gradient
    tuple of :func:`advance`. The recursions are the EMA of ``m`` (of
    ``sign(g)`` for EMA_SIGN, a signed zero keeping its sign), the EMA of ``v``
    for Adam/RMSprop and, for equal-beta Adam, the variance recursion
    ``delta' = b*delta + b*(1-b)*(m_prev - g)^2``. SIGN_SGD keeps no moments.
    The coefficients and the kind are settled once per call; every step
    rounds as it would alone. A scalar state steps as Python floats, several
    times faster than 0-d arrays; an array state takes one :func:`_recursion`
    step per gradient, straight into a history row, and its arrays are then
    updated in place (the caller's gradients never are).

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
        moments = stacked_moments(kind, state)
        history = np.empty((steps, *moments.shape))
        recur = _recursion(kind, state)
        for k, g in enumerate(signal):
            recur(g, moments, history[k])
            moments = history[k]
        for own, row in zip((state.m, state.delta if equal_beta else state.v), moments):
            np.copyto(own, row)
        state.step += steps
        return history[:, 0], history[:, 1] if equal_beta else None
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


def _correction(kind: OptimizerKind, hat: np.ndarray):
    """Bias correction of stacked moments into ``hat``, for ``kind``: ``correct(moments, factors)``.

    ``factors`` are an entry of :func:`_correction_table`. Adam and RMSprop
    divide ``m`` and ``v`` by theirs in one divide. Equal-beta Adam divides
    both rows by ``1 - beta**k`` and takes ``beta**k * m_hat**2`` off the
    second: its corrected variance term ``v_hat - m_hat**2``, which can dip
    below zero in floating point (its readers clamp it).
    """
    if kind not in _SECOND_MOMENT_KINDS:
        return lambda moments, factors: None
    if kind is not _ADAM_EQUAL_BETA:
        return lambda moments, factors: np.divide(moments, factors, out=hat)
    m_hat, second = hat
    shrink = np.empty_like(m_hat)

    def correct(moments, factors):
        np.divide(moments, factors[0], out=hat)
        np.multiply(factors[1], m_hat, out=shrink)
        np.multiply(shrink, m_hat, out=shrink)
        np.subtract(second, shrink, out=second)

    return correct


def _direction(config: OptimizerConfig):
    """The direction map of ``config``'s kind, its epsilon and placement settled: ``direct(g, m, second, d, positive)``.

    Reads ``g`` (SIGN_SGD), ``m`` and ``second`` (``v``, or equal-beta Adam's
    ``delta``), corrected or raw, and returns the direction in ``d``, a float
    array that is none of them (SGD and EMA_SIGN: ``m`` itself). A 0/0
    direction reads as 0, with the bool array ``positive`` (or ``None``) as
    scratch; with ``epsilon > 0`` the divide skips that guard, since the
    denominator is then at least epsilon unless a moment has overflowed.
    """
    kind, eps, zero = config.kind, np.array(config.epsilon), np.array(0.0)  # 0-d: numpy's fastest scalar operands
    if kind in (_SGD, _EMA_SIGN):
        return lambda g, m, second, d, positive: m
    if kind is _SIGN_SGD:
        return lambda g, m, second, d, positive: np.sign(g, out=d)
    if kind is _SIGNUM and config.epsilon == 0.0:
        return lambda g, m, second, d, positive: np.sign(m, out=d)
    if config.epsilon_placement is EpsilonPlacement.INSIDE_SQRT:
        floor = lambda root, d: np.sqrt(np.add(root, eps, out=d), out=d)
    else:
        floor = lambda root, d: np.add(np.sqrt(root, out=d), eps, out=d)
    if kind is _SIGNUM:
        return lambda g, m, second, d, positive: np.divide(m, floor(np.multiply(m, m, out=d), d), out=d)
    divide = _safe_div if config.epsilon == 0.0 else lambda m, denom, d, positive: np.divide(m, denom, out=d)
    if kind is not _ADAM_EQUAL_BETA:
        return lambda g, m, second, d, positive: divide(m, floor(second, d), d, positive)

    def direct(g, m, second, d, positive):
        # d holds the clamped root and then the direction: a (T, C) history needs no other float array
        root = np.multiply(m, m, out=d)
        root += second
        return divide(m, floor(np.maximum(root, zero, out=root), d), d, positive)

    return direct


def direction_map(config: OptimizerConfig, *, g=None, m=None, second=None) -> np.ndarray:
    """:func:`_direction`'s map into a new array (SGD, EMA_SIGN: ``m`` itself); a time axis maps a history."""
    d = np.empty(np.shape(g if config.kind is _SIGN_SGD else m))
    return _direction(config)(g, m, second, d, None)


def _correction_table(kind: OptimizerKind, beta1: list[float], beta2: list[float], ks) -> list:
    """The two factors of ``kind``'s bias correction for each run after each number of steps in ``ks``.

    One ``(2, R, 1)`` entry per ``k``: ``(1 - beta1**k, beta1**k)`` for
    equal-beta Adam, else ``(1 - beta1**k, 1 - beta2**k)``, by Python's ``**``
    (numpy's does not always round like it). Runs that share their betas share
    one ``(2, 1, 1)`` entry, which equal-beta Adam takes as two 0-d arrays,
    numpy's fastest operands. Kinds without a second moment get ``None``.
    """
    if kind not in _SECOND_MOMENT_KINDS:
        return [None] * len(ks)
    if len(set(beta1)) == len(set(beta2)) == 1:
        beta1, beta2 = beta1[:1], beta2[:1]
    powers = {beta: [beta**k for k in ks] for beta in dict.fromkeys(beta1 + beta2)}
    p1, p2 = (np.array([powers[beta] for beta in betas]).T for betas in (beta1, beta2))
    table = np.stack([1.0 - p1, p1 if kind is _ADAM_EQUAL_BETA else 1.0 - p2], axis=1)[..., None]
    if kind is _ADAM_EQUAL_BETA and len(beta1) == 1:
        return [(np.array(c1), np.array(p)) for c1, p in table[:, :, 0, 0].tolist()]
    return list(table)


def array_step(config: OptimizerConfig, beta1: list[float], beta2: list[float], dim: int, steps: int) -> tuple:
    """A batch's own optimizer step over ``R = len(beta1)`` runs, the rows of ``(R, dim)`` arrays: ``(step, variance)``.

    Run ``i`` has momentum ``beta1[i]`` and ``beta2[i]``, and all else from
    ``config``. The kind, the epsilon placement, the bias corrections and
    every array a step writes are settled here, so ``step(g, k)`` makes only
    its ufunc calls: it takes the gradient of step ``k`` through
    :func:`_recursion`, :func:`_correction` and :func:`_direction`, from zero
    moments, and returns the direction. ``variance`` is :func:`delta_estimate`'s
    ``(second, m)`` after each step, or ``None`` for a kind without a second
    moment.
    """
    kind = config.kind
    shape = (len(beta1), dim)
    state = init_state(config, shape, np.array(beta1, dtype=float)[:, None], np.array(beta2, dtype=float)[:, None])
    moments = stacked_moments(kind, state)
    hat = np.empty_like(moments) if kind in _SECOND_MOMENT_KINDS else moments
    recur, correct, direct = _recursion(kind, state), _correction(kind, hat), _direction(config)
    factors = _correction_table(kind, beta1, beta2, range(1, steps + 1))
    d, positive = np.empty(shape), np.empty(shape, dtype=bool)
    m, second = (*hat, None, None)[:2]

    def step(g, k):
        recur(g, moments, moments)
        correct(moments, factors[k])
        return direct(g, m, second, d, positive)

    if kind not in _SECOND_MOMENT_KINDS:
        return step, None
    return step, (second, None if kind is _ADAM_EQUAL_BETA else m)


def direction(config: OptimizerConfig, state: OptimizerState, g) -> tuple[np.ndarray, OptimizerState]:
    """One optimizer step with float betas: :func:`advance` ``state`` once, then map its corrected moments."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")
    advance(config, state, g)
    kind = config.kind
    moments = stacked_moments(kind, state)
    if kind in _SECOND_MOMENT_KINDS:
        factors = _correction_table(kind, [state.beta1], [state.beta2], [state.step])[0]
        _correction(kind, moments)(moments, np.reshape(factors, (2, *(1,) * g.ndim)))
    m, second = (*moments, None, None)[:2]
    return direction_map(config, g=g, m=m, second=second), state


def apply_step(w: np.ndarray, d: np.ndarray, lr, out=None) -> np.ndarray:
    """The update ``w - lr*d`` of float arrays (``lr`` may broadcast) into ``out``, which may be ``d`` but not ``w``."""
    step = np.multiply(lr, d, out=out)
    return np.subtract(w, step, out=step)


def delta_estimate(second: np.ndarray, m: np.ndarray | None = None, out=None) -> np.ndarray:
    """Per-coordinate gradient-variance estimate from bias-corrected moments, floored at 0.

    Equal-beta Adam's corrected ``delta`` is the estimate itself (``m`` left
    ``None``); Adam and RMSprop report ``v_hat - m_hat**2``. ``out``, if given,
    is none of the moments.
    """
    if m is None:
        return np.maximum(second, 0.0, out=out)
    out = np.multiply(m, m, out=out)
    np.subtract(second, out, out=out)
    return np.maximum(out, 0.0, out=out)
