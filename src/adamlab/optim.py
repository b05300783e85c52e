"""Optimizer family as step functions over the moments they keep.

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
direction map. The moments are the whole state: ``m``, then ``v`` or
``delta``, as far as a kind keeps them, stacked as the rows of one array, so
one decay multiply, one add and one bias-correction divide cover both. The
recursions have one implementation per number type: Python floats step in
:func:`scan`'s own loop, and arrays in the in-place step that
:func:`_recursion` settles once for a kind, its betas and a shape.
:func:`array_step` settles a batch's whole step, and every array it writes,
from these pieces for the ``quadbench`` engine, so a step makes only its
ufunc calls; :func:`scan` runs the same recursion along a signal from given
or zero moments and returns their histories, and :func:`direction_map` the
same map over a whole moment history, as the filters do.
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


def _moment_count(kind: OptimizerKind) -> int:
    """How many moments ``kind`` keeps: ``m``, then ``v`` or ``delta`` for the kinds with a second moment."""
    return 2 if kind in _SECOND_MOMENT_KINDS else int(kind is not _SIGN_SGD)


def _safe_div(num: np.ndarray, denom: np.ndarray, out: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """num/denom into ``out`` (which may be ``denom``), 0/0 and a NaN ``denom`` giving 0; ``positive`` is bool scratch."""
    np.greater(denom, 0.0, out=positive)
    np.divide(num, denom, out=out, where=positive)
    np.copyto(out, 0.0, where=np.logical_not(positive, out=positive))
    return out


def recursion_coefficients(beta1, beta2, shape) -> tuple:
    """``(b1, 1 - b1, b1*(1 - b1), b2, 1 - b2)`` of the betas (floats or ``(R, 1)`` columns).

    For a nonempty ``shape`` each is spread over it: a product of two whole
    arrays is several times faster than one that broadcasts a column.
    """
    c = 1.0 - beta1
    coefficients = (beta1, c, beta1 * c, beta2, 1.0 - beta2)
    return tuple(np.broadcast_to(x, shape).copy() for x in coefficients) if shape else coefficients


def _recursion(kind: OptimizerKind, beta1, beta2, shape):
    """One in-place array step of ``kind``'s moment recursions over gradients of ``shape``: ``recur(g, moments, out)``.

    ``moments`` are ``(n, *shape)``, ``m`` then ``v`` or ``delta``, as far as
    the kind keeps them. ``recur`` reads them before the (checked, finite)
    gradient ``g`` and writes them after it into ``out`` (which may be
    ``moments``), each element by :func:`scan`'s float operations, with the
    betas as floats or ``(R, 1)`` columns. The new terms are stacked like the
    moments, so one multiply and one add decay them.
    """
    if kind is _SIGN_SGD:
        return lambda g, moments, out: None
    b, c, bc, b2, c2 = recursion_coefficients(beta1, beta2, shape)
    decay = np.stack([b, b2])[: _moment_count(kind)]
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


def scan(config: OptimizerConfig, signal, start=None) -> tuple[np.ndarray, ...]:
    """The moments after each (checked, finite) gradient of ``signal`` in turn, along axis 0.

    ``signal`` is a sequence of scalar gradients (Python floats, 0-d arrays,
    or a 1-D array), or a ``(T, *shape)`` array whose rows are the gradients.
    The recursions are the EMA of ``m`` (of ``sign(g)`` for EMA_SIGN, a
    signed zero keeping its sign), the EMA of ``v`` for Adam/RMSprop and, for
    equal-beta Adam, the variance recursion
    ``delta' = b*delta + b*(1-b)*(m_prev - g)^2`` (its own nonnegative
    recursion, not ``v - m**2``, so it stays sign-safe in floating point).
    They start from ``start``, one value per moment (such as the last rows
    of an earlier scan's histories), or else from zero; neither ``start`` nor
    ``signal`` is written. The coefficients and the kind are settled once per
    call; every step rounds as it would alone. A scalar signal steps as
    Python floats (a 1-D array is converted), several times faster than
    numpy scalars; an array signal takes one :func:`_recursion` step per
    row, straight into a history row.

    Returns one ``(T, *shape)`` history per moment: ``m``, then ``v`` or
    ``delta`` for the kinds with a second moment (SIGN_SGD keeps none).
    """
    kind = config.kind
    if kind is _SIGN_SGD:
        return ()
    n = _moment_count(kind)
    shape = signal.shape[1:] if isinstance(signal, np.ndarray) else ()
    if shape:
        moments = np.zeros((n, *shape)) if start is None else np.array(start, dtype=float)
        history = np.empty((len(signal), *moments.shape))
        recur = _recursion(kind, config.beta1, config.beta2, shape)
        for k, g in enumerate(signal):
            recur(g, moments, history[k])
            moments = history[k]
        return tuple(history[:, i] for i in range(n))
    if isinstance(signal, np.ndarray):
        signal = signal.tolist()
    b, c, bc, b2, c2 = recursion_coefficients(config.beta1, config.beta2, ())
    m, second = (0.0, 0.0) if start is None else (*start, 0.0)[:2]
    ms, seconds = [], []
    if kind is _ADAM_EQUAL_BETA:
        for g in signal:
            diff = m - g
            second = b * second + bc * diff * diff
            m = b * m + c * g
            ms.append(m)
            seconds.append(second)
    elif kind in _SECOND_MOMENT_KINDS:
        for g in signal:
            m = b * m + c * g
            second = b2 * second + c2 * (g * g)
            ms.append(m)
            seconds.append(second)
    else:
        # EMA_SIGN's signs step as Python floats
        for x in np.sign(signal).tolist() if kind is _EMA_SIGN else signal:
            m = b * m + c * x
            ms.append(m)
    return tuple(np.array(h, dtype=float) for h in (ms, seconds)[:n])


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
    m_hat, second = hat[0, ...], hat[1, ...]  # views, 0-d ones too
    shrink = np.empty_like(m_hat)

    def correct(moments, factors):
        np.divide(moments, factors[0], out=hat)
        np.multiply(factors[1], m_hat, out=shrink)
        np.multiply(shrink, m_hat, out=shrink)
        np.subtract(second, shrink, out=second)

    return correct


def _direction(config: OptimizerConfig, guarded: bool = False):
    """The direction map of ``config``'s kind, its epsilon and placement settled: ``direct(g, m, second, d, positive)``.

    Reads ``g`` (SIGN_SGD), ``m`` and ``second`` (``v``, or equal-beta Adam's
    ``delta``), corrected or raw, and returns the direction in ``d``, a float
    array that is none of them (SGD and EMA_SIGN: ``m`` itself). A 0/0
    direction, or one over a NaN denominator, reads as 0, with the bool array
    ``positive`` of ``d``'s shape as scratch. With ``epsilon > 0`` the divide
    skips that guard unless ``guarded``: the denominator is then at least
    epsilon unless a moment has overflowed.
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
    divide = _safe_div if guarded or config.epsilon == 0.0 else lambda m, denom, d, positive: np.divide(m, denom, out=d)
    if kind is not _ADAM_EQUAL_BETA:
        return lambda g, m, second, d, positive: divide(m, floor(second, d), d, positive)

    def direct(g, m, second, d, positive):
        # d holds the clamped root and then the direction: a (T, C) history needs no other float array
        root = np.multiply(m, m, out=d)
        root += second
        return divide(m, floor(np.maximum(root, zero, out=root), d), d, positive)

    return direct


def direction_map(config: OptimizerConfig, m=None, second=None, *, g=None) -> np.ndarray:
    """:func:`_direction`'s map into a new array (SGD, EMA_SIGN: ``m`` itself); a time axis maps a history.

    ``m`` and ``second`` are the moments in :func:`scan`'s order, so
    ``direction_map(config, *scan(config, signal), g=signal)`` maps a scan.
    """
    shape = np.shape(g if config.kind is _SIGN_SGD else m)
    return _direction(config)(g, m, second, np.empty(shape), np.empty(shape, dtype=bool))


def _correction_table(kind: OptimizerKind, beta1: list[float], beta2: list[float], ks) -> list:
    """The two factors of ``kind``'s bias correction for each run after each number of steps in ``ks``.

    One ``(2, R, 1)`` entry per ``k``: ``(1 - beta1**k, beta1**k)`` for
    equal-beta Adam, else ``(1 - beta1**k, 1 - beta2**k)``, by Python's ``**``
    (numpy's does not always round like it), once per distinct beta and then
    gathered per run. Runs that share their betas share
    one ``(2, 1, 1)`` entry, which equal-beta Adam takes as two 0-d arrays,
    numpy's fastest operands. Kinds without a second moment get ``None``.
    """
    if kind not in _SECOND_MOMENT_KINDS:
        return [None] * len(ks)
    if len(set(beta1)) == len(set(beta2)) == 1:
        beta1, beta2 = beta1[:1], beta2[:1]
    index = {beta: i for i, beta in enumerate(dict.fromkeys(beta1 + beta2))}
    powers = np.array([[beta**k for k in ks] for beta in index]).T
    p1, p2 = (powers.take([index[beta] for beta in betas], axis=1) for betas in (beta1, beta2))
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
    moments, and returns the direction. The first step's divide is guarded,
    since only a start point's gradient can overflow the moments of a run that
    has not ended (a point whose loss is within the engine's threshold has a
    small gradient). ``variance`` is :func:`delta_estimate`'s ``(second, m)``
    after each step, or ``None`` for a kind without a second moment.
    """
    kind = config.kind
    shape = (len(beta1), dim)
    moments = np.zeros((_moment_count(kind), *shape))
    hat = np.empty_like(moments) if kind in _SECOND_MOMENT_KINDS else moments
    columns = (np.array(betas, dtype=float)[:, None] for betas in (beta1, beta2))
    recur, correct, direct = _recursion(kind, *columns, shape), _correction(kind, hat), _direction(config)
    first = _direction(config, guarded=True)
    factors = _correction_table(kind, beta1, beta2, range(1, steps + 1))
    d, positive = np.empty(shape), np.empty(shape, dtype=bool)
    m, second = (*hat, None, None)[:2]

    def step(g, k):
        recur(g, moments, moments)
        correct(moments, factors[k])
        return (first if k == 0 else direct)(g, m, second, d, positive)

    if kind not in _SECOND_MOMENT_KINDS:
        return step, None
    return step, (second, None if kind is _ADAM_EQUAL_BETA else m)


def direction(config: OptimizerConfig, g, start=None, step: int = 0) -> tuple[np.ndarray, tuple]:
    """One optimizer step with the config's betas: ``(d, moments)``.

    The (checked) gradient ``g`` is scanned from ``start`` (zero moments by
    default), the moments' ``step + 1``-th update; the new moments are
    bias-corrected and mapped to the direction ``d``. ``moments`` are the raw
    new moments, the ``start`` of the next step.
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")
    kind = config.kind
    moments = tuple(history[0] for history in scan(config, g[None], start))
    hat = np.array(moments)
    if kind in _SECOND_MOMENT_KINDS:
        factors = _correction_table(kind, [config.beta1], [config.beta2], [step + 1])[0]
        _correction(kind, hat)(hat, np.reshape(factors, (2, *(1,) * g.ndim)))
    return direction_map(config, *hat, g=g), moments


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
