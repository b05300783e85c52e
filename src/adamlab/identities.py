"""Executable checkers for the closed-form identities behind the optimizers.

Three families of claims are made checkable here:

* the two-moment direction ``m / sqrt(v)`` equals the variance form
  ``m / sqrt(m^2 + delta)`` with ``delta`` advanced by its own recursion,
  whenever both moments share one momentum parameter;
* that sharing is necessary: for distinct momentum parameters the
  completing-the-square route leaves a mismatched coefficient, so no
  single-EMA variance representation exists;
* the scalar geometry of the update: the mollified sign
  ``sign(m) / sqrt(1 + variance/m^2)`` and its reading as a steepest-descent
  step inside a signal-to-noise trust region.

All checks are numeric on supplied inputs and return residuals or margins;
the callers judge them against their own tolerances.
"""
from __future__ import annotations

import math

import numpy as np

from .core import as_signal


def _accumulate(beta, terms: np.ndarray) -> None:
    """Step each series of ``terms``, ``(T, S)`` or ``(T, S, C)``, in place to ``x_k = beta*x_{k-1} + terms_k`` from 0."""
    if terms.ndim == 2:  # a (T,) series steps as Python floats, far cheaper than 0-d arrays
        for series in terms.T:
            x = 0.0
            series[:] = [x := beta * x + term for term in series.tolist()]
        return
    prev, scaled = np.zeros(terms.shape[1:]), np.empty(terms.shape[1:])
    for row in terms:
        prev = np.add(np.multiply(beta, prev, out=scaled), row, out=row)


def scalar_adam_trace(signal, beta: float | np.ndarray) -> dict[str, np.ndarray]:
    """Run both direction forms over ``signal`` along axis 0 (eps=0, zero init, no bias correction).

    ``signal`` is ``(T,)``, or ``(T, C)`` for C independent columns streamed
    together; ``beta`` is a float or one value per column. The terms that
    read no state fill the histories first; ``m``, then ``(v, delta)``, are
    stepped over them in place with the scalar recursion's operations in its
    order, so each column rounds exactly as it would alone. Returns arrays
    shaped like ``signal``: the moments ``m``/``v``, the variance term
    ``delta``, and the direction streams ``d_standard = m/sqrt(v)`` and
    ``d_variance = m/sqrt(m^2 + delta)`` (0/0 reads as 0).
    """
    signal = as_signal(signal)
    beta = float(beta) if np.ndim(beta) == 0 else np.asarray(beta, dtype=float)
    if np.ndim(beta) and (signal.ndim != 2 or beta.shape != signal.shape[1:]):
        raise ValueError(f"per-column beta of shape {beta.shape} needs a (T, {beta.size}) signal")
    if not (np.all(0.0 <= beta) and np.all(beta < 1.0)):
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    keep = 1.0 - beta
    spread = beta * keep

    # time-major (T, 3, ...): each step's moments are one contiguous row
    history = np.empty((len(signal), 3, *signal.shape[1:]))
    m_arr, v_arr, delta_arr = history.swapaxes(0, 1)
    np.multiply(keep, signal, out=m_arr)  # keep*g, then (keep*g)*g
    np.multiply(m_arr, signal, out=v_arr)
    _accumulate(beta, history[:, :1])
    diff = np.subtract(0.0, signal)  # m_prev - g, with m_prev = 0 before the first sample
    np.subtract(m_arr[:-1], signal[1:], out=diff[1:])
    np.multiply(spread, diff, out=delta_arr)  # (spread*diff)*diff
    delta_arr *= diff
    _accumulate(beta, history[:, 1:])

    d_std = np.divide(m_arr, np.sqrt(v_arr), out=np.zeros(signal.shape), where=v_arr > 0)
    root = np.multiply(m_arr, m_arr, out=diff)  # diff's buffer, free again
    root += delta_arr
    np.sqrt(root, out=root)
    d_var = np.divide(m_arr, root, out=np.zeros(signal.shape), where=root > 0)
    return {"m": m_arr, "v": v_arr, "delta": delta_arr, "d_standard": d_std, "d_variance": d_var}


def check_prop1(signal, beta: float | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The maximum residuals ``(direction, variance)`` of the two direction forms and the two variance computations.

    Takes the shapes :func:`scalar_adam_trace` takes: a ``(T,)`` signal gives
    two floats, a ``(T, C)`` signal two ``(C,)`` arrays, one value per column.
    The direction residual ``|d_standard - d_variance|`` is absolute (both
    streams are bounded by 1); the variance residual ``|(v - m^2) - delta|``
    is relative to the running scale of its column's variance term. A NaN
    residual gives a NaN maximum.
    """
    # no caller sees the trace, so the residuals overwrite its arrays: the working set stays at its size
    trace = scalar_adam_trace(signal, beta)
    direction_res = np.subtract(trace["d_standard"], trace["d_variance"], out=trace["d_standard"])
    np.abs(direction_res, out=direction_res)

    subtractive = np.subtract(trace["v"], trace["m"] ** 2, out=trace["v"])
    scale = np.maximum(np.maximum(np.max(np.abs(subtractive), axis=0), np.max(trace["delta"], axis=0)), 1e-300)
    variance_res = np.subtract(subtractive, trace["delta"], out=trace["d_variance"])
    np.abs(variance_res, out=variance_res)
    variance_res /= scale
    return np.max(direction_res, axis=0), np.max(variance_res, axis=0)


def prop2_condition(beta1: float, beta2: float) -> float:
    """``(beta1 - beta2)**2``: zero exactly when the variance form exists."""
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {beta}")
    return (beta1 - beta2) ** 2


def square_completion_margin(beta1: float, beta2: float) -> tuple[float, bool]:
    """``(margin, sqrt_defined)``: how far the two-parameter update is from admitting a variance form.

    Completing the square absorbs the cross term and leaves a coefficient
    ``leftover`` on ``m**2``; a valid single-EMA variance form needs it to
    equal ``beta2``, and the margin is ``|leftover - beta2|``. It vanishes
    (up to rounding) only for equal momentum parameters, and is infinite
    where the coefficient formula is singular. ``sqrt_defined`` records
    whether the absorbed square has a real root, i.e.
    ``(1 - beta2) > (1 - beta1)**2``.
    """
    prop2_condition(beta1, beta2)  # validates the domain
    denom = (1.0 - beta2) - (1.0 - beta1) ** 2
    if denom == 0:
        return math.inf, False
    leftover = beta1 * beta1 * (1.0 - beta2) / denom
    return abs(leftover - beta2), denom > 0


def mollified_direction(m: float, variance: float) -> float:
    """``sign(m) / sqrt(1 + variance / m^2)``, i.e. ``m / sqrt(m^2 + variance)``.

    The :func:`trust_radius` with the sign of ``m``, in the ratio form, which
    stays stable for large ``|m|``.
    """
    radius = trust_radius(m, variance)  # raises for a negative variance
    return math.copysign(radius, m) if m else 0.0  # -0.0 maps to 0.0


def trust_radius(m: float, variance: float) -> float:
    """Radius ``1 / sqrt(1 + variance / m^2)`` of the signal-to-noise trust region.

    The minimizer of ``-m * theta`` over ``|theta| <= radius`` is
    ``sign(m) * radius``, which is exactly :func:`mollified_direction`.
    """
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    if m == 0:
        return 0.0
    return 1.0 / math.sqrt(1.0 + variance / (m * m))


#: points of the brute-force grid over ``[-radius, radius]``
MINIMIZER_GRID_POINTS = 4001


def steepest_descent_minimizer(m: float, radius: float) -> float:
    """Brute-force argmin of ``-m * theta`` over a grid of ``|theta| <= radius``."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    thetas = np.linspace(-radius, radius, MINIMIZER_GRID_POINTS)
    return float(thetas[np.argmin(-m * thetas)])
