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

All checks are numeric on supplied inputs; reports carry residuals and the
tolerance they were judged against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_signal


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one max-|residual| comparison along axis 0.

    Residuals of shape ``(T,)`` give a float and a bool; ``(T, C)``
    residuals give one value per column in ``(C,)`` arrays.
    """

    name: str
    max_abs_residual: float | np.ndarray
    tolerance: float
    passed: bool | np.ndarray

    @classmethod
    def from_residuals(cls, name: str, residuals, tolerance: float) -> "ResidualReport":
        residuals = np.asarray(residuals, dtype=float)
        if residuals.size == 0:
            return cls(name, 0.0, tolerance, True)
        worst = np.max(residuals, axis=0)  # NaN if there is one
        if residuals.ndim == 1:
            return cls(name, float(worst), tolerance, bool(worst <= tolerance))
        return cls(name, worst, tolerance, worst <= tolerance)


@dataclass(frozen=True)
class Prop1Report:
    """Paired residuals for the direction identity and the variance identity."""

    direction: ResidualReport
    variance: ResidualReport

    @property
    def passed(self) -> bool:
        """Whether every column passes both comparisons."""
        return bool(np.all(self.direction.passed) and np.all(self.variance.passed))


def scalar_adam_trace(signal, beta: float | np.ndarray) -> dict[str, np.ndarray]:
    """Run both direction forms over ``signal`` along axis 0 (eps=0, zero init, no bias correction).

    ``signal`` is ``(T,)``, or ``(T, C)`` for C independent columns streamed
    together; ``beta`` is a float or one value per column. Every operation is
    elementwise, in the scalar recursion's order, so each column rounds
    exactly as it would alone. Returns arrays shaped like ``signal``: the
    moments ``m``/``v``, the recursive variance term ``delta``, and the two
    direction streams ``d_standard = m/sqrt(v)`` and
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

    m_arr = np.empty(signal.shape)
    v_arr = np.empty(signal.shape)
    delta_arr = np.empty(signal.shape)
    # a (T,) signal steps as Python floats, several times cheaper than 0-d arrays
    rows = signal.tolist() if signal.ndim == 1 else signal
    m = v = delta = 0.0 if signal.ndim == 1 else np.zeros(signal.shape[1])
    for k, g in enumerate(rows):
        diff = m - g
        delta = beta * delta + spread * diff * diff
        m = beta * m + keep * g
        v = beta * v + keep * g * g
        m_arr[k] = m
        v_arr[k] = v
        delta_arr[k] = delta

    d_std = np.divide(m_arr, np.sqrt(v_arr), out=np.zeros(signal.shape), where=v_arr > 0)
    root = m_arr * m_arr
    root += delta_arr
    np.sqrt(root, out=root)
    d_var = np.divide(m_arr, root, out=np.zeros(signal.shape), where=root > 0)
    return {"m": m_arr, "v": v_arr, "delta": delta_arr, "d_standard": d_std, "d_variance": d_var}


def check_prop1(
    signal,
    beta: float | np.ndarray,
    tol: float = 1e-9,
    *,
    variance_tol: float | None = None,
) -> Prop1Report:
    """Compare the two direction forms and the two variance computations.

    Takes the shapes :func:`scalar_adam_trace` takes; a ``(T, C)`` signal
    gives per-column reports. The direction residual
    ``|d_standard - d_variance|`` is absolute (both streams are bounded by
    1); the variance residual ``|(v - m^2) - delta|`` is reported relative to
    the running scale of its column's variance term.
    """
    if variance_tol is None:
        variance_tol = tol / 10.0
    # no caller sees the trace, so the residuals overwrite its arrays: the working set stays at its size
    trace = scalar_adam_trace(signal, beta)
    direction_res = np.subtract(trace["d_standard"], trace["d_variance"], out=trace["d_standard"])
    np.abs(direction_res, out=direction_res)

    subtractive = np.subtract(trace["v"], trace["m"] ** 2, out=trace["v"])
    scale = np.maximum(np.maximum(np.max(np.abs(subtractive), axis=0), np.max(trace["delta"], axis=0)), 1e-300)
    variance_res = np.subtract(subtractive, trace["delta"], out=trace["d_variance"])
    np.abs(variance_res, out=variance_res)
    variance_res /= scale

    return Prop1Report(
        direction=ResidualReport.from_residuals("direction_forms", direction_res, tol),
        variance=ResidualReport.from_residuals("variance_forms", variance_res, variance_tol),
    )


def prop2_condition(beta1: float, beta2: float) -> float:
    """``(beta1 - beta2)**2``: zero exactly when the variance form exists."""
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {beta}")
    return (beta1 - beta2) ** 2


@dataclass(frozen=True)
class CompletionReport:
    """Completing-the-square diagnosis for one momentum pair.

    ``leftover_coefficient`` is the factor multiplying ``m**2`` after the
    cross term is absorbed into a perfect square; a valid single-EMA variance
    form needs it to equal ``beta2``, and ``margin`` is their distance.
    ``sqrt_defined`` records whether the absorbed square has a real root,
    i.e. ``(1 - beta2) > (1 - beta1)**2``.
    """

    beta1: float
    beta2: float
    sqrt_defined: bool
    leftover_coefficient: float | None
    margin: float


def square_completion_margin(beta1: float, beta2: float) -> CompletionReport:
    """How far the two-parameter update is from admitting a variance form.

    The margin is ``|leftover - beta2|``; it vanishes (up to rounding) only
    for equal momentum parameters. When the coefficient formula is singular
    the margin is reported as infinity.
    """
    prop2_condition(beta1, beta2)  # validates the domain
    denom = (1.0 - beta2) - (1.0 - beta1) ** 2
    sqrt_defined = denom > 0
    if denom == 0:
        return CompletionReport(beta1, beta2, False, None, math.inf)
    leftover = beta1 * beta1 * (1.0 - beta2) / denom
    return CompletionReport(beta1, beta2, sqrt_defined, leftover, abs(leftover - beta2))


def mollified_direction(m: float, variance: float) -> float:
    """``sign(m) / sqrt(1 + variance / m^2)``, i.e. ``m / sqrt(m^2 + variance)``.

    Written in the ratio form so it stays stable for large ``|m|``.
    """
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    if m == 0:
        return 0.0
    return math.copysign(1.0 / math.sqrt(1.0 + variance / (m * m)), m)


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
