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

from .core import InitMode


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one max-|residual| comparison."""

    name: str
    max_abs_residual: float
    argmax_index: int
    tolerance: float
    passed: bool

    @classmethod
    def from_residuals(cls, name: str, residuals, tolerance: float) -> "ResidualReport":
        residuals = np.asarray(residuals, dtype=float)
        if residuals.size == 0:
            return cls(name, 0.0, -1, tolerance, True)
        idx = int(np.argmax(residuals))
        worst = float(residuals[idx])
        return cls(name, worst, idx, tolerance, worst <= tolerance)


@dataclass(frozen=True)
class Prop1Report:
    """Paired residuals for the direction identity and the variance identity."""

    direction: ResidualReport
    variance: ResidualReport

    @property
    def passed(self) -> bool:
        return self.direction.passed and self.variance.passed


def scalar_adam_trace(
    signal, beta: float, init_mode: InitMode = InitMode.ZERO
) -> dict[str, np.ndarray]:
    """Run both scalar direction forms over ``signal`` (eps=0, no bias correction).

    Returns per-step arrays: the moments ``m``/``v``, the recursive variance
    term ``delta``, and the two direction streams ``d_standard = m/sqrt(v)``
    and ``d_variance = m/sqrt(m^2 + delta)`` (0/0 reads as 0).
    """
    signal = np.asarray(signal, dtype=float).ravel()
    if not np.all(np.isfinite(signal)):
        raise ValueError("signal contains non-finite entries")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")

    n = signal.size
    m_arr = np.empty(n)
    v_arr = np.empty(n)
    delta_arr = np.empty(n)
    d_std = np.empty(n)
    d_var = np.empty(n)

    m = v = delta = 0.0
    for k, g in enumerate(signal):
        g = float(g)
        if k == 0 and init_mode is InitMode.FIRST_SAMPLE:
            m, v = g, g * g
        else:
            diff = m - g
            delta = beta * delta + beta * (1.0 - beta) * diff * diff
            m = beta * m + (1.0 - beta) * g
            v = beta * v + (1.0 - beta) * g * g
        m_arr[k] = m
        v_arr[k] = v
        delta_arr[k] = delta
        d_std[k] = m / math.sqrt(v) if v > 0 else 0.0
        inner = m * m + delta
        d_var[k] = m / math.sqrt(inner) if inner > 0 else 0.0
    return {"m": m_arr, "v": v_arr, "delta": delta_arr, "d_standard": d_std, "d_variance": d_var}


def check_prop1(
    signal,
    beta: float,
    tol: float = 1e-9,
    *,
    variance_tol: float | None = None,
    init_mode: InitMode = InitMode.ZERO,
) -> Prop1Report:
    """Compare the two direction forms and the two variance computations.

    The direction residual ``|d_standard - d_variance|`` is absolute (both
    streams are bounded by 1); the variance residual ``|(v - m^2) - delta|``
    is reported relative to the running scale of the variance term.
    """
    if variance_tol is None:
        variance_tol = tol / 10.0
    trace = scalar_adam_trace(signal, beta, init_mode)
    direction_res = np.abs(trace["d_standard"] - trace["d_variance"])

    subtractive = trace["v"] - trace["m"] ** 2
    scale = max(float(np.max(np.abs(subtractive))), float(np.max(trace["delta"])), 1e-300)
    variance_res = np.abs(subtractive - trace["delta"]) / scale

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
    form needs it to equal ``required_coefficient`` (= beta2).
    ``sqrt_defined`` records whether the absorbed square has a real root,
    i.e. ``(1 - beta2) > (1 - beta1)**2``.
    """

    beta1: float
    beta2: float
    sqrt_defined: bool
    leftover_coefficient: float | None
    required_coefficient: float
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
        return CompletionReport(beta1, beta2, False, None, beta2, math.inf)
    leftover = beta1 * beta1 * (1.0 - beta2) / denom
    return CompletionReport(
        beta1, beta2, sqrt_defined, leftover, beta2, abs(leftover - beta2)
    )


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


def steepest_descent_minimizer(m: float, radius: float, num: int = 4001) -> float:
    """Brute-force argmin of ``-m * theta`` over a grid of ``|theta| <= radius``."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    thetas = np.linspace(-radius, radius, num)
    return float(thetas[np.argmin(-m * thetas)])
