"""Shared numerics: moving averages, the learning-rate schedule and momentum grids.

Everything downstream (optimizers, identity checkers, benchmark runner)
builds on the normalized exponential moving average

    ema_k = beta * ema_{k-1} + (1 - beta) * sample_k

started from zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class EmaBuffer:
    """One normalized exponential-moving-average accumulator (kept for ``perfbench/tracer.py``, which wraps ``update``).

    The buffer tracks a signal of fixed shape. The recursion starts from
    zeros, so the weights on the samples seen so far sum to ``1 - beta**step``.

    ``value=None`` means the shape is adopted from the first sample.
    ``beta`` is a float, or an ``(R, 1)`` column that gives each row of an
    ``(R, dim)`` buffer its own momentum.
    """

    beta: float | np.ndarray
    value: np.ndarray | None = None
    step: int = 0

    def __post_init__(self) -> None:
        beta = self.beta
        lo, hi = (beta.min(), beta.max()) if isinstance(beta, np.ndarray) else (beta, beta)
        if not (0.0 <= lo and hi < 1.0):
            raise ValueError(f"beta must be in [0, 1), got {beta}")
        if self.step < 0:
            raise ValueError(f"step must be nonnegative, got {self.step}")
        if self.value is not None:
            self.value = np.asarray(self.value, dtype=float)

    @classmethod
    def zeros(cls, shape, beta: float | np.ndarray) -> "EmaBuffer":
        return cls(beta=beta, value=np.zeros(shape))

    def update(self, sample) -> np.ndarray:
        """Advance the recursion by one sample and return the new value."""
        sample = np.asarray(sample, dtype=float)
        if self.value is None:
            self.value = np.zeros(sample.shape)
        if sample.shape != self.value.shape:
            raise ValueError(
                f"sample shape {sample.shape} does not match buffer shape {self.value.shape}"
            )
        self.value = self.beta * self.value + (1.0 - self.beta) * sample
        self.step += 1
        return self.value


#: share of a run's steps spent in linear warmup before the cosine decay
WARMUP_FRACTION = 0.1


def lr_at(step, steps: int, peak):
    """Rate at ``step`` of a ``steps``-step run: linear warmup to ``peak``, then cosine annealing to 0.

    ``0 <= step <= steps``; an array ``peak`` gives one rate per peak. A
    sequence of steps gives a table with one row per step, of shape
    ``(len(step), *np.shape(peak))``, equal bit for bit to the rows of one
    call per step. The warmup takes ``round(WARMUP_FRACTION * steps)`` steps,
    fewer than ``steps`` for every ``steps >= 1``; a run of at most 5 steps
    has none.
    """
    warmup = round(WARMUP_FRACTION * steps)

    def fraction(k: int) -> tuple[float, float]:
        """``(num, den)`` with rate ``peak * num / den`` at step ``k``."""
        if not 0 <= k <= steps:
            raise ValueError(f"step {k} outside schedule range [0, {steps}]")
        if k < warmup:
            return k, warmup
        return 1.0 + math.cos(math.pi * (k - warmup) / (steps - warmup)), 2.0

    if np.ndim(step) == 0:
        num, den = fraction(step)
    else:
        terms = np.array([fraction(k) for k in step], dtype=float).reshape(-1, 2, *(1,) * np.ndim(peak))
        num, den = terms[:, 0], terms[:, 1]
    return peak * num / den


def as_signal(signal) -> np.ndarray:
    """``signal`` as a float array along axis 0: ``(T,)`` from a scalar or 1-D input, or ``(T, C)``.

    Raises ``ValueError`` for more than two dimensions or a non-finite entry.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim > 2:
        raise ValueError(f"signal must be 0-D, 1-D or 2-D (time, column), got {signal.shape}")
    if signal.ndim < 2:
        signal = signal.ravel()
    if not np.all(np.isfinite(signal)):
        raise ValueError("signal contains non-finite entries")
    return signal


def max_or_nan(*values: float) -> float:
    """The largest of ``values``, or NaN if any of them is NaN.

    The builtin ``max`` skips a NaN that does not come first (every comparison
    with NaN is false), so a running maximum of check violations would drop
    it and the check would pass.
    """
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def beta_grid(beta_base: float, kappas: Sequence[float]) -> list[float]:
    """Momentum grid ``beta = 1 - kappa * (1 - beta_base)``, order preserved.

    Each kappa rescales the accumulation factor ``1 / (1 - beta)``; the
    resulting betas must land in ``[0, 1)``, and be distinct, since distinct
    kappas can round to one beta.
    """
    if not 0.0 <= beta_base < 1.0:
        raise ValueError(f"beta_base must be in [0, 1), got {beta_base}")
    out = []
    for kappa in kappas:
        if kappa <= 0:
            raise ValueError(f"kappa must be positive, got {kappa}")
        beta = 1.0 - kappa * (1.0 - beta_base)
        if not 0.0 <= beta < 1.0:
            raise ValueError(
                f"kappa={kappa} with beta_base={beta_base} gives beta={beta} outside [0, 1)"
            )
        if beta in out:
            raise ValueError(f"kappa={kappa} with beta_base={beta_base} repeats beta={beta!r}")
        out.append(beta)
    return out
