"""Shared numerics: moving averages, clipping, schedules and momentum grids.

Everything downstream (optimizers, identity checkers, benchmark runner)
builds on the normalized exponential moving average

    ema_k = beta * ema_{k-1} + (1 - beta) * sample_k

with either zero initialization or seeding from the first sample.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InitMode(enum.Enum):
    """How a moving-average buffer treats its first sample."""

    ZERO = "zero"
    FIRST_SAMPLE = "first_sample"


@dataclass
class EmaBuffer:
    """One normalized exponential-moving-average accumulator.

    The buffer tracks a signal of fixed shape. With ``InitMode.ZERO`` the
    recursion starts from zeros (so the weights on the samples seen so far
    sum to ``1 - beta**step``); with ``InitMode.FIRST_SAMPLE`` the first
    update copies the sample and the recursion takes over afterwards.

    ``value=None`` means the shape is adopted from the first sample.
    """

    beta: float
    init_mode: InitMode = InitMode.ZERO
    value: np.ndarray | None = None
    step: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.step < 0:
            raise ValueError(f"step must be nonnegative, got {self.step}")
        if self.value is not None:
            self.value = np.asarray(self.value, dtype=float)

    @classmethod
    def zeros(cls, shape, beta: float, init_mode: InitMode = InitMode.ZERO) -> "EmaBuffer":
        return cls(beta=beta, init_mode=init_mode, value=np.zeros(shape))

    def update(self, sample) -> np.ndarray:
        """Advance the recursion by one sample and return the new value."""
        sample = np.asarray(sample, dtype=float)
        if self.value is None:
            self.value = np.zeros(sample.shape)
        if sample.shape != self.value.shape:
            raise ValueError(
                f"sample shape {sample.shape} does not match buffer shape {self.value.shape}"
            )
        if self.step == 0 and self.init_mode is InitMode.FIRST_SAMPLE:
            self.value = sample.copy()
        else:
            self.value = self.beta * self.value + (1.0 - self.beta) * sample
        self.step += 1
        return self.value


def bias_correct(value, beta: float, step: int):
    """Rescale a zero-initialized average by ``1 / (1 - beta**step)``.

    ``step`` counts updates already applied and must be at least 1.
    """
    if step < 1:
        raise ValueError(f"bias correction needs step >= 1, got {step}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    return np.asarray(value, dtype=float) / (1.0 - beta**step)


def gclip(g, threshold: float) -> np.ndarray:
    """Global norm clipping: scale ``g`` so its l2 norm is at most ``threshold``.

    The zero vector passes through unchanged.
    """
    if threshold <= 0:
        raise ValueError(f"gclip threshold must be positive, got {threshold}")
    g = np.asarray(g, dtype=float)
    norm = float(np.linalg.norm(g))
    if norm > threshold:
        return g * (threshold / norm)
    return g.copy()


def cclip(v, bound: float) -> np.ndarray:
    """Coordinate-wise clamp to ``[-bound, bound]``."""
    if bound <= 0:
        raise ValueError(f"cclip bound must be positive, got {bound}")
    return np.clip(np.asarray(v, dtype=float), -bound, bound)


@dataclass(frozen=True)
class ClipConfig:
    """Gradient clipping switches: both operators disabled by default."""

    gclip_threshold: float | None = None
    cclip_bound: float | None = None

    def __post_init__(self) -> None:
        if self.gclip_threshold is not None and self.gclip_threshold <= 0:
            raise ValueError("gclip_threshold must be positive when enabled")
        if self.cclip_bound is not None and self.cclip_bound <= 0:
            raise ValueError("cclip_bound must be positive when enabled")


@dataclass(frozen=True)
class Schedule:
    """Linear warmup to ``peak_lr`` followed by cosine annealing to ``floor_lr``."""

    peak_lr: float
    total_steps: int
    floor_lr: float = 0.0
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.peak_lr) and self.peak_lr >= 0):
            raise ValueError(f"peak_lr must be finite and nonnegative, got {self.peak_lr}")
        if self.floor_lr < 0:
            raise ValueError("floor_lr must be nonnegative")
        if self.total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")

    @property
    def warmup_steps(self) -> int:
        return round(self.warmup_fraction * self.total_steps)


def lr_at(sched: Schedule, step: int) -> float:
    """Learning rate at ``step``; valid for ``0 <= step <= total_steps``."""
    if not 0 <= step <= sched.total_steps:
        raise ValueError(
            f"step {step} outside schedule range [0, {sched.total_steps}]"
        )
    warmup = sched.warmup_steps
    if step < warmup:
        return sched.peak_lr * step / warmup
    span = sched.total_steps - warmup
    if span == 0:
        return sched.floor_lr
    phase = math.pi * (step - warmup) / span
    return sched.floor_lr + (sched.peak_lr - sched.floor_lr) * (1.0 + math.cos(phase)) / 2.0


def beta_grid(beta_base: float, kappas: Sequence[float]) -> list[float]:
    """Momentum grid ``beta = 1 - kappa * (1 - beta_base)``, order preserved.

    Each kappa rescales the accumulation factor ``1 / (1 - beta)``; the
    resulting betas must land in ``[0, 1)``.
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
        out.append(beta)
    return out
