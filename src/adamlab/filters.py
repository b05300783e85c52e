"""Optimizer direction maps viewed as causal operators on gradient signals.

There is no loss or training here: a fixed scalar signal is streamed through
a direction map (epsilon 0, from a zero state) and the output sequence is
studied. The map reads the raw moments: the filters apply no bias correction.
Several signals of one length can be streamed together as the columns of a
``(T, C)`` array. The whole signal goes through one ``scan`` of the
optimizer's moment recursions (a scalar signal as Python floats, a ``(T, C)``
signal row by row, each row's moments written in place into histories made
once); the moments the map reads come back as those ``(T, C)`` arrays, and
``direction_map`` turns them into the response in one call. Every operation
is elementwise, so every column rounds exactly as it would alone, one sample
at a time. The interesting operator properties:

1. causality - the output up to step k only depends on the input up to k;
2. invariance to positive rescaling of the whole signal;
3. oddness - negating the input negates the output;
4. bounded sup norm (|d_k| <= 1);
5. density - any value in [-1, 1] is attainable at any step;

and, for equal-beta Adam, blindness to a slowly decaying envelope. The
checks return what they measure (violations, a gap, an achieved response)
and judge nothing: the callers compare them with :data:`PROPERTY_TOL`,
:data:`BLINDNESS_TOL` and :data:`WITNESS_TOL`. The filter runs the real
optimizer recursions and map, so there is a single source of truth for the
direction math.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import as_signal, max_or_nan
from .optim import OptimizerConfig, OptimizerKind, direction_map, init_state, scan
from .optim import direction  # unused here; perfbench/tracer.py still wraps adamlab.filters.direction


@dataclass(frozen=True)
class SignalSpec:
    """Damped sinusoid ``amplitude * sin(frequency*k) * exp(-decay*k)``."""

    amplitude: float = 1.8
    frequency: float = 0.03
    decay: float = 0.0025
    length: int = 2000

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be at least 1")
        if self.decay < 0:
            raise ValueError("decay must be nonnegative")
        if not self.frequency > 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")


def gen_signal(spec: SignalSpec) -> np.ndarray:
    k = np.arange(spec.length)
    # a huge decay overflows -decay*k to -inf, and exp(-inf) = 0 is meant; an infinite
    # input gives nan entries, which as_signal rejects
    with np.errstate(over="ignore", invalid="ignore"):
        return spec.amplitude * np.sin(spec.frequency * k) * np.exp(-spec.decay * k)


class FilterKind(enum.Enum):
    SIGN = "sign"
    ADAM_EQUAL_BETA = "adameq"
    SIGNUM = "signum"
    EMA_SIGN = "emasign"


_OPTIM_KIND = {
    FilterKind.SIGN: OptimizerKind.SIGN_SGD,
    FilterKind.ADAM_EQUAL_BETA: OptimizerKind.ADAM_EQUAL_BETA,
    FilterKind.SIGNUM: OptimizerKind.SIGNUM,
    FilterKind.EMA_SIGN: OptimizerKind.EMA_SIGN,
}


@dataclass(frozen=True)
class FilterSpec:
    """Which direction map to stream through, and with what momentum."""

    kind: FilterKind
    beta: float = 0.95

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(kind=_OPTIM_KIND[self.kind], beta1=self.beta, beta2=self.beta, epsilon=0.0)


#: the largest magnitude of a nonzero adameq signal lies here, so its squares neither overflow nor underflow
ADAMEQ_PEAK_RANGE = (2.0**-500, 2.0**500)


def filter_response(filt: FilterSpec, signal) -> np.ndarray:
    """Stream ``signal`` through the direction map along axis 0.

    A scalar or 1-D signal is flattened and gives a ``(T,)`` response; a
    ``(T, C)`` signal is C independent columns streamed together and gives a
    ``(T, C)`` response. The sign filter keeps no moments; the others hand
    the whole signal to one ``scan`` of the recursions, and its ``m`` (and
    equal-beta Adam's ``delta``) history to one ``direction_map`` call.
    Equal-beta Adam raises ``ValueError`` for a nonzero signal whose largest
    magnitude is outside :data:`ADAMEQ_PEAK_RANGE`, where its squares would
    overflow or underflow and the response would silently read 0. The range
    bounds only the peak: inside it, moments that decay into the subnormal
    range lose bits, so exact power-of-two scale invariance can fail in the
    last bits of the response (at beta 0.5, an impulse of 1e-3 followed by
    22 zeros responds differently at scale 2**-490 than at scale 1).
    """
    signal = as_signal(signal)
    config = filt.optimizer_config()
    if filt.kind is FilterKind.SIGN:
        return direction_map(config, g=signal)
    if filt.kind is FilterKind.ADAM_EQUAL_BETA:
        peak = float(np.max(np.abs(signal), initial=0.0))
        if peak and not ADAMEQ_PEAK_RANGE[0] <= peak <= ADAMEQ_PEAK_RANGE[1]:
            raise ValueError(
                f"adameq signal peak {peak:g} is outside [2**-500, 2**500], where m*m + delta would overflow or underflow"
            )
    state = init_state(config, signal.shape[1:])
    # a (T,) signal steps as Python floats, several times cheaper than 0-d arrays
    ms, deltas = scan(config, state, signal.tolist() if signal.ndim == 1 else signal)
    return direction_map(config, m=ms, second=deltas)


#: the gates the callers judge these measurements against: the four operator properties are
#: exact up to rounding; decay blindness is an empirical observation about slowly decaying
#: envelopes, not an exact identity; a density witness's response must come this close to its target
PROPERTY_TOL = 1e-12
BLINDNESS_TOL = 0.05
WITNESS_TOL = 1e-6

SCALING_FACTORS = (0.5, 2.0, 10.0)
SIGNAL_LENGTH = 256
TRUNCATIONS_PER_TRIAL = 3


def run_property_checks(
    response: Callable[[np.ndarray], np.ndarray],
    trials: int,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Measure the four operator properties on random Gaussian signals.

    Each trial draws a signal ``g`` of ``SIGNAL_LENGTH`` steps, then
    ``TRUNCATIONS_PER_TRIAL`` cut points ``k``. All trials become columns of
    one ``(SIGNAL_LENGTH, 8 * trials)`` matrix, passed to ``response`` in one
    call: per trial ``g``; ``g`` zeroed after each ``k`` (only steps ``<= k``
    are compared with ``g``'s response, so a response that reads the future
    differs there); ``alpha * g`` for each scaling factor; and ``-g``.
    Returns the violations ``{"causal", "scaling", "odd", "bounded"}``, each
    the maximum over all trials floored at 0; a NaN violation stays NaN.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    # the check's peak, made before any draw: a size that cannot fit fails here at once
    blocks = np.empty((SIGNAL_LENGTH, 2 + TRUNCATIONS_PER_TRIAL + len(SCALING_FACTORS), trials))
    g = blocks[:, 0]
    cuts = np.empty((TRUNCATIONS_PER_TRIAL, trials), dtype=np.int64)
    for i in range(trials):
        g[:, i] = rng.standard_normal(SIGNAL_LENGTH)
        cuts[:, i] = rng.integers(1, SIGNAL_LENGTH, size=TRUNCATIONS_PER_TRIAL)
    steps = np.arange(SIGNAL_LENGTH)[:, None]
    kept = [steps <= k for k in cuts]  # one (SIGNAL_LENGTH, trials) mask per cut
    for j, mask in enumerate(kept, start=1):
        blocks[:, j] = 0.0
        np.copyto(blocks[:, j], g, where=mask)
    for j, alpha in enumerate(SCALING_FACTORS, start=1 + len(kept)):
        np.multiply(alpha, g, out=blocks[:, j])
    np.negative(g, out=blocks[:, -1])
    base, *rest = np.split(response(blocks.reshape(SIGNAL_LENGTH, -1)), blocks.shape[1], axis=1)
    heads, scaled, negated = rest[: len(kept)], rest[len(kept) : -1], rest[-1]
    worst = {
        "causal": max_or_nan(
            *(float(np.max(np.abs(head - base), where=mask, initial=0.0)) for head, mask in zip(heads, kept))
        ),
        "scaling": max_or_nan(*(float(np.max(np.abs(out - base))) for out in scaled)),
        "odd": float(np.max(np.abs(negated + base))),
        "bounded": float(np.max(np.abs(base))) - 1.0,
    }
    return {name: max_or_nan(0.0, value) for name, value in worst.items()}


def check_properties(filt: FilterSpec, trials: int, *, rng: np.random.Generator) -> dict[str, float]:
    """:func:`run_property_checks` applied to a named filter."""
    return run_property_checks(lambda s: filter_response(filt, s), trials=trials, rng=rng)


def decay_blindness(beta: float, spec: SignalSpec) -> tuple[float, int]:
    """``(gap, burn_in)``: the largest gap between responses to the damped and undamped signal after burn-in."""
    filt = FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=beta)
    # two 1-D calls: their Python-float state steps faster than one (T, 2) stack
    damped = filter_response(filt, gen_signal(spec))
    undamped = filter_response(filt, gen_signal(replace(spec, decay=0.0)))
    # capped before rounding up: 2*pi/frequency overflows to inf below about 3.5e-308
    burn_in = math.ceil(min(2.0 * math.pi / spec.frequency, spec.length - 1))
    return float(np.max(np.abs(damped[burn_in:] - undamped[burn_in:]))), burn_in


#: how many bisections a density witness may take
WITNESS_MAX_ITER = 200


def density_witness(target: float, k: int, beta: float) -> tuple[np.ndarray, float]:
    """``(signal, achieved)``: a signal whose step-k response comes nearest ``target``.

    Uses a two-phase family: a constant prefix of k steps followed by one
    free sample, streamed through the equal-beta map from the first sample
    on (``m`` starts at the first sample and ``delta`` at 0), so the response
    is read at step k of a ``k + 1``-sample signal. The prefix is scanned
    once, and each candidate steps only the final sample from its moments.
    Along that family the response is monotone in the final sample, so
    bisection applies, and stops within :data:`WITNESS_TOL`; by oddness,
    negative targets mirror positive ones. A miss is returned, not raised.
    """
    if not -1.0 <= target <= 1.0:
        raise ValueError(f"target must be in [-1, 1], got {target}")
    if k < 1:
        raise ValueError("k must be a positive integer")
    config = FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=beta).optimizer_config()

    sign = -1.0 if target < 0 else 1.0
    goal = abs(target)
    prefix = init_state(config, ())
    prefix.m = sign
    scan(config, prefix, [sign] * (k - 1))

    def response_at_k(t: float) -> float:
        ms, deltas = scan(config, replace(prefix), [sign * t])
        return sign * float(direction_map(config, m=ms, second=deltas)[0])

    # response is nondecreasing on t <= 1: t=1 gives exactly 1, and the
    # momentum zero-crossing t0 gives exactly 0
    lo = -beta / (1.0 - beta) if beta > 0 else 0.0
    hi = 1.0
    f_lo, f_hi = response_at_k(lo), response_at_k(hi)
    best_t, best_val = (lo, f_lo) if abs(f_lo - goal) <= abs(f_hi - goal) else (hi, f_hi)
    # bisect only a bracketed goal; otherwise the nearer endpoint is the answer
    for _ in range(WITNESS_MAX_ITER if f_lo <= goal <= f_hi else 0):
        if abs(best_val - goal) <= WITNESS_TOL:
            break
        mid = (lo + hi) / 2.0
        f_mid = response_at_k(mid)
        if abs(f_mid - goal) < abs(best_val - goal):
            best_t, best_val = mid, f_mid
        if f_mid < goal:
            lo = mid
        else:
            hi = mid
    return sign * np.concatenate([np.ones(k), [best_t]]), sign * best_val
