"""Optimizer direction maps viewed as causal operators on gradient signals.

There is no loss or training here: a fixed scalar signal is streamed through
a direction map (epsilon 0, zero init, no bias correction by default) and the
output sequence is studied. Several signals of one length can be streamed
together as the columns of a ``(T, C)`` array. The whole signal goes through
one ``scan`` of the optimizer's moment recursions (a scalar signal as Python
floats, a ``(T, C)`` signal row by row); the moments the map reads come back
as histories, and ``direction_map`` turns them into the response in one
call. Every operation is elementwise, so every column rounds exactly as it
would alone, step by step through ``direction``. The interesting operator
properties:

1. causality - the output up to step k only depends on the input up to k;
2. invariance to positive rescaling of the whole signal;
3. oddness - negating the input negates the output;
4. bounded sup norm (|d_k| <= 1);
5. density - any value in [-1, 1] is attainable at any step.

The filter runs the real optimizer recursions and map, so there is a single
source of truth for the direction math.
"""
from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .core import InitMode, as_signal, max_or_nan
from .optim import (
    OptimizerConfig,
    OptimizerKind,
    direction,  # unused here; perfbench/tracer.py still wraps adamlab.filters.direction
    direction_map,
    init_state,
    scan,
)


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
    init_mode: InitMode = InitMode.ZERO

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            kind=_OPTIM_KIND[self.kind],
            beta1=self.beta,
            beta2=self.beta,
            epsilon=0.0,
            bias_correction=False,
            init_mode=self.init_mode,
        )


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
    step = np.dtype((float, signal.shape[1:]))  # one history row: a float, or C of them
    delta = None if deltas is None else np.fromiter(deltas, step, len(deltas))
    return direction_map(config, m=np.fromiter(ms, step, len(ms)), delta=delta)


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    max_violation: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class PropertyReport:
    label: str
    trials: int
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


SCALING_FACTORS = (0.5, 2.0, 10.0)
SIGNAL_LENGTH = 256
TRUNCATIONS_PER_TRIAL = 3


def run_property_checks(
    response: Callable[[np.ndarray], np.ndarray],
    trials: int,
    tol: float,
    rng: np.random.Generator,
    label: str = "filter",
) -> PropertyReport:
    """Measure the four operator properties on random Gaussian signals.

    Each trial draws a signal ``g`` of ``SIGNAL_LENGTH`` steps, then
    ``TRUNCATIONS_PER_TRIAL`` cut points ``k``. All trials become columns of
    one ``(SIGNAL_LENGTH, 8 * trials)`` matrix, passed to ``response`` in one
    call: per trial ``g``; ``g`` zeroed after each ``k`` (only steps ``<= k``
    are compared with ``g``'s response, so a response that reads the future
    differs there); ``alpha * g`` for each scaling factor; and ``-g``.
    Violations are aggregated as maxima over all trials and floored at 0; a
    NaN violation stays NaN and fails its check. Failures are reported, never
    raised.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    signals, cuts = [], []
    for _ in range(trials):
        signals.append(rng.standard_normal(SIGNAL_LENGTH))
        cuts.append(rng.integers(1, SIGNAL_LENGTH, size=TRUNCATIONS_PER_TRIAL))
    g = np.stack(signals, axis=1)  # (SIGNAL_LENGTH, trials)
    steps = np.arange(SIGNAL_LENGTH)[:, None]
    kept = [steps <= k for k in np.stack(cuts, axis=1)]  # one (SIGNAL_LENGTH, trials) mask per cut
    truncated = [np.where(mask, g, 0.0) for mask in kept]
    columns = [g, *truncated, *(alpha * g for alpha in SCALING_FACTORS), -g]
    base, *rest = np.split(response(np.concatenate(columns, axis=1)), len(columns), axis=1)
    heads, scaled, negated = rest[: len(kept)], rest[len(kept) : -1], rest[-1]
    worst = {
        "causal": max_or_nan(
            *(float(np.max(np.abs(head - base), where=mask, initial=0.0)) for head, mask in zip(heads, kept))
        ),
        "scaling": max_or_nan(*(float(np.max(np.abs(out - base))) for out in scaled)),
        "odd": float(np.max(np.abs(negated + base))),
        "bounded": float(np.max(np.abs(base))) - 1.0,
    }
    worst = {name: max_or_nan(0.0, value) for name, value in worst.items()}
    checks = tuple(PropertyCheck(name, value, tol, value <= tol) for name, value in worst.items())
    return PropertyReport(label=label, trials=trials, checks=checks)


def check_properties(
    filt: FilterSpec,
    trials: int = 100,
    tol: float = 1e-12,
    *,
    rng: np.random.Generator,
) -> PropertyReport:
    """:func:`run_property_checks` applied to a named filter."""
    return run_property_checks(
        lambda s: filter_response(filt, s),
        trials=trials,
        tol=tol,
        rng=rng,
        label=filt.kind.value,
    )


@dataclass(frozen=True)
class DecayBlindnessReport:
    max_gap: float
    tolerance: float
    burn_in: int
    passed: bool


#: decay blindness is an empirical observation about slowly decaying envelopes, not an exact identity
BLINDNESS_TOL = 0.05


def decay_blindness(beta: float, spec: SignalSpec) -> DecayBlindnessReport:
    """Gap between responses to the damped and undamped signal after burn-in, judged against :data:`BLINDNESS_TOL`."""
    filt = FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=beta)
    # two 1-D calls: their Python-float state steps faster than one (T, 2) stack
    damped = filter_response(filt, gen_signal(spec))
    undamped = filter_response(filt, gen_signal(replace(spec, decay=0.0)))
    # capped before rounding up: 2*pi/frequency overflows to inf below about 3.5e-308
    burn_in = math.ceil(min(2.0 * math.pi / spec.frequency, spec.length - 1))
    gap = float(np.max(np.abs(damped[burn_in:] - undamped[burn_in:])))
    return DecayBlindnessReport(max_gap=gap, tolerance=BLINDNESS_TOL, burn_in=burn_in, passed=gap <= BLINDNESS_TOL)


@dataclass(frozen=True)
class DensityWitness:
    found: bool
    signal: np.ndarray | None
    achieved: float
    target: float
    tolerance: float


#: how close a density witness's response must come to its target, and how many bisections it may take
WITNESS_TOL = 1e-6
WITNESS_MAX_ITER = 200


def density_witness(target: float, k: int, beta: float) -> DensityWitness:
    """Search for a signal whose step-k response is within :data:`WITNESS_TOL` of ``target``.

    Uses a two-phase family: a constant prefix of k steps followed by one
    free sample, under first-sample seeding. Along that family the response
    at step k is monotone in the final sample, so bisection applies; by
    oddness, negative targets mirror positive ones. A miss is reported, not
    raised.
    """
    if not -1.0 <= target <= 1.0:
        raise ValueError(f"target must be in [-1, 1], got {target}")
    if k < 1:
        raise ValueError("k must be a positive integer")
    filt = FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=beta, init_mode=InitMode.FIRST_SAMPLE)

    sign = -1.0 if target < 0 else 1.0
    goal = abs(target)

    def make_signal(t: float) -> np.ndarray:
        return sign * np.concatenate([np.ones(k), [t]])

    def response_at_k(t: float) -> float:
        return sign * float(filter_response(filt, make_signal(t))[k])

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
    return DensityWitness(
        found=abs(best_val - goal) <= WITNESS_TOL,
        signal=make_signal(best_t),
        achieved=sign * best_val,
        target=target,
        tolerance=WITNESS_TOL,
    )
