"""One plain reference stepper: one run, one gradient at a time.

The fast forms of the optimizer recursions (``optim.scan``, the
``quadbench.run_batch`` engine and ``filters.filter_response``) are pinned to
this stepper bit for bit. It writes the math out again without calling any of
the package's step functions:

* the EMA of ``m`` (of ``sign(g)`` for EMA_SIGN) and of ``v`` (of ``g*g``),
  and the equal-beta variance recursion
  ``delta' = b*delta + b*(1-b)*(m_prev - g)^2``; first-sample seeding copies
  the first sample into ``m`` (its square into ``v``) and leaves ``delta``;
* bias correction by ``1 - beta**k`` with Python's ``**``, for the kinds
  with a second moment;
* each kind's direction, with epsilon inside or outside the square root and
  0/0 read as 0, and the variance-term estimate;
* on a quadratic problem, the row draw ``rng.permutation(n)[:b]``, the update
  ``w - lr*d`` and the end rule of a diverging run.

It reuses ``subset_gradient``, ``QuadraticProblem.loss``, ``lr_at`` and
``derive_seed``, which tests pin on their own.
"""
import math

import numpy as np

from adamlab.core import InitMode, lr_at
from adamlab.optim import EpsilonPlacement, OptimizerKind
from adamlab.quadbench import DIVERGENCE_THRESHOLD, RunRecord, derive_seed, subset_gradient

#: the kinds with a second moment, whose moments are bias-corrected and give a variance term
SECOND_MOMENT = (OptimizerKind.RMSPROP, OptimizerKind.ADAM, OptimizerKind.ADAM_EQUAL_BETA)


class Stepper:
    """The moments of one run after each gradient, and the direction they give.

    ``beta1`` and ``beta2`` default to the config's; ``(R, 1)`` columns give
    each row of an ``(R, dim)`` state its own momentum.
    """

    def __init__(self, config, shape=(), beta1=None, beta2=None):
        self.config = config
        self.beta1 = config.beta1 if beta1 is None else beta1
        self.beta2 = config.beta2 if beta2 is None else beta2
        self.m = self.v = self.delta = np.zeros(shape)
        self.step = 0

    def update(self, g) -> None:
        kind, b1, b2 = self.config.kind, self.beta1, self.beta2
        x = np.sign(g) if kind is OptimizerKind.EMA_SIGN else g
        if kind is OptimizerKind.SIGN_SGD:
            pass
        elif self.step == 0 and self.config.init_mode is InitMode.FIRST_SAMPLE:
            self.m = x
            if kind in (OptimizerKind.RMSPROP, OptimizerKind.ADAM):
                self.v = g * g
        else:
            if kind is OptimizerKind.ADAM_EQUAL_BETA:
                diff = self.m - g
                self.delta = b1 * self.delta + b1 * (1.0 - b1) * diff * diff
            self.m = b1 * self.m + (1.0 - b1) * x
            if kind in (OptimizerKind.RMSPROP, OptimizerKind.ADAM):
                self.v = b2 * self.v + (1.0 - b2) * (g * g)
        self.step += 1

    def moments(self):
        """``m`` and the second moment (``delta`` for equal-beta Adam, else ``v``), bias-corrected where configured."""
        config, k = self.config, self.step
        equal_beta = config.kind is OptimizerKind.ADAM_EQUAL_BETA
        m, second = self.m, self.delta if equal_beta else self.v
        if config.bias_correction and config.kind in SECOND_MOMENT:
            p1 = self.beta1**k
            m = m / (1.0 - p1)
            # the corrected variance term is v_hat - m_hat**2
            second = second / (1.0 - p1) - p1 * m * m if equal_beta else second / (1.0 - self.beta2**k)
        return m, second

    def _denominator(self, second):
        if self.config.epsilon_placement is EpsilonPlacement.INSIDE_SQRT:
            return np.sqrt(second + self.config.epsilon)
        return np.sqrt(second) + self.config.epsilon

    def direction(self, g):
        """The direction after the update by ``g``."""
        kind = self.config.kind
        m, second = self.moments()
        if kind in (OptimizerKind.SGD, OptimizerKind.EMA_SIGN):
            return m
        if kind is OptimizerKind.SIGN_SGD:
            return np.sign(g)
        if kind is OptimizerKind.SIGNUM:
            return np.sign(m) if self.config.epsilon == 0.0 else m / self._denominator(m * m)
        if kind is OptimizerKind.ADAM_EQUAL_BETA:
            second = np.maximum(m * m + second, 0.0)
        denominator = self._denominator(second)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denominator > 0, m / denominator, 0.0)

    def variance(self):
        """The variance-term estimate: the corrected ``delta``, or ``v_hat - m_hat**2``, floored at 0."""
        m, second = self.moments()
        return np.maximum(second if self.config.kind is OptimizerKind.ADAM_EQUAL_BETA else second - m * m, 0.0)


def directions(config, signal) -> np.ndarray:
    """The direction after each gradient of ``signal`` (along axis 0), from a zero state."""
    stepper = Stepper(config, np.shape(signal)[1:])
    out = []
    for g in signal:
        stepper.update(g)
        out.append(stepper.direction(g))
    return np.array(out, dtype=float)


def run(problem, spec, steps, batch_size) -> RunRecord:
    """The run of the ``RunSpec`` ``spec`` on ``problem``, recorded as the engine records it."""
    config, lr, w0, seed, config_id = spec
    rng = np.random.default_rng(derive_seed(seed, "batches", config_id))
    stepper = Stepper(config, np.shape(w0))
    track = config.kind in SECOND_MOMENT
    w = np.asarray(w0, dtype=float)
    losses, block_means = [], []
    end = reason = None
    for k in range(steps):
        g = subset_gradient(problem, w, rng.permutation(problem.dim)[:batch_size])
        stepper.update(g)
        w = w - lr_at(k, steps, lr) * stepper.direction(g)
        loss = problem.loss(w)
        if not math.isfinite(loss):
            end, reason = k, "non_finite"
            break
        losses.append(loss)
        if track:
            variance = stepper.variance()
            block_means.append([np.mean(variance[sl]) for sl in problem.block_slices])
        if loss > DIVERGENCE_THRESHOLD:
            end, reason = k, "threshold"
            break
    means = np.reshape(block_means, (-1, len(problem.block_slices))) if track else None
    return RunRecord(config_id, seed, np.array(losses, dtype=float), means, end, reason)
