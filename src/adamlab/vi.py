"""Online Gaussian mean/variance tracking as regularized maximum likelihood.

Each incoming gradient sample ``g`` updates a belief ``N(mean, variance)``
by minimizing

    -log p(g | m, s2)  +  lam * KL( N(mean_k, var_k) || N(m, s2) )

over ``(m, s2)``. The closed-form minimizer is exactly the pair of
recursions used by the equal-beta optimizer,

    mean'     = beta * mean + (1 - beta) * g
    variance' = beta * variance + beta * (1 - beta) * (mean - g)^2

where ``beta = lam / (1 + lam)`` is the share of the new belief kept from
the prior: heavier regularization (larger ``lam``) means a stickier belief,
i.e. a larger momentum parameter. ``lam = beta / (1 - beta)`` inverts the
map when a target momentum is given.

A derivative-free nested bracketing minimizer is provided as an independent
oracle for the closed form; it never touches it. Its 1-D searches are bounded
Brent minimizations (:func:`minimize_scalar`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


#: evaluation cap of one bounded search, as in the classic ``fminbound``
MAX_EVALUATIONS = 500
#: relative tolerance of the oracle's inner search over the mean
ORACLE_TOL = 1e-7
#: how often the oracle widens its log-variance bracket before giving up
ORACLE_WIDENINGS = 6
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(x: float) -> float:
    """The sign of ``x``, taking 0 as positive."""
    return 1.0 if x >= 0 else -1.0


def minimize_scalar(func, lo: float, hi: float, xatol: float) -> float:
    """Brent's bounded minimization of ``func`` on ``[lo, hi]``; returns the best point.

    Golden-section steps with parabolic interpolation when it is safe, stopping
    once the bracket around the best point is within ``xatol`` plus a relative
    term, or after :data:`MAX_EVALUATIONS` evaluations. The operations and
    their order are those of the widely used ``fminbound`` port of Brent's
    algorithm, so it evaluates the same points and returns the same bits; the
    tests pin this.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"bounds must be finite with lo <= hi, got ({lo}, {hi})")
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                parabolic = True
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
        if not parabolic:  # golden-section step into the larger side
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= MAX_EVALUATIONS:
            break
    return xf


class OracleError(RuntimeError):
    """The numeric minimizer could not bracket the optimum."""


@dataclass(frozen=True)
class GaussianBelief:
    """Current estimate of the gradient distribution.

    ``variance == 0`` is tolerated only as a starting state (mirroring a
    zero-initialized variance buffer); the objective itself requires strictly
    positive variances.
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("belief parameters must be finite")
        if self.variance < 0:
            raise ValueError(f"variance must be nonnegative, got {self.variance}")


def _nll(g, mean, variance):
    return 0.5 * np.log(variance) + (g - mean) ** 2 / (2.0 * variance)


def _kl(prior: GaussianBelief, mean, variance):
    ratio = prior.variance / variance
    return 0.5 * (ratio + (prior.mean - mean) ** 2 / variance - 1.0 - np.log(ratio))


def vi_objective(
    prior: GaussianBelief, candidate: GaussianBelief, g: float, lam: float
) -> float:
    """Penalized negative log-likelihood of ``candidate`` for the sample ``g``."""
    if candidate.variance <= 0:
        raise ValueError("candidate variance must be strictly positive")
    if prior.variance <= 0:
        raise ValueError("prior variance must be strictly positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    nll = _nll(g, candidate.mean, candidate.variance)
    return float(nll + lam * _kl(prior, candidate.mean, candidate.variance))


def objective_batch(prior: GaussianBelief, means, variances, g: float, lam: float):
    """Vectorized :func:`vi_objective` over candidate arrays (same formula)."""
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if np.any(variances <= 0):
        raise ValueError("candidate variances must be strictly positive")
    if prior.variance <= 0:
        raise ValueError("prior variance must be strictly positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return _nll(g, means, variances) + lam * _kl(prior, means, variances)


def lambda_beta(lam: float) -> float:
    """Momentum induced by the regularization weight: ``lam / (1 + lam)``.

    The minimizer of the penalized likelihood keeps this fraction of the
    prior, so ``lam -> inf`` pins the previous belief (``beta -> 1``) while
    ``lam = 0`` discards it. Inverse map: ``lam = beta / (1 - beta)``.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return lam / (1.0 + lam)


def vi_update(prior: GaussianBelief, g: float, lam: float) -> GaussianBelief:
    """Closed-form minimizer of the penalized likelihood.

    Accepts ``variance == 0`` priors (the update immediately produces a
    nonnegative variance). ``lam == 0`` is the unregularized limit: the mean
    snaps to the sample and the variance collapses to 0 (the objective's
    infimum is approached, not attained, there).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    beta = lambda_beta(lam)
    g = float(g)
    mean = beta * prior.mean + (1.0 - beta) * g
    diff = prior.mean - g
    variance = beta * prior.variance + beta * (1.0 - beta) * diff * diff
    return GaussianBelief(mean=mean, variance=variance)


def vi_numeric_oracle(prior: GaussianBelief, g: float, lam: float) -> GaussianBelief:
    """Minimize the objective by nested bracketed 1-D searches.

    Outer bounded search over ``log(variance)`` (widened by 20 on a bracket hit,
    at most :data:`ORACLE_WIDENINGS` times), inner bounded search over the mean
    to :data:`ORACLE_TOL` relative to the bracket's magnitude, both evaluating
    :func:`vi_objective` bit for bit on Python floats. No closed-form
    shortcuts; raises :class:`OracleError` if no finite bracket is found.
    """
    if prior.variance <= 0:
        raise ValueError("oracle needs a strictly positive prior variance")
    if lam <= 0:
        raise ValueError("oracle needs lam > 0 (the problem is degenerate at 0)")
    g, lam, prior_mean, prior_variance = float(g), float(lam), prior.mean, prior.variance

    spread = abs(prior.mean - g)
    m_lo = min(prior.mean, g) - 0.5 * spread - 1.0
    m_hi = max(prior.mean, g) + 0.5 * spread + 1.0
    m_atol = ORACLE_TOL * max(1.0, abs(m_lo), abs(m_hi)) * 1e-2

    def objective_at(variance: float):
        """The objective as a function of the mean: its terms in ``variance`` alone are taken once per search."""
        # _nll + lam * _kl; each np.log is taken as a float (math.log differs from it in the last bit for some arguments)
        half_log, twice, ratio = 0.5 * float(np.log(variance)), 2.0 * variance, prior_variance / variance
        log_ratio = float(np.log(ratio))

        def objective(mean: float) -> float:
            nll = half_log + (g - mean) ** 2 / twice
            return nll + lam * (0.5 * (ratio + (prior_mean - mean) ** 2 / variance - 1.0 - log_ratio))

        return objective

    def profile(log_var: float) -> float:
        objective = objective_at(math.exp(log_var))
        return objective(minimize_scalar(objective, m_lo, m_hi, m_atol))

    scale = prior.variance + spread * spread + 1e-30
    lo = math.log(scale) - 30.0
    hi = math.log(scale) + 5.0
    for _ in range(ORACLE_WIDENINGS):
        log_var = minimize_scalar(profile, lo, hi, 1e-12)
        edge = 1e-6 * (hi - lo)
        if log_var - lo < edge:
            lo -= 20.0
        elif hi - log_var < edge:
            hi += 20.0
        else:
            variance = math.exp(log_var)
            return GaussianBelief(mean=minimize_scalar(objective_at(variance), m_lo, m_hi, m_atol), variance=variance)
    raise OracleError(
        f"bracket exhausted after {ORACLE_WIDENINGS} widenings "
        f"(prior={prior}, g={g}, lam={lam})"
    )
