"""Penalized-likelihood estimator: objective values, closed form, oracle agreement."""
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adamlab import vi
from adamlab.optim import OptimizerConfig, OptimizerKind, scan
from adamlab.vi import (
    MAX_EVALUATIONS,
    GaussianBelief,
    OracleError,
    lambda_beta,
    minimize_scalar,
    objective_batch,
    vi_numeric_oracle,
    vi_objective,
    vi_update,
)


class TestObjective:
    def test_perfect_fit_leaves_log_variance_term(self):
        for s2 in (0.5, 1.0, 4.0):
            prior = GaussianBelief(0.3, 2.0)
            value = vi_objective(prior, GaussianBelief(1.7, s2), g=1.7, lam=0.0)
            assert value == pytest.approx(0.5 * math.log(s2))

    def test_kl_of_identical_gaussians_is_zero(self):
        prior = GaussianBelief(0.4, 1.3)
        g = -2.0
        with_kl = vi_objective(prior, prior, g, lam=1.0)
        without = vi_objective(prior, prior, g, lam=0.0)
        assert with_kl - without == pytest.approx(0.0, abs=1e-15)

    def test_unit_shift_contributes_half(self):
        prior = GaussianBelief(0.0, 1.0)
        candidate = GaussianBelief(1.0, 1.0)
        g = 0.37
        kl_part = vi_objective(prior, candidate, g, 1.0) - vi_objective(prior, candidate, g, 0.0)
        assert kl_part == pytest.approx(0.5)

    def test_nonpositive_candidate_variance_rejected(self):
        prior = GaussianBelief(0.0, 1.0)
        with pytest.raises(ValueError):
            vi_objective(prior, GaussianBelief(0.0, 0.0), 1.0, 1.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(30)
        prior = GaussianBelief(0.5, 0.8)
        means = rng.normal(size=20)
        variances = rng.exponential(size=20) + 0.01
        batch = objective_batch(prior, means, variances, g=1.2, lam=2.0)
        for mean, var, value in zip(means, variances, batch):
            assert value == pytest.approx(
                vi_objective(prior, GaussianBelief(mean, var), 1.2, 2.0)
            )


class TestUpdate:
    def test_hand_value(self):
        # lam=1 puts weight 1/2 on the prior
        out = vi_update(GaussianBelief(0.0, 1.0), g=2.0, lam=1.0)
        assert out.mean == pytest.approx(1.0)
        assert out.variance == pytest.approx(1.5)

    def test_heavy_regularization_pins_the_prior(self):
        prior = GaussianBelief(0.7, 2.0)
        out = vi_update(prior, g=-5.0, lam=1e12)
        assert out.mean == pytest.approx(prior.mean, rel=1e-10)
        assert out.variance == pytest.approx(prior.variance, rel=1e-10)

    def test_zero_innovation_shrinks_variance_only(self):
        prior = GaussianBelief(1.5, 2.0)
        out = vi_update(prior, g=1.5, lam=3.0)
        beta = lambda_beta(3.0)
        assert out.mean == prior.mean
        assert out.variance == pytest.approx(beta * prior.variance)

    def test_variance_stays_positive(self):
        rng = np.random.default_rng(31)
        belief = GaussianBelief(0.0, 1.0)
        for _ in range(200):
            belief = vi_update(belief, float(rng.normal()), lam=9.0)
            assert belief.variance > 0

    def test_zero_variance_prior_allowed(self):
        out = vi_update(GaussianBelief(0.0, 0.0), g=2.0, lam=19.0)
        assert out.variance > 0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            vi_update(GaussianBelief(0.0, 1.0), 1.0, -0.1)


class TestLambdaBetaMap:
    def test_values(self):
        assert lambda_beta(0.0) == 0.0
        assert lambda_beta(1.0) == 0.5
        assert lambda_beta(19.0) == pytest.approx(0.95)

    # the inverse map lam = beta / (1 - beta) is written out: nothing in the package needs it

    def test_inverse(self):
        for beta in (0.0, 0.5, 0.8, 0.95, 0.9875):
            assert lambda_beta(beta / (1.0 - beta)) == pytest.approx(beta, rel=1e-12)

    @given(beta=st.floats(0.0, 0.999))
    def test_lambda_beta_inverts_beta_lambda(self, beta):
        assert lambda_beta(beta / (1.0 - beta)) == pytest.approx(beta, rel=1e-12)

    @given(lam=st.floats(0.0, 1e3))
    def test_beta_lambda_inverts_lambda_beta(self, lam):
        beta = lambda_beta(lam)
        assert beta / (1.0 - beta) == pytest.approx(lam, rel=1e-12)

    def test_domains(self):
        with pytest.raises(ValueError):
            lambda_beta(-1e-9)


class TestOracle:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            prior = GaussianBelief(float(rng.normal(scale=3.0)), float(rng.exponential()) + 1e-3)
            g = float(rng.normal(scale=3.0))
            lam = float(rng.uniform(0.05, 30.0))
            closed = vi_update(prior, g, lam)
            oracle = vi_numeric_oracle(prior, g, lam)
            assert oracle.mean == pytest.approx(closed.mean, abs=1e-4)
            assert oracle.variance == pytest.approx(closed.variance, abs=1e-4)
            gap = vi_objective(prior, closed, g, lam) - vi_objective(prior, oracle, g, lam)
            assert gap <= 1e-8

    def test_symmetric_sample_keeps_mean(self):
        prior = GaussianBelief(0.8, 0.5)
        oracle = vi_numeric_oracle(prior, g=0.8, lam=2.0)
        assert oracle.mean == pytest.approx(0.8, abs=1e-6)

    def test_example_instance(self):
        oracle = vi_numeric_oracle(GaussianBelief(0.0, 1.0), 2.0, 1.0)
        assert oracle.mean == pytest.approx(1.0, abs=1e-4)
        assert oracle.variance == pytest.approx(1.5, abs=1e-4)

    @given(
        prior_mean=st.floats(-1e3, 1e3),
        prior_variance=st.floats(1e-6, 1e6),
        g=st.floats(-1e3, 1e3),
        lam=st.floats(0.0, 1e3, exclude_min=True),
        mean=st.floats(-1e3, 1e3),
        log_variance=st.floats(-60.0, 60.0),
    )
    # a variance, then a variance ratio, whose math.log differs from its np.log in the last bit
    @example(prior_mean=0.0, prior_variance=1.0, g=0.5, lam=1.0, mean=0.25, log_variance=0.13019110286743096)
    @example(prior_mean=0.0, prior_variance=1.139046037490692, g=0.5, lam=1.0, mean=0.25, log_variance=0.0)
    def test_objective_is_vi_objective_bit_for_bit(self, prior_mean, prior_variance, g, lam, mean, log_variance):
        # the searches are stubbed: each search over the mean returns ``mean``, so the search over
        # log(variance) sees objective(mean, exp(log_variance)) as its profile at ``log_variance``
        calls, profiles = [], []

        def search(func, lo, hi, xatol):
            calls.append(func)
            if len(calls) > 1:
                return mean
            profiles.append(func(log_variance))
            return 0.5 * (lo + hi)  # inside the bracket: no widening

        prior = GaussianBelief(prior_mean, prior_variance)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vi, "minimize_scalar", search)
            vi_numeric_oracle(prior, g, lam)
        [value] = profiles
        assert type(value) is float
        assert value.hex() == vi_objective(prior, GaussianBelief(mean, math.exp(log_variance)), g, lam).hex()

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            vi_numeric_oracle(GaussianBelief(0.0, 0.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            vi_numeric_oracle(GaussianBelief(0.0, 1.0), 1.0, 0.0)
        assert issubclass(OracleError, RuntimeError)

    def test_closed_form_not_beaten_by_random_candidates(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            prior = GaussianBelief(float(rng.normal()), float(rng.exponential()) + 0.01)
            g = float(rng.normal(scale=2.0))
            lam = float(rng.uniform(0.1, 10.0))
            closed = vi_update(prior, g, lam)
            best = vi_objective(prior, closed, g, lam)
            spread = abs(prior.mean - g) + 1.0
            means = rng.uniform(prior.mean - 3 * spread, prior.mean + 3 * spread, size=2000)
            variances = closed.variance * np.exp(rng.uniform(-6, 6, size=2000))
            values = objective_batch(prior, means, variances, g, lam)
            assert best <= float(np.min(values)) + 1e-8

    @given(
        prior_mean=st.floats(-8.0, 8.0),
        prior_variance=st.floats(1e-3, 10.0),
        g=st.floats(-8.0, 8.0),
        lam=st.floats(0.05, 20.0),
        mean_width=st.floats(1e-4, 3.0),
        log_variance_width=st.floats(1e-4, math.log(1e3)),
    )
    def test_closed_form_minimizes_objective_on_a_grid_around_it(
        self, prior_mean, prior_variance, g, lam, mean_width, log_variance_width
    ):
        # the ranges `verify --suite vi` draws from; a 33 x 33 grid centred on the
        # closed form, as wide as that suite's candidate cloud or narrow enough to
        # resolve a misplaced optimum
        prior = GaussianBelief(prior_mean, prior_variance)
        closed = vi_update(prior, g, lam)
        offsets = np.linspace(-1.0, 1.0, 33)
        means, variances = np.meshgrid(
            closed.mean + (abs(prior_mean - g) + 1.0) * mean_width * offsets,
            closed.variance * np.exp(log_variance_width * offsets),
        )
        values = objective_batch(prior, means, variances, g, lam)
        assert vi_objective(prior, closed, g, lam) <= float(np.min(values)) + 1e-8


@pytest.fixture(scope="module")
def scipy_bounded():
    """scipy's bounded Brent behind :func:`adamlab.vi.minimize_scalar`'s signature."""
    optimize = pytest.importorskip("scipy.optimize")

    def minimize(func, lo, hi, xatol):
        res = optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        return float(res.x)

    return minimize


def evaluations(minimizer, func, lo, hi, xatol):
    """The minimizer's result and every point it evaluated, as exact hex strings."""
    points = []

    def logged(x):
        points.append(float(x).hex())
        return func(x)

    return float(minimizer(logged, lo, hi, xatol)).hex(), points


class TestBoundedBrentMatchesScipy:
    """The oracle's 1-D search is scipy's bounded method, operation for operation."""

    @given(
        prior_mean=st.floats(-8.0, 8.0),
        prior_variance=st.floats(1e-3, 10.0),
        g=st.floats(-8.0, 8.0),
        lam=st.floats(0.05, 20.0),
    )
    def test_oracle_is_bitwise_the_scipy_oracle(self, scipy_bounded, prior_mean, prior_variance, g, lam):
        # the ranges `verify --suite vi` draws from
        prior = GaussianBelief(prior_mean, prior_variance)
        ours = vi_numeric_oracle(prior, g, lam)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vi, "minimize_scalar", scipy_bounded)
            theirs = vi_numeric_oracle(prior, g, lam)
        assert (ours.mean.hex(), ours.variance.hex()) == (theirs.mean.hex(), theirs.variance.hex())

    @pytest.mark.parametrize(
        "func, lo, hi, xatol",
        [
            (lambda x: x * x, -1.0, 2.0, 1e-300),
            (lambda x: math.sin(1e4 * x), -1.0, 1.0, 1e-12),
            (lambda x: (x - 0.3) ** 4, 0.0, 1.0, 1e-5),
            (lambda x: -x, 0.0, 1.0, 1e-8),
            (lambda x: 5.0, -3.0, 4.0, 1e-6),
        ],
    )
    def test_same_points_evaluated(self, scipy_bounded, func, lo, hi, xatol):
        assert evaluations(minimize_scalar, func, lo, hi, xatol) == evaluations(scipy_bounded, func, lo, hi, xatol)

    def test_stops_at_the_evaluation_cap_where_scipy_does(self, scipy_bounded):
        result, points = evaluations(minimize_scalar, abs, -1.0, 2.0, 0.0)
        assert len(points) == MAX_EVALUATIONS == 500
        assert (result, points) == evaluations(scipy_bounded, abs, -1.0, 2.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="bounds"):
            minimize_scalar(abs, lo, hi, 1e-5)


class TestConsistencyWithOptimizer:
    def test_reproduces_equal_beta_buffers_exactly(self):
        beta = 0.95
        lam = beta / (1.0 - beta)
        grads = np.random.default_rng(34).standard_normal(200)
        config = OptimizerConfig(OptimizerKind.ADAM_EQUAL_BETA, beta1=beta, epsilon=0.0)
        belief = GaussianBelief(0.0, 0.0)
        for g, m, delta in zip(grads, *scan(config, grads)):
            belief = vi_update(belief, float(g), lam)
            assert belief.mean == float(m)
            assert belief.variance == float(delta)
