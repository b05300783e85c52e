"""Direction maps: examples, boundedness, symmetry, and the variance-form identity."""
import math

import numpy as np
import pytest

from adamlab.core import ClipConfig, InitMode, cclip, gclip
from adamlab.optim import (
    EpsilonPlacement,
    OptimizerConfig,
    OptimizerKind,
    apply_step,
    delta_estimate,
    direction,
    init_state,
)

SIGN_FAMILY = (OptimizerKind.SIGN_SGD, OptimizerKind.SIGNUM, OptimizerKind.EMA_SIGN)


def run_directions(config, grads):
    state = init_state(config, grads[0].shape)
    out = []
    for g in grads:
        d, state = direction(config, state, g)
        out.append(d)
    return np.asarray(out), state


def test_constant_gradient_gives_unit_direction():
    config = OptimizerConfig(
        OptimizerKind.ADAM,
        beta1=0.95,
        beta2=0.95,
        epsilon=0.0,
        bias_correction=False,
        init_mode=InitMode.FIRST_SAMPLE,
    )
    grads = [np.full(3, 2.7)] * 50
    dirs, _ = run_directions(config, grads)
    np.testing.assert_allclose(dirs, 1.0, rtol=1e-15)


def test_signsgd_is_elementwise_sign():
    config = OptimizerConfig(OptimizerKind.SIGN_SGD)
    d, _ = direction(config, init_state(config, (3,)), np.array([3.0, -2.0, 0.0]))
    np.testing.assert_array_equal(d, [1.0, -1.0, 0.0])


def test_adam_equals_variance_form_on_shared_stream():
    rng = np.random.default_rng(7)
    grads = [rng.standard_normal(5) for _ in range(1000)]
    kwargs = dict(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
    da, _ = run_directions(OptimizerConfig(OptimizerKind.ADAM, **kwargs), grads)
    de, _ = run_directions(
        OptimizerConfig(OptimizerKind.ADAM_EQUAL_BETA, beta1=0.9, epsilon=0.0, bias_correction=False),
        grads,
    )
    assert np.max(np.abs(da - de)) <= 1e-9


@pytest.mark.parametrize("init_mode", list(InitMode))
def test_variance_form_matches_adam_with_bias_correction(init_mode):
    rng = np.random.default_rng(8)
    grads = [rng.standard_normal(4) for _ in range(300)]
    da, _ = run_directions(
        OptimizerConfig(
            OptimizerKind.ADAM, beta1=0.95, beta2=0.95, epsilon=0.0, init_mode=init_mode
        ),
        grads,
    )
    de, _ = run_directions(
        OptimizerConfig(
            OptimizerKind.ADAM_EQUAL_BETA, beta1=0.95, epsilon=0.0, init_mode=init_mode
        ),
        grads,
    )
    assert np.max(np.abs(da - de)) <= 1e-12


def test_delta_recursion_matches_direct_summation():
    # delta_k must equal beta * ema[(m_{k-1} - g_k)^2] summed from scratch
    rng = np.random.default_rng(9)
    beta = 0.9
    grads = rng.standard_normal(500)
    config = OptimizerConfig(OptimizerKind.ADAM_EQUAL_BETA, beta1=beta, epsilon=0.0, bias_correction=False)
    state = init_state(config, ())

    m_prev = 0.0
    squared_devs = []
    worst = 0.0
    for g in grads:
        squared_devs.append((m_prev - g) ** 2)
        _, state = direction(config, state, g)
        m_prev = float(state.m.value)
        k = len(squared_devs)
        direct = beta * (1.0 - beta) * math.fsum(
            beta ** (k - 1 - j) * s for j, s in enumerate(squared_devs)
        )
        worst = max(worst, abs(float(state.delta) - direct))
    assert worst <= 1e-12


@pytest.mark.parametrize("kind", SIGN_FAMILY)
def test_sign_family_directions_bounded_by_one(kind):
    rng = np.random.default_rng(10)
    config = OptimizerConfig(kind, beta1=0.9, epsilon=0.0)
    dirs, _ = run_directions(config, [10.0 * rng.standard_normal(6) for _ in range(200)])
    assert np.max(np.abs(dirs)) <= 1.0


@pytest.mark.parametrize("init_mode", list(InitMode))
@pytest.mark.parametrize("epsilon", [0.0, 1e-8])
def test_equal_beta_direction_bounded_by_one(init_mode, epsilon):
    rng = np.random.default_rng(11)
    config = OptimizerConfig(
        OptimizerKind.ADAM_EQUAL_BETA,
        beta1=0.95,
        epsilon=epsilon,
        bias_correction=False,
        init_mode=init_mode,
    )
    dirs, _ = run_directions(config, [rng.standard_normal(4) * 5.0 for _ in range(300)])
    assert np.max(np.abs(dirs)) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "kind",
    [OptimizerKind.ADAM, OptimizerKind.ADAM_EQUAL_BETA, OptimizerKind.SIGNUM, OptimizerKind.SIGN_SGD],
)
def test_positive_scale_invariance_exact_for_power_of_two(kind):
    rng = np.random.default_rng(12)
    grads = [rng.standard_normal(5) for _ in range(100)]
    beta2 = 0.9 if kind in (OptimizerKind.ADAM, OptimizerKind.ADAM_EQUAL_BETA) else None
    config = OptimizerConfig(kind, beta1=0.9, beta2=beta2, epsilon=0.0, bias_correction=False)
    base, _ = run_directions(config, grads)
    scaled, _ = run_directions(config, [2.0 * g for g in grads])
    np.testing.assert_array_equal(base, scaled)
    scaled10, _ = run_directions(config, [10.0 * g for g in grads])
    assert np.max(np.abs(scaled10 - base)) <= 1e-12


@pytest.mark.parametrize(
    "kind",
    [OptimizerKind.ADAM, OptimizerKind.ADAM_EQUAL_BETA, OptimizerKind.SIGNUM, OptimizerKind.EMA_SIGN],
)
def test_odd_symmetry_is_exact(kind):
    rng = np.random.default_rng(13)
    grads = [rng.standard_normal(5) for _ in range(100)]
    beta2 = 0.95 if kind in (OptimizerKind.ADAM, OptimizerKind.ADAM_EQUAL_BETA) else None
    config = OptimizerConfig(kind, beta1=0.95, beta2=beta2, epsilon=0.0, bias_correction=False)
    pos, _ = run_directions(config, grads)
    neg, _ = run_directions(config, [-g for g in grads])
    np.testing.assert_array_equal(pos, -neg)


def test_ema_of_sign_differs_from_sign_of_ema():
    # two-step regression pinning the operator-order distinction
    grads = [np.array([3.0]), np.array([-1.0])]
    signum, _ = run_directions(
        OptimizerConfig(OptimizerKind.SIGNUM, beta1=0.5, epsilon=0.0), grads
    )
    emasign, _ = run_directions(OptimizerConfig(OptimizerKind.EMA_SIGN, beta1=0.5), grads)
    assert signum[1, 0] == 1.0  # momentum still positive
    assert emasign[1, 0] == pytest.approx(-0.25)  # averaged signs already negative
    assert np.sign(signum[1, 0]) != np.sign(emasign[1, 0])


class TestApplyStep:
    def test_pure_decay(self):
        assert apply_step(np.array([1.0]), np.array([0.0]), 0.1, 0.1)[0] == pytest.approx(0.99)

    def test_pure_gradient_step(self):
        assert apply_step(np.array([0.0]), np.array([1.0]), 0.5, 0.0)[0] == pytest.approx(-0.5)

    def test_recovers_sign_descent(self):
        w = np.array([0.3, -0.2])
        sign_step = np.array([1.0, -1.0])
        np.testing.assert_allclose(apply_step(w, sign_step, 0.01, 0.0), w - 0.01 * sign_step)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_step(np.zeros(2), np.zeros(3), 0.1, 0.0)


class TestConfigValidation:
    def test_equal_beta_kind_rejects_distinct_betas(self):
        with pytest.raises(ValueError, match="equal-beta"):
            OptimizerConfig(OptimizerKind.ADAM_EQUAL_BETA, beta1=0.9, beta2=0.95)

    def test_rmsprop_forces_zero_momentum(self):
        config = OptimizerConfig(OptimizerKind.RMSPROP, beta1=0.9, beta2=0.95)
        assert config.beta1 == 0.0
        assert config.beta2 == 0.95

    def test_beta2_defaults_to_beta1(self):
        assert OptimizerConfig(OptimizerKind.ADAM, beta1=0.93).beta2 == 0.93

    def test_non_finite_gradient_rejected(self):
        config = OptimizerConfig(OptimizerKind.SGD, beta1=0.9)
        with pytest.raises(ValueError, match="finite"):
            direction(config, init_state(config, (2,)), np.array([1.0, np.nan]))


def test_rmsprop_direction_formula():
    rng = np.random.default_rng(14)
    config = OptimizerConfig(OptimizerKind.RMSPROP, beta2=0.9, epsilon=1e-8, bias_correction=False)
    state = init_state(config, (4,))
    v = np.zeros(4)
    for _ in range(20):
        g = rng.standard_normal(4)
        d, state = direction(config, state, g)
        v = 0.9 * v + 0.1 * g * g
        np.testing.assert_allclose(d, g / (np.sqrt(v) + 1e-8), rtol=1e-14)


def test_gclip_applied_before_momentum():
    config = OptimizerConfig(
        OptimizerKind.SGD, beta1=0.9, clip=ClipConfig(gclip_threshold=1.0)
    )
    state = init_state(config, (2,))
    g = np.array([3.0, 4.0])  # norm 5
    d, state = direction(config, state, g)
    np.testing.assert_allclose(d, 0.1 * gclip(g, 1.0), rtol=1e-15)


def test_cclip_applied_after_momentum():
    config = OptimizerConfig(
        OptimizerKind.SGD, beta1=0.0, clip=ClipConfig(cclip_bound=0.05)
    )
    state = init_state(config, (2,))
    d, _ = direction(config, state, np.array([3.0, -0.01]))
    np.testing.assert_array_equal(d, cclip([3.0, -0.01], 0.05))


def test_emasign_ignores_clipping():
    rng = np.random.default_rng(15)
    grads = [5.0 * rng.standard_normal(3) for _ in range(50)]
    plain, _ = run_directions(OptimizerConfig(OptimizerKind.EMA_SIGN, beta1=0.9), grads)
    clipped, _ = run_directions(
        OptimizerConfig(
            OptimizerKind.EMA_SIGN, beta1=0.9, clip=ClipConfig(gclip_threshold=1.0)
        ),
        grads,
    )
    np.testing.assert_array_equal(plain, clipped)


def test_signum_epsilon_zero_recovers_exact_sign():
    rng = np.random.default_rng(16)
    grads = [rng.standard_normal(4) for _ in range(50)]
    exact, _ = run_directions(
        OptimizerConfig(OptimizerKind.SIGNUM, beta1=0.9, epsilon=0.0), grads
    )
    molly, _ = run_directions(
        OptimizerConfig(OptimizerKind.SIGNUM, beta1=0.9, epsilon=1e-300), grads
    )
    assert np.all(np.abs(exact) <= 1.0)
    assert set(np.unique(exact)) <= {-1.0, 0.0, 1.0}
    np.testing.assert_allclose(molly, exact, atol=1e-12)


def test_signum_large_epsilon_approaches_rescaled_momentum():
    rng = np.random.default_rng(17)
    eps = 1e8
    config = OptimizerConfig(OptimizerKind.SIGNUM, beta1=0.9, epsilon=eps,
                             epsilon_placement=EpsilonPlacement.INSIDE_SQRT)
    state = init_state(config, (3,))
    for _ in range(30):
        g = rng.standard_normal(3)
        d, state = direction(config, state, g)
        np.testing.assert_allclose(d, state.m.value / math.sqrt(eps), rtol=1e-6)


def test_state_advances_exactly_once_per_call():
    config = OptimizerConfig(OptimizerKind.ADAM, beta1=0.9, beta2=0.95)
    state = init_state(config, (2,))
    for expected in range(1, 5):
        _, state = direction(config, state, np.ones(2))
        assert state.step == expected
        assert state.m.step == expected
        assert state.v.step == expected


def test_delta_estimate_nonnegative_and_consistent():
    rng = np.random.default_rng(18)
    eq = OptimizerConfig(OptimizerKind.ADAM_EQUAL_BETA, beta1=0.9, epsilon=0.0, bias_correction=False)
    ad = OptimizerConfig(OptimizerKind.ADAM, beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
    s_eq, s_ad = init_state(eq, (3,)), init_state(ad, (3,))
    for _ in range(100):
        g = rng.standard_normal(3)
        _, s_eq = direction(eq, s_eq, g)
        _, s_ad = direction(ad, s_ad, g)
        d_eq = delta_estimate(eq, s_eq)
        d_ad = delta_estimate(ad, s_ad)
        assert np.all(d_eq >= 0) and np.all(d_ad >= 0)
        np.testing.assert_allclose(d_ad, d_eq, atol=1e-12)
    assert delta_estimate(OptimizerConfig(OptimizerKind.SGD), init_state(eq, (3,))) is None

