"""Direction maps: examples, boundedness, symmetry, and the variance-form identity."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from adamlab.optim import (
    EpsilonPlacement,
    OptimizerConfig,
    OptimizerKind,
    advance,
    apply_step,
    array_step,
    delta_estimate,
    direction,
    init_state,
    scan,
)

SIGN_FAMILY = (OptimizerKind.SIGN_SGD, OptimizerKind.SIGNUM, OptimizerKind.EMA_SIGN)


def assert_bitwise(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes(), (got, expected)


GRADIENT_ENTRIES = st.floats(-1e6, 1e6)  # signed zeros and subnormals included
BETAS = st.floats(0.0, 1.0, exclude_max=True)


@given(
    kind=st.sampled_from(OptimizerKind),
    layout=st.sampled_from(["python-float", "0-d", "vector", "batch"]),
    data=st.data(),
)
def test_scan_matches_reference_stepper_bitwise(kind, layout, data):
    """``scan`` over a whole sequence, and ``advance`` step by step, equal the reference stepper bit for bit.

    A scalar state takes a list of Python floats or of 0-d arrays; a vector
    or ``(R, dim)`` state takes the rows of a ``(T, ...)`` array, with
    ``(R, 1)`` momentum columns for a batch, shared by both moments for
    equal-beta Adam. Every step of the ``m`` (and equal-beta ``delta``)
    history that ``scan`` returns is compared, and every state ``advance``
    leaves, then the final states.
    """
    beta1, beta2 = data.draw(BETAS), data.draw(BETAS)
    if kind is OptimizerKind.ADAM_EQUAL_BETA:
        beta2 = beta1
    config = OptimizerConfig(kind, beta1=beta1, beta2=beta2)
    columns = ()
    shape = ()
    if layout == "vector":
        shape = (data.draw(st.integers(1, 4)),)
    elif layout == "batch":
        n_runs = data.draw(st.integers(1, 4))
        shape = (n_runs, data.draw(st.integers(1, 3)))
        column = st.lists(BETAS, min_size=n_runs, max_size=n_runs).map(lambda b: np.array(b)[:, None])
        col1 = np.zeros((n_runs, 1)) if kind is OptimizerKind.RMSPROP else data.draw(column)
        columns = (col1, col1 if kind is OptimizerKind.ADAM_EQUAL_BETA else data.draw(column))
    length = data.draw(st.integers(1, 24))
    # Gaussian noise, where rounding differs between parenthesizations, with drawn entries mixed in
    noise = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((length, *shape))
    drawn = data.draw(arrays(np.float64, noise.shape, elements=GRADIENT_ENTRIES))
    signal = np.where(data.draw(arrays(np.bool_, noise.shape)), drawn, noise)
    if layout == "python-float":
        signal = signal.tolist()
    elif layout == "0-d":
        signal = [np.asarray(g) for g in signal]

    state, stepped = init_state(config, shape, *columns), init_state(config, shape, *columns)
    ref = reference.Stepper(config, shape, *columns)
    ms, deltas = scan(config, state, signal)
    assert (deltas is None) == (kind is not OptimizerKind.ADAM_EQUAL_BETA)
    assert len(ms) == (0 if kind is OptimizerKind.SIGN_SGD else length)
    for k, g in enumerate(signal):
        advance(config, stepped, g)
        ref.update(g)
        if len(ms):
            assert_bitwise(ms[k], ref.m)
        if deltas is not None:
            assert_bitwise(deltas[k], ref.delta)
        assert stepped.step == ref.step
        assert_bitwise(stepped.m, ref.m)
        assert_bitwise(stepped.v, ref.v)
        assert_bitwise(stepped.delta, ref.delta)
    assert state.step == length
    assert_bitwise(state.m, ref.m)
    assert_bitwise(state.v, ref.v)
    assert_bitwise(state.delta, ref.delta)


@given(
    kind=st.sampled_from(OptimizerKind),
    shape=st.sampled_from([(3,), (2, 4)]),
    length=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_and_advance_leave_the_signal_unchanged(kind, shape, length, seed):
    """An array state is stepped in place, and no state array is a row of the signal."""
    beta2 = 0.9 if kind is OptimizerKind.ADAM_EQUAL_BETA else 0.99
    config = OptimizerConfig(kind, beta1=0.9, beta2=beta2)
    rng = np.random.default_rng(seed)
    signal = rng.standard_normal((length, *shape))
    before = signal.copy()
    scanned, stepped = init_state(config, shape), init_state(config, shape)
    scan(config, scanned, signal)
    for g in signal:
        advance(config, stepped, g)
    # steps after the signal would write through any state array that is one of its rows
    for _ in range(2):
        g = rng.standard_normal(shape)
        scan(config, scanned, g[None])
        advance(config, stepped, g)
    assert signal.tobytes() == before.tobytes()


@pytest.mark.parametrize("kind", [OptimizerKind.SGD, OptimizerKind.SIGNUM, OptimizerKind.ADAM_EQUAL_BETA])
def test_python_float_gradients_keep_python_float_state(kind):
    config = OptimizerConfig(kind, beta1=0.9)
    state = init_state(config, ())
    for g in (0.5, -1.25, 3.0, 0.0):
        advance(config, state, g)
        assert type(state.m) is float
        assert type(state.delta) is float


def steps(config, grads):
    """The engine's step as one run: the direction and variance-term estimate after each vector of ``grads``.

    The estimate is ``None`` for a kind without a second moment.
    """
    step, variance = array_step(config, [config.beta1], [config.beta2], len(grads[0]), len(grads))
    for k, g in enumerate(grads):
        d = step(np.reshape(g, (1, -1)), k)[0].copy()
        yield d, None if variance is None else delta_estimate(*variance)[0]


def directions(config, grads) -> np.ndarray:
    """The direction after each gradient of ``grads``, from a zero state."""
    return np.array([d for d, _ in steps(config, grads)])


def test_constant_gradient_gives_unit_direction():
    # from zero moments, bias correction alone restores the gradient's scale
    config = OptimizerConfig(OptimizerKind.ADAM, beta1=0.95, beta2=0.95, epsilon=0.0)
    grads = [np.full(3, 2.7)] * 50
    dirs = directions(config, grads)
    np.testing.assert_allclose(dirs, 1.0, rtol=1e-15)


def test_signsgd_is_elementwise_sign():
    config = OptimizerConfig(OptimizerKind.SIGN_SGD)
    d = directions(config, [np.array([3.0, -2.0, 0.0])])[0]
    np.testing.assert_array_equal(d, [1.0, -1.0, 0.0])


def test_delta_recursion_matches_direct_summation():
    # delta_k must equal beta * ema[(m_{k-1} - g_k)^2] summed from scratch
    rng = np.random.default_rng(9)
    beta = 0.9
    grads = rng.standard_normal(500)
    config = OptimizerConfig(OptimizerKind.ADAM_EQUAL_BETA, beta1=beta, epsilon=0.0)
    state = init_state(config, ())

    m_prev = 0.0
    squared_devs = []
    worst = 0.0
    for g in grads:
        squared_devs.append((m_prev - g) ** 2)
        advance(config, state, g)
        m_prev = float(state.m)
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
    dirs = directions(config, [10.0 * rng.standard_normal(6) for _ in range(200)])
    assert np.max(np.abs(dirs)) <= 1.0


@pytest.mark.parametrize("epsilon", [0.0, 1e-8])
def test_equal_beta_direction_bounded_by_one(epsilon):
    rng = np.random.default_rng(11)
    config = OptimizerConfig(OptimizerKind.ADAM_EQUAL_BETA, beta1=0.95, epsilon=epsilon)
    dirs = directions(config, [rng.standard_normal(4) * 5.0 for _ in range(300)])
    assert np.max(np.abs(dirs)) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "kind",
    [OptimizerKind.ADAM, OptimizerKind.ADAM_EQUAL_BETA, OptimizerKind.SIGNUM, OptimizerKind.SIGN_SGD],
)
def test_positive_scale_invariance_exact_for_power_of_two(kind):
    rng = np.random.default_rng(12)
    grads = [rng.standard_normal(5) for _ in range(100)]
    beta2 = 0.9 if kind in (OptimizerKind.ADAM, OptimizerKind.ADAM_EQUAL_BETA) else None
    config = OptimizerConfig(kind, beta1=0.9, beta2=beta2, epsilon=0.0)
    base = directions(config, grads)
    scaled = directions(config, [2.0 * g for g in grads])
    np.testing.assert_array_equal(base, scaled)
    scaled10 = directions(config, [10.0 * g for g in grads])
    assert np.max(np.abs(scaled10 - base)) <= 1e-12


@pytest.mark.parametrize(
    "kind",
    [OptimizerKind.ADAM, OptimizerKind.ADAM_EQUAL_BETA, OptimizerKind.SIGNUM, OptimizerKind.EMA_SIGN],
)
def test_odd_symmetry_is_exact(kind):
    rng = np.random.default_rng(13)
    grads = [rng.standard_normal(5) for _ in range(100)]
    beta2 = 0.95 if kind in (OptimizerKind.ADAM, OptimizerKind.ADAM_EQUAL_BETA) else None
    config = OptimizerConfig(kind, beta1=0.95, beta2=beta2, epsilon=0.0)
    pos = directions(config, grads)
    neg = directions(config, [-g for g in grads])
    np.testing.assert_array_equal(pos, -neg)


def test_ema_of_sign_differs_from_sign_of_ema():
    # two-step regression pinning the operator-order distinction
    grads = [np.array([3.0]), np.array([-1.0])]
    signum = directions(
        OptimizerConfig(OptimizerKind.SIGNUM, beta1=0.5, epsilon=0.0), grads
    )
    emasign = directions(OptimizerConfig(OptimizerKind.EMA_SIGN, beta1=0.5), grads)
    assert signum[1, 0] == 1.0  # momentum still positive
    assert emasign[1, 0] == pytest.approx(-0.25)  # averaged signs already negative
    assert np.sign(signum[1, 0]) != np.sign(emasign[1, 0])


class TestApplyStep:
    def test_pure_gradient_step(self):
        assert apply_step(np.array([0.0]), np.array([1.0]), 0.5)[0] == pytest.approx(-0.5)

    def test_recovers_sign_descent(self):
        w = np.array([0.3, -0.2])
        sign_step = np.array([1.0, -1.0])
        np.testing.assert_allclose(apply_step(w, sign_step, 0.01), w - 0.01 * sign_step)


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
        # the one direct test of direction, which only perfbench/tracer.py still wraps
        config = OptimizerConfig(OptimizerKind.SGD, beta1=0.9)
        with pytest.raises(ValueError, match="finite"):
            direction(config, init_state(config, (2,)), np.array([1.0, np.nan]))


def test_rmsprop_direction_formula():
    rng = np.random.default_rng(14)
    config = OptimizerConfig(OptimizerKind.RMSPROP, beta2=0.9, epsilon=1e-8)
    grads = [rng.standard_normal(4) for _ in range(20)]
    v = np.zeros(4)
    for k, (g, d) in enumerate(zip(grads, directions(config, grads)), start=1):
        v = 0.9 * v + 0.1 * g * g
        np.testing.assert_allclose(d, g / (np.sqrt(v / (1 - 0.9**k)) + 1e-8), rtol=1e-14)


def test_signum_epsilon_zero_recovers_exact_sign():
    rng = np.random.default_rng(16)
    grads = [rng.standard_normal(4) for _ in range(50)]
    exact = directions(
        OptimizerConfig(OptimizerKind.SIGNUM, beta1=0.9, epsilon=0.0), grads
    )
    molly = directions(
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
    grads = np.array([rng.standard_normal(3) for _ in range(30)])
    ms, _ = scan(config, init_state(config, (3,)), grads)
    np.testing.assert_allclose(directions(config, grads), ms / math.sqrt(eps), rtol=1e-6)


def test_state_advances_exactly_once_per_call():
    config = OptimizerConfig(OptimizerKind.ADAM, beta1=0.9, beta2=0.95)
    state = init_state(config, (2,))
    for expected in range(1, 5):
        advance(config, state, np.ones(2))
        assert state.step == expected


@given(
    beta=st.floats(0.0, 0.999, exclude_max=True),
    placement=st.sampled_from(EpsilonPlacement),
    epsilon=st.sampled_from([0.0, 1e-8]),
    seed=st.integers(0, 2**32 - 1),
    log2_scale=st.integers(-30, 30),
)
def test_equal_beta_adam_matches_variance_form(beta, placement, epsilon, seed, log2_scale):
    """Adam(b, b) and adameq agree on the direction and on ``delta_estimate``.

    The power-of-two scale keeps the stream clear of underflow and overflow,
    so residuals measure the identity. Rounding in ``v_hat - m_hat**2`` is
    of the order of the larger term, so the variance residual is judged
    against the running maximum of ``max(m_hat**2, v_hat)``; the directions
    against the running maximum of ``|d|`` (at least 1).
    """
    kwargs = dict(beta1=beta, beta2=beta, epsilon=epsilon, epsilon_placement=placement)
    adam = OptimizerConfig(OptimizerKind.ADAM, **kwargs)
    eq = OptimizerConfig(OptimizerKind.ADAM_EQUAL_BETA, **kwargs)
    grads = np.random.default_rng(seed).standard_normal((100, 4)) * 2.0**log2_scale
    s_ad = init_state(adam, (4,))
    d_scale, var_scale = 1.0, 0.0
    for k, (g, (d_ad, var_ad), (d_eq, var_eq)) in enumerate(zip(grads, steps(adam, grads), steps(eq, grads)), start=1):
        advance(adam, s_ad, g)
        correction = 1.0 - beta**k
        m_hat, v_hat = s_ad.m / correction, s_ad.v / correction
        d_scale = max(d_scale, float(np.max(np.abs(d_ad))))
        var_scale = max(var_scale, float(np.max(np.maximum(m_hat * m_hat, v_hat))))
        assert np.max(np.abs(d_ad - d_eq)) <= 1e-11 * d_scale, k
        assert np.all(var_ad >= 0) and np.all(var_eq >= 0)
        assert np.max(np.abs(var_ad - var_eq)) <= 1e-12 * var_scale, k
