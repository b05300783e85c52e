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
    _recursion,
    apply_step,
    array_step,
    delta_estimate,
    direction,
    direction_map,
    scan,
)

SIGN_FAMILY = (OptimizerKind.SIGN_SGD, OptimizerKind.SIGNUM, OptimizerKind.EMA_SIGN)


def assert_bitwise(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes(), (got, expected)


GRADIENT_ENTRIES = st.floats(-1e6, 1e6)  # signed zeros and subnormals included
BETAS = st.floats(0.0, 1.0, exclude_max=True)


def reference_moments(kind, ref):
    """The reference stepper's moments in ``scan``'s order: ``m``, then ``v`` or ``delta``, as far as ``kind`` keeps them."""
    if kind is OptimizerKind.SIGN_SGD:
        return ()
    if kind not in reference.SECOND_MOMENT:
        return (ref.m,)
    return ref.m, ref.delta if kind is OptimizerKind.ADAM_EQUAL_BETA else ref.v


def drawn_signal(data, length, shape):
    """Gaussian noise, where rounding differs between parenthesizations, with drawn entries mixed in."""
    noise = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((length, *shape))
    drawn = data.draw(arrays(np.float64, noise.shape, elements=GRADIENT_ENTRIES))
    return np.where(data.draw(arrays(np.bool_, noise.shape)), drawn, noise)


def drawn_betas(kind, data):
    beta1, beta2 = data.draw(BETAS), data.draw(BETAS)
    return beta1, beta1 if kind is OptimizerKind.ADAM_EQUAL_BETA else beta2


@given(
    kind=st.sampled_from(OptimizerKind),
    layout=st.sampled_from(["python-float", "0-d", "vector", "batch"]),
    data=st.data(),
)
def test_scan_matches_reference_stepper_bitwise(kind, layout, data):
    """``scan``'s histories, and the array step with per-row momentum, equal the reference stepper bit for bit.

    A scalar signal is a list of Python floats or of 0-d arrays, and a vector
    one the rows of a ``(T, dim)`` array. A batch is ``(R, dim)`` gradients
    stepped in place by ``_recursion`` (as ``array_step`` does), with
    ``(R, 1)`` momentum columns, shared by both moments for equal-beta Adam.
    Every moment after every step is compared.
    """
    beta1, beta2 = drawn_betas(kind, data)
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
    signal = drawn_signal(data, length, shape)
    if layout == "python-float":
        signal = signal.tolist()
    elif layout == "0-d":
        signal = [np.asarray(g) for g in signal]

    ref = reference.Stepper(config, shape, *columns)
    if layout == "batch":
        moments = np.zeros((len(reference_moments(kind, ref)), *shape))
        recur = _recursion(kind, *columns, shape)
        history = np.empty((length, *moments.shape))
        for k, g in enumerate(signal):
            recur(g, moments, moments)
            history[k] = moments
        histories = tuple(np.moveaxis(history, 1, 0))
    else:
        histories = scan(config, signal)
    assert len(histories) == len(reference_moments(kind, ref))
    for k, g in enumerate(signal):
        ref.update(g)
        for history, expected in zip(histories, reference_moments(kind, ref)):
            assert_bitwise(history[k], expected)


@given(
    kind=st.sampled_from(OptimizerKind),
    layout=st.sampled_from(["python-float", "vector", "columns"]),
    data=st.data(),
)
def test_scan_in_two_pieces_equals_one_scan(kind, layout, data):
    """A scan started from the last rows of an earlier scan continues it bit for bit, and writes neither input.

    The second piece starts from the first piece's last history rows (views
    into its histories for an array signal), and every later step would
    write through a ``start`` or signal row that it aliased.
    """
    config = OptimizerConfig(kind, *drawn_betas(kind, data))
    shape = {"python-float": (), "vector": (data.draw(st.integers(1, 4)),), "columns": (2, 3)}[layout]
    length = data.draw(st.integers(2, 24))
    cut = data.draw(st.integers(1, length - 1))
    signal = drawn_signal(data, length, shape)
    before = signal.copy()
    if layout == "python-float":
        signal = signal.tolist()
    whole = scan(config, signal)
    head = scan(config, signal[:cut])
    start = tuple(history[-1] for history in head)
    start_before = np.array(start).tobytes()
    tail = scan(config, signal[cut:], start)
    assert len(whole) == len(head) == len(tail)
    for w, h, t in zip(whole, head, tail):
        assert_bitwise(w, np.concatenate([h, t]))
    assert np.array(start).tobytes() == start_before
    assert np.array(signal).tobytes() == before.tobytes()


@pytest.mark.parametrize("kind", [OptimizerKind.SGD, OptimizerKind.SIGNUM, OptimizerKind.ADAM_EQUAL_BETA])
def test_python_float_gradients_keep_python_float_state(kind):
    """Python-float moments, such as a scan's last rows as Python floats, continue a Python-float scan exactly."""
    config = OptimizerConfig(kind, beta1=0.9)
    signal = [0.5, -1.25, 3.0, 0.0]
    start = [history[-1].item() for history in scan(config, signal[:2])]
    assert all(type(x) is float for x in start)
    for whole, tail in zip(scan(config, signal), scan(config, signal[2:], start), strict=True):
        assert whole.dtype == np.float64 and whole.shape == (4,)
        assert_bitwise(whole[2:], tail)


@pytest.mark.parametrize("kind", OptimizerKind)
@pytest.mark.parametrize("epsilon", [0.0, 1e-8])
def test_direction_map_takes_0d_moments(kind, epsilon):
    """0-d moments map to the reference stepper's direction, the 0/0 guard's kinds too."""
    config = OptimizerConfig(kind, beta1=0.9, epsilon=epsilon)
    ref = reference.Stepper(config, corrected=False)
    ref.m, ref.v, ref.delta = 0.5, 0.25, 0.25
    g = np.array(-2.0)
    got = direction_map(config, m=np.array(0.5), second=np.array(0.25), g=g)
    assert_bitwise(got, ref.direction(g))
    # a zero root divides 0/0, which reads as 0
    ref.m = ref.v = ref.delta = 0.0
    assert_bitwise(direction_map(config, m=np.array(0.0), second=np.array(0.0), g=g), ref.direction(g))


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
    ms, deltas = scan(config, grads)

    squared_devs = []
    worst = 0.0
    for k, (g, m_prev) in enumerate(zip(grads, [0.0, *ms[:-1]]), start=1):
        squared_devs.append((m_prev - g) ** 2)
        direct = beta * (1.0 - beta) * math.fsum(
            beta ** (k - 1 - j) * s for j, s in enumerate(squared_devs)
        )
        worst = max(worst, abs(float(deltas[k - 1]) - direct))
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
            direction(config, np.array([1.0, np.nan]))


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
    (ms,) = scan(config, grads)
    np.testing.assert_allclose(directions(config, grads), ms / math.sqrt(eps), rtol=1e-6)


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
    moments = zip(*scan(adam, grads))
    d_scale, var_scale = 1.0, 0.0
    for k, ((m, v), (d_ad, var_ad), (d_eq, var_eq)) in enumerate(zip(moments, steps(adam, grads), steps(eq, grads)), start=1):
        correction = 1.0 - beta**k
        m_hat, v_hat = m / correction, v / correction
        d_scale = max(d_scale, float(np.max(np.abs(d_ad))))
        var_scale = max(var_scale, float(np.max(np.maximum(m_hat * m_hat, v_hat))))
        assert np.max(np.abs(d_ad - d_eq)) <= 1e-11 * d_scale, k
        assert np.all(var_ad >= 0) and np.all(var_eq >= 0)
        assert np.max(np.abs(var_ad - var_eq)) <= 1e-12 * var_scale, k
